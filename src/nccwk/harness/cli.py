"""Command line interface.

Subcommands: scenario, search, ktheory (complex | ideal), classify, limit,
coeff, order.  Exit code 0 means every check performed by the invocation
passed; validation problems and failed checks exit nonzero; a stdout closed
by its reader (`nccwk search | head -1`) ends the command quietly with 1.

A call builds one parser, for its own subcommand (COMMANDS), and hands
any other argv to the full parser.  A command prints nothing until it has
every result, so a call that fails leaves stdout empty.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..nccw import (
    classify_block,
    ideal_complex,
    k_theory,
    make_ideal_spec,
    quotient_complex,
)
from ..homind import LimitElement, divisible_in_limit, identify_localized_limit, truncate
from ..order import eventual_dominates, verify_perforation_witness
from ..coeff import mod_n
from .inputfmt import InputError, parse
from .report import render_report
from .scenarios import SCENARIOS, run_scenario
from .search import DEFAULT_BOUNDS, SearchBounds, census_lines, search_odd_blocks


def _load(path: str):
    try:
        with open(path) as fh:
            return parse(fh.read())
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except InputError as exc:
        raise SystemExit(f"{path}:{exc}")


def _pick(names, requested, what, query_hint=None, flag="--name"):
    if requested is not None:
        if requested not in names:
            raise SystemExit(f"error: no {what} named {requested!r}; available: {', '.join(names)}")
        return requested
    if query_hint is not None and query_hint in names:
        return query_hint
    if len(names) == 1:
        return names[0]
    if not names:
        raise SystemExit(f"error: the document declares no {what}")
    plural = what + ("es" if what.endswith("x") else "s")
    raise SystemExit(f"error: several {plural} declared ({', '.join(names)}); pick one with {flag}")


def _query_hint(doc, kinds, key="target"):
    """The `key` of the first query whose kind is one of `kinds`, the modes
    this call runs."""
    for q in doc.queries:
        if q.kind in kinds:
            return q.get(key)
    return None


def _vector(text: str):
    try:
        return tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise SystemExit(f"error: expected a comma-separated integer vector, got {text!r}")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SystemExit(f"error: expected an integer, got {text!r}")


def cmd_scenario(args) -> int:
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    ok = True
    for name in names:
        if name not in SCENARIOS:
            raise SystemExit(f"error: unknown scenario {name!r}; "
                             f"available: {', '.join(sorted(SCENARIOS))} or 'all'")
        report = run_scenario(name)
        print(render_report(report, args.format))
        print()
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_search(args) -> int:
    bounds = SearchBounds(args.max_p, args.max_l, args.max_mult, args.max_size)
    blocks = search_odd_blocks(*(getattr(bounds, name) for name in SearchBounds.BOUNDS))
    print(f"odd blocks with {bounds}: {len(blocks)}")
    for line in census_lines(blocks):
        print(line)
    return 0


def cmd_ktheory(args) -> int:
    doc = _load(args.file)
    kind = "ktheory" if args.what == "complex" else "ideal"
    name = _pick(doc.complex_names(), args.name, "complex", _query_hint(doc, (kind,)))
    cx = doc.get_complex(name)
    if args.what == "complex":
        kd = k_theory(cx.delta)
        print(f"{name}: {cx}")
        print(f"  K_0 = {kd.k0}   (kernel basis columns: {kd.k0_basis})")
        print(f"  K_1 = {kd.k1}")
        return 0
    summands = _vector(args.summands)
    spec = make_ideal_spec(cx, [j - 1 for j in summands])
    ideal = ideal_complex(cx, spec)
    quot = quotient_complex(cx, spec)
    kd_i, kd_q = k_theory(ideal.delta), k_theory(quot.delta)
    print(f"{name}: ideal over points {[j + 1 for j in spec.S]}, "
          f"interval blocks {[i + 1 for i in spec.T]}")
    print(f"  ideal    {ideal}: K_0 = {kd_i.k0}, K_1 = {kd_i.k1}")
    print(f"  quotient {quot}: K_0 = {kd_q.k0}, K_1 = {kd_q.k1}")
    return 0


def cmd_classify(args) -> int:
    doc = _load(args.file)
    name = _pick(doc.complex_names(), args.name, "complex", _query_hint(doc, ("classify",)))
    cls = classify_block(doc.get_complex(name))
    print(f"{name}: {cls}")
    return 0


def cmd_limit(args) -> int:
    doc = _load(args.file)
    modes = [kind for kind, on in (("stages", args.stages is not None), ("identify", args.identify),
                                   ("divisible", args.divisible is not None)) if on]
    if not modes:
        raise SystemExit("error: choose --stages N, --identify, or --divisible G N")
    names = [n for n, _ in doc.systems]
    name = _pick(names, args.system, "system", _query_hint(doc, modes, "system"), flag="--system")
    sys_obj = doc.system_object(name)
    if args.divisible is not None:
        vec, n = _vector(args.divisible[0]), _integer(args.divisible[1])
    # every result before the first line, so a failing call prints none
    if args.stages is not None:
        tr = truncate(sys_obj, args.stages)
    if args.identify:
        ident = identify_localized_limit(sys_obj)
    if args.divisible is not None:
        stage = divisible_in_limit(sys_obj, LimitElement(0, vec), n, args.bound)
    if args.stages is not None:
        print(f"{name}: stages 0..{args.stages}")
        for k, g in enumerate(tr.groups):
            print(f"  stage {k}: {g}")
        for k, hom in enumerate(tr.bondings):
            print(f"  bonding {k} -> {k + 1}: {hom.matrix}")
    if args.identify:
        if ident is None:
            print(f"{name}: unidentified (pattern not detected)")
            return 1
        print(f"{name}: limit = {ident.describe()}  "
              f"(diagonal {list(ident.diagonal)}, from stage {ident.stage})")
    if args.divisible is not None:
        if stage is None:
            print(f"{name}: {vec} is not divisible by {n} within {args.bound} stages")
        else:
            print(f"{name}: {vec} becomes divisible by {n} at stage {stage}")
    return 0


def cmd_coeff(args) -> int:
    doc = _load(args.file)
    name = _pick(doc.complex_names(), args.name, "complex", _query_hint(doc, ("coeff",)))
    kd = k_theory(doc.get_complex(name).delta)
    moduli = [_integer(x) for x in args.n.split(",")]
    tables = [(n, mod_n(kd.k0, kd.k1, n)) for n in moduli]
    print(f"{name}: K_0 = {kd.k0}, K_1 = {kd.k1}")
    for n, md in tables:
        print(f"  mod {n}: K_0(;Z_{n}) = {md.k0n}   K_1(;Z_{n}) = {md.k1n}")
    return 0


def cmd_order(args) -> int:
    doc = _load(args.file)
    names = [n for n, s in doc.systems if s.degree == 0]
    kind = "dominates" if args.dominates is not None else "perforation-witness"
    name = _pick(names, args.system, "degree-0 system",
                 _query_hint(doc, (kind,), "system"), flag="--system")
    sys_obj = doc.system_object(name)
    if args.dominates is not None:
        u, v = _vector(args.dominates[0]), _vector(args.dominates[1])
        stage = eventual_dominates(sys_obj, u, v, args.bound)
        if stage is None:
            print(f"{name}: {u} >= {v} fails through stage {args.bound}")
            return 1
        print(f"{name}: {u} >= {v} first holds at stage {stage}")
        return 0
    if args.perforation_witness is not None:
        g = _vector(args.perforation_witness[0])
        n = _integer(args.perforation_witness[1])
        ok = verify_perforation_witness(sys_obj.cone_membership(args.stage), g, n)
        print(f"{name}: stage {args.stage} witness {g} with n = {n}: "
              f"{'confirmed' if ok else 'not a witness'}")
        return 0 if ok else 1
    raise SystemExit("error: choose --dominates U V or --perforation-witness G N")


def _scenario_arguments(p):
    p.add_argument("name", help=f"one of {', '.join(sorted(SCENARIOS))}, or 'all'")
    p.add_argument("--format", choices=("text", "json-like"), default="text")


def _search_arguments(p):
    for name in SearchBounds.BOUNDS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(DEFAULT_BOUNDS, name))


def _ktheory_arguments(p):
    p.add_argument("what", choices=("complex", "ideal"))
    p.add_argument("file")
    p.add_argument("--name", help="complex name if the document has several")
    p.add_argument("--summands", help="1-based point indices of the ideal, like 3 or 3,4")


def _classify_arguments(p):
    p.add_argument("file")
    p.add_argument("--name")


def _limit_arguments(p):
    p.add_argument("file")
    p.add_argument("--system")
    p.add_argument("--stages", type=int)
    p.add_argument("--identify", action="store_true")
    p.add_argument("--divisible", nargs=2, metavar=("G", "N"))
    p.add_argument("--bound", type=int, default=8)


def _coeff_arguments(p):
    p.add_argument("file")
    p.add_argument("--n", required=True, help="comma separated moduli, like 2,3,4")
    p.add_argument("--name")


def _order_arguments(p):
    p.add_argument("file")
    p.add_argument("--system")
    p.add_argument("--dominates", nargs=2, metavar=("U", "V"))
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--perforation-witness", nargs=2, metavar=("G", "N"))
    p.add_argument("--stage", type=int, default=0)


# name -> (help, argument adder, handler), in the order `nccwk --help` lists them
COMMANDS = {
    "scenario": ("run a built-in verification scenario", _scenario_arguments, cmd_scenario),
    "search": ("census of small odd blocks", _search_arguments, cmd_search),
    "ktheory": ("K-groups of a complex or of one of its ideals", _ktheory_arguments, cmd_ktheory),
    "classify": ("nice / odd / other classification", _classify_arguments, cmd_classify),
    "limit": ("truncate, identify, or probe an inductive system", _limit_arguments, cmd_limit),
    "coeff": ("mod-n coefficient table of a complex", _coeff_arguments, cmd_coeff),
    "order": ("order comparisons along a degree-0 system", _order_arguments, cmd_order),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The nccwk parser with every subcommand, or with `command`'s alone."""
    ap = argparse.ArgumentParser(
        prog="nccwk",
        description="exact K-theory calculator for 1-dimensional NCCW complexes")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(fn=handler)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    rest = True
    if argv and argv[0] in COMMANDS:
        # a subcommand's own help and errors read the same from either
        # parser; leftovers go to the full one, whose usage lists every command
        args, rest = build_parser(argv[0]).parse_known_args(argv)
    if rest:
        args = build_parser().parse_args(argv)
    if getattr(args, "what", None) == "ideal" and not getattr(args, "summands", None):
        raise SystemExit("error: ktheory ideal needs --summands")
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:
        # the reader left: the flush at exit goes to devnull (signal docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
