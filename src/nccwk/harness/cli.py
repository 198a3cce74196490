"""Command line interface.

Subcommands: scenario, search, ktheory (complex | ideal), classify, limit,
coeff, order.  Exit code 0 means every check performed by the invocation
passed; validation problems and failed checks exit nonzero.
"""

from __future__ import annotations

import argparse
import sys

from ..nccw import (
    classify_block,
    ideal_complex,
    k_theory,
    make_ideal_spec,
    quotient_complex,
)
from ..homind import LimitElement, divisible_in_limit, identify_localized_limit, truncate
from ..order import ConeOracle, eventual_dominates, verify_perforation_witness
from ..coeff import mod_n
from .inputfmt import InputError, parse
from .report import render_report
from .scenarios import SCENARIOS, run_scenario
from .search import census_lines, search_odd_blocks


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
    raise SystemExit(f"error: several {what}s declared ({', '.join(names)}); pick one with {flag}")


def _query_hint(doc, kind, key="target"):
    for q in doc.queries:
        if q.kind == kind:
            return q.get(key)
    return None


def _vector(text: str):
    try:
        return tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise SystemExit(f"error: expected a comma-separated integer vector, got {text!r}")


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
    blocks = search_odd_blocks(args.max_p, args.max_l, args.max_mult, args.max_size,
                               jobs=args.jobs)
    print(f"odd blocks with p <= {args.max_p}, l <= {args.max_l}, "
          f"multiplicities <= {args.max_mult}, point sizes <= {args.max_size}: {len(blocks)}")
    for line in census_lines(blocks):
        print(line)
    return 0


def cmd_ktheory(args) -> int:
    doc = _load(args.file)
    name = _pick(doc.complex_names(), args.name, "complex", _query_hint(doc, "ktheory"))
    cx = doc.get_complex(name)
    if args.what == "complex":
        kd = k_theory(cx)
        print(f"{name}: {cx}")
        print(f"  K_0 = {kd.k0}   (kernel basis columns: {kd.k0_basis})")
        print(f"  K_1 = {kd.k1}")
        return 0
    summands = _vector(args.summands)
    spec = make_ideal_spec(cx, [j - 1 for j in summands])
    ideal = ideal_complex(cx, spec)
    quot = quotient_complex(cx, spec)
    kd_i, kd_q = k_theory(ideal), k_theory(quot)
    print(f"{name}: ideal over points {[j + 1 for j in spec.S]}, "
          f"interval blocks {[i + 1 for i in spec.T]}")
    print(f"  ideal    {ideal}: K_0 = {kd_i.k0}, K_1 = {kd_i.k1}")
    print(f"  quotient {quot}: K_0 = {kd_q.k0}, K_1 = {kd_q.k1}")
    return 0


def cmd_classify(args) -> int:
    doc = _load(args.file)
    name = _pick(doc.complex_names(), args.name, "complex", _query_hint(doc, "classify"))
    cls = classify_block(doc.get_complex(name))
    print(f"{name}: {cls}")
    return 0


def cmd_limit(args) -> int:
    doc = _load(args.file)
    names = [n for n, _ in doc.systems]
    name = _pick(names, args.system, "system", _query_hint(doc, "identify", "system"),
                 flag="--system")
    sys_obj = doc.system_object(name)
    did_anything = False
    if args.stages is not None:
        tr = truncate(sys_obj, args.stages)
        print(f"{name}: stages 0..{args.stages}")
        for n, g in enumerate(tr.groups):
            print(f"  stage {n}: {g}")
        for n, hom in enumerate(tr.bondings):
            print(f"  bonding {n} -> {n + 1}: {hom.matrix}")
        did_anything = True
    if args.identify:
        ident = identify_localized_limit(sys_obj)
        if ident is None:
            print(f"{name}: unidentified (pattern not detected)")
            return 1
        print(f"{name}: limit = {ident.describe()}  "
              f"(diagonal {list(ident.diagonal)}, from stage {ident.stage})")
        did_anything = True
    if args.divisible is not None:
        vec = _vector(args.divisible[0])
        n = int(args.divisible[1])
        stage = divisible_in_limit(sys_obj, LimitElement(0, vec), n, args.bound)
        if stage is None:
            print(f"{name}: {vec} is not divisible by {n} within {args.bound} stages")
        else:
            print(f"{name}: {vec} becomes divisible by {n} at stage {stage}")
        did_anything = True
    if not did_anything:
        raise SystemExit("error: choose --stages N, --identify, or --divisible G N")
    return 0


def cmd_coeff(args) -> int:
    doc = _load(args.file)
    name = _pick(doc.complex_names(), args.name, "complex", _query_hint(doc, "coeff"))
    kd = k_theory(doc.get_complex(name))
    moduli = [int(x) for x in args.n.split(",")]
    print(f"{name}: K_0 = {kd.k0}, K_1 = {kd.k1}")
    for n in moduli:
        md = mod_n(kd.k0, kd.k1, n)
        print(f"  mod {n}: K_0(;Z_{n}) = {md.k0n}   K_1(;Z_{n}) = {md.k1n}")
    return 0


def cmd_order(args) -> int:
    doc = _load(args.file)
    names = [n for n, s in doc.systems if s.degree == 0]
    name = _pick(names, args.system, "degree-0 system",
                 _query_hint(doc, "dominates", "system"), flag="--system")
    sys_spec = doc.get_system(name)
    if sys_spec.degree != 0:
        raise SystemExit("error: order comparisons live on a degree-0 system")
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
        n = int(args.perforation_witness[1])
        cone = ConeOracle(sys_obj.cone_membership(args.stage))
        ok = verify_perforation_witness(cone, g, n)
        print(f"{name}: stage {args.stage} witness {g} with n = {n}: "
              f"{'confirmed' if ok else 'not a witness'}")
        return 0 if ok else 1
    raise SystemExit("error: choose --dominates U V or --perforation-witness G N")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nccwk",
        description="exact K-theory calculator for 1-dimensional NCCW complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a built-in verification scenario")
    sc.add_argument("name", help=f"one of {', '.join(sorted(SCENARIOS))}, or 'all'")
    sc.add_argument("--format", choices=("text", "json-like"), default="text")
    sc.set_defaults(fn=cmd_scenario)

    se = sub.add_parser("search", help="census of small odd blocks")
    se.add_argument("--max-p", type=int, default=3)
    se.add_argument("--max-l", type=int, default=2)
    se.add_argument("--max-mult", type=int, default=2)
    se.add_argument("--max-size", type=int, default=1)
    se.add_argument("--jobs", type=int, default=1)
    se.set_defaults(fn=cmd_search)

    kt = sub.add_parser("ktheory", help="K-groups of a complex or of one of its ideals")
    kt.add_argument("what", choices=("complex", "ideal"))
    kt.add_argument("file")
    kt.add_argument("--name", help="complex name if the document has several")
    kt.add_argument("--summands", help="1-based point indices of the ideal, like 3 or 3,4")
    kt.set_defaults(fn=cmd_ktheory)

    cl = sub.add_parser("classify", help="nice / odd / other classification")
    cl.add_argument("file")
    cl.add_argument("--name")
    cl.set_defaults(fn=cmd_classify)

    li = sub.add_parser("limit", help="truncate, identify, or probe an inductive system")
    li.add_argument("file")
    li.add_argument("--system")
    li.add_argument("--stages", type=int)
    li.add_argument("--identify", action="store_true")
    li.add_argument("--divisible", nargs=2, metavar=("G", "N"))
    li.add_argument("--bound", type=int, default=8)
    li.set_defaults(fn=cmd_limit)

    co = sub.add_parser("coeff", help="mod-n coefficient table of a complex")
    co.add_argument("file")
    co.add_argument("--n", required=True, help="comma separated moduli, like 2,3,4")
    co.add_argument("--name")
    co.set_defaults(fn=cmd_coeff)

    od = sub.add_parser("order", help="order comparisons along a degree-0 system")
    od.add_argument("file")
    od.add_argument("--system")
    od.add_argument("--dominates", nargs=2, metavar=("U", "V"))
    od.add_argument("--bound", type=int, default=8)
    od.add_argument("--perforation-witness", nargs=2, metavar=("G", "N"))
    od.add_argument("--stage", type=int, default=0)
    od.set_defaults(fn=cmd_order)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "what", None) == "ideal" and not getattr(args, "summands", None):
        raise SystemExit("error: ktheory ideal needs --summands")
    try:
        return args.fn(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
