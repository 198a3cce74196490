#!/usr/bin/env python3
"""Benchmark of the nccwk calculator: one workload per process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

The program is imported from src/ next to this directory; the benchmark
needs nothing outside the standard library.  A run:

1. sets up SETUP_REPEATS times (a fresh import of nccwk plus the workload's
   seeded inputs) and reports the median as setup_s;
2. for --seconds, repeats every operation in whole rounds, each round in a
   seeded order, clearing the program's memo caches and collecting garbage
   before each repetition, so each repetition is cold like a fresh CLI
   call; work_s is the sum over operations of their median repetition;
   times are in reference seconds (see HostSpeed);
3. checks every output (workloads.py), records peak_rss_mb;
4. with --trace 0, counts the calls nccwk code makes in one more pass
   (py_calls); with --trace 1, runs one pass under the span tracer and one
   under the call counter and reports the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details of the run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import tracing  # noqa: E402  (sibling modules; this directory is sys.path[0])
import workloads  # noqa: E402

SETUP_REPEATS = 9
PROGRAM_MODULES = ("nccwk", "nccwk.harness", "nccwk.harness.cli")


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _mix(a, b):
    return a * b % 7


_ROWS = ((2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1))
_PERMS = tuple(permutations(range(3)))


class HostSpeed:
    """Speed of this host over time, from a fixed calibration loop.

    On a shared host the same pure-Python code runs up to 70 % slower for
    minutes at a time.  A SIGALRM timer runs a short, fixed loop every
    PERIOD seconds and records how long it took.  A repetition's wall time,
    less the loop's own time inside it, divided by the loop's mean time
    around it relative to REFERENCE, gives seconds at a fixed reference
    speed, which move with the program and not with the neighbours.  The
    loop mixes what the program does: calls, tuple unpacking, small
    objects, attribute access, sorting, dict updates, generator sums and
    tuple comparisons.
    """

    PERIOD = 0.05
    REFERENCE = 400e-6  # loop time that counts as the reference speed

    def __init__(self):
        self.starts = array("d")
        self.costs = array("d")

    @staticmethod
    def loop():
        s = 0
        d = {}
        for i in range(100):
            s += _mix(*(i, i + 1))
            p = _Point(i, i + 2)
            s += p.x + p.y + len([p.x, p.y])
            key = tuple(sorted((i % 5, i % 3, i % 7)))
            d[key] = d.get(key, 0) + 1
            s += sum(x * y for x, y in zip(key, key[1:]))
        best = None
        for perm in _PERMS:
            cand = tuple(tuple(row[j] for j in perm) for row in _ROWS)
            if best is None or cand < best:
                best = cand
        return s, best

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.loop()
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Time from t0 to t1 less the samples taken in it, at reference speed."""
        i0 = bisect.bisect_left(self.starts, t0 - self.PERIOD)
        i1 = bisect.bisect_right(self.starts, t1)
        inside = sum(c for t, c in zip(self.starts[i0:i1], self.costs[i0:i1]) if t >= t0)
        around = self.costs[i0:i1] or self.costs[-1:]
        factor = statistics.fmean(around) / self.REFERENCE if around else 1.0
        return (t1 - t0 - inside) / factor


class Program:
    """The freshly imported nccwk modules that the workloads call."""

    def __init__(self):
        self.modules = {k: v for k, v in sys.modules.items()
                        if k == "nccwk" or k.startswith("nccwk.")}
        m = self.modules
        self.intmat = m["nccwk.fgab.intmat"]
        self.homind = m["nccwk.homind"]
        self.inputfmt = m["nccwk.harness.inputfmt"]
        self.search = m["nccwk.harness.search"]
        self.scenarios = m["nccwk.harness.scenarios"]
        self.cli = m["nccwk.harness.cli"]
        # every memo cache of the program (the Smith forms, l5_value)
        self.caches = list({id(f): f for mod in m.values() for f in vars(mod).values()
                            if isinstance(f, functools._lru_cache_wrapper)}.values())


def fresh_import() -> Program:
    for name in [n for n in sys.modules if n == "nccwk" or n.startswith("nccwk.")]:
        del sys.modules[name]
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return Program()


class Runner:
    """Executes operations, checks outputs, counts attempts and failures."""

    def __init__(self, cross_check, inputs):
        self.cross_check = cross_check
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.digests = {}
        self.checks_run = {}

    def execute(self, nc, op, around=None):
        """Run op once, cold; return its (start, end), or None if it raised."""
        for cache in nc.caches:
            cache.cache_clear()
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if around is None:
                out = op.run()
            else:
                with around:
                    out = op.run()
        except Exception:
            self.failed += 1
            sys.stderr.write(f"operation {op.name} failed:\n{traceback.format_exc()}")
            return None
        t1 = time.perf_counter()
        self.verify(op, out)
        return t0, t1

    def verify(self, op, out):
        try:
            if op.digest is None:
                op.check(out)
                self.checks_run[op.name] = self.checks_run.get(op.name, 0) + 1
                return
            d = op.digest(out)
            if op.name not in self.digests:
                op.check(out)
                self.digests[op.name] = d
                self.checks_run[op.name] = self.checks_run.get(op.name, 0) + 1
            elif d != self.digests[op.name]:
                raise workloads.CheckFailed("output differs from the checked first output")
        except Exception as exc:  # a malformed output is a wrong output too
            self.wrong.append(f"{op.name}: {exc}")

    def cross(self):
        if self.cross_check is None:
            return
        try:
            self.cross_check(self.inputs, self.digests)
            self.checks_run["cross-check"] = self.checks_run.get("cross-check", 0) + 1
        except Exception as exc:
            self.wrong.append(f"cross-check: {exc}")


def timed_window(nc, ops, runner, seconds, order_rng, speed):
    """Whole rounds over all operations until the next round would overrun.

    Returns, per operation, (wall seconds, reference seconds, (start, end))
    per repetition.
    """
    samples = {op.name: [] for op in ops}
    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for i in order_rng.sample(range(len(ops)), len(ops)):
            span = runner.execute(nc, ops[i])
            if span is not None:
                samples[ops[i].name].append((span[1] - span[0], speed.reference_seconds(*span),
                                             span))
        rounds += 1
        if rounds == 1:
            runner.cross()
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return samples, rounds


def count_pass(nc, ops, runner):
    counter = tracing.CallCounter(SRC)
    t = 0.0
    for op in ops:
        span = runner.execute(nc, op, around=counter)
        t += span[1] - span[0] if span else 0.0
    return counter.by_layer(), t


def span_pass(workload, seed, quick, runner, speed):
    """Fresh import, inputs and one pass over the operations, all traced.

    Returns the tracer, the operations' wall and reference seconds, and the
    pass's wall seconds.  The host-speed sampler runs here too (its handler
    is benchmark code, which the span wrappers never see).
    """
    prepare, operations, _ = workloads.WORKLOADS[workload]
    tracer = tracing.SpanTracer()
    speed.start()
    try:
        t0 = time.perf_counter()
        tracer.install_import_spans()
        try:
            nc = fresh_import()
        finally:
            tracer.remove_import_spans()
        tracer.install(nc.modules)
        ops = operations(nc, prepare(nc, seed, quick, ROOT))
        ops_s = ops_ref = 0.0
        for i, op in enumerate(ops):
            tracer.op = i
            tracer.enter("op " + op.name, -1)
            try:
                span = runner.execute(nc, op)
            finally:
                tracer.leave()
            if span:
                ops_s += span[1] - span[0]
                ops_ref += speed.reference_seconds(*span)
        pass_s = time.perf_counter() - t0
    finally:
        speed.stop()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), [op.name for op in ops])
    return tracer, ops_s, ops_ref, pass_s


def layer_metrics(tracer, by_layer, ops_s, ops_ref, pass_s, untraced, counted_s):
    """untraced: the timed window's (wall, reference) seconds for one pass."""
    m = {}
    for i, layer in enumerate(tracing.LAYERS):
        m[f"{layer}.calls"] = (tracer.calls[i], "count")
        m[f"{layer}.self_s"] = (tracer.self_s[i], "s")
        m[f"{layer}.py_calls"] = (by_layer[layer], "count")
    c = tracer.counters
    for key, value in c.items():
        m[key] = (value, "bits" if key == "intmat.max_entry_bits" else "count")
    req, comp = c["intmat.smith_requested"], c["intmat.smith_computed"]
    m["intmat.smith_hit_ratio"] = ((req - comp) / req if req else 0.0, "ratio")
    tried = c["nccw.supports_tried"]
    m["nccw.valid_support_ratio"] = (c["nccw.supports_valid"] / tried if tried else 0.0, "ratio")
    m["search.reverify_pct"] = (100.0 * tracer.timers["search.reverify"] / ops_s, "%")
    m["homind.identify_pct"] = (100.0 * tracer.timers["homind.identify"] / ops_s, "%")
    m["trace.overhead_ratio"] = (ops_ref / untraced[1], "ratio")
    # the count pass cannot run the sampler (its calls would be counted): wall
    m["trace.counter_overhead_ratio"] = (counted_s / untraced[0], "ratio")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.spans"] = (tracer.total_spans, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and one set-up, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nccwk", "__init__.py")):
        sys.stderr.write(f"error: the nccwk sources are not at {SRC}\n")
        return 2
    if args.workload == "towers" and not os.path.isdir(os.path.join(ROOT, "docs", "samples")):
        sys.stderr.write("error: docs/samples is missing\n")
        return 2
    sys.path.insert(0, SRC)
    prepare, operations, cross_check = workloads.WORKLOADS[args.workload]

    speed = HostSpeed()
    speed.start()
    setups = []
    for _ in range(1 if args.quick or args.trace else SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        nc = fresh_import()
        inputs = prepare(nc, args.seed, args.quick, ROOT)
        setups.append(speed.reference_seconds(t0, time.perf_counter()))
    if not os.path.realpath(nc.intmat.__file__).startswith(os.path.realpath(SRC) + os.sep):
        speed.stop()
        sys.stderr.write(f"error: nccwk was imported from {nc.intmat.__file__}, not {SRC}\n")
        return 2

    runner = Runner(cross_check, inputs)
    ops = operations(nc, inputs)
    samples, rounds = timed_window(nc, ops, runner, args.seconds,
                                   random.Random(args.seed * 1_000_003 + 17), speed)
    speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    typical = {name: statistics.median(x[1] for x in v) for name, v in samples.items() if v}
    untraced = (sum(statistics.median(x[0] for x in v) for v in samples.values() if v),
                sum(typical.values()))

    if args.trace == 0:
        by_layer, _ = count_pass(nc, ops, runner)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "work_s": (sum(typical.values()), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "py_calls": (sum(by_layer.values()), "count"),
        }
    else:
        tracer, ops_s, ops_ref, pass_s = span_pass(args.workload, args.seed, args.quick,
                                                   runner, speed)
        nc = fresh_import()
        ops = operations(nc, prepare(nc, args.seed, args.quick, ROOT))
        by_layer, counted_s = count_pass(nc, ops, runner)
        metrics = layer_metrics(tracer, by_layer, ops_s, ops_ref, pass_s, untraced, counted_s)

    os.makedirs(OUT, exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "rounds": rounds,
        "setup_s": setups, "checks_run": runner.checks_run, "wrong": runner.wrong,
        "work_s_fastest": sum(min(x[1] for x in v) for v in samples.values() if v),
        "host_loop_s": {"median": statistics.median(speed.costs), "min": min(speed.costs),
                        "samples": len(speed.costs)},
        "host_samples": list(zip(speed.starts, speed.costs)),
        "ops": {name: {"best_reference_s": min(x[1] for x in v),
                       "best_wall_s": min(x[0] for x in v),
                       "median_wall_s": statistics.median(x[0] for x in v), "n": len(v),
                       "reference_s": [x[1] for x in v], "intervals": [x[2] for x in v]}
                for name, v in samples.items() if v},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(details, fh, indent=1)
    for line in runner.wrong:
        sys.stderr.write(f"wrong output: {line}\n")
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
