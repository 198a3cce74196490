#!/usr/bin/env python3
"""Quick self-test of the benchmark: tiny inputs, one repetition.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both --trace modes it runs
run.py --quick and checks that the result line has exactly the expected
keys, that every metric BENCHMARK.json names is printed with its unit,
that every output check ran and passed, and that the per-layer call counts
add up to py_calls.  It then copies BENCHMARK.json and this directory into
a scratch directory without the program and checks that the benchmark
refuses to run there.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SEED = 7
TIMEOUT = 300


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)
        return cond

    for wl in (w["name"] for w in bench["workloads"]):
        py_calls = {}
        for trace, names in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, wl, trace)
            where = f"{wl} --trace {trace}"
            if not expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"):
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: wrong outputs\n{proc.stderr}")
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} operations failed")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in names},
                   f"{where}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(metrics) ^ {m['name'] for m in names})}")
            for m in names:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                       f"{where}: {m['name']} printed as {got}")
            with open(os.path.join(OUT, f"{wl}-seed{SEED}-trace{trace}.json")) as fh:
                details = json.load(fh)
            unchecked = set(details["ops"]) - set(details["checks_run"])
            expect(not unchecked, f"{where}: outputs never checked: {sorted(unchecked)}")
            if wl == "census":
                expect("cross-check" in details["checks_run"], f"{where}: cross-check did not run")
            py_calls[trace] = (metrics["py_calls"]["value"] if trace == 0 else
                               sum(v["value"] for k, v in metrics.items()
                                   if k.endswith(".py_calls")))
        if len(py_calls) == 2:
            expect(py_calls[0] == py_calls[1],
                   f"{wl}: py_calls {py_calls[0]} != sum of per-layer py_calls {py_calls[1]}")
        print(f"{wl}: checked", flush=True)

    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
    print("bare directory: refused", flush=True)

    for p in problems:
        print("FAIL:", p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
