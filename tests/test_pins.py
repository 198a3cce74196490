"""Byte pins for the input reader, the renderer, the README's sample commands
and the scenario reports.

The files under tests/data were generated before the input reader was rebuilt
around one block reader: ``render_<sample>.txt`` holds ``render(parse(text))``
of each sample document, and ``readme_samples.txt`` holds the exit code and
stdout of every README command on docs/samples, as ``pin_readme_samples()``
builds them.  Run this module as a script to print that text.
``scenario_all.txt`` and ``scenario_all_json.txt`` hold the stdout of
``nccwk scenario all`` and ``nccwk scenario all --format json-like``, generated
before the unperforation sweeps and the family stages were made cheaper.
The README's "Library use" snippet is run as written and must print its
commented verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nccwk.harness.inputfmt import parse, render

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

# The README's commands on docs/samples with their documented exit codes.
README_SAMPLES = (
    ("ktheory complex docs/samples/odd_tower.nccw", 0),
    ("ktheory ideal docs/samples/torsion_tower.nccw --name F0 --summands 3,4", 0),
    ("classify docs/samples/odd_tower.nccw", 0),
    ("limit docs/samples/odd_tower.nccw --system k0sys --stages 4", 0),
    ("limit docs/samples/odd_tower.nccw --system k0sys --identify", 0),
    ("limit docs/samples/odd_tower.nccw --system k0sys --divisible 0,1 8 --bound 6", 0),
    ("coeff docs/samples/torsion_tower.nccw --n 2,3,4 --name F0", 0),
    ("order docs/samples/odd_tower.nccw --dominates 1,0 0,1 --bound 6", 0),
    ("order docs/samples/odd_tower.nccw --perforation-witness 1,0 2 --stage 0", 1),
)


def _run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)


def _run_cli(*args):
    return _run_python("-m", "nccwk", *args)


def pin_readme_samples():
    """The pinned text, and the commands whose exit code differs from the README's."""
    out, wrong = [], []
    for command, expected in README_SAMPLES:
        proc = _run_cli(*command.split())
        out.append(f"$ nccwk {command}\nexit {proc.returncode}\n{proc.stdout}")
        if proc.returncode != expected:
            wrong.append(command)
    return "".join(out), wrong


@pytest.mark.parametrize("sample", ["odd_tower", "torsion_tower"])
def test_sample_render_bytes(sample):
    text = (ROOT / "docs" / "samples" / f"{sample}.nccw").read_text()
    assert render(parse(text)) == (DATA / f"render_{sample}.txt").read_text()


def test_readme_sample_bytes_and_exit_codes():
    text, wrong = pin_readme_samples()
    assert wrong == []
    assert text == (DATA / "readme_samples.txt").read_text()


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_python("-c", snippet)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "odd (witness S = [3])\n"


@pytest.mark.parametrize("fmt, pin", [("text", "scenario_all.txt"),
                                      ("json-like", "scenario_all_json.txt")])
def test_scenario_all_bytes(fmt, pin):
    proc = _run_cli("scenario", "all", "--format", fmt)
    assert proc.returncode == 0
    assert proc.stdout == (DATA / pin).read_text()


if __name__ == "__main__":
    sys.stdout.write(pin_readme_samples()[0])
