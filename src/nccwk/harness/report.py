"""Deterministic claim-by-claim reports for the built-in scenarios."""

from __future__ import annotations

import json

from ..fgab.intmat import Frozen


class ClaimResult(Frozen):
    __slots__ = ("claim_id",
                 "anchor",  # the claim being checked, quoted from the construction
                 "source",  # "paper" | "derived" | "trivial"
                 "expected", "computed", "passed")


class ScenarioReport(Frozen):
    __slots__ = ("scenario", "title", "claims", "notes")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


class ClaimSink:
    """Collects claim results; comparison is on canonical display strings."""

    def __init__(self):
        self.claims = []
        self.notes = []

    @staticmethod
    def _show(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (list, tuple)):
            return "(" + ", ".join(ClaimSink._show(v) for v in value) + ")"
        return str(value)

    def check(self, claim_id: str, anchor: str, source: str, expected, computed):
        exp = self._show(expected)
        got = self._show(computed)
        self.claims.append(ClaimResult(claim_id, anchor, source, exp, got, exp == got))

    def note(self, text: str):
        self.notes.append(text)

    def report(self, scenario: str, title: str) -> ScenarioReport:
        return ScenarioReport(scenario, title, tuple(self.claims), tuple(self.notes))


def render_text(r: ScenarioReport) -> str:
    lines = [f"scenario {r.scenario}: {r.title}", "-" * 72]
    for c in r.claims:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.claim_id} ({c.source})")
        lines.append(f"       claim:    {c.anchor}")
        if c.expected == c.computed:
            lines.append(f"       value:    {c.computed}")
        else:
            lines.append(f"       expected: {c.expected}")
            lines.append(f"       computed: {c.computed}")
    for n in r.notes:
        lines.append(f"note: {n}")
    total = len(r.claims)
    good = sum(1 for c in r.claims if c.passed)
    lines.append("-" * 72)
    lines.append(f"{good}/{total} checks passed")
    return "\n".join(lines)


def render_json(r: ScenarioReport) -> str:
    payload = {
        "scenario": r.scenario,
        "title": r.title,
        "passed": r.passed,
        "claims": [
            {
                "id": c.claim_id,
                "anchor": c.anchor,
                "source": c.source,
                "expected": c.expected,
                "computed": c.computed,
                "passed": c.passed,
            }
            for c in r.claims
        ],
        "notes": list(r.notes),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_report(r: ScenarioReport, format: str = "text") -> str:
    if format == "text":
        return render_text(r)
    if format == "json-like":
        return render_json(r)
    raise ValueError(f"unknown report format {format!r}")
