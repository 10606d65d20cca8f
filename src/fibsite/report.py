"""Machine-readable command reports with a stable, versioned JSON layout.

Reports are byte-deterministic for a fixed input and seed: field order is
fixed, payload containers are sorted at construction, and timings default to
null (opting into wall-clock timings breaks determinism and says so in the
schema notes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cohom import FgAbelianGroup
from .errors import InputError

SCHEMA = "fibsite-report/1"


@dataclass
class Report:
    command: str
    inputs: dict
    options: dict
    verdicts: list[dict] = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    timings: dict | None = None

    def add_verdict(self, check: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append({"check": check, "pass": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def factors_to_payload(groups) -> list[list[int]]:
    return [list(g.factors) for g in groups]


def render_group(g: FgAbelianGroup) -> str:
    if not g.factors:
        return "0"
    parts = ["Z"] * g.rank + [f"Z/{f}" for f in g.torsion]
    return " ⊕ ".join(parts)


def render_factor_list(factors: list[int]) -> str:
    return render_group(FgAbelianGroup(factors=tuple(factors)))


def emit_report(r: Report, format: str = "json") -> str:
    if format == "json":
        doc = {
            "schema": SCHEMA,
            "command": r.command,
            "inputs": r.inputs,
            "options": r.options,
            "verdicts": r.verdicts,
            "payload": r.payload,
            "timings": r.timings,
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if format == "markdown":
        lines = [f"# {r.command}", ""]
        lines.append(f"- inputs: `{r.inputs.get('sha256', '')}`")
        for k in sorted(r.options):
            lines.append(f"- {k}: {r.options[k]}")
        lines.append("")
        if r.verdicts:
            lines.append("| check | result | detail |")
            lines.append("|---|---|---|")
            for v in r.verdicts:
                res = "pass" if v["pass"] else "FAIL"
                lines.append(f"| {v['check']} | {res} | {v['detail']} |")
            lines.append("")
        if "cohomology" in r.payload:
            lines.append("| degree | group |")
            lines.append("|---|---|")
            for n, factors in enumerate(r.payload["cohomology"]):
                lines.append(f"| {n} | {render_factor_list(factors)} |")
            lines.append("")
        for key in sorted(r.payload):
            if key == "cohomology":
                continue
            lines.append(f"- {key}: {json.dumps(r.payload[key], sort_keys=True)}")
        return "\n".join(lines).rstrip() + "\n"
    raise InputError(f"unknown report format {format!r}")
