"""``python3 -m bench compare A.json B.json``: is B no worse than A?

One row per workload × end-to-end metric, judged by the metric's own
direction and bound:

- ``ok``: B's value is not worse than A's by more than the bound;
- ``worse``: it is, and the per-repetition quartile ranges do not overlap;
- ``unresolved``: it is, but the quartile ranges overlap — the run-to-run
  spread is wider than the difference — or either side lacks a valid value
  (``valid: false`` reads as missing, never as a pass).

Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
from typing import Optional

from bench.metrics import end_to_end_metrics

#: ``setup_s`` may also move by this many seconds: a quarter of a 70 ms
#: set-up is inside timer and allocator noise.
ABSOLUTE_SLACK = {"setup_s": 0.25}


def _valid(metric: Optional[dict]) -> bool:
    return bool(metric) and metric.get("valid", False)


def judge(spec: dict, baseline: Optional[dict], candidate: Optional[dict]) -> str:
    if not (_valid(baseline) and _valid(candidate)):
        return "unresolved"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worsening = sign * (candidate["value"] - baseline["value"])
    allowed = max(
        spec["bound"] * abs(baseline["value"]),
        ABSOLUTE_SLACK.get(spec["name"], 0.0),
    )
    if worsening <= allowed:
        return "ok"
    (a_low, a_high), (b_low, b_high) = baseline["iqr"], candidate["iqr"]
    overlap = a_low <= b_high and b_low <= a_high
    several = len(baseline["per_rep"]) > 1 and len(candidate["per_rep"]) > 1
    return "unresolved" if overlap and several else "worse"


def main(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)["workloads"]
    with open(candidate_path, encoding="utf-8") as handle:
        candidate = json.load(handle)["workloads"]
    tally = {"ok": 0, "worse": 0, "unresolved": 0}
    for workload in sorted(set(baseline) | set(candidate)):
        sides = [
            side.get(workload, {}).get("untraced", {}).get("metrics", {})
            for side in (baseline, candidate)
        ]
        for spec in end_to_end_metrics():
            before, after = (side.get(spec["name"]) for side in sides)
            verdict = judge(spec, before, after)
            tally[verdict] += 1
            shown = [
                f"{metric['value']:.6g}" if metric else "missing"
                for metric in (before, after)
            ]
            print(
                f"{workload:16s} {spec['name']:22s} {shown[0]:>12s} -> "
                f"{shown[1]:>12s} {spec['unit']:8s} "
                f"(bound {spec['bound']:.1%}) {verdict}"
            )
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["worse"] else 0
