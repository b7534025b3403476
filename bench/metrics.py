"""Metric contract (read from ``BENCHMARK.json``) and the statistics rules.

``BENCHMARK.json`` is the single list of metric names, units, directions
and bounds.  ``failed_ratio`` is the one end-to-end metric kept outside
it: the builder contract forbids a metric that is always 0, and carries
failures as the ``failed``/``attempted``/``correct`` keys of a run's
result line instead.  The results files and ``compare`` still carry it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

FAILED_RATIO = {
    "name": "failed_ratio",
    "unit": "ratio",
    "better": "lower",
    "bound": 0.0,
}

#: Tail percentiles, taken over samples pooled across repetitions:
#: name -> (``Rep`` attribute holding the samples, fraction, seconds -> unit).
TAILS = {
    "scan_visible_ms_p90": ("visible_s", 0.90, 1e3),
    "query_us_p99": ("query_s", 0.99, 1e6),
    "raycast_us_p95": ("raycast_s", 0.95, 1e6),
}

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_metrics(manifest: Optional[dict] = None) -> List[dict]:
    """The end-to-end metrics: the manifest's plus ``failed_ratio``."""
    manifest = manifest or load_manifest()
    return list(manifest["end_to_end"]) + [FAILED_RATIO]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile of ``samples`` (``fraction`` in 0..1)."""
    if not len(samples):
        raise ValueError("percentile of no samples")
    return float(np.percentile(samples, 100.0 * fraction))


def tail_resolved(count: int, fraction: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the percentile."""
    # Rounded: 100 * (1 - 0.9) is 9.999999999999998 in binary floats.
    return round(count * (1.0 - fraction), 6) >= SAMPLES_BEYOND


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q3]`` as ``statistics.quantiles`` gives them (one value: itself)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def metric_record(
    value: float,
    unit: str,
    per_rep: Sequence[float],
    valid: bool = True,
    samples: Optional[int] = None,
) -> Dict[str, object]:
    """One metric as the results file stores it."""
    per_rep = list(per_rep)
    record: Dict[str, object] = {
        "value": value,
        "unit": unit,
        "valid": valid,
        "per_rep": per_rep,
        "median": statistics.median(per_rep),
        "iqr": quartiles(per_rep),
    }
    if samples is not None:
        record["samples"] = samples
    return record
