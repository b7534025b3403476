"""The percentile rule, and BENCHMARK.json against the builder contract."""

import re

import pytest

from bench import metrics
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.mark.parametrize(
    "count, fraction, resolved",
    [
        (100, 0.90, True),
        (99, 0.90, False),
        (1000, 0.99, True),
        (999, 0.99, False),
        (200, 0.95, True),
        (199, 0.95, False),
    ],
)
def test_a_percentile_needs_ten_samples_beyond_it(count, fraction, resolved):
    assert metrics.tail_resolved(count, fraction) is resolved


def test_percentile_interpolates():
    assert metrics.percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert metrics.percentile([0, 10], 0.9) == pytest.approx(9.0)
    assert metrics.percentile([7], 0.99) == 7


def test_manifest_meets_the_contract():
    manifest = metrics.load_manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[group]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 1 <= manifest["run_seconds"] <= 60
    # The pooled tails were demoted: listed, but without a bound.
    assert set(metrics.TAILS) <= {m["name"] for m in manifest["per_layer"]}


def test_failed_ratio_rides_outside_the_manifest():
    manifest = metrics.load_manifest()
    names = [m["name"] for m in metrics.end_to_end_metrics(manifest)]
    assert names[:-1] == [m["name"] for m in manifest["end_to_end"]]
    assert names[-1] == "failed_ratio"
