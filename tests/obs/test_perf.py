"""The perf watchdog: the BENCH series and the regression gate."""

import json
import re

import pytest

from repro.cli import main
from repro.obs.perf import (
    append_bench_entry,
    bench_path_for_host,
    check_regressions,
    default_baseline,
    load_latest_entry,
    write_baseline,
)

_LOWER_IS_BETTER = {"ingest_p99_ms", "overhead"}


def make_entry(timestamp=0.0, **metrics):
    """An entry shaped like a driver's ``to_bench_entry()``."""
    return {
        "timestamp": timestamp,
        "metrics": {
            name: {
                "value": value,
                "unit": "",
                "direction": "lower" if name in _LOWER_IS_BETTER else "higher",
                "samples": [value],
            }
            for name, value in metrics.items()
        },
    }


class TestBenchSeries:
    def test_append_only_series(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        first = make_entry(timestamp=1.0, m=1.0)
        second = make_entry(timestamp=2.0, m=2.0)
        assert append_bench_entry(first, path) == 1
        assert append_bench_entry(second, path) == 2
        with open(path) as handle:
            series = json.load(handle)
        assert [entry["timestamp"] for entry in series] == [1.0, 2.0]
        assert load_latest_entry(path)["metrics"]["m"]["value"] == 2.0

    def test_non_series_file_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            append_bench_entry(make_entry(), str(path))
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_latest_entry(str(path))

    def test_bench_path_embeds_a_sanitised_hostname(self):
        path = bench_path_for_host("benchmarks")
        assert path.startswith("benchmarks/BENCH_")
        assert path.endswith(".json")
        assert " " not in path

    def test_default_baseline_is_the_committed_one(self):
        assert default_baseline() == "benchmarks/perf_baseline.json"


class TestRegressionGate:
    def test_matching_baseline_passes(self):
        entry = make_entry(capacity_scans_per_s=100.0, ingest_p99_ms=1.0)
        baseline = {
            "metrics": {
                "capacity_scans_per_s": {
                    "value": 100.0, "tolerance": 0.2, "direction": "higher",
                },
                "ingest_p99_ms": {
                    "value": 1.0, "tolerance": 0.2, "direction": "lower",
                },
            }
        }
        result = check_regressions(entry, baseline)
        assert result.ok
        assert not result.regressions

    def test_doctored_twice_better_baseline_always_fails(self):
        """THE acceptance criterion: a baseline 2x better than measured
        must regress on every metric, whatever its direction."""
        entry = make_entry(
            capacity_scans_per_s=100.0,
            tenant_fairness_ratio=0.5,
            ingest_p99_ms=1.0,
        )
        doctored = {
            "metrics": {
                name: {
                    "value": info["value"] * (0.5 if info["direction"] == "lower" else 2.0),
                    "tolerance": 0.45,
                    "direction": info["direction"],
                }
                for name, info in entry["metrics"].items()
            }
        }
        result = check_regressions(entry, doctored)
        assert not result.ok
        assert {check.name for check in result.regressions} == set(entry["metrics"])

    def test_direction_aware_thresholds(self):
        baseline = {
            "metrics": {
                "throughput": {"value": 100.0, "tolerance": 0.1, "direction": "higher"},
                "overhead": {"value": 1.0, "tolerance": 0.1, "direction": "lower"},
            }
        }
        ok = check_regressions(
            make_entry(throughput=91.0, overhead=1.09), baseline
        )
        assert ok.ok
        slow = check_regressions(
            make_entry(throughput=89.0, overhead=1.0), baseline
        )
        assert [check.name for check in slow.regressions] == ["throughput"]
        heavy = check_regressions(
            make_entry(throughput=100.0, overhead=1.2), baseline
        )
        assert [check.name for check in heavy.regressions] == ["overhead"]

    def test_metric_missing_from_entry_is_a_regression(self):
        baseline = {
            "metrics": {"gone": {"value": 1.0, "tolerance": 0.1}}
        }
        result = check_regressions(make_entry(other=1.0), baseline)
        assert not result.ok
        (check,) = result.regressions
        assert check.name == "gone"
        assert check.measured is None

    def test_unbaselined_metric_is_reported_but_never_fails(self):
        baseline = {"metrics": {"known": {"value": 1.0, "tolerance": 0.5}}}
        result = check_regressions(make_entry(known=1.0, novel=42.0), baseline)
        assert result.ok
        assert result.missing_baseline == ["novel"]
        assert "unbaselined_metrics" in result.to_dict()

    def test_write_baseline_roundtrips_through_the_gate(self, tmp_path):
        entry = make_entry(capacity_scans_per_s=100.0, tenant_fairness_ratio=0.9)
        path = str(tmp_path / "baseline.json")
        payload = write_baseline(entry, path)
        assert payload["metrics"]["capacity_scans_per_s"]["tolerance"] == 0.45
        with open(path) as handle:
            assert check_regressions(entry, json.load(handle)).ok

    def test_committed_tolerances_stay_below_one_half(self, tmp_path):
        # tolerance >= 0.5 would let a 2x-doctored baseline pass; both the
        # defaults and the committed file must stay under it.
        entry = make_entry(capacity_scans_per_s=1.0)
        payload = write_baseline(entry, str(tmp_path / "b.json"))
        for info in payload["metrics"].values():
            assert info["tolerance"] < 0.5
        with open(default_baseline()) as handle:
            committed = json.load(handle)
        for info in committed["metrics"].values():
            assert info["tolerance"] < 0.5


class TestCli:
    def test_mem_bench_entry_is_gated_by_perf_check(self, tmp_path, capsys):
        from repro.memsight.bench import MemBenchReport

        bench = str(tmp_path / "BENCH_ci.json")
        report = MemBenchReport(
            dataset="fr079_corridor", workers="thread", quick=True, tenants=2
        )
        report.bytes_per_voxel = 93.5
        append_bench_entry(report.to_bench_entry(), bench)
        entry = load_latest_entry(bench)
        assert set(entry["metrics"]) == {
            "bytes_per_voxel", "mem_accounting_drift"
        }
        gate = ["--metrics", "bytes_per_voxel,mem_accounting_drift"]
        assert main(["perf-check", "--bench", bench] + gate) == 0

        doctored = {
            "metrics": {
                "bytes_per_voxel": {
                    "value": 93.5 / 2, "tolerance": 0.45, "direction": "lower",
                },
                "mem_accounting_drift": {
                    "value": 0.0, "tolerance": 0.0, "direction": "lower",
                },
            }
        }
        bad = tmp_path / "doctored.json"
        bad.write_text(json.dumps(doctored))
        assert main(
            ["perf-check", "--bench", bench, "--baseline", str(bad)] + gate
        ) == 1
        assert "REGRESSION in: bytes_per_voxel" in capsys.readouterr().out

    def test_update_baseline_rewrites_from_the_latest_entry(self, tmp_path):
        bench = str(tmp_path / "BENCH_ci.json")
        append_bench_entry(make_entry(m=3.0), bench)
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["perf-check", "--bench", bench, "--baseline", baseline,
             "--update-baseline"]
        ) == 0
        with open(baseline) as handle:
            assert json.load(handle)["metrics"]["m"]["value"] == 3.0

    def test_perf_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["perf-bench"])
        assert raised.value.code == 2
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out)
        assert len(choices.group(1).split(",")) == 11
