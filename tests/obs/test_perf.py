"""The perf watchdog: suite output, the BENCH series, and the regression gate."""

import json

import pytest

from repro.cli import main
from repro.obs.perf import (
    PerfRun,
    append_bench_entry,
    bench_path_for_host,
    check_regressions,
    default_baseline,
    load_latest_entry,
    run_perf_bench,
    write_baseline,
)

REQUIRED_METRICS = {
    "scan_insert_throughput",
    "cache_hit_ratio",
    "multicore_speedup",
    "multicore_map_agreement",
    "simcache_hit_ratio",
    "serve_throughput",
    "trace_overhead_ratio",
    "vector_ingest_speedup",
    "vector_map_agreement",
    "capacity_scans_per_s",
    "ingest_p99_ms",
    "bytes_per_voxel",
    "mem_accounting_drift",
}


@pytest.fixture(scope="module")
def quick_run():
    """One real quick suite run shared by the module (seconds, not minutes)."""
    return run_perf_bench(quick=True, repeats=1)


class TestSuite:
    def test_quick_run_measures_every_pinned_metric(self, quick_run):
        assert set(quick_run.metrics) == REQUIRED_METRICS
        assert len(quick_run.metrics) >= 5
        assert quick_run.metrics["scan_insert_throughput"] > 0
        assert 0.0 < quick_run.metrics["cache_hit_ratio"] <= 1.0
        assert 0.0 < quick_run.metrics["simcache_hit_ratio"] <= 1.0
        assert quick_run.metrics["serve_throughput"] > 0
        assert quick_run.metrics["trace_overhead_ratio"] > 0
        assert quick_run.metrics["multicore_speedup"] > 0
        assert quick_run.metrics["multicore_map_agreement"] == 1.0
        assert quick_run.metrics["vector_ingest_speedup"] > 0
        assert quick_run.metrics["vector_map_agreement"] == 1.0
        assert quick_run.metrics["capacity_scans_per_s"] > 0
        assert quick_run.metrics["ingest_p99_ms"] > 0
        assert quick_run.metrics["bytes_per_voxel"] > 0
        assert quick_run.metrics["mem_accounting_drift"] == 0.0
        assert quick_run.env["multicore_procs"] >= 1
        assert quick_run.env["host"]
        assert quick_run.quick is True

    def test_entry_dict_is_self_describing(self, quick_run):
        entry = quick_run.to_dict()
        assert set(entry["metrics"]) == REQUIRED_METRICS
        for info in entry["metrics"].values():
            assert info["direction"] in ("higher", "lower")
            assert info["samples"]
        assert entry["env"]["python"]

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError):
            run_perf_bench(quick=True, repeats=0)


def make_entry(**metrics):
    run = PerfRun()
    for name, value in metrics.items():
        run.metrics[name] = value
        run.directions[name] = (
            "lower" if name == "trace_overhead_ratio" else "higher"
        )
        run.units[name] = ""
        run.samples[name] = [value]
    return run.to_dict()


class TestBenchSeries:
    def test_append_only_series(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        first = PerfRun(metrics={"m": 1.0}, timestamp=1.0)
        second = PerfRun(metrics={"m": 2.0}, timestamp=2.0)
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
            append_bench_entry(PerfRun(), str(path))
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
        entry = make_entry(scan_insert_throughput=100.0, trace_overhead_ratio=1.0)
        baseline = {
            "metrics": {
                "scan_insert_throughput": {
                    "value": 100.0, "tolerance": 0.2, "direction": "higher",
                },
                "trace_overhead_ratio": {
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
            scan_insert_throughput=100.0,
            cache_hit_ratio=0.5,
            trace_overhead_ratio=1.0,
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
        entry = make_entry(scan_insert_throughput=100.0, cache_hit_ratio=0.9)
        path = str(tmp_path / "baseline.json")
        payload = write_baseline(entry, path)
        assert payload["metrics"]["scan_insert_throughput"]["tolerance"] == 0.45
        with open(path) as handle:
            assert check_regressions(entry, json.load(handle)).ok

    def test_committed_tolerances_stay_below_one_half(self, tmp_path):
        # tolerance >= 0.5 would let a 2x-doctored baseline pass; both the
        # defaults and the committed file must stay under it.
        entry = make_entry(scan_insert_throughput=1.0)
        payload = write_baseline(entry, str(tmp_path / "b.json"))
        for info in payload["metrics"].values():
            assert info["tolerance"] < 0.5
        with open(default_baseline()) as handle:
            committed = json.load(handle)
        for info in committed["metrics"].values():
            assert info["tolerance"] < 0.5


class TestCli:
    def test_perf_bench_writes_an_entry_and_perf_check_gates_it(
        self, tmp_path, capsys
    ):
        bench = str(tmp_path / "BENCH_ci.json")
        assert main(["perf-bench", "--quick", "--repeats", "1", "--out", bench]) == 0
        entry = load_latest_entry(bench)
        assert len(entry["metrics"]) >= 5
        assert "scan_insert_throughput" in entry["metrics"]
        assert "simcache_hit_ratio" in entry["metrics"]

        good = str(tmp_path / "baseline.json")
        write_baseline(entry, good)
        assert main(["perf-check", "--bench", bench, "--baseline", good]) == 0

        doctored = {
            "metrics": {
                name: {
                    "value": info["value"]
                    * (0.5 if info["direction"] == "lower" else 2.0),
                    "tolerance": 0.45,
                    "direction": info["direction"],
                }
                for name, info in entry["metrics"].items()
            }
        }
        bad = tmp_path / "doctored.json"
        bad.write_text(json.dumps(doctored))
        assert main(["perf-check", "--bench", bench, "--baseline", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_update_baseline_rewrites_from_the_latest_entry(self, tmp_path):
        bench = str(tmp_path / "BENCH_ci.json")
        append_bench_entry(
            PerfRun(metrics={"m": 3.0}, directions={"m": "higher"},
                    units={"m": ""}, samples={"m": [3.0]}),
            bench,
        )
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["perf-check", "--bench", bench, "--baseline", baseline,
             "--update-baseline"]
        ) == 0
        with open(baseline) as handle:
            assert json.load(handle)["metrics"]["m"]["value"] == 3.0
