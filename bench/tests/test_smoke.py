"""End to end: the smoke set emits every listed name, and a directory
without the program under test yields no result."""

import json
import shutil
import subprocess
import sys
import time

from bench.metrics import ROOT, load_manifest


def test_smoke_emits_every_listed_metric_and_nothing_unlisted(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    # ~20 s on a quiet host; this one has phases in which everything takes twice as long.
    assert elapsed < 60, f"smoke set took {elapsed:.1f} s"
    manifest = load_manifest()
    results = json.loads(out.read_text())
    assert results["fingerprint"]["usable_cpus"] >= 1
    assert len(results["fingerprint"]["machine"]) == 12
    assert list(results["workloads"]) == [w["name"] for w in manifest["workloads"]]
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    for name, modes in results["workloads"].items():
        assert set(modes["untraced"]["metrics"]) == end_to_end | {"failed_ratio"}, name
        assert set(modes["traced"]["metrics"]) == per_layer, name
        assert modes["untraced"]["correct"] and modes["traced"]["correct"], name
        assert modes["untraced"]["metrics"]["map_agreement"]["value"] == 1.0
        assert modes["untraced"]["metrics"]["failed_ratio"]["value"] == 0.0
        codec_busy = modes["traced"]["metrics"]["codec.encode.busy_s"]["value"]
        assert (codec_busy > 0) == (name == "service_process")
    # The last line of each run is the contract's result object.
    lines = [line for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(lines) == 2 * len(manifest["workloads"])
    for line in lines:
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) in (end_to_end, per_layer)


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "run", "--workload", "corridor_dense",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
