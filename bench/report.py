"""Host fingerprint and the results file of a full set of runs.

A number means something only on the host that produced it: every
results file records how many CPUs the process could use, a machine hash
(CPU model + memory size), interpreter and numpy versions, the commit,
the seed, the repetitions used and every per-repetition sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from bench.metrics import ROOT

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, object]:
    cpu_model = _first_line("/proc/cpuinfo", "model name")
    mem_total = _first_line("/proc/meminfo", "MemTotal")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": hashlib.sha256(
            f"{cpu_model}|{mem_total}".encode()
        ).hexdigest()[:12],
        "cpu_model": cpu_model,
        "mem_total": mem_total,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def run_set(
    workloads: List[str],
    modes: List[int],
    seed: int,
    seconds: float,
    smoke: bool,
    out: Optional[str],
) -> int:
    """Run every workload × mode in a fresh subprocess; write one results file.

    A fresh process per run keeps ``peak_rss_mb`` and the GC heap of one
    workload out of the next.  Returns non-zero when any run was
    incorrect or crashed.
    """
    host = fingerprint()
    path = Path(out) if out else RESULTS_DIR / f"{host['machine']}-{host['commit']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    results = {"fingerprint": host, "seed": seed, "smoke": smoke, "workloads": {}}
    status = 0
    for name in workloads:
        for mode in modes:
            # A traced run spends half its repetitions untraced, for the
            # overhead ratio; half the seconds keeps it at ~2 traced ones.
            run_seconds = seconds / 2 if mode else seconds
            mode_name = "traced" if mode else "untraced"
            record_path = path.with_suffix(f".{name}.{mode_name}.json")
            command = [
                sys.executable, "-m", "bench", "run",
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(run_seconds),
                "--trace", str(mode),
                "--out", str(record_path),
            ]
            if smoke:
                command.append("--smoke")
            code = subprocess.run(command, cwd=ROOT).returncode
            if record_path.exists():
                with open(record_path, encoding="utf-8") as handle:
                    results["workloads"].setdefault(name, {})[mode_name] = (
                        json.load(handle)
                    )
                record_path.unlink()
            status = status or code
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"results: {path}")
    return status
