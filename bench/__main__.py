"""Command line: ``python3 -m bench {run,golden,compare}``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: {ROOT / 'src' / 'repro'} not found; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

from bench import compare, golden, report, runner  # noqa: E402
from bench.inputs import build_inputs  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

GOLDEN_SEEDS = (1, 2)


def _run(args) -> int:
    names = args.workload or list(WORKLOADS)
    modes = [0, 1] if args.trace is None else [args.trace]
    if len(names) > 1 or len(modes) > 1:
        return report.run_set(
            names, modes, args.seed, args.seconds, args.smoke, args.out
        )
    # One workload, one mode: this process is the fresh subprocess.
    trace_path = None
    if args.out and modes[0]:
        trace_path = str(Path(args.out).with_suffix(".trace.json"))
    record = runner.run_workload(
        names[0], args.seed, args.seconds, bool(modes[0]), args.smoke, trace_path
    )
    runner.print_record(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()
                    if name != "failed_ratio"
                },
            }
        )
    )
    return 0 if record["correct"] else 1


def _golden(_args) -> int:
    golden.regenerate(WORKLOADS.values(), GOLDEN_SEEDS, build_inputs)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds", type=float, default=20.0,
        help="timed work per untraced run (a traced run of a set gets half)",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=None)
    run.add_argument("--traced", dest="trace", action="store_const", const=1)
    run.add_argument("--untraced", dest="trace", action="store_const", const=0)
    run.add_argument(
        "--smoke", action="store_true",
        help="one repetition of 5 scans per run",
    )
    run.add_argument("--out", help="results file (default bench/results/<machine>-<commit>.json)")
    run.set_defaults(handler=_run)

    regen = commands.add_parser("golden", help="rebuild bench/golden.json")
    regen.add_argument("--regen", action="store_true", required=True)
    regen.set_defaults(handler=_golden)

    diff = commands.add_parser("compare", help="apply every direction and bound")
    diff.add_argument("baseline")
    diff.add_argument("candidate")
    diff.set_defaults(handler=lambda args: compare.main(args.baseline, args.candidate))

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
