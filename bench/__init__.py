"""The repo benchmark: five workloads, end-to-end metrics, and a layer trace.

Run from the repository root::

    python3 -m bench run                       # every workload, untraced then traced
    python3 -m bench run --workload campus_sparse --trace 0 --seconds 15
    python3 -m bench golden --regen            # rebuild bench/golden.json
    python3 -m bench compare A.json B.json     # apply every direction + bound

``BENCHMARK.json`` at the repository root is the contract (workloads,
metric names, units, directions, bounds); ``bench/README.md`` explains
every choice.  The benchmark drives the system only through public
functions of ``repro.*`` and never edits it.
"""
