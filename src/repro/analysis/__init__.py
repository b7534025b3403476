"""Experiment harnesses: sweeps, ordering experiments, and report tables.

Everything `benchmarks/` uses to regenerate the paper's tables and figures
lives here, so experiments are runnable both under pytest-benchmark and as
plain scripts (see ``examples/``).

The sweep and ordering harnesses import every pipeline class, so they are
loaded lazily (PEP 562) rather than at package import.
"""

from repro.analysis.report import format_ratio, format_table, series_block

__all__ = [
    "ConstructionResult",
    "ORDERINGS",
    "OrderingResult",
    "cache_size_sweep",
    "format_ratio",
    "format_table",
    "occupancy_slice",
    "print_slice",
    "render_parallel_timeline",
    "render_serial_timeline",
    "make_orderings",
    "run_construction",
    "run_ordering_experiment",
    "series_block",
    "suggest_cache_config",
    "sweep_resolutions",
    "tau_sweep",
]

_LAZY = {
    "occupancy_slice": "repro.analysis.visualize",
    "print_slice": "repro.analysis.visualize",
    "render_parallel_timeline": "repro.analysis.timeline",
    "render_serial_timeline": "repro.analysis.timeline",
    "ConstructionResult": "repro.analysis.sweeps",
    "cache_size_sweep": "repro.analysis.sweeps",
    "run_construction": "repro.analysis.sweeps",
    "suggest_cache_config": "repro.analysis.sweeps",
    "sweep_resolutions": "repro.analysis.sweeps",
    "tau_sweep": "repro.analysis.sweeps",
    "ORDERINGS": "repro.analysis.orderings",
    "OrderingResult": "repro.analysis.orderings",
    "make_orderings": "repro.analysis.orderings",
    "run_ordering_experiment": "repro.analysis.orderings",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
