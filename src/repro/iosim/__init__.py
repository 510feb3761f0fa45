"""Discrete I/O-load simulation — the paper's §IV evaluation substrate.

Workloads are streams of the paper's 3-tuples ``<S, L, T>`` (start element,
length, repeat count) tagged read or write.  The
:class:`~repro.iosim.engine.AccessEngine` maps each operation to the exact
per-disk element accesses its code layout incurs — including degraded-read
reconstruction reads and partial-stripe-write parity RMW — and the metrics
module folds those into the paper's two measures: the load-balancing factor
``LF = Lmax / Lmin`` and the total I/O cost.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.iosim.engine": ("AccessEngine", "DiskLoads"),
    "repro.iosim.metrics": (
        "io_cost", "load_balancing_factor", "run_workload",
    ),
    "repro.iosim.request": ("Operation", "ReadOp", "WriteOp"),
    "repro.iosim.trace": (
        "load_trace", "save_trace", "sequential_workload", "zipf_workload",
    ),
    "repro.iosim.workloads": (
        "Workload", "mixed_workload", "read_intensive_workload",
        "read_only_workload", "workload_from_ratio",
    ),
})

__all__ = [
    "AccessEngine",
    "DiskLoads",
    "Operation",
    "ReadOp",
    "WriteOp",
    "Workload",
    "io_cost",
    "load_balancing_factor",
    "load_trace",
    "mixed_workload",
    "read_intensive_workload",
    "read_only_workload",
    "run_workload",
    "save_trace",
    "sequential_workload",
    "workload_from_ratio",
    "zipf_workload",
]
