"""The quiet-state estimator and spread arithmetic.

A workload replays K fixed units (ops or blocks) R times.  The sandbox's
noise is a CPU that runs slower for a while (``process_time`` moves with
wall time), so the mean or median of a unit's R replays measures the
neighbours as much as the program.  Each unit is therefore summarised by
its *fastest* replay and the workload's figure is aggregated over the K
units.  The replays of a unit execute the same requests on the same
state, so whatever a replay takes beyond the fastest one is interference
— from outside on the single-process workloads, and from the scheduler's
interleaving of the processes on the served ones, where with every
process on one CPU that is never halted (``bench.env``) the fastest
replay repeats better than any low percentile did (README).
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

import numpy as np


def best_total(matrix: np.ndarray) -> float:
    """Σ over units of each unit's fastest replay.

    ``matrix`` is ``(replays, units)``; the result is the time one pass
    over all units takes when every unit runs undisturbed.
    """
    return float(np.min(matrix, axis=0).sum())


def best_mean(matrix: np.ndarray) -> float:
    """Mean over units of each unit's lowest value; NaNs (failed ops) and
    units that never produced a value are left out."""
    cols = [
        np.nanmin(matrix[:, k]) for k in range(matrix.shape[1])
        if not np.isnan(matrix[:, k]).all()
    ]
    return float(np.mean(cols)) if cols else 0.0


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile spread as a share of the
    median — the same arithmetic the acceptance gate applies."""
    vals = [float(v) for v in values]
    med = statistics.median(vals)
    if len(vals) < 2:
        return {"n": len(vals), "median": med, "q1": med, "q3": med,
                "spread": 0.0}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {
        "n": len(vals),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }
