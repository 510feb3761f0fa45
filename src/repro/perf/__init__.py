"""Disk-array timing model — the substitute for the paper's §V testbed.

The paper measures read MB/s on a physical 16-disk array of Seagate Savvio
10K.3 drives.  Without that hardware, this package prices each request with
a classic mechanical-disk service-time model (seek + rotational settle per
non-contiguous run + media transfer) and completes a striped request when
its slowest disk finishes.  Absolute MB/s are calibration constants; the
*contrasts* between codes — how many disks share a request, how many extra
elements degraded reads drag in — are layout properties faithfully carried
over from the access engine, and they are what Figures 6 and 7 report.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.diskmodel": ("DiskParameters", "disk_service_time_ms"),
    "repro.perf.timing": ("ArrayTimingModel",),
    "repro.perf.experiments": (
        "ReadSpeedResult", "degraded_read_experiment",
        "normal_read_experiment",
    ),
    "repro.perf.queueing": (
        "ArrayQueueSimulator", "ArrivingRequest", "QueueStats",
        "latency_under_load", "poisson_requests",
    ),
})

__all__ = [
    "ArrayQueueSimulator",
    "ArrayTimingModel",
    "ArrivingRequest",
    "DiskParameters",
    "QueueStats",
    "ReadSpeedResult",
    "degraded_read_experiment",
    "disk_service_time_ms",
    "latency_under_load",
    "normal_read_experiment",
    "poisson_requests",
]
