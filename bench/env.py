"""Process environment of a benchmark run: paths, engine guard, CPU
pinning, CPU clocks, memory high-water marks and leak checks.

Everything the benchmark writes lives under ``.bench_build/`` in the
checkout (the C-kernel cache and the durable workload's state
directory), except the shard payload rings, which the program itself
creates in ``/dev/shm``.
"""

from __future__ import annotations

import contextlib
import glob
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, Iterator, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
KERNEL_CACHE = os.path.join(BUILD_DIR, "ckernel")
STATE_ROOT = os.path.join(BUILD_DIR, "state")

#: Variables that would silently change which engine or how many threads
#: the stack uses; a run must not inherit them from the caller's shell.
_SCRUBBED = ("REPRO_WORKERS", "REPRO_PROCESS_POOL")


def child_env() -> Dict[str, str]:
    """Environment for workload subprocesses (and for this process's own
    kernel build): source tree importable, kernel cache in the checkout."""
    env = dict(os.environ)
    for name in _SCRUBBED:
        env.pop(name, None)
    env["REPRO_CKERNEL_CACHE"] = KERNEL_CACHE
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def require_source_tree() -> None:
    """Exit non-zero when the program under test is not in the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"bench: {SRC}/repro not found — the benchmark measures the "
            "program in this checkout and cannot run without it\n"
        )
        raise SystemExit(2)


def load_engine(allow_numpy: bool) -> bool:
    """Build/load the C kernel before any timer starts.

    Returns whether the kernel is on.  Without it the numbers belong to
    a different engine, so the run is refused unless ``allow_numpy``.
    """
    from repro.util.ckernel import xor_kernel

    on = xor_kernel() is not None
    if not on and not allow_numpy:
        sys.stderr.write(
            "bench: the C XOR kernel did not build or load (no `cc`?); "
            "refusing to measure the numpy engine — pass --allow-numpy "
            "to do so on purpose\n"
        )
        raise SystemExit(3)
    return on


# -- CPU placement -------------------------------------------------------------


def pin_to_first_cpu() -> int:
    """Pin this process, and so every process it starts from now on, to
    the first CPU of its affinity mask; returns that CPU.

    The served stack is serial (the load generator and a shard worker
    take turns), so one CPU gives the throughput of two; what the second
    one adds is cross-CPU wake-ups, and with them twice the run-to-run
    spread (README, "The estimator rule").
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True: pass"
)


@contextlib.contextmanager
def idle_poll() -> Iterator[None]:
    """Keep this process's CPU from halting while the body runs.

    A served op crosses four thread and process wake-ups.  On a virtual
    CPU each wake-up from idle is an exit to the hypervisor, which costs
    more than the program's own work on an unloaded op and drifts by
    tens of per cent over minutes.  A ``SCHED_IDLE`` busy loop on the
    same CPU (the process inherits the pinning) yields to every other
    task at once but never lets the CPU halt — what ``idle=poll`` does
    on a machine one may configure.  If the loop cannot run, the
    numbers belong to another machine state, so the run fails.
    """
    proc = subprocess.Popen([sys.executable, "-S", "-c", _SPIN])
    try:
        yield
        if proc.poll() is not None:
            raise RuntimeError(
                f"the idle-poll loop exited with status {proc.returncode} "
                "(SCHED_IDLE refused?); serve timings would not compare"
            )
    finally:
        proc.kill()
        proc.wait()


def describe(c_kernel: bool, cpu: int) -> dict:
    """What a reader needs to know before comparing two reports."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "c_kernel": c_kernel,
        "nproc": os.cpu_count(),
        "pinning": f"every process of the run on CPU {cpu}",
        "idle_poll": "SCHED_IDLE busy loop on that CPU during serve_*",
        "state_dir": "in the checkout (.bench_build/state); the delta log "
                     "is flushed, never fsynced, so this is page-cache speed",
        "network": "loopback TCP, load generator in the server's process",
        "disks": "SimDisk arrays in RAM",
    }


# -- clocks and memory ---------------------------------------------------------


def cpu_ns(pid: int) -> int:
    """CPU time consumed so far by process ``pid``, in nanoseconds.

    Linux encodes a process's CPU clock as a clock id derived from the
    pid (``MAKE_PROCESS_CPUCLOCK``), which ``clock_gettime`` accepts for
    any process we may signal — ns resolution, unlike ``/proc`` ticks.
    """
    if pid == os.getpid():
        return time.process_time_ns()
    return time.clock_gettime_ns(((~pid) << 3) | 2)


def total_cpu_ns(pids: Iterable[int]) -> int:
    total = 0
    for pid in pids:
        try:
            total += cpu_ns(pid)
        except OSError:  # the worker died; its clock is gone with it
            pass
    return total


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Σ of the processes' resident-set high-water marks (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


# -- hygiene -------------------------------------------------------------------


def ring_segments() -> set:
    """Names of the shard payload rings currently in ``/dev/shm``."""
    return set(glob.glob("/dev/shm/repro_ring_*"))


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, not ours
        return True
    return True


def group_members(pgid: int) -> List[int]:
    """Pids of the live processes in process group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid pgrp ...; comm may hold spaces
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # gone meanwhile
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            found.append(int(entry))
    return found


def leaks(rings_before: set, bench_pid: int) -> List[str]:
    """What a finished workload subprocess left behind (empty = clean).

    The subprocess leads a process group of its own, so whatever it
    started — shard workers, restarted ones, the idle-poll loop, the
    probes' helpers — is found by group, report or no report.  What is
    found is killed or removed, so one leak does not spoil the next run.
    """
    # multiprocessing's resource tracker exits by itself once it sees
    # its parent gone; give it a moment before calling it a leak
    deadline = time.monotonic() + 5.0
    while group_members(bench_pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    found = []
    for pid in group_members(bench_pid):
        found.append(f"live process {pid}")
        with contextlib.suppress(ProcessLookupError):  # went just now
            os.kill(pid, signal.SIGKILL)
    # a new segment whose creator is gone is a leak; one whose creator
    # still runs belongs to somebody else's benchmark
    for path in sorted(ring_segments() - rings_before):
        if not alive(int(path.split("_")[-2])):
            found.append(f"shm segment {path}")
            os.unlink(path)
    for path in sorted(glob.glob(os.path.join(STATE_ROOT, f"{bench_pid}*"))):
        found.append(f"state directory {path}")
        shutil.rmtree(path, ignore_errors=True)
    return found
