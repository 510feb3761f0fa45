"""Run the benchmark: ``python3 bench/run.py`` / ``python -m bench.run``.

The machine contract (``BENCHMARK.json``)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in fresh subprocesses and prints, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Without
``--workload`` all six run in turn and the last line carries every
metric as ``<workload>.<metric>``.

Exit status is non-zero when the source tree or the C kernel is
missing, a verification fails, or a run leaves a process, a
shared-memory segment or a state directory behind.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):  # executed as a file: make `bench` importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import env  # noqa: E402
from bench.workloads import SPECS  # noqa: E402

#: Share of ``--seconds`` the traced run gives to the untraced reference
#: rounds and again to the traced rounds; the layer probes (a fixed
#: number of repeats each) take about as long again.
TRACE_SHARE = 0.3

#: Fresh subprocesses whose median start-to-READY time is ``setup_s``.
SETUP_SAMPLES = 5

#: The paper's counts: identical rounds, so exact for one seed.
EXACT = ("disk_ios_per_op", "load_factor", "write_amp")


def load_contract() -> dict:
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class RunFailed(Exception):
    """A workload subprocess died, leaked, or failed verification."""


def _spawn(workload: str, seed: int, extra: List[str],
           limit_s: float) -> Tuple[float, Optional[dict]]:
    """One worker subprocess: (set-up seconds, report or None).

    Set-up time runs from just before the process is created — before
    the interpreter starts, let alone ``import repro`` — to the worker's
    ``READY`` line, printed after its one untimed warm round.  The
    worker leads a process group of its own; a worker still running
    after ``limit_s`` seconds is killed with everything it started, and
    anything the group leaves behind fails the run.
    """
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    rings = env.ring_segments()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=env.ROOT, env=env.child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    watchdog = threading.Timer(limit_s, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    setup_s = None
    report = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                report = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    left = env.leaks(rings, proc.pid)
    if timed_out:
        raise RunFailed(f"{workload}: worker killed after {limit_s:.0f} s")
    if left:
        raise RunFailed(f"{workload}: run left behind: " + "; ".join(left))
    if code != 0 or setup_s is None:
        raise RunFailed(f"{workload}: worker exited with status {code}")
    return setup_s, report


def _limit(seconds: float) -> float:
    """Watchdog for a measuring worker: its rounds, then verification and
    the layer probes, which do not grow with ``--seconds``."""
    return 60.0 + 2.0 * seconds


def _check(report: dict) -> List[str]:
    problems = list(report["problems"])
    if report["failed"]:
        problems.append(f"{report['failed']} of {report['attempted']} ops failed")
    return problems


def run_untraced(spec, seed, seconds, rounds, corrupt) -> dict:
    """End-to-end metrics of one workload (tracing off)."""
    extra = ["--seconds", str(seconds)]
    if rounds is not None:
        extra += ["--rounds", str(rounds)]
    if corrupt:
        extra.append("--corrupt-shadow")
    # a fixed-rounds run is a smoke test: one start is sample enough
    samples = SETUP_SAMPLES if rounds is None else 1
    setup_times = [
        _spawn(spec.name, seed, ["--setup-only"], 60.0)[0]
        for _ in range(samples - 1)
    ]
    setup_s, report = _spawn(spec.name, seed, extra, _limit(seconds))
    setup_times.append(setup_s)
    values = dict(report["summary"])
    values["setup_s"] = statistics.median(setup_times)
    return {
        "values": values,
        "setup_samples_s": setup_times,
        "report": report,
        "problems": _check(report),
    }


def run_traced(spec, seed, seconds, rounds) -> dict:
    """Per-layer metrics: a short untraced reference, the traced rounds
    (spans on, inherited by the shard workers), then the layer probes."""
    def extra(share, trace):
        out = ["--seconds", str(seconds * share), "--trace", str(trace)]
        if rounds is not None:
            out += ["--rounds", str(max(1, rounds))]
        return out

    _, plain = _spawn(spec.name, seed, extra(TRACE_SHARE, 0), _limit(seconds))
    _, traced = _spawn(spec.name, seed, extra(TRACE_SHARE, 1), _limit(seconds))
    from bench import layers

    values = layers.assemble(spec, plain, traced)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    report = dict(traced, attempted=attempted, failed=failed)
    return {
        "values": values,
        "report": report,
        "problems": _check(plain) + _check(traced),
    }


#: Units of the diagnostics a worker reports beside the contract's
#: metrics (kept in ``--out`` reports, ungated).
DIAGNOSTIC_UNITS = {
    "cpu_us_per_op_total": "us",
    "read_p99_us": "us",
    "write_p99_us": "us",
    "late_p99_us": "us",
    "mean_over_quiet": "ratio",
    "rebuild_ms": "ms",
    "rebuild_reads": "count",
    "disk_reads_per_op": "count",
    "disk_writes_per_op": "count",
}


def _describe(spec, result, contract, trace) -> Dict[str, dict]:
    """Every value of one workload with its unit, bound and estimator,
    for the ``--out`` report."""
    listed = {
        m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]
    }
    gated = set() if trace else {m["name"] for m in contract["end_to_end"]}
    quiet = f"best per {spec.grain}"
    out = {}
    for name, value in result["values"].items():
        if name in EXACT:
            est = "exact"
        elif name == "setup_s":
            est = f"median of {len(result['setup_samples_s'])} starts"
        elif name == "peak_rss_mb":
            est = "high-water"
        else:
            est = quiet if name in gated else "as measured"
        out[name] = {
            "value": value,
            "unit": listed[name]["unit"] if name in listed
            else DIAGNOSTIC_UNITS[name],
            "bound": listed[name]["bound"] if name in gated else None,
            "est": est,
        }
    return out


def _print_table(spec, result, contract, trace) -> None:
    report = result["report"]
    print(
        f"\n== {spec.name} ({'traced' if trace else 'end-to-end'}) — "
        f"{report['rounds']} rounds x {report['blocks']} blocks, "
        f"fastest replay of each {report['grain']}, "
        f"{report['attempted']} ops attempted, {report['failed']} failed"
    )
    print(f"   why: {spec.why}")
    if not spec.in_contract:
        print("   not in BENCHMARK.json: its timings do not repeat within "
              "any bound the contract allows (README); reported, not gated")
    metrics = contract["per_layer" if trace else "end_to_end"]
    # the one timing that exists on a single workload, so that the
    # contract cannot list it as end-to-end
    extra = [] if trace else [
        m for m in contract["per_layer"]
        if m["name"] == "rebuild_mb_s" and m["name"] in result["values"]
    ]
    for m in metrics + extra:
        value = result["values"].get(m["name"], 0.0)
        bound = f"bound {m['bound']:.2f}" if "bound" in m else "ungated"
        if m["name"] in EXACT:
            bound += ", exact for one seed"
        print(
            f"   {m['name']:<40} {value:>14.4f} {m['unit']:<8} "
            f"{m['better']:<6} {bound}"
        )
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", default="all",
        choices=["all"] + [s.name for s in SPECS],
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="how long each workload measures",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: spans on, print the per-layer metrics instead",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="replay the blocks exactly this many times instead of for "
             "--seconds (smoke tests)",
    )
    parser.add_argument("--allow-numpy", action="store_true",
                        help="measure even when the C kernel is unavailable")
    parser.add_argument("--corrupt-shadow", action="store_true",
                        help="self-test: flip one shadow byte; the run must fail")
    parser.add_argument("--out", help="write the full report here as JSON")
    args = parser.parse_args(argv)

    env.require_source_tree()
    cpu = env.pin_to_first_cpu()      # inherited by every subprocess
    os.environ.update(env.child_env())
    sys.path.insert(0, env.SRC)
    c_kernel = env.load_engine(args.allow_numpy)   # builds before any timer
    environment = env.describe(c_kernel, cpu)
    print("bench environment: " + json.dumps(environment))

    metrics = contract["per_layer" if args.trace else "end_to_end"]
    specs = [s for s in SPECS if args.workload in ("all", s.name)]
    results: Dict[str, dict] = {}
    for spec in specs:
        try:
            if args.trace:
                result = run_traced(spec, args.seed, args.seconds, args.rounds)
            else:
                result = run_untraced(
                    spec, args.seed, args.seconds, args.rounds,
                    args.corrupt_shadow,
                )
        except RunFailed as exc:
            sys.stderr.write(f"bench: {exc}\n")
            return 1
        results[spec.name] = result
        _print_table(spec, result, contract, args.trace)

    correct = not any(r["problems"] for r in results.values())
    out_metrics = {}
    for name, result in results.items():
        prefix = "" if len(specs) == 1 else name + "."
        for m in metrics:
            out_metrics[prefix + m["name"]] = {
                "value": result["values"].get(m["name"], 0.0),
                "unit": m["unit"],
            }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "environment": environment,
                "seed": args.seed,
                "trace": args.trace,
                "workloads": {
                    spec.name: {
                        "metrics": _describe(
                            spec, results[spec.name], contract, args.trace
                        ),
                        "rounds": results[spec.name]["report"]["rounds"],
                        "problems": results[spec.name]["problems"],
                        "setup_samples_s":
                            results[spec.name].get("setup_samples_s", []),
                        "spans": results[spec.name]["report"].get("spans", {}),
                    }
                    for spec in specs
                },
            }, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["report"]["attempted"] for r in results.values()),
        "failed": sum(r["report"]["failed"] for r in results.values()),
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
