"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a shell-friendly surface:

* ``layout``   — print a code's stripe geometry and per-disk roles;
* ``features`` — the §III-D feature table;
* ``fig4`` / ``fig5`` — the I/O-load series for one workload class;
* ``fig6`` / ``fig7`` — the read-speed series on the disk timing model;
* ``recovery`` — single-failure hybrid-vs-conventional read counts;
* ``crash`` — the crash-point fuzzing campaign (tear journaled writes
  at every protocol phase, remount, recover, verify).

Every command prints the same tables the benchmark suite writes to
``benchmarks/results/``; sizes are configurable so quick looks stay quick.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.features import feature_table, format_feature_table
from repro.analysis.figures import (
    WORKLOAD_NAMES,
    fig4_load_balancing,
    fig5_io_cost,
    fig6_normal_read,
    fig7_degraded_read,
    single_failure_recovery_series,
)
from repro.codes.base import describe_families
from repro.codes.registry import (
    EVALUATION_CODES,
    EVALUATION_PRIMES,
    available_codes,
    make_code,
)


def _series_table(title, primes, series, integer=False):
    lines = [title,
             f"{'code':<8}" + "".join(f"{f'p={p}':>12}" for p in primes)]
    for code, values in series.items():
        row = f"{code:<8}"
        for v in values:
            row += f"{v:>12}" if integer else f"{v:>12.2f}"
        lines.append(row)
    return "\n".join(lines)


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--codes", nargs="+", default=list(EVALUATION_CODES),
        choices=sorted(available_codes()),
        help="codes to include (default: the paper's five)",
    )
    parser.add_argument(
        "--primes", nargs="+", type=int, default=list(EVALUATION_PRIMES),
        help="primes to sweep (default: 5 7 11 13)",
    )
    parser.add_argument(
        "--ops", type=int, default=2000,
        help="operations/requests per run (default: paper's 2000)",
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--chart", action="store_true",
        help="also render the series as ASCII bar charts",
    )


def _maybe_chart(args, title, primes, series) -> None:
    if getattr(args, "chart", False):
        from repro.analysis.ascii_chart import hbar_chart

        print()
        print(hbar_chart(title, series, primes))


def cmd_layout(args) -> int:
    layout = make_code(args.code, args.p)
    print(repr(layout))
    print(f"families: {dict(describe_families(layout))}")
    print(f"storage efficiency: {layout.storage_efficiency:.4f}")
    legend = ", ".join(
        f"{letter}={family}" for family, letter in
        layout.family_letters().items()
    )
    print(f"grid (D=data, {legend}):")
    for row in layout.layout_grid():
        print("  " + " ".join(row))
    return 0


def cmd_features(args) -> int:
    rows = feature_table(args.codes, args.primes)
    print(format_feature_table(rows))
    return 0


def cmd_fig4(args) -> int:
    series = fig4_load_balancing(
        args.workload, primes=args.primes, codes=args.codes,
        seed=args.seed, num_ops=args.ops,
    )
    print(_series_table(
        f"Figure 4 ({args.workload}): load balancing factor",
        args.primes, series,
    ))
    _maybe_chart(args, "LF (lower = better balanced)", args.primes, series)
    return 0


def cmd_fig5(args) -> int:
    series = fig5_io_cost(
        args.workload, primes=args.primes, codes=args.codes,
        seed=args.seed, num_ops=args.ops,
    )
    print(_series_table(
        f"Figure 5 ({args.workload}): total I/O cost",
        args.primes, series, integer=True,
    ))
    _maybe_chart(args, "I/O cost (lower = cheaper)", args.primes,
                 {c: [float(v) for v in vs] for c, vs in series.items()})
    return 0


def cmd_fig6(args) -> int:
    out = fig6_normal_read(
        primes=args.primes, codes=args.codes, seed=args.seed,
        num_requests=args.ops,
    )
    print(_series_table("Figure 6(a): normal read speed (MB/s)",
                        args.primes, out["speed"]))
    print()
    print(_series_table("Figure 6(b): average per disk (MB/s)",
                        args.primes, out["average"]))
    _maybe_chart(args, "normal read speed (MB/s)", args.primes,
                 out["speed"])
    return 0


def cmd_fig7(args) -> int:
    out = fig7_degraded_read(
        primes=args.primes, codes=args.codes, seed=args.seed,
        num_requests_per_case=max(1, args.ops // 10),
    )
    print(_series_table("Figure 7(a): degraded read speed (MB/s)",
                        args.primes, out["speed"]))
    print()
    print(_series_table("Figure 7(b): average per disk (MB/s)",
                        args.primes, out["average"]))
    _maybe_chart(args, "degraded read speed (MB/s)", args.primes,
                 out["speed"])
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.verification import verify_reproduction

    primes = tuple(args.primes)
    report = verify_reproduction(primes=primes)
    print(report.render())
    return 0 if report.ok else 1


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(
        primes=args.primes, codes=args.codes,
        num_ops=args.ops, num_requests=args.ops,
        num_requests_per_case=max(1, args.ops // 10), seed=args.seed,
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def cmd_recovery(args) -> int:
    series = single_failure_recovery_series(
        primes=args.primes, codes=args.codes
    )
    print(f"{'code':<8}{'p':>4}{'conventional':>14}{'hybrid':>10}"
          f"{'saved':>8}")
    for code, rows in series.items():
        for row in rows:
            print(
                f"{code:<8}{row['p']:>4}"
                f"{row['conventional_reads']:>14.1f}"
                f"{row['hybrid_reads']:>10.1f}{row['savings']:>8.1%}"
            )
    return 0


def cmd_crash(args) -> int:
    from repro.faults.chaos import run_crash_points

    failures = 0
    for code in args.codes:
        for p in args.primes:
            results = run_crash_points(code, p, seed=args.seed)
            bad = [r for r in results if not r.ok]
            failures += len(bad)
            by_cls = {}
            for r in results:
                for cls, n in r.classifications.items():
                    by_cls[cls] = by_cls.get(cls, 0) + n
            status = "ok" if not bad else f"{len(bad)} VIOLATIONS"
            print(f"{code:<8}p={p:<3}{len(results):>4} trials  "
                  f"{status:<14}{by_cls}")
            for r in bad:
                print(f"    FAIL {r.pattern}/{r.phase}"
                      f"@{r.occurrence}: {r.violations} stripes broken")
    return 0 if failures == 0 else 1


def cmd_durability(args) -> int:
    import json

    from repro.codes.registry import make_code
    from repro.durability import DurabilityParams, simulate_durability

    params = DurabilityParams(
        mission_hours=args.years * 24 * 365,
        mtbf_hours=args.mtbf_hours,
        rebuild_hours=args.rebuild_hours,
        latent_rate=args.latent_rate,
        rot_rate=args.rot_rate,
        scrub_interval_hours=args.scrub_hours,
        iterations=args.iterations,
    )
    estimates = [
        simulate_durability(make_code(code, p), params, seed=args.seed)
        for code in args.codes
        for p in args.primes
    ]
    if args.json:
        print(json.dumps([
            {
                "code": e.code, "p": e.p, "disks": e.num_disks,
                "iterations": e.iterations, "losses": e.losses,
                "rebuild_hours": e.rebuild_hours,
                "mttdl_hours": e.mttdl_hours,
                "mttdl_ci_hours": list(e.mttdl_ci_hours),
                "p_loss": e.p_loss, "p_loss_ci": list(e.p_loss_ci),
                "causes": e.causes,
            }
            for e in estimates
        ], indent=2))
        return 0

    def hours(x: float) -> str:
        return "inf" if x == float("inf") else f"{x:.3g}"

    print(f"{'code':<8}{'p':>4}{'losses':>8}{'P(loss)':>10}"
          f"{'MTTDL(h)':>12}{'95% CI':>22}  causes")
    for e in estimates:
        lo, hi = e.mttdl_ci_hours
        ci = f"[{hours(lo)}, {hours(hi)}]"
        cause = ", ".join(f"{k}={v}" for k, v in e.causes.items()) or "-"
        print(f"{e.code:<8}{e.p:>4}{e.losses:>5}/{e.iterations:<3}"
              f"{e.p_loss:>9.4f}{hours(e.mttdl_hours):>12}{ci:>22}  "
              f"{cause}")
    return 0


def _serve_config(args):
    from repro.serve.server import ServerConfig

    return ServerConfig(
        shards=args.shards,
        backend=args.backend,
        code=args.code,
        p=args.p,
        stripes_per_shard=args.stripes_per_shard,
        element_size=args.element_size,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        rate=args.rate,
        write_back=args.write_back,
        host=args.host,
        port=args.port,
        ack=args.ack,
        state_dir=args.state_dir,
        recv_timeout_s=args.recv_timeout,
        heartbeat_s=args.heartbeat,
        max_restarts=args.max_restarts,
        default_deadline_ms=args.deadline_ms,
        profile_dir=getattr(args, "profile", None),
    )


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import make_backends, serve_forever

    config = _serve_config(args)
    backends = make_backends(config)  # fork before the loop exists
    stats = asyncio.run(serve_forever(
        config,
        backends,
        duration=args.duration,
        announce=lambda host, port: print(
            f"serving {config.shards}x{config.backend} shard(s) on "
            f"{host}:{port}", flush=True,
        ),
    ))
    print(f"served {stats['ops']} ops "
          f"(busy {stats['busy']}, errors {stats['errors']}, "
          f"avg batch {stats['avg_batch']:.1f})")
    return 0


def _print_profiles(profile_dir: str, top: int = 10) -> None:
    """Print a top-N table per ``.pstats`` dump in ``profile_dir``.

    One dump per component: ``server-loop`` (the asyncio loop and the
    connection callbacks it runs, process shards' batch hand-off
    included), ``queue-N`` (an inline shard's coalescer executor
    thread), ``shard-N`` (each worker process's batch execution)."""
    import glob
    import io
    import pstats

    for path in sorted(glob.glob(os.path.join(profile_dir, "*.pstats"))):
        out = io.StringIO()
        stats = pstats.Stats(path, stream=out)
        stats.sort_stats("cumulative").print_stats(top)
        print(f"\n== {os.path.basename(path)} "
              f"(top {top} by cumulative time) ==")
        lines = [
            line for line in out.getvalue().splitlines()
            if line.strip()
        ]
        # skip the pstats banner; keep the column header + rows
        start = next(
            (i for i, line in enumerate(lines) if "ncalls" in line), 0
        )
        print("\n".join(lines[start:]))


def cmd_bench_serve(args) -> int:
    import asyncio
    import json

    from repro.serve.loadgen import run_closed_loop, run_open_loop
    from repro.serve.server import BlockServer, make_backends

    if args.profile:
        os.makedirs(args.profile, exist_ok=True)
    config = _serve_config(args)
    backends = make_backends(config)  # fork before the loop exists

    async def run():
        server = BlockServer(config, backends)
        host, port = await server.start()
        num_elements = server.router.num_elements
        if args.open_rate is not None:
            report = await run_open_loop(
                host, port,
                num_elements=num_elements,
                element_size=config.element_size,
                rate=args.open_rate,
                duration=args.duration or 5.0,
                clients=args.clients,
                read_frac=args.read_frac,
                seed=args.seed,
                max_extent=args.max_extent,
                verify=args.verify,
            )
        else:
            report = await run_closed_loop(
                host, port,
                num_elements=num_elements,
                element_size=config.element_size,
                clients=args.clients,
                ops_per_client=args.ops,
                read_frac=args.read_frac,
                seed=args.seed,
                duration=args.duration,
                max_extent=args.max_extent,
                window=args.window,
                verify=args.verify,
            )
        stats = server.stats()
        await server.close()
        return report, stats

    if args.profile:
        # the parent profile covers the event loop end to end: frame
        # decode, admission, routing, process-shard batch hand-off,
        # response flushes; inline shards' coalescer threads and shard
        # workers dump their own files at close
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        report, stats = asyncio.run(run())
        profiler.disable()
        profiler.dump_stats(
            os.path.join(args.profile, "server-loop.pstats")
        )
    else:
        report, stats = asyncio.run(run())
    payload = {"load": report.to_dict(), "server": stats}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{report.ops} ops in {report.duration_s:.2f}s = "
            f"{report.ops_per_sec:.1f} ops/s  "
            f"p50 {report.percentile_ms(50):.2f}ms  "
            f"p99 {report.percentile_ms(99):.2f}ms"
        )
        print(
            f"reads {report.reads}  writes {report.writes}  "
            f"busy {report.busy}  errors {report.errors}  "
            f"verify_failures {report.verify_failures}"
        )
        print(
            f"server: {stats['shards']}x{stats['backend']} shard(s), "
            f"avg batch {stats['avg_batch']:.1f}, "
            f"zero-copy flushes {stats['zero_copy_flushes']}"
            f"/{stats['flushes']}"
        )
    if args.profile:
        _print_profiles(args.profile)
    return 1 if (report.errors or report.verify_failures) else 0


def cmd_serve_chaos(args) -> int:
    import json

    from repro.serve.chaos import run_chaos_grid

    codes = args.codes or ["dcode"]
    primes = args.primes or [5]
    results = run_chaos_grid(
        codes, primes,
        seed=args.seed,
        shards=args.shards,
        clients=args.clients,
        ops_per_client=args.ops,
        worker_kills=args.worker_kills,
        parent_kills=args.parent_kills,
        stalls=args.stalls,
        evil_connections=args.evil,
        recv_timeout_s=args.recv_timeout or 2.0,
        deadline_ms=args.deadline_ms,
    )
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for key, summary in results.items():
            verdict = "PASS" if summary["passed"] else "FAIL"
            print(
                f"{key:>12}: {verdict}  ops={summary['ops']} "
                f"retries={summary['retries']} "
                f"restarts={summary['restarts']} "
                f"kills={summary['worker_kills']}+"
                f"{summary['parent_kills']} "
                f"stalls={summary['stalls']} "
                f"evil={summary['evil_frames']}"
            )
    return 0 if all(s["passed"] for s in results.values()) else 1


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--backend", choices=("inline", "process"),
                        default="process")
    parser.add_argument("--code", default="dcode",
                        choices=sorted(available_codes()))
    parser.add_argument("--p", type=int, default=7)
    parser.add_argument("--stripes-per-shard", type=int, default=16)
    parser.add_argument("--element-size", type=int, default=64)
    parser.add_argument("--max-batch", type=int, default=64,
                        help="coalescer batch cap (1 = serial dispatch)")
    parser.add_argument("--max-inflight", type=int, default=256,
                        help="per-tenant admission bound")
    parser.add_argument("--rate", type=float, default=None,
                        help="per-tenant token-bucket ops/s "
                             "(default: unlimited)")
    parser.add_argument("--write-back",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="buffer writes in the stripe cache "
                             "(--no-write-back = direct per-op writes)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port")
    parser.add_argument("--ack", choices=("buffered", "durable"),
                        default="buffered",
                        help="durable = acknowledge writes only after "
                             "the shard checkpoint barrier")
    parser.add_argument("--state-dir", default=None,
                        help="directory for durable shard state files "
                             "(default: fresh temp dir)")
    parser.add_argument("--recv-timeout", type=float, default=None,
                        help="per-batch shard reply timeout in seconds "
                             "(default: wait forever)")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        help="idle-shard heartbeat period in "
                             "seconds (0 = no heartbeat)")
    parser.add_argument("--max-restarts", type=int, default=8,
                        help="shard restart budget before it is "
                             "declared failed")
    parser.add_argument("--deadline-ms", type=int, default=0,
                        help="server-side default per-request deadline "
                             "(0 = none)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D-Code RAID-6 reproduction (Fu & Shu, IPDPS 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="print a stripe layout")
    p_layout.add_argument("code", choices=sorted(available_codes()))
    p_layout.add_argument("p", type=int)
    p_layout.set_defaults(func=cmd_layout)

    p_feat = sub.add_parser("features", help="§III-D feature table")
    _add_grid_options(p_feat)
    p_feat.set_defaults(func=cmd_features)

    for name, func, needs_workload in (
        ("fig4", cmd_fig4, True),
        ("fig5", cmd_fig5, True),
        ("fig6", cmd_fig6, False),
        ("fig7", cmd_fig7, False),
    ):
        p_fig = sub.add_parser(name, help=f"regenerate {name} series")
        if needs_workload:
            p_fig.add_argument("workload", choices=WORKLOAD_NAMES)
        _add_grid_options(p_fig)
        p_fig.set_defaults(func=func)

    p_ver = sub.add_parser("verify",
                           help="run the full correctness audit")
    p_ver.add_argument("--primes", nargs="+", type=int,
                       default=list(EVALUATION_PRIMES))
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("report",
                           help="full reproduction report (markdown)")
    _add_grid_options(p_rep)
    p_rep.add_argument("--output", "-o", default=None,
                       help="write to a file instead of stdout")
    p_rep.set_defaults(func=cmd_report)

    p_rec = sub.add_parser("recovery",
                           help="single-failure recovery read counts")
    p_rec.add_argument("--codes", nargs="+", default=["xcode", "dcode"],
                       choices=sorted(available_codes()))
    p_rec.add_argument("--primes", nargs="+", type=int,
                       default=list(EVALUATION_PRIMES))
    p_rec.set_defaults(func=cmd_recovery)

    p_crash = sub.add_parser(
        "crash", help="crash-point fuzzing campaign (write-hole recovery)"
    )
    p_crash.add_argument("--codes", nargs="+", default=["dcode"],
                         choices=sorted(available_codes()))
    p_crash.add_argument("--primes", nargs="+", type=int, default=[5, 7])
    p_crash.add_argument("--seed", type=int, default=2015)
    p_crash.set_defaults(func=cmd_crash)

    p_dur = sub.add_parser(
        "durability",
        help="Monte-Carlo MTTDL / P(data loss) with silent corruption",
    )
    p_dur.add_argument("--codes", nargs="+",
                       default=["dcode", "rdp", "xcode"],
                       choices=sorted(available_codes()))
    p_dur.add_argument("--primes", nargs="+", type=int, default=[7])
    p_dur.add_argument("--iterations", type=int, default=400)
    p_dur.add_argument("--years", type=float, default=10.0,
                       help="mission length per iteration")
    p_dur.add_argument("--mtbf-hours", type=float, default=1.4e6)
    p_dur.add_argument("--rebuild-hours", type=float, default=None,
                       help="override the derived rebuild window")
    p_dur.add_argument("--latent-rate", type=float, default=1e-4,
                       help="latent sector errors per disk-hour")
    p_dur.add_argument("--rot-rate", type=float, default=1e-4,
                       help="silent bit-rot events per disk-hour")
    p_dur.add_argument("--scrub-hours", type=float, default=168.0,
                       help="scrub campaign cadence (0 disables)")
    p_dur.add_argument("--seed", type=int, default=2015)
    p_dur.add_argument("--json", action="store_true")
    p_dur.set_defaults(func=cmd_durability)

    p_srv = sub.add_parser(
        "serve",
        help="run the async block service over sharded volumes",
    )
    _add_serve_options(p_srv)
    p_srv.add_argument("--duration", type=float, default=None,
                       help="seconds to serve (default: forever)")
    p_srv.set_defaults(func=cmd_serve)

    p_bsrv = sub.add_parser(
        "bench-serve",
        help="drive the block service with a seeded load generator",
    )
    _add_serve_options(p_bsrv)
    p_bsrv.add_argument("--clients", type=int, default=16)
    p_bsrv.add_argument("--ops", type=int, default=180,
                        help="ops per client (closed loop)")
    p_bsrv.add_argument("--read-frac", type=float, default=0.5)
    p_bsrv.add_argument("--window", type=int, default=32,
                        help="per-client pipeline depth")
    p_bsrv.add_argument("--seed", type=int, default=2015)
    p_bsrv.add_argument("--duration", type=float, default=None,
                        help="stop issuing after this many seconds")
    p_bsrv.add_argument("--max-extent", type=int, default=8)
    p_bsrv.add_argument("--open-rate", type=float, default=None,
                        help="switch to the open loop at this offered "
                             "ops/s (Poisson arrivals)")
    p_bsrv.add_argument("--verify",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="check read bytes against a shadow image")
    p_bsrv.add_argument("--json", action="store_true")
    p_bsrv.add_argument("--profile", default=None, metavar="DIR",
                        help="cProfile every component into DIR "
                             "(server loop, per-shard coalescer, "
                             "worker processes) and print top-N "
                             "tables after the run")
    p_bsrv.set_defaults(func=cmd_bench_serve)

    p_chaos = sub.add_parser(
        "serve-chaos",
        help="seeded serving chaos campaign: worker kills, stalls, "
             "hostile frames, durability oracles",
    )
    p_chaos.add_argument("--codes", nargs="*",
                         choices=sorted(available_codes()),
                         help="codes to campaign over (default: dcode)")
    p_chaos.add_argument("--primes", nargs="*", type=int,
                         help="primes to campaign over (default: 5)")
    p_chaos.add_argument("--seed", type=int, default=2015)
    p_chaos.add_argument("--shards", type=int, default=2)
    p_chaos.add_argument("--clients", type=int, default=4)
    p_chaos.add_argument("--ops", type=int, default=40,
                         help="ops per client")
    p_chaos.add_argument("--worker-kills", type=int, default=1,
                         help="seeded mid-batch worker self-kills")
    p_chaos.add_argument("--parent-kills", type=int, default=1,
                         help="parent-side SIGKILLs mid-run")
    p_chaos.add_argument("--stalls", type=int, default=1,
                         help="over-deadline worker stalls")
    p_chaos.add_argument("--evil", type=int, default=4,
                         help="hostile connections (torn/oversize/"
                              "garbage frames)")
    p_chaos.add_argument("--recv-timeout", type=float, default=2.0,
                         help="per-batch shard reply timeout (s)")
    p_chaos.add_argument("--deadline-ms", type=int, default=0,
                         help="per-request deadline stamped by the "
                              "load generator (0 = none)")
    p_chaos.add_argument("--json", action="store_true")
    p_chaos.set_defaults(func=cmd_serve_chaos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
