"""Command-line interface: analyze, simulate, size, serve, and chaos-test HAP workloads.

Seven subcommands, mirroring how a network engineer would use the library:

* ``analyze``  — closed-form and (optionally) exact queueing analysis of a
  symmetric HAP against its Poisson baseline.
* ``simulate`` — an event-driven run with the headline statistics.
* ``size``     — minimum bandwidth for a mean-delay target.
* ``build-surfaces`` — precompute the admission/bandwidth decision surfaces
  into the versioned JSON artifact ``serve`` loads at boot.
* ``serve``    — the online admission-control service (newline-delimited
  JSON over TCP, three-tier answer path; ``--smoke`` for a self-test).
* ``bench-serve`` — closed-loop decisions/sec benchmark against an
  in-process server, one tier at a time.
* ``chaos``    — deterministic fault-injection drills
  (:mod:`repro.service.drills`): the campaign runtime by default, or
  ``--target serve|fleet|overload|drain|reload`` against the admission
  service; each prints its named invariants with measured values.

Examples
--------
::

    python -m repro.cli analyze --lam 0.0055 --mu 0.001 --lam1 0.01 \
        --mu1 0.01 --lam2 0.1 --mu2 20 -l 5 -m 3
    python -m repro.cli simulate --horizon 1e5 --seed 7
    python -m repro.cli simulate --replications 16 --retries 2 --timeout 600 \
        --checkpoint campaign.jsonl --resume
    python -m repro.cli simulate --engine columnar --replications 16
    python -m repro.cli size --delay-target 0.1
    python -m repro.cli build-surfaces --output surfaces.json
    python -m repro.cli serve --surfaces surfaces.json --port 4731
    python -m repro.cli bench-serve --tier cached --requests 5000
    python -m repro.cli chaos --kill 2 --delay 3:30 --poison spectral-kernel:eig
    python -m repro.cli chaos --target serve

All parameters default to the paper's Section-4 base set, so bare
subcommands reproduce paper numbers.

Exit codes
----------
``0`` success; ``1`` partial or total failure (some replication failed, or
a drill invariant broke — the verdict names it); ``2`` usage errors (bad
arguments, missing files, a fault flag the chaos target does not inject).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.model import HAP

__all__ = ["build_parser", "main"]


def _add_hap_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lam", type=float, default=0.0055, help="user arrival rate lambda"
    )
    parser.add_argument(
        "--mu", type=float, default=0.001, help="user departure rate mu"
    )
    parser.add_argument(
        "--lam1", type=float, default=0.01, help="application arrival rate lambda'"
    )
    parser.add_argument(
        "--mu1", type=float, default=0.01, help="application departure rate mu'"
    )
    parser.add_argument(
        "--lam2", type=float, default=0.1, help="message arrival rate lambda''"
    )
    parser.add_argument(
        "--mu2", type=float, default=20.0, help="message service rate mu''"
    )
    parser.add_argument(
        "-l", "--app-types", type=int, default=5, help="application types l"
    )
    parser.add_argument(
        "-m", "--message-types", type=int, default=3, help="message types m"
    )


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("dense", "krylov", "auto"),
        default="auto",
        help="analytic grid-evaluation backend: 'dense' forces the "
        "spectral (eigendecomposition) kernels, 'krylov' forces the "
        "sparse action-based kernels, 'auto' (default) switches on "
        "modulating-chain size; applies to every analytic solve in the "
        "command, including sweeps fanned out over worker processes",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-replication wall-clock timeout in seconds (pool path "
        "only); an overdue job's worker is killed and the job retried "
        "or recorded as a timeout failure",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retries per failed replication (same seed, exponential "
        "backoff + deterministic jitter); default 0 = record failures "
        "without retrying",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        help="campaign-wide cap on total retries (default: unlimited)",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="crash-safe JSONL journal path recording every completed "
        "replication (atomic append + fsync)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: splice already-journaled replications "
        "back in instead of re-running them; final statistics are "
        "bit-identical to an uninterrupted run",
    )


def _retry_policy_from_args(args: argparse.Namespace):
    """Build the campaign RetryPolicy from CLI flags (None = defaults)."""
    from repro.runtime.resilience import RetryPolicy

    if (
        args.timeout is None
        and args.retries == 0
        and args.retry_budget is None
    ):
        return None
    return RetryPolicy(
        max_attempts=max(1, args.retries + 1),
        timeout=args.timeout,
        retry_budget=args.retry_budget,
    )


def _hap_from_args(args: argparse.Namespace) -> HAP:
    return HAP.symmetric(
        user_arrival_rate=args.lam,
        user_departure_rate=args.mu,
        app_arrival_rate=args.lam1,
        app_departure_rate=args.mu1,
        message_arrival_rate=args.lam2,
        message_service_rate=args.mu2,
        num_app_types=args.app_types,
        num_message_types=args.message_types,
        name="cli",
    )


def _parse_delay_targets(spec: str) -> tuple[float, ...]:
    """Comma-separated delay-target grid, e.g. ``"0.1,0.15,0.2"``."""
    try:
        targets = tuple(float(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad --delay-targets spec {spec!r}") from None
    if not targets:
        raise ValueError("need at least one delay target")
    return targets


def _add_surface_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--delay-targets",
        type=str,
        default="0.1,0.15,0.2,0.3",
        help="comma-separated delay-target grid for the decision surfaces",
    )
    parser.add_argument(
        "--max-population",
        type=int,
        default=12,
        help="largest per-type population the surfaces cover",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HAP (SIGCOMM '93) analysis, simulation and sizing.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="closed-form (and optionally exact) queueing analysis"
    )
    _add_hap_arguments(analyze)
    _add_backend_argument(analyze)
    analyze.add_argument(
        "--exact",
        action="store_true",
        help="also run the exact Solution-0 QBD solve (slower)",
    )
    analyze.add_argument(
        "--profile",
        action="store_true",
        help="run the analysis under cProfile and print the top-20 "
        "cumulative-time entries before the results",
    )

    simulate = commands.add_parser("simulate", help="event-driven simulation")
    _add_hap_arguments(simulate)
    _add_backend_argument(simulate)
    simulate.add_argument("--horizon", type=float, default=100_000.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--replications",
        type=int,
        default=1,
        help="independent replications (seed, seed+1, ...); >1 reports "
        "confidence intervals",
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the replication campaign "
        "(default: machine CPU count; results are identical at any "
        "worker count)",
    )
    simulate.add_argument(
        "--rng-mode",
        choices=("legacy", "batched"),
        default="legacy",
        help="source draw mode: 'legacy' is bit-identical to the "
        "pre-rewrite engine; 'batched' draws exponentials in numpy "
        "blocks (seed- and worker-count-stable, faster, not "
        "bit-identical to legacy)",
    )
    simulate.add_argument(
        "--engine",
        choices=("heap", "columnar", "columnar-batched"),
        default="heap",
        help="simulation engine: 'heap' is the event-driven simulator; "
        "'columnar' generates the whole arrival stream as numpy arrays "
        "via the symmetric (x, y) MMPP mapping and solves the queue "
        "with a vectorized Lindley recursion — much faster, its own "
        "determinism domain, exact HAP hierarchy dynamics approximated "
        "only by the mapping's truncation box; 'columnar-batched' is "
        "another name for 'columnar': both run each seed as its own job "
        "through the replication-batched kernel",
    )
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="run one replication under cProfile and print the top-20 "
        "cumulative-time entries before the results",
    )
    _add_resilience_arguments(simulate)

    size = commands.add_parser(
        "size", help="minimum bandwidth for a mean-delay target"
    )
    _add_hap_arguments(size)
    size.add_argument("--delay-target", type=float, required=True)

    build_surfaces = commands.add_parser(
        "build-surfaces",
        help="precompute admission/bandwidth decision surfaces into the "
        "versioned JSON artifact `serve` loads at boot",
    )
    _add_hap_arguments(build_surfaces)
    build_surfaces.set_defaults(app_types=2)
    _add_surface_arguments(build_surfaces)
    build_surfaces.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pool width for the per-delay-target row fan-out (1 = "
        "in-process, keeps the probe cache warm across rows)",
    )
    build_surfaces.add_argument(
        "--output", type=str, required=True, help="artifact path to write"
    )
    build_surfaces.add_argument(
        "--binary",
        action="store_true",
        help="also write the .npz binary sidecar next to the JSON "
        "artifact — shard fleets map it instead of re-parsing JSON "
        "per process",
    )

    serve = commands.add_parser(
        "serve",
        help="online admission-control service (newline-delimited JSON "
        "over TCP; three-tier answer path)",
    )
    _add_hap_arguments(serve)
    serve.set_defaults(app_types=2)
    _add_surface_arguments(serve)
    serve.add_argument(
        "--surfaces",
        type=str,
        default=None,
        help="surface artifact from `build-surfaces`; omitted = build a "
        "small surface in-process at boot",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=4731, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--solve-timeout",
        type=float,
        default=10.0,
        help="deadline for a tier-3 live solve; an overdue solve answers "
        "a conservative deny",
    )
    serve.add_argument(
        "--solver-workers", type=int, default=1, help="solve-pool width"
    )
    serve.add_argument(
        "--exact",
        action="store_true",
        help="route tier-3 admits through the exact QBD ladder (warm-"
        "started) before the Solution-2 closed form",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes sharing the listening port via SO_REUSEPORT "
        "(1 = single-process; >1 boots the supervised fleet)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="boot, answer one query per tier through a loopback client, "
        "print the answers, and exit (CI self-test)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        help="bound on requests parked on the live-solve path; beyond it "
        "the service answers an immediate conservative deny with "
        "tier='shed' (0 = unbounded)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=0,
        help="cap on concurrent client connections; beyond it a connection "
        "is answered one structured error line and closed (0 = uncapped)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds a draining shard may spend finishing in-flight "
        "requests after SIGTERM before stragglers are cut",
    )

    bench_serve = commands.add_parser(
        "bench-serve",
        help="closed-loop decisions/sec benchmark against an in-process "
        "server, one answer tier at a time",
    )
    _add_hap_arguments(bench_serve)
    bench_serve.set_defaults(app_types=2)
    _add_surface_arguments(bench_serve)
    bench_serve.add_argument(
        "--surfaces", type=str, default=None, help="surface artifact to load"
    )
    bench_serve.add_argument(
        "--tier",
        choices=("cached", "interpolated", "miss", "all"),
        default="all",
        help="which answer tier the query mix pins (default: all three)",
    )
    bench_serve.add_argument("--requests", type=int, default=2000)
    bench_serve.add_argument("--connections", type=int, default=4)
    bench_serve.add_argument("--seed", type=int, default=0)
    bench_serve.add_argument("--solve-timeout", type=float, default=10.0)
    bench_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="benchmark against an SO_REUSEPORT fleet of this many shard "
        "processes instead of the in-process server",
    )
    bench_serve.add_argument(
        "--batch",
        type=int,
        default=0,
        help="send admit_batch requests of this many rows per round trip "
        "(0 = the per-query admit verb)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection drills: injected kills/hangs/poisoned solver "
        "rungs against the campaign runtime or the admission service",
    )
    _add_hap_arguments(chaos)
    chaos.add_argument("--horizon", type=float, default=2_000.0)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--replications", type=int, default=6, help="campaign size"
    )
    chaos.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    chaos.add_argument(
        "--kill",
        action="append",
        default=None,
        metavar="SEED[:ATTEMPT]",
        help="kill the worker running SEED on ATTEMPT (default 1) with "
        "os._exit (--target fleet: SIGKILL shard SEED); repeatable",
    )
    chaos.add_argument(
        "--delay",
        action="append",
        default=None,
        metavar="SEED:SECONDS[:ATTEMPT]",
        help="make SEED's job sleep SECONDS before running on ATTEMPT "
        "(default 1) — with --timeout this is a hung job (--target "
        "serve/fleet: SEED is the service's request index); repeatable",
    )
    chaos.add_argument(
        "--poison",
        action="append",
        default=None,
        metavar="[CHAIN:]RUNG",
        help="poison a solver-degradation rung (e.g. 'spectral-kernel:eig' "
        "or bare 'eig') and show the chain degrading; repeatable",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="per-replication timeout for the chaos campaign (seconds)",
    )
    chaos.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per failed replication in the chaos campaign",
    )
    chaos.add_argument(
        "--target",
        choices=("campaign", "serve", "fleet", "overload", "drain", "reload"),
        default="campaign",
        help="drill to run (repro.service.drills); each prints its named "
        "invariants and exits 1 naming any that broke: 'campaign' "
        "(default) kills, hangs and poisons the replication runtime; "
        "'serve' poisons and hangs admission solves; 'fleet' SIGKILLs a "
        "shard of a sharded fleet mid-load; 'overload' saturates the "
        "solve path; 'drain' SIGTERMs a loaded shard, then rolls a "
        "restart through a fleet; 'reload' hot-swaps the decision "
        "surfaces mid-load.  A fault flag the drill does not inject is "
        "a usage error",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=2,
        help="fleet size for the fleet, drain and reload drills",
    )
    chaos.add_argument(
        "--requests",
        type=int,
        default=6,
        help="miss-tier queries the serve, fleet, overload and drain "
        "drills drive",
    )
    chaos.add_argument(
        "--deadline",
        type=float,
        default=1.5,
        help="service solve deadline in seconds for the service drills; "
        "every answer, degraded or not, must land within it plus a "
        "scheduling margin",
    )
    return parser


def _profiled(fn, out):
    """Run ``fn`` under cProfile; print the top-20 cumulative entries.

    Behind both ``analyze --profile`` and ``simulate --profile``: perf
    work on the kernels (spectral decompositions, matrix-geometric
    iterations, the simulation engines) should start from this data, not
    from guesses.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    result = fn()
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(20)
    print(buffer.getvalue().rstrip(), file=out)
    return result


def _command_analyze(args: argparse.Namespace, out) -> int:
    from repro.markov.spectral import use_backend

    hap = _hap_from_args(args)
    print(hap.describe(), file=out)
    mm1 = hap.poisson_baseline()
    print(f"utilization          : {hap.params.utilization():.3f}", file=out)
    print(f"M/M/1 baseline delay : {mm1.mean_delay:.6g} s", file=out)

    def solve_all():
        # args.backend scopes the analytic kernels; the Solution-0
        # backend="qbd" below picks the queue solver — distinct axes.
        with use_backend(getattr(args, "backend", None)):
            sol2 = hap.solve(solution=2)
            sol0 = hap.solve(solution=0, backend="qbd") if args.exact else None
        return sol2, sol0

    if getattr(args, "profile", False):
        sol2, sol0 = _profiled(solve_all, out)
    else:
        sol2, sol0 = solve_all()
    print(
        f"Solution 2           : delay {sol2.mean_delay:.6g} s "
        f"(sigma {sol2.sigma:.4f})",
        file=out,
    )
    if sol0 is not None:
        print(
            f"Solution 0 (exact)   : delay {sol0.mean_delay:.6g} s "
            f"(sigma {sol0.sigma:.4f}, "
            f"{sol0.mean_delay / mm1.mean_delay:.2f}x Poisson)",
            file=out,
        )
    return 0


def _simulation_task(params, horizon: float, rng_mode: str, backend: str | None, seed: int):
    """Picklable campaign task for ``simulate --replications N``.

    ``backend`` is re-applied inside the worker process (the parent's
    process default does not survive pickling) so any analytic evaluation a
    replication performs honors the CLI selection.
    """
    from repro.markov.spectral import use_backend
    from repro.sim.replication import simulate_hap_mm1

    with use_backend(backend):
        return simulate_hap_mm1(
            params, horizon=horizon, seed=seed, rng_mode=rng_mode
        )


def _simulate_once(hap, args: argparse.Namespace):
    """One replication on the ``--engine`` the command names."""
    from repro.markov.spectral import use_backend

    if args.engine != "heap":
        from repro.runtime.columnar import hap_approx_columnar_task

        return hap_approx_columnar_task(hap.params, args.horizon, args.seed)
    with use_backend(getattr(args, "backend", None)):
        return hap.simulate(
            horizon=args.horizon, seed=args.seed, rng_mode=args.rng_mode
        )


def _command_simulate(args: argparse.Namespace, out) -> int:
    hap = _hap_from_args(args)
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=out)
        return 2
    # A checkpointed run is a campaign even at --replications 1: the
    # journal/resume machinery lives on the campaign path.
    if (args.replications > 1 or args.checkpoint) and not args.profile:
        return _command_simulate_campaign(args, hap, out)
    if args.profile:
        result = _profiled(lambda: _simulate_once(hap, args), out)
    else:
        result = _simulate_once(hap, args)
    print(f"messages served      : {result.messages_served}", file=out)
    print(f"mean delay           : {result.mean_delay:.6g} s", file=out)
    print(f"sigma (arrival-busy) : {result.sigma:.4f}", file=out)
    print(f"utilization          : {result.utilization:.4f}", file=out)
    if args.engine == "heap":
        # Columnar runs drive the collapsed (x, y) chain; per-level
        # user/app populations exist only in the event-driven hierarchy.
        print(f"mean users / apps    : {result.mean_users:.2f} / "
              f"{result.mean_apps:.2f}", file=out)
    return 0


def _command_simulate_campaign(args: argparse.Namespace, hap, out) -> int:
    from functools import partial

    from repro.runtime.columnar import hap_approx_columnar_task
    from repro.runtime.executor import ParallelReplicator
    from repro.runtime.resilience import as_journal

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=out)
        return 2
    journal = as_journal(args.checkpoint)
    if journal is not None:
        # Journal keys are bare seeds; the fingerprint is what stops a
        # resume from silently mixing determinism domains (e.g. a batched
        # journal resumed in legacy mode, or heap rows spliced into a
        # columnar campaign).
        try:
            journal.ensure_config(
                {
                    "rng_mode": args.rng_mode,
                    "engine": args.engine,
                    "horizon": args.horizon,
                    "base_seed": args.seed,
                },
                resume=args.resume,
            )
        except ValueError as error:
            print(f"error: {error}", file=out)
            return 2
    if args.engine == "heap":
        task = partial(
            _simulation_task,
            hap.params,
            args.horizon,
            args.rng_mode,
            getattr(args, "backend", None),
        )
    else:
        task = partial(hap_approx_columnar_task, hap.params, args.horizon)
    campaign = ParallelReplicator(
        max_workers=args.workers,
        policy=_retry_policy_from_args(args),
        checkpoint=journal,
        resume=args.resume,
        engine=args.engine,
    ).run(
        task,
        args.replications,
        base_seed=args.seed,
    )
    if campaign.completed == 0:
        print("error: every replication failed", file=out)
        for failure in campaign.failures:
            print(
                f"failed replication   : seed {failure.seed}: {failure.error}",
                file=out,
            )
        return 1
    summaries = campaign.summaries()
    for label, name in (
        ("mean delay           ", "mean_delay"),
        ("sigma (arrival-busy) ", "sigma"),
        ("utilization          ", "utilization"),
        ("mean queue length    ", "mean_queue_length"),
    ):
        summary = summaries[name]
        print(
            f"{label}: {summary.mean:.6g} +/- {summary.half_width():.2g} "
            "(95% CI)",
            file=out,
        )
    print(f"campaign             : {campaign.describe()}", file=out)
    for failure in campaign.failures:
        print(
            f"failed replication   : seed {failure.seed}: {failure.error}",
            file=out,
        )
    return 0 if not campaign.failures else 1


def _command_chaos(args: argparse.Namespace, out) -> int:
    """Run the ``--target`` drill and print its verdict.

    A fault flag the drill never injects is a usage error, so a verdict
    can never pass for a fault that did not fire.
    """
    import asyncio

    from repro.service.drills import DRILLS, UsageError, verdict

    drill = DRILLS[args.target]
    unread = [
        f"--{flag}"
        for flag in ("kill", "delay", "poison")
        if getattr(args, flag) and flag not in drill.reads
    ]
    if unread:
        print(
            f"error: --target {args.target} injects no "
            f"{' or '.join(unread)} fault",
            file=out,
        )
        return 2
    try:
        invariants = asyncio.run(drill(_hap_from_args(args), args, out))
    except UsageError as error:
        print(f"error: {error}", file=out)
        return 2
    return verdict(invariants, drill.holds, out)


def _surfaces_from_args(args: argparse.Namespace, out):
    """Load the ``--surfaces`` artifact, or build a grid in-process."""
    from repro.service.surfaces import (
        build_decision_surfaces,
        load_surfaces,
        two_type_params,
    )

    if getattr(args, "surfaces", None):
        surfaces = load_surfaces(args.surfaces)
    else:
        surfaces = build_decision_surfaces(
            two_type_params(_hap_from_args(args).params),
            _parse_delay_targets(args.delay_targets),
            max_population=args.max_population,
            max_workers=1,
        )
    print(f"surfaces             : {surfaces.describe()}", file=out)
    return surfaces


def _command_build_surfaces(args: argparse.Namespace, out) -> int:
    from repro.control.admission_table import probe_stats
    from repro.service.surfaces import (
        binary_sidecar_path,
        build_decision_surfaces,
        save_surfaces,
        save_surfaces_binary,
        two_type_params,
    )

    try:
        targets = _parse_delay_targets(args.delay_targets)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    before = probe_stats()
    surfaces = build_decision_surfaces(
        two_type_params(_hap_from_args(args).params),
        targets,
        max_population=args.max_population,
        max_workers=args.workers,
    )
    after = probe_stats()
    path = save_surfaces(surfaces, args.output)
    print(f"surfaces             : {surfaces.describe()}", file=out)
    if args.workers in (None, 1):
        # The probe cache is per-process; fan-out builds solve in workers.
        print(
            f"probes               : {after.probes - before.probes} "
            f"({after.solves - before.solves} solves, "
            f"{after.hits - before.hits} cache hits)",
            file=out,
        )
    print(f"artifact             : {path}", file=out)
    if args.binary:
        sidecar = save_surfaces_binary(surfaces, binary_sidecar_path(path))
        print(f"binary sidecar       : {sidecar}", file=out)
    return 0


def _overload_from_args(args: argparse.Namespace):
    """Build the serve command's :class:`OverloadPolicy` (0 = unbounded)."""
    from repro.service.server import OverloadPolicy

    if args.max_inflight < 0:
        raise ValueError("--max-inflight must be non-negative")
    if args.max_connections < 0:
        raise ValueError("--max-connections must be non-negative")
    if args.drain_grace <= 0:
        raise ValueError("--drain-grace must be positive")
    return OverloadPolicy(
        max_inflight=args.max_inflight or None,
        max_connections=args.max_connections or None,
    )


def _command_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.service.drills import booted, smoke, verdict

    try:
        surfaces = _surfaces_from_args(args, out)
        overload = _overload_from_args(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    if args.shards < 1:
        print("error: --shards must be at least 1", file=out)
        return 2

    async def serve() -> int:
        async with booted(
            surfaces,
            out,
            shards=args.shards if args.shards > 1 else None,
            host=args.host,
            port=args.port,
            drain_grace=args.drain_grace,
            solve_timeout=args.solve_timeout,
            solver_workers=args.solver_workers,
            exact=args.exact,
            overload=overload,
        ) as (host, port, fleet):
            if args.smoke:
                invariants = await smoke(host, port, fleet, surfaces, out)
                return verdict(invariants, "healthy", out)
            await asyncio.Event().wait()  # serve until interrupted

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted          : shutting down", file=out)
        return 0


def _command_bench_serve(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.service.client import generate_queries, run_load
    from repro.service.drills import booted

    try:
        surfaces = _surfaces_from_args(args, out)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    tiers = (
        ("cached", "interpolated", "miss")
        if args.tier == "all"
        else (args.tier,)
    )
    label_suffix = f" [batch={args.batch}]" if args.batch > 0 else ""

    async def bench() -> int:
        async with booted(
            surfaces,
            out,
            shards=args.shards if args.shards > 1 else None,
            solve_timeout=args.solve_timeout,
        ) as (host, port, _):
            for tier in tiers:
                queries = generate_queries(
                    surfaces, tier, args.requests, seed=args.seed
                )
                report = await run_load(
                    host,
                    port,
                    queries,
                    connections=args.connections,
                    batch_size=args.batch,
                )
                print(f"{tier:<21}: {report.describe()}{label_suffix}", file=out)
        return 0

    return asyncio.run(bench())


def _command_size(args: argparse.Namespace, out) -> int:
    from repro.control.bandwidth import bandwidth_for_delay_target

    hap = _hap_from_args(args)
    lam = hap.mean_message_rate
    if args.delay_target <= 0:
        print("error: delay target must be positive", file=out)
        return 2
    poisson = lam + 1.0 / args.delay_target
    sized = bandwidth_for_delay_target(hap.params, args.delay_target)
    print(f"offered load         : {lam:.6g} msgs/s", file=out)
    print(f"Poisson sizing       : mu = {poisson:.6g}", file=out)
    print(f"HAP sizing           : mu = {sized:.6g} "
          f"(+{100 * (sized / poisson - 1):.1f}%)", file=out)
    utilization = lam / sized
    if utilization > 0.30:
        print(
            f"warning: design lands at {utilization:.0%} utilization — "
            "outside Solution 2's validity region; size with "
            "solver='solution0' (see repro.control.bandwidth).",
            file=out,
        )
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return _command_analyze(args, out)
    if args.command == "simulate":
        return _command_simulate(args, out)
    if args.command == "chaos":
        return _command_chaos(args, out)
    if args.command == "build-surfaces":
        return _command_build_surfaces(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    if args.command == "bench-serve":
        return _command_bench_serve(args, out)
    return _command_size(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
