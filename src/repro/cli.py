"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``attack``    solve one attack configuration under one incentive model
``tables``    regenerate the paper's result tables
``figures``   replay the executable Figures 1-3
``games``     play the Section 5 games (including Figure 4)
``validate``  cross-check an MDP solve against a sampler (substrate
              simulator or vectorized rollouts; multi-seed CI report)
``latency``   measure natural fork rates under propagation delay
``race``      per-race statistics of one fork (absorbing-chain exact)
``deadline``  price a time-limited attack (finite horizon)
``report``    regenerate the paper-vs-measured markdown comparison
``serve``     answer solve requests from the policy atlas (batch JSON,
              a JSON-lines TCP front-end or an HTTP front-end; with
              ``--warm`` precompute the paper grids into the atlas,
              with ``--processes N`` fan batches over worker
              processes; see docs/robustness.md)
``chaos``     run the network simulation under an injected fault plan,
              or (``--serve``) the solver-service chaos harness
``bench``     run the pipeline benchmarks, emit BENCH_<name>.json
``qa``        run the cross-solver conformance matrix against the
              exact rational reference (see docs/correctness.md)
``trace``     summarize a JSONL trace captured with ``--trace``

``attack``, ``tables``, ``validate``, ``serve``, ``chaos``, ``bench``
and ``qa`` accept
``--trace FILE``: the run executes with telemetry enabled and writes
the span/counter/gauge registry as JSONL to FILE on the way out (see
:mod:`repro.runtime.telemetry` and docs/observability.md).

``tables``, ``validate``, ``serve`` and ``qa`` accept
``--scheduler {serial,process,process:N}``, overriding how sweep cells
are fanned out (:mod:`repro.runtime.parallel`).

``attack``, ``tables``, ``serve``, ``bench`` and ``qa`` accept
``--ratio-method
{dinkelbach,bisection,pto}``, selecting the ratio-objective method for
every relative-revenue/orphan-rate solve (see
:mod:`repro.mdp.ratio` and docs/mdp-methods.md); the choice is
exported through ``REPRO_RATIO_METHOD`` so spawned worker processes
inherit it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.formatting import format_table
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.core.solve import analyze
from repro.errors import ReproError

_MODELS = {
    "relative": IncentiveModel.COMPLIANT_PROFIT,
    "absolute": IncentiveModel.NONCOMPLIANT_PROFIT,
    "orphans": IncentiveModel.NON_PROFIT,
}

#: Mirror of :data:`repro.serve.warm.WARM_GRIDS` -- duplicated so the
#: parser builds without importing the (heavy) analysis stack; pinned
#: equal by a unit test.
_WARM_GRIDS = ("paper", "table2", "table3", "table4", "smoke")


def _parse_ratio(text: str) -> Tuple[int, int]:
    try:
        b, g = text.split(":")
        return int(b), int(g)
    except ValueError:
        raise ReproError(f"ratio must look like '2:3', got {text!r}")


def cmd_attack(args: argparse.Namespace) -> int:
    config = AttackConfig.from_ratio(args.alpha, _parse_ratio(args.ratio),
                                     setting=args.setting, ad=args.ad)
    model = _MODELS[args.model]
    if args.timeout is not None:
        from repro.runtime import Budget, SolverSupervisor
        supervisor = SolverSupervisor(budget=Budget(wall_clock=args.timeout))
        analysis = supervisor.analyze(config, model)
    else:
        analysis = analyze(config, model)
    print(f"model: {model.value}")
    print(f"alpha={config.alpha:.4f} beta={config.beta:.4f} "
          f"gamma={config.gamma:.4f} AD={config.ad} "
          f"setting={config.setting}")
    print(f"optimal utility: {analysis.utility:.6f} "
          f"(honest baseline {analysis.honest_utility:.6f}, "
          f"advantage {analysis.advantage:+.6f})")
    rows = sorted(analysis.rates.items())
    print(format_table(["channel", "rate per block"], rows, precision=6))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis import tables
    argv = [args.which]
    if args.fast:
        argv.append("--fast")
    if args.journal is not None:
        argv.extend(["--journal", args.journal])
    if args.workers != 1:
        argv.extend(["--workers", str(args.workers)])
    return tables._main(argv)


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.sim.figures import (
        figure1_sticky_gate,
        figure2_phase_forks,
        figure3_orphaning,
    )
    print("Figure 1:", figure1_sticky_gate())
    print("Figure 2:", figure2_phase_forks())
    print("Figure 3:", figure3_orphaning())
    return 0


def cmd_games(_args: argparse.Namespace) -> int:
    from repro.games import BlockSizeIncreasingGame, EBChoosingGame, \
        MinerGroup
    game = EBChoosingGame([0.3, 0.3, 0.4])
    print("EB choosing game: consensus equilibria ->",
          all(game.is_nash_equilibrium(p)
              for p in game.consensus_profiles()))
    fig4 = BlockSizeIncreasingGame([
        MinerGroup(mpb=1.0, power=0.1), MinerGroup(mpb=2.0, power=0.2),
        MinerGroup(mpb=4.0, power=0.3), MinerGroup(mpb=8.0, power=0.4)])
    played = fig4.play()
    print(f"Figure 4 game: survivors {played.survivors}, "
          f"final MG {played.final_mg} MB, "
          f"{len(played.rounds)} rounds")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import validate_against_sim
    config = AttackConfig.from_ratio(args.alpha, _parse_ratio(args.ratio),
                                     setting=args.setting)
    single = args.seeds == 1 and args.trajectories == 1 \
        and args.engine == "substrate"
    report = validate_against_sim(
        config, _MODELS[args.model], steps=args.steps,
        rng=np.random.default_rng(args.seed) if single else None,
        seeds=args.seeds, trajectories=args.trajectories,
        workers=args.workers, engine=args.engine, seed=args.seed,
        method=args.method)
    print(f"exact utility:     {report.analysis.utility:.6f}")
    print(f"simulated utility: {report.sim_utility:.6f} "
          f"({report.steps} blocks)")
    print(f"max channel-rate error: {report.max_rate_error():.6f}")
    multi = report.multi
    if multi is not None:
        print(f"samples: {multi.n} ({args.seeds} seeds x "
              f"{args.trajectories} trajectories, {args.engine} engine)")
        print(f"stderr:  {multi.stderr:.6f}")
        print(f"{multi.level:.0%} CI: [{multi.lo:.6f}, {multi.hi:.6f}]"
              f" ({'contains' if multi.contains_exact() else 'MISSES'}"
              " exact)")
        print(f"z-score: {multi.z_score:+.3f}")
        return 0 if multi.contains_exact() else 1
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    from repro.sim.latency import LatencyMiner, LatencySimulation
    miners = [LatencyMiner(f"m{i}", 1.0 / args.miners)
              for i in range(args.miners)]
    sim = LatencySimulation(miners, block_interval=args.interval,
                            delay=args.delay)
    result = sim.run(args.blocks, rng=np.random.default_rng(args.seed))
    print(f"blocks mined: {result.blocks_mined}, main chain: "
          f"{result.main_chain_length}, orphans: {result.orphans}")
    print(f"fork rate: {result.fork_rate:.4f}")
    return 0


def cmd_race(args: argparse.Namespace) -> int:
    from repro.core.race_analysis import (
        pump_chain2,
        race_statistics,
        watch_only,
    )
    strategies = {"pump": pump_chain2, "wait": watch_only}
    config = AttackConfig.from_ratio(
        args.alpha, _parse_ratio(args.ratio), setting=args.setting,
        include_wait=args.strategy == "wait")
    st = race_statistics(config, strategies[args.strategy])
    rows = [["P(chain 2 wins)", st.chain2_win_probability],
            ["expected race length", st.expected_length],
            ["expected orphans", st.expected_orphans],
            ["expected others' orphans", st.expected_others_orphans],
            ["expected double-spend income", st.expected_double_spend]]
    print(format_table(["statistic", "value"], rows))
    return 0


def cmd_deadline(args: argparse.Namespace) -> int:
    from repro.core.deadline import deadline_value
    config = AttackConfig.from_ratio(args.alpha, _parse_ratio(args.ratio),
                                     setting=args.setting)
    analysis = deadline_value(config, args.horizon)
    print(f"attack horizon: {analysis.horizon} blocks")
    print(f"total value:    {analysis.total_value:.4f} "
          f"(honest: {analysis.honest_total:.4f})")
    print(f"per block:      {analysis.per_block:.6f} "
          f"(perpetual rate: {analysis.perpetual_rate:.6f})")
    print(f"deadline efficiency: {analysis.deadline_efficiency:.2%}")
    return 0


def _read_request_objs(source: str) -> List:
    import json
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve.atlas import PolicyAtlas
    from repro.serve.service import (
        RetryPolicy,
        SolverService,
        serve_batch,
        serve_batch_multiprocess,
        serve_tcp,
    )

    atlas = PolicyAtlas(args.atlas, cache_entries=args.cache_entries)
    # Startup scan: rebuild the in-memory index to exactly the on-disk
    # survivors (quarantining corrupt leftovers), so a kill-and-restart
    # resumes with nearest() queries index-only from the first request.
    atlas.scan()

    if args.warm is not None:
        from repro.serve.warm import warm_atlas
        report = warm_atlas(
            atlas, grid=args.warm, fast=args.fast,
            workers=args.processes,
            progress=lambda message: print(message, file=sys.stderr))
        print(f"warm[{report.grid}]: {report.cells} cells -> "
              f"{report.solved} solved, {report.restored} restored "
              f"from journal, {report.skipped} already present; "
              f"atlas now holds {report.entries} entries",
              file=sys.stderr)
        if args.requests is None and args.http is None:
            return 0

    if args.requests is not None and args.processes > 1:
        objs = _read_request_objs(args.requests)
        results = serve_batch_multiprocess(
            args.atlas, objs, args.processes,
            max_concurrency=args.workers,
            max_pending=args.max_pending,
            default_deadline_s=args.deadline,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            seed=args.seed)
        for result in results:
            print(json.dumps(result))
        return 0

    async def run() -> int:
        service = SolverService(
            atlas,
            max_concurrency=args.workers,
            max_pending=args.max_pending,
            default_deadline_s=args.deadline,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            seed=args.seed)
        try:
            if args.requests is not None:
                objs = _read_request_objs(args.requests)
                for result in await serve_batch(service, objs):
                    print(json.dumps(result))
            elif args.http is not None:
                from repro.serve.http import serve_http
                server = await serve_http(service, args.host, args.http)
                print(f"HTTP front-end on {args.host}:{args.http} "
                      f"(POST /solve, GET /health; atlas: {args.atlas}, "
                      f"{len(atlas)} entries); Ctrl-C to stop",
                      file=sys.stderr)
                async with server:
                    await server.serve_forever()
            else:
                server = await serve_tcp(service, args.host, args.port)
                print(f"serving on {args.host}:{args.port} "
                      f"(atlas: {args.atlas}, {len(atlas)} entries); "
                      f"Ctrl-C to stop", file=sys.stderr)
                async with server:
                    await server.serve_forever()
        finally:
            await service.close()
            stats = service.stats
            cache = atlas.stats
            print(f"requests: {stats.requests}, "
                  f"atlas hits: {stats.atlas_hits}, "
                  f"solves: {stats.solves}, "
                  f"coalesced: {stats.coalesced} "
                  f"(hit-rate {stats.coalesce_hit_rate():.2%}), "
                  f"degraded: {stats.degraded}, "
                  f"overloads: {stats.overloads}; "
                  f"cache hit-rate {cache.cache_hit_rate():.2%} "
                  f"({cache.disk_reads} disk reads)", file=sys.stderr)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    import os

    from repro.runtime.faults import ServiceFaultPlan
    from repro.serve.chaos import (
        check_cache_invariants,
        check_service_invariants,
        run_chaos_scenario,
    )
    plan = ServiceFaultPlan(hang_rate=args.hang,
                            hang_seconds=args.hang_seconds,
                            crash_rate=args.crash,
                            corrupt_rate=args.corrupt,
                            clock_skew_s=args.skew, seed=args.seed)
    if args.atlas is None:
        import tempfile
        scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        args.atlas = scratch.name
    report = run_chaos_scenario(plan, args.atlas,
                                requests=args.steps, seed=args.seed)
    summary = report.summary()
    print(f"requests answered: {summary['answered']} "
          f"(by source: {summary['by_source']})")
    print(f"typed errors: {summary['typed_errors']}")
    print(f"solve attempts: {summary['solve_attempts']}, "
          f"faults injected: {summary['injected']}")
    violations = check_service_invariants(report, args.atlas)
    # Cache-coherence suite in a sibling directory (it asserts exact
    # ownership of its atlas, so it must not mix with the chaos run's
    # entries).
    violations += check_cache_invariants(
        os.path.join(args.atlas, "cache-invariants"), seed=args.seed)
    if violations:
        for violation in violations:
            print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
        return 1
    print("invariants: ok (service + cache coherence)")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.serve:
        return _cmd_chaos_serve(args)
    from repro.protocol.params import BUParams
    from repro.runtime import FaultPlan
    from repro.sim.network import NetworkMiner, NetworkSimulation
    plan = FaultPlan(loss_rate=args.loss, delay_rate=args.delay,
                     max_delay=args.max_delay, duplicate_rate=args.duplicate,
                     crash_rate=args.crash, recovery_rate=args.recovery,
                     seed=args.seed)
    miners = [NetworkMiner(f"m{i}", 1.0 / args.miners,
                           BUParams(mg=1.0, eb=1.0, ad=6))
              for i in range(args.miners)]
    sim = NetworkSimulation(miners, rng=np.random.default_rng(args.seed),
                            faults=plan)
    result = sim.run(args.steps)
    sim.check_invariants()
    stats = result.fault_stats
    print(f"steps: {args.steps}, blocks mined: {result.blocks_mined}, "
          f"consensus height: {result.consensus_height}, "
          f"orphans: {result.orphans}")
    print(f"disagreement fraction: {result.disagreement_fraction:.4f}")
    print(f"faults injected: lost={stats.lost} delayed={stats.delayed} "
          f"duplicated={stats.duplicated} withheld={stats.withheld} "
          f"crashes={stats.crashes} mining_skipped={stats.mining_skipped}")
    print("invariants: ok")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import main as report_main
    argv = []
    if args.fast:
        argv.append("--fast")
    argv.extend(["--output", args.output])
    return report_main(argv)


def cmd_qa(args: argparse.Namespace) -> int:
    from repro.qa.conformance import run_conformance
    report = run_conformance(
        classes=args.classes or None, checks=args.checks or None,
        seeds=args.seeds or None, fast=args.fast,
        workers=args.workers)
    print(report.format_matrix())
    print(f"\n{len(report.cells)} cells, "
          f"{len(report.failures)} failures")
    for cell in report.failures:
        print(f"FAIL {cell.check} on {cell.cls} (seed {cell.seed}): "
              f"error {cell.error:.3e} > tol {cell.tolerance:.3e}"
              f"{' -- ' + cell.detail if cell.detail else ''}")
    if args.report is not None:
        import os
        parent = os.path.dirname(args.report)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}", file=sys.stderr)
    return 0 if report.all_passed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.runtime.telemetry import load_trace, summarize_trace
    print(summarize_trace(load_trace(args.file)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.runtime.bench import main as bench_main
    argv = list(args.names)
    if args.fast:
        argv.append("--fast")
    argv.extend(["--output-dir", args.output_dir])
    if args.baseline is not None:
        argv.extend(["--baseline", args.baseline])
    argv.extend(["--max-regression", str(args.max_regression)])
    argv.extend(["--repeat", str(args.repeat)])
    return bench_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Analyzing Bitcoin Unlimited "
                    "Mining Protocol' (CoNEXT 2017)")
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack", help="solve one attack scenario")
    attack.add_argument("--alpha", type=float, default=0.25)
    attack.add_argument("--ratio", default="2:3",
                        help="beta:gamma, e.g. 2:3")
    attack.add_argument("--setting", type=int, choices=(1, 2), default=1)
    attack.add_argument("--ad", type=int, default=6)
    attack.add_argument("--model", choices=sorted(_MODELS),
                        default="relative")
    attack.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget in seconds (supervised "
                             "solve with fallback chain)")
    _add_trace_flag(attack)
    _add_ratio_method_flag(attack)
    attack.set_defaults(func=cmd_attack)

    tables = sub.add_parser("tables", help="regenerate paper tables")
    tables.add_argument("which", nargs="?", default="all",
                        choices=("table2", "table3", "table4", "all"))
    tables.add_argument("--fast", action="store_true")
    tables.add_argument("--workers", type=int, default=1, metavar="N",
                        help="solve cells on N parallel processes")
    tables.add_argument("--journal", default=None, metavar="DIR",
                        help="checkpoint directory; an interrupted run "
                             "resumes from it without re-solving")
    _add_trace_flag(tables)
    _add_scheduler_flag(tables)
    _add_ratio_method_flag(tables)
    tables.set_defaults(func=cmd_tables)

    figures = sub.add_parser("figures", help="replay Figures 1-3")
    figures.set_defaults(func=cmd_figures)

    games = sub.add_parser("games", help="play the Section 5 games")
    games.set_defaults(func=cmd_games)

    validate = sub.add_parser("validate",
                              help="cross-check MDP vs simulator")
    validate.add_argument("--alpha", type=float, default=0.10)
    validate.add_argument("--ratio", default="1:1")
    validate.add_argument("--setting", type=int, choices=(1, 2), default=1)
    validate.add_argument("--model", choices=sorted(_MODELS),
                          default="absolute")
    validate.add_argument("--steps", type=int, default=50_000)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--seeds", type=int, default=1, metavar="N",
                          help="independent seeds for a multi-seed "
                               "statistical report (default 1)")
    validate.add_argument("--trajectories", type=int, default=1,
                          metavar="B", help="trajectories per seed "
                          "(default 1)")
    validate.add_argument("--workers", type=int, default=1, metavar="N",
                          help="worker processes for the seed fan-out "
                               "(default 1; results are identical for "
                               "any worker count)")
    validate.add_argument("--engine", choices=("substrate", "rollout"),
                          default="substrate",
                          help="sampler: the BU substrate simulator or "
                               "the vectorized MDP rollout engine")
    validate.add_argument("--method", choices=("cdf", "alias"),
                          default="cdf",
                          help="rollout-engine sampling method: 'cdf' "
                               "(serial-identical) or 'alias' (O(1) "
                               "Walker/Vose draws; tables are built "
                               "once and shared across workers)")
    _add_trace_flag(validate)
    _add_scheduler_flag(validate)
    validate.set_defaults(func=cmd_validate)

    latency = sub.add_parser("latency", help="propagation-delay forks")
    latency.add_argument("--miners", type=int, default=5)
    latency.add_argument("--interval", type=float, default=600.0)
    latency.add_argument("--delay", type=float, default=30.0)
    latency.add_argument("--blocks", type=int, default=2000)
    latency.add_argument("--seed", type=int, default=0)
    latency.set_defaults(func=cmd_latency)

    race = sub.add_parser("race", help="per-race fork statistics")
    race.add_argument("--alpha", type=float, default=0.10)
    race.add_argument("--ratio", default="1:1")
    race.add_argument("--setting", type=int, choices=(1, 2), default=1)
    race.add_argument("--strategy", choices=("pump", "wait"),
                      default="pump")
    race.set_defaults(func=cmd_race)

    deadline = sub.add_parser("deadline", help="time-limited attack")
    deadline.add_argument("--alpha", type=float, default=0.25)
    deadline.add_argument("--ratio", default="2:3")
    deadline.add_argument("--setting", type=int, choices=(1, 2), default=1)
    deadline.add_argument("--horizon", type=int, default=144)
    deadline.set_defaults(func=cmd_deadline)

    report = sub.add_parser("report",
                            help="paper-vs-measured markdown report")
    report.add_argument("--fast", action="store_true")
    report.add_argument("--output", default="-")
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser("serve",
                           help="answer solve requests from the "
                                "policy atlas")
    serve.add_argument("--atlas", required=True, metavar="DIR",
                       help="policy atlas directory (created on "
                            "demand)")
    serve.add_argument("--requests", default=None, metavar="FILE",
                       help="answer a batch of JSON-lines requests "
                            "from FILE ('-' for stdin) and exit; "
                            "omit to run the TCP front-end")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="run the HTTP front-end on PORT instead of "
                            "the JSON-lines TCP front-end (POST /solve, "
                            "GET /health)")
    serve.add_argument("--warm", nargs="?", const="paper", default=None,
                       choices=_WARM_GRIDS, metavar="GRID",
                       help="precompute a paper parameter grid into "
                            "the atlas first (journal-resumable; one "
                            f"of {', '.join(_WARM_GRIDS)}; default "
                            "'paper'), then exit unless --requests or "
                            "--http is also given")
    serve.add_argument("--fast", action="store_true",
                       help="with --warm: shrink the grid to "
                            "development/CI size")
    serve.add_argument("--processes", type=int, default=1, metavar="N",
                       help="worker processes sharing the atlas "
                            "directory (fans out --warm solves and "
                            "--requests batches; telemetry merges "
                            "worker-count independent)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent solves (per process)")
    serve.add_argument("--max-pending", type=int, default=16,
                       help="admission-control bound on in-flight "
                            "solves (excess requests get a typed 429)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline (seconds)")
    serve.add_argument("--retries", type=int, default=2,
                       help="retries after a transient solve failure")
    serve.add_argument("--cache-entries", type=int, default=256,
                       metavar="N",
                       help="bound on the in-memory LRU cache of hot "
                            "policy bodies (0 disables body caching)")
    serve.add_argument("--seed", type=int, default=0)
    _add_trace_flag(serve)
    _add_scheduler_flag(serve)
    _add_ratio_method_flag(serve)
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser("chaos",
                           help="fault-injected network simulation")
    chaos.add_argument("--miners", type=int, default=4)
    chaos.add_argument("--steps", type=int, default=5000)
    chaos.add_argument("--loss", type=float, default=0.05)
    chaos.add_argument("--delay", type=float, default=0.10)
    chaos.add_argument("--max-delay", type=int, default=3)
    chaos.add_argument("--duplicate", type=float, default=0.05)
    chaos.add_argument("--crash", type=float, default=0.01)
    chaos.add_argument("--recovery", type=float, default=0.5)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--serve", action="store_true",
                       help="chaos-test the solver service instead of "
                            "the network simulation")
    chaos.add_argument("--atlas", default=None, metavar="DIR",
                       help="atlas directory for --serve (default: a "
                            "scratch directory)")
    chaos.add_argument("--hang", type=float, default=0.2,
                       help="--serve: per-attempt solver hang rate")
    chaos.add_argument("--hang-seconds", type=float, default=5.0,
                       help="--serve: injected hang duration")
    chaos.add_argument("--corrupt", type=float, default=0.2,
                       help="--serve: per-write artifact corruption "
                            "rate")
    chaos.add_argument("--skew", type=float, default=0.5,
                       help="--serve: service clock skew (seconds)")
    _add_trace_flag(chaos)
    chaos.set_defaults(func=cmd_chaos)

    bench = sub.add_parser("bench",
                           help="pipeline benchmarks -> BENCH_*.json")
    bench.add_argument("names", nargs="*",
                       help="benchmarks to run (default: all)")
    bench.add_argument("--fast", action="store_true",
                       help="shrink the MDPs for a CI smoke run")
    bench.add_argument("--output-dir", default=".", metavar="DIR")
    bench.add_argument("--baseline", default=None, metavar="DIR",
                       help="committed BENCH_*.json directory to gate "
                            "against")
    bench.add_argument("--max-regression", type=float, default=2.0,
                       metavar="X")
    bench.add_argument("--repeat", type=int, default=1, metavar="N")
    _add_trace_flag(bench)
    _add_ratio_method_flag(bench)
    bench.set_defaults(func=cmd_bench)

    qa = sub.add_parser("qa",
                        help="cross-solver conformance vs exact "
                             "rational reference")
    qa.add_argument("--fast", action="store_true",
                    help="single-seed sample of the matrix (CI smoke)")
    qa.add_argument("--seeds", type=int, nargs="*", default=None,
                    metavar="S", help="explicit instance seeds "
                    "(default: 0 with --fast, 0 1 2 otherwise)")
    qa.add_argument("--classes", nargs="*", default=None, metavar="CLS",
                    help="instance classes to cover (default: all)")
    qa.add_argument("--checks", nargs="*", default=None, metavar="CHK",
                    help="checks to run (default: all)")
    qa.add_argument("--workers", type=int, default=1, metavar="N",
                    help="fan cells out over N worker processes")
    qa.add_argument("--report", default=None, metavar="FILE",
                    help="also write the full cell list as JSON")
    _add_trace_flag(qa)
    _add_scheduler_flag(qa)
    _add_ratio_method_flag(qa)
    qa.set_defaults(func=cmd_qa)

    trace = sub.add_parser("trace",
                           help="summarize a --trace JSONL file")
    trace.add_argument("file", help="trace file written by --trace")
    trace.set_defaults(func=cmd_trace)
    return parser


def _add_trace_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace", default=None, metavar="FILE",
                     help="enable telemetry and write the trace as "
                          "JSONL to FILE (inspect with 'repro trace')")


def _add_ratio_method_flag(sub: argparse.ArgumentParser) -> None:
    from repro.mdp.ratio import RATIO_METHODS
    sub.add_argument("--ratio-method", default=None,
                     choices=RATIO_METHODS, dest="ratio_method",
                     help="ratio-objective method for relative-revenue "
                          "and orphan-rate solves (default: dinkelbach; "
                          "'pto' uses the probabilistic-termination "
                          "reduction)")


def _add_scheduler_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheduler", default=None, metavar="SPEC",
                     help="cell execution strategy: 'serial', "
                          "'process' or 'process:N' "
                          "(default: a local process pool sized by "
                          "--workers)")


def _apply_runtime_flags(args: argparse.Namespace) -> None:
    """Install the ``--ratio-method`` / ``--scheduler`` selections
    before dispatching a subcommand.

    The ratio method is both selected in-process and exported through
    ``REPRO_RATIO_METHOD`` so worker processes started with the
    ``spawn`` method (which inherit no module globals) resolve to the
    same choice.
    """
    ratio_method = getattr(args, "ratio_method", None)
    if ratio_method is not None:
        import os

        from repro.mdp import ratio
        os.environ[ratio.RATIO_METHOD_ENV] = ratio_method
        ratio.set_ratio_method(ratio_method)
    spec = getattr(args, "scheduler", None)
    if spec is not None:
        from repro.runtime.parallel import make_scheduler, \
            set_default_scheduler
        set_default_scheduler(make_scheduler(spec))


def _run_traced(args: argparse.Namespace) -> int:
    """Dispatch ``args.func``, wrapping it in a telemetry session when
    the subcommand was given ``--trace FILE``."""
    _apply_runtime_flags(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.func(args)
    from repro.runtime.telemetry import disable_tracing, enable_tracing
    tracer = enable_tracing()
    try:
        return args.func(args)
    finally:
        disable_tracing()
        tracer.write(trace_path)
        print(f"trace written to {trace_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_traced(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
