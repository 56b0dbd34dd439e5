"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The Table I benchmark inventory.
``config``
    The simulated GPU configuration (Table II).
``run BENCHMARK --scheme SCHEME``
    Simulate one benchmark under one scheme and print its summary metrics.
    ``--json`` prints the summary machine-readably; ``--trace FILE`` /
    ``--chrome-trace FILE`` export the structured event stream;
    ``--profile`` appends harness wall-clock timings.
``audit BENCHMARK --scheme spawn``
    Run with tracing and print the SPAWN decision audit: per-benchmark
    prediction-error statistics (predicted vs. actual ``t_child``).
    ``BENCHMARK`` may be ``all``.
``sweep BENCHMARK``
    The Fig. 5 threshold sweep for one benchmark.
``experiment ID``
    Regenerate one paper table/figure (``all`` runs everything).
``suite --jobs N``
    Run the complete evaluation suite, fanning the declared run-set out
    across ``N`` worker processes first and persisting every result in
    the on-disk cache (``.repro-cache/`` or ``$REPRO_CACHE_DIR``); a warm
    cache makes a repeat suite purely a read.
``check [--update-golden]``
    Conformance: simulate the pinned golden benchmark x scheme matrix with
    the runtime invariant checker attached and diff each event trace
    against the committed golden corpus (``tests/golden/``), naming the
    first diverging event.  ``--update-golden`` rewrites the corpus after
    an intentional behaviour change.
``cache [stats|clear]``
    Inspect or empty the persistent result store.
``bench``
    Time the engine on its slowest benchmark/scheme pairs and write
    ``BENCH_<date>.json`` (speedup vs. recorded reference timings plus a
    bit-identical-makespan check).  Exits non-zero when any pair drifts
    in makespan or regresses past ``--min-speedup``; the report file is
    written either way so a failing run still leaves evidence.
``serve [REQUESTS.json]``
    Drive the in-process simulation service with scripted or synthetic
    traffic: duplicate requests are coalesced, cache hits are answered
    without touching the pool, and everything else flows through the
    SPAWN-style admission controller (admit to the batch queue, run
    inline, or shed with a predicted-delay reason once ``--deadline-ms``
    is exceeded).  ``--stats`` prints the admission ledger, latency
    percentiles, and cost model; ``--stats-json FILE`` saves it
    machine-readably; ``--record LEDGER.jsonl`` captures every request's
    arrival and outcome into a replayable ledger.
``replay LEDGER.jsonl``
    Re-drive a recorded request ledger against a fresh service,
    optionally time-compressed (``--speed 10``) and under
    ``REPRO_FAULTS`` chaos.  Verifies that every completed simulation
    reproduces its recorded makespan bit-for-bit, and gates the run on
    latency / shed-rate budgets (``--max-p99-ms``, ``--max-shed-rate``)
    with measured-vs-limit evidence on failure.
``perf``
    Measure the current engine (per-pair wall seconds + makespans via
    the bench run-set) and the service (burst-soak throughput + shed
    rate), append the records to the committed rolling history
    (``bench_history.jsonl``), compare against the trailing window, and
    render ASCII trend charts.  Exits non-zero on a timing regression
    or any makespan drift.

Examples
--------
::

    python -m repro run BFS-graph500 --scheme spawn
    python -m repro run BFS-citation --trace bfs.jsonl --chrome-trace bfs.json
    python -m repro audit all --scheme spawn
    python -m repro sweep SSSP-citation
    python -m repro experiment fig15
    python -m repro suite --jobs 4
    python -m repro check
    python -m repro cache stats
    python -m repro bench --output BENCH.json
    python -m repro serve --synthetic 100 --deadline-ms 2000 --stats
    python -m repro serve requests.json --jobs 4 --stats-json stats.json
    python -m repro serve --synthetic 50 --record ledger.jsonl
    python -m repro replay ledger.jsonl --speed 10 --max-p99-ms 5000
    python -m repro perf --pairs MM-small/spawn --soak 50
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.harness.report import format_table
from repro.harness.runner import RunConfig, Runner
from repro.harness.sweep import threshold_sweep
from repro.obs.export import write_json_atomic


def _add_store_argument(
    parser: argparse.ArgumentParser, *, no_store: bool = False
) -> None:
    """The shared ``--store URL`` flag.

    Every store-touching command accepts the same URL syntax:
    ``dir://PATH``, ``sqlite://PATH.db``, ``kv://HOST:PORT``, or a bare
    path (meaning ``dir://``).
    """
    parser.add_argument(
        "--store", default=None, metavar="URL",
        help="result store: dir://PATH, sqlite://PATH.db, kv://HOST:PORT, "
             "or a bare directory path "
             "(default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    if no_store:
        parser.add_argument(
            "--no-store", action="store_true",
            help="skip the persistent result store entirely",
        )


def _resolve_store_url(args, *, default: bool):
    """``(use_store, url)`` from ``--store``/``--no-store``.

    ``default=True`` opens the default directory cache when no flag was
    given (suite/serve/replay/cache); ``default=False`` stays storeless
    unless the user named one (run/bench/perf — historically cacheless).
    ``url`` may be None with ``use_store=True``, meaning "the default
    location" (:func:`repro.harness.store.open_store` resolves it).
    """
    if getattr(args, "no_store", False):
        return False, None
    url = getattr(args, "store", None)
    if url is None and not default:
        return False, None
    return True, url


def _open_cli_store(args, *, default: bool):
    """A :class:`ResultStore` (or None) from the shared store flags."""
    from repro.harness.store import open_store

    use, url = _resolve_store_url(args, default=default)
    return open_store(url) if use else None


def _service_runners(args):
    """Runner wiring shared by ``serve`` and ``replay``: ``(faults, runners)``.

    One runner per ``--shards``, each over the store flags' store, wrapped
    in a flaky store when ``REPRO_FAULTS`` injects chaos.  Returns None
    (after printing the error) for a bad ``--shards``.
    """
    from repro.harness.faults import FaultPlan
    from repro.harness.store import default_cache_dir, open_store
    from repro.service import fleet_runners

    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return None
    use_store, url = _resolve_store_url(args, default=True)
    faults = FaultPlan.from_env()
    if faults is not None:
        print(f"chaos: injecting faults {faults.to_dict()}", file=sys.stderr)
    if args.shards > 1:
        # Sharded fleet: every shard opens its own handle to the SAME
        # store URL (that shared backend is what fleet-wide dedup rides
        # on), so the default cache dir must be spelled out as a URL.
        store_url = None
        if use_store:
            store_url = url if url is not None else f"dir://{default_cache_dir()}"
        wrap = (
            faults.flaky_store
            if (faults is not None and store_url is not None)
            else None
        )
        return faults, fleet_runners(
            args.shards, store_url=store_url, wrap_store=wrap
        )
    store = open_store(url) if use_store else None
    runner = Runner(store=store)
    if faults is not None and store is not None:
        runner.store = faults.flaky_store(store)
    return faults, [runner]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPAWN (HPCA 2017) reproduction: simulator, benchmarks, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table I benchmarks")
    sub.add_parser("config", help="print the simulated GPU configuration (Table II)")

    run = sub.add_parser("run", help="run one benchmark under one scheme")
    run.add_argument("benchmark", help="benchmark name, e.g. BFS-graph500")
    run.add_argument(
        "--scheme",
        default="spawn",
        help="flat | baseline-dp | offline | spawn | dtbl | acs | "
        "consolidate[:<B>] | aggregate:<warp|block|grid> | threshold:<T> "
        "(default: spawn)",
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--cta-threads", type=int, default=None,
                     help="child CTA size override (Fig. 7)")
    run.add_argument("--stream-policy", default="per-child",
                     choices=["per-child", "per-parent-cta"])
    run.add_argument("--json", action="store_true",
                     help="print the summary as JSON instead of a table")
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="dump the structured event trace as JSONL")
    run.add_argument("--chrome-trace", metavar="FILE", default=None,
                     help="export a chrome://tracing / Perfetto trace")
    run.add_argument("--profile", action="store_true",
                     help="print harness wall-clock timings after the run")
    _add_store_argument(run)

    audit = sub.add_parser(
        "audit", help="SPAWN decision audit: prediction error vs. reality"
    )
    audit.add_argument("benchmark", help="benchmark name, or 'all'")
    audit.add_argument("--scheme", default="spawn",
                       help="scheme to audit (default: spawn)")
    audit.add_argument("--seed", type=int, default=1)
    audit.add_argument("--json", action="store_true",
                       help="print the audit statistics as JSON")

    sweep = sub.add_parser("sweep", help="threshold sweep (Fig. 5 panel)")
    sweep.add_argument("benchmark")
    sweep.add_argument("--seed", type=int, default=1)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("id", help="table1, table2, fig01..fig21, or 'all'")
    exp.add_argument("--seed", type=int, default=1)

    suite = sub.add_parser(
        "suite", help="run every experiment, fanned out over worker processes"
    )
    suite.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")
    suite.add_argument("--seed", type=int, default=1)
    suite.add_argument("--experiments", default=None, metavar="ID[,ID...]",
                       help="comma-separated subset (default: the full suite)")
    _add_store_argument(suite, no_store=True)
    suite.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-task timeout; a hung worker is retried "
                            "instead of hanging the suite (default: none)")
    suite.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="re-dispatches per task after its first failed "
                            "attempt (default: 2)")
    suite.add_argument("--resume", action="store_true",
                       help="resume a partially-completed suite from the "
                            "persistent store: only missing configs are "
                            "simulated (requires the store)")
    suite.add_argument("--fail-fast", action="store_true",
                       help="abort on the first quarantined run instead of "
                            "completing the rest of the suite")

    check = sub.add_parser(
        "check",
        help="conformance: invariant-check the golden matrix and diff traces",
    )
    check.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the golden trace corpus from the current engine "
             "(review the diff as a semantic change!)",
    )
    check.add_argument(
        "--golden-dir", default=None, metavar="DIR",
        help="golden corpus location (default: tests/golden/ in the repo)",
    )
    check.add_argument(
        "--benchmark", default=None, metavar="NAME",
        help="restrict to one benchmark of the matrix",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result store"
    )
    cache.add_argument("action", nargs="?", default="stats",
                       choices=["stats", "clear"])
    _add_store_argument(cache)

    bench = sub.add_parser(
        "bench", help="time the engine's slowest pairs; write BENCH_<date>.json"
    )
    bench.add_argument("--repeat", type=int, default=3,
                       help="timed repetitions per pair, best kept (default: 3)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--output", default=None, metavar="FILE",
                       help="report path (default: BENCH_<YYYYMMDD>.json)")
    bench.add_argument("--min-speedup", type=float, default=None, metavar="X",
                       help="fail (exit 1) when any pair's speedup vs. its "
                            "recorded reference drops below X, e.g. 0.25 "
                            "(default: drift check only)")
    _add_store_argument(bench)

    serve = sub.add_parser(
        "serve",
        help="drive the batched async simulation service with scripted traffic",
    )
    serve.add_argument(
        "requests", nargs="?", default=None, metavar="REQUESTS.json",
        help="scripted request file (JSON array or JSONL of "
             '{"benchmark", "scheme", "seed"} objects); omit to use '
             "--synthetic traffic",
    )
    serve.add_argument("--jobs", type=int, default=2,
                       help="pool worker processes per batch (default: 2)")
    serve.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                       help="shed requests once predicted queue delay exceeds "
                            "this (default: never shed)")
    serve.add_argument("--inline-ms", type=float, default=0.0, metavar="MS",
                       help="run jobs predicted cheaper than this directly on "
                            "the service thread (default: 0 = never inline)")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="jobs per pool dispatch (default: 8)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="hard queue-depth cap; beyond it requests shed "
                            "(default: unbounded)")
    serve.add_argument("--synthetic", type=int, default=20, metavar="N",
                       help="without a request file, generate N seeded "
                            "requests (default: 20)")
    serve.add_argument("--traffic-seed", type=int, default=1,
                       help="seed for --synthetic traffic (default: 1)")
    serve.add_argument("--gap-ms", type=float, default=0.0, metavar="MS",
                       help="mean Poisson inter-arrival gap for --synthetic "
                            "traffic (default: 0 = instantaneous burst); "
                            "spacing arrivals lets online feedback loops "
                            "like --autotune learn between requests")
    serve.add_argument("--autotune", action="store_true",
                       help="tune launch parameters online: successive "
                            "halving over each (benchmark, scheme-family) "
                            "sweep grid, warm-started from the store and "
                            "fed by live completions")
    serve.add_argument("--autotune-pulls", type=int, default=1, metavar="N",
                       help="observations per arm per halving round "
                            "(default: 1)")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="shard the service N ways behind a consistent-"
                            "hash front door: each shard runs its own "
                            "admission controller and worker pool, and "
                            "identical requests always route to the same "
                            "shard (default: 1 = unsharded)")
    _add_store_argument(serve, no_store=True)
    serve.add_argument("--stats", action="store_true",
                       help="print the admission ledger, latency percentiles, "
                            "and cost-model snapshot after draining")
    serve.add_argument("--stats-json", default=None, metavar="FILE",
                       help="write the service stats as JSON")
    serve.add_argument("--record", default=None, metavar="LEDGER.jsonl",
                       help="record every request's arrival and outcome into "
                            "a replayable ledger file")

    replay = sub.add_parser(
        "replay",
        help="re-drive a recorded request ledger and gate on budgets",
    )
    replay.add_argument("ledger", metavar="LEDGER.jsonl",
                        help="ledger recorded by 'serve --record'")
    replay.add_argument("--speed", type=float, default=1.0, metavar="X",
                        help="time compression: 10 replays arrival gaps ten "
                             "times faster (default: 1)")
    replay.add_argument("--jobs", type=int, default=2,
                        help="pool worker processes per batch (default: 2)")
    replay.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                        help="shed requests once predicted queue delay "
                             "exceeds this (default: never shed)")
    replay.add_argument("--inline-ms", type=float, default=0.0, metavar="MS",
                        help="inline threshold, as for serve (default: 0)")
    replay.add_argument("--max-batch", type=int, default=8, metavar="N",
                        help="jobs per pool dispatch (default: 8)")
    replay.add_argument("--max-queue", type=int, default=None, metavar="N",
                        help="hard queue-depth cap (default: unbounded)")
    replay.add_argument("--shards", type=int, default=1, metavar="N",
                        help="replay against an N-shard fleet instead of a "
                             "single service (default: 1)")
    _add_store_argument(replay, no_store=True)
    replay.add_argument("--max-p99-ms", type=float, default=None, metavar="MS",
                        help="budget: fail when the exact p99 of answered-"
                             "request latency exceeds this")
    replay.add_argument("--max-shed-rate", type=float, default=None,
                        metavar="FRACTION",
                        help="budget: fail when shed/submitted exceeds this "
                             "(e.g. 0.3)")
    replay.add_argument("--stats-json", default=None, metavar="FILE",
                        help="write the replay report as JSON (written before "
                             "budget enforcement, so a failing gate still "
                             "leaves evidence)")
    replay.add_argument("--record", default=None, metavar="LEDGER.jsonl",
                        help="also write the replayed outcomes as a fresh "
                             "ledger")

    perf = sub.add_parser(
        "perf",
        help="append engine + service perf records to the rolling history",
    )
    perf.add_argument("--pairs", default=None, metavar="PAIR[,PAIR...]",
                      help="benchmark/scheme pairs to time, e.g. "
                           "'MM-small/spawn,BFS-graph500/spawn' "
                           "(default: the bench run-set)")
    perf.add_argument("--repeat", type=int, default=3,
                      help="timed repetitions per pair, best kept (default: 3)")
    perf.add_argument("--seed", type=int, default=1)
    perf.add_argument("--soak", type=int, default=0, metavar="N",
                      help="also soak the service with N burst requests and "
                           "record throughput + shed rate (default: off)")
    perf.add_argument("--traffic-seed", type=int, default=1,
                      help="seed for --soak traffic (default: 1)")
    perf.add_argument("--autotune", action="store_true",
                      help="run the --soak with online autotuning enabled; "
                           "records the service-soak@autotuned series so "
                           "the closed-loop trajectory is tracked apart "
                           "from static-scheme baselines")
    perf.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                      help="soak shed deadline, as for serve (default: never)")
    perf.add_argument("--history", default=None, metavar="FILE",
                      help="history file (default: bench_history.jsonl)")
    perf.add_argument("--no-append", action="store_true",
                      help="compare and chart only; leave the history file "
                           "untouched (CI smoke mode)")
    perf.add_argument("--window", type=int, default=5, metavar="N",
                      help="trailing records per series to compare against "
                           "(default: 5)")
    perf.add_argument("--max-ratio", type=float, default=1.5, metavar="X",
                      help="regression threshold vs. the trailing mean "
                           "(default: 1.5)")
    perf.add_argument("--json", default=None, metavar="FILE",
                      help="write the fresh records + verdicts as JSON")
    _add_store_argument(perf)

    plot = sub.add_parser(
        "plot", help="ASCII concurrency timeline for one run (Fig. 6/19 style)"
    )
    plot.add_argument("benchmark")
    plot.add_argument("--scheme", default="baseline-dp")
    plot.add_argument("--seed", type=int, default=1)
    return parser


def cmd_list(out) -> int:
    from repro.experiments import tables

    print(tables.run_table1().table(), file=out)
    return 0


def cmd_config(out) -> int:
    from repro.experiments import tables

    print(tables.run_table2().table(), file=out)
    return 0


def cmd_run(args, out) -> int:
    from repro.obs import METRICS, Tracer, write_chrome_trace, write_jsonl

    # The store stays off unless requested: `repro run` is historically
    # cacheless, and quick one-offs should not populate a store unasked.
    runner = Runner(store=_open_cli_store(args, default=False))
    config = RunConfig(
        benchmark=args.benchmark,
        scheme=args.scheme,
        seed=args.seed,
        cta_threads=args.cta_threads,
        stream_policy=args.stream_policy,
    )
    tracing = args.trace is not None or args.chrome_trace is not None
    tracer = Tracer() if tracing else None
    result = runner.run(config, tracer=tracer)
    summary = dict(result.summary())
    if args.scheme != "flat":
        summary["speedup_vs_flat"] = runner.speedup(
            args.benchmark, args.scheme, seed=args.seed
        )
    if tracer is not None:
        if args.trace:
            count = write_jsonl(tracer.events(), args.trace)
            print(f"wrote {count} events to {args.trace}", file=sys.stderr)
        if args.chrome_trace:
            count = write_chrome_trace(tracer.events(), args.chrome_trace)
            print(
                f"wrote {count} trace entries to {args.chrome_trace} "
                "(load in chrome://tracing or Perfetto)",
                file=sys.stderr,
            )
    if args.json:
        print(json.dumps(summary, sort_keys=True), file=out)
    else:
        print(
            format_table(
                ["metric", "value"],
                list(summary.items()),
                title=f"{args.benchmark} / {args.scheme} (seed {args.seed})",
            ),
            file=out,
        )
    if args.profile:
        runs = [
            (dict(labels), hist)
            for name, labels, hist in METRICS.collect()
            if name == "sim.run_seconds"
        ]
        runs.sort(key=lambda run: run[1].sum, reverse=True)
        print(file=out)
        print(
            format_table(
                ["timer", "calls", "total_s", "mean_s", "max_s"],
                [
                    (
                        f"sim.run/{labels['benchmark']}/{labels['scheme']}",
                        hist.count,
                        f"{hist.sum:.3f}",
                        f"{hist.mean:.3f}",
                        f"{hist.max:.3f}",
                    )
                    for labels, hist in runs
                ],
                title="harness wall-clock profile",
            ),
            file=out,
        )
    return 0


def cmd_audit(args, out) -> int:
    from repro.obs import DecisionAudit, Tracer
    from repro.workloads import benchmark_names

    if args.benchmark == "all":
        names = list(benchmark_names())
    else:
        names = [args.benchmark]
    all_stats = {}
    for name in names:
        runner = Runner()
        tracer = Tracer()
        config = RunConfig(benchmark=name, scheme=args.scheme, seed=args.seed)
        runner.run(config, tracer=tracer)
        all_stats[name] = DecisionAudit.from_events(tracer.events()).stats()
    if args.json:
        print(json.dumps(all_stats, sort_keys=True), file=out)
        return 0
    rows = []
    for name, s in all_stats.items():
        rows.append(
            (
                name,
                int(s["decisions"]),
                int(s["launched"]),
                int(s["declined"]),
                int(s["bootstrap"]),
                int(s["joined"]),
                f"{100 * s['mean_rel_error']:.1f}%" if "mean_rel_error" in s else "-",
                f"{100 * s['max_rel_error']:.1f}%" if "max_rel_error" in s else "-",
                f"{s['mean_bias']:+.0f}" if "mean_bias" in s else "-",
            )
        )
    print(
        format_table(
            [
                "benchmark",
                "decisions",
                "launched",
                "declined",
                "bootstrap",
                "joined",
                "mean_err",
                "max_err",
                "bias_cyc",
            ],
            rows,
            title=(
                f"{args.scheme} decision audit (seed {args.seed}): "
                "predicted vs. actual t_child"
            ),
        ),
        file=out,
    )
    return 0


def cmd_sweep(args, out) -> int:
    runner = Runner()
    sweep = threshold_sweep(runner, args.benchmark, seed=args.seed)
    best = sweep.best()
    rows = [
        (
            p.threshold,
            f"{100 * p.offload_fraction:.0f}%",
            round(p.speedup_over_flat, 3),
            p.child_kernels,
            "*" if p is best else "",
        )
        for p in sweep.points
    ]
    print(
        format_table(
            ["THRESHOLD", "offloaded", "speedup vs flat", "child kernels", "best"],
            rows,
            title=f"{args.benchmark}: threshold sweep (seed {args.seed})",
        ),
        file=out,
    )
    return 0


def cmd_experiment(args, out) -> int:
    from repro.experiments import ALL_EXPERIMENTS, EXTRA_EXPERIMENTS, run_all

    if args.id == "all":
        for result in run_all(seed=args.seed):
            print(result.table(), file=out)
            print(file=out)
        return 0
    entry = ALL_EXPERIMENTS.get(args.id) or EXTRA_EXPERIMENTS.get(args.id)
    if entry is None:
        known = ", ".join([*ALL_EXPERIMENTS, *EXTRA_EXPERIMENTS])
        print(f"unknown experiment {args.id!r}; known: {known}, all", file=sys.stderr)
        return 2
    print(entry(Runner(), args.seed).table(), file=out)
    return 0


def cmd_suite(args, out) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.plans import suite_plan
    from repro.harness.faults import FaultPlan
    from repro.harness.parallel import ExecutionPolicy, ParallelRunner, default_jobs
    from repro.obs import METRICS

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 2
    if args.resume and args.no_store:
        print("error: --resume needs the persistent store (drop --no-store)",
              file=sys.stderr)
        return 2
    store = _open_cli_store(args, default=True)
    runner = Runner(store=store)
    if args.experiments:
        names = [name.strip() for name in args.experiments.split(",") if name.strip()]
        unknown = [name for name in names if name not in ALL_EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiments: {', '.join(unknown)}; "
                f"known: {', '.join(ALL_EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
    else:
        names = list(ALL_EXPERIMENTS)
    policy = ExecutionPolicy(
        timeout=args.timeout,
        max_retries=args.max_retries,
        fail_fast=args.fail_fast,
    )
    faults = FaultPlan.from_env()
    if faults is not None:
        print(f"chaos: injecting faults {faults.to_dict()}", file=sys.stderr)
        if store is not None:
            runner.store = faults.flaky_store(store)
    plan = suite_plan(args.seed, names)
    parallel = ParallelRunner(runner, policy=policy, faults=faults)
    report = parallel.run_suite(plan, jobs=jobs)
    if args.resume:
        print(
            f"resume: {report.resumed} of "
            f"{report.resumed + len(report.outcomes)} planned runs already "
            "completed; re-simulated only the rest",
            file=sys.stderr,
        )
    if report.failures or report.skipped:
        rows = [
            (o.config.benchmark, o.config.scheme, o.status, o.attempts,
             o.error or "")
            for o in report.outcomes
            if o.status != "ok"
        ]
        print(
            format_table(
                ["benchmark", "scheme", "status", "attempts", "error"],
                rows,
                title="quarantined runs (suite continued without them)",
            ),
            file=sys.stderr,
        )
        if args.fail_fast:
            print("suite aborted (--fail-fast)", file=sys.stderr)
            return 1
    failed_experiments = []
    for name in names:
        try:
            result = ALL_EXPERIMENTS[name](runner, args.seed)
        except ReproError as exc:
            failed_experiments.append((name, str(exc)))
            print(f"experiment {name} failed: {exc}", file=sys.stderr)
            continue
        print(result.table(), file=out)
        print(file=out)

    def count(name: str) -> int:
        return int(METRICS.counter(name).value)

    print(
        "suite done: "
        f"jobs={jobs} "
        f"fanned_out={count('parallel.fanned_out')} "
        f"resumed={report.resumed} "
        f"retries={report.retries} "
        f"timeouts={report.timeouts} "
        f"worker_crashes={report.worker_crashes} "
        f"quarantined={report.quarantined} "
        f"simulated_inline={count('runner.cache_misses')} "
        f"memory_hits={count('runner.cache_hits')} "
        f"disk_hits={count('runner.disk_hits')}",
        file=sys.stderr,
    )
    return 1 if (report.failures or failed_experiments) else 0


def cmd_check(args, out) -> int:
    from repro.check.golden import (
        GOLDEN_MATRIX,
        GOLDEN_SEED,
        canonical_events,
        default_golden_dir,
        diff_traces,
        golden_path,
        load_golden,
        record_trace,
        write_golden,
    )

    golden_dir = args.golden_dir if args.golden_dir else default_golden_dir()
    matrix = [
        pair for pair in GOLDEN_MATRIX
        if args.benchmark is None or pair[0] == args.benchmark
    ]
    if not matrix:
        print(
            f"error: benchmark {args.benchmark!r} is not in the golden matrix",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for benchmark, scheme in matrix:
        checker, result = record_trace(benchmark, scheme)
        label = f"{benchmark}/{scheme}"
        if checker.violations:
            failures += 1
            print(
                f"FAIL {label}: {len(checker.violations)} invariant "
                "violation(s)",
                file=out,
            )
            for violation in checker.violations[:5]:
                print(f"  {violation}", file=out)
            continue
        events = canonical_events(checker.events())
        path = golden_path(golden_dir, benchmark, scheme)
        if args.update_golden:
            write_golden(
                path,
                events,
                benchmark=benchmark,
                scheme=scheme,
                seed=GOLDEN_SEED,
                makespan=result.makespan,
            )
            print(f"wrote {path} ({len(events)} events)", file=out)
            continue
        _, expected = load_golden(path)
        divergence = diff_traces(expected, events)
        if divergence is not None:
            failures += 1
            print(f"FAIL {label}: {divergence}", file=out)
        else:
            print(
                f"ok   {label}: {len(events)} events, invariants clean, "
                "matches golden",
                file=out,
            )
    if failures:
        print(f"{failures} of {len(matrix)} matrix cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args, out) -> int:
    store = _open_cli_store(args, default=True)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.url}", file=out)
        return 0
    stats = store.stats()
    print(
        format_table(
            ["field", "value"],
            [
                ("store", store.url),
                ("backend", store.backend.name),
                ("root", stats.root),
                ("entries", stats.entries),
                ("total_bytes", stats.total_bytes),
            ],
            title="persistent result store",
        ),
        file=out,
    )
    return 0


def cmd_bench(args, out) -> int:
    from repro.harness.bench import (
        DEFAULT_MIN_SPEEDUP,
        regressions,
        run_bench,
        write_report,
    )

    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    if args.min_speedup is not None and args.min_speedup <= 0:
        print(
            f"error: --min-speedup must be > 0, got {args.min_speedup}",
            file=sys.stderr,
        )
        return 2

    # Timed runs stay cold (a cache hit would measure nothing); --store
    # write-throughs each result after its clock stops.
    store = _open_cli_store(args, default=False)
    min_speedup = (
        args.min_speedup if args.min_speedup is not None else DEFAULT_MIN_SPEEDUP
    )
    report = run_bench(repeat=args.repeat, seed=args.seed, store=store)
    # The report is written before any gate: a failing run must still
    # leave its evidence on disk for CI to archive.
    path = write_report(report, args.output)
    rows = [
        (
            row["pair"],
            row["seconds"],
            row.get("reference_seconds", "-"),
            row.get("speedup", "-"),
            {True: "yes", False: "NO"}.get(row.get("makespan_identical"), "-"),
        )
        for row in report["pairs"]
    ]
    print(
        format_table(
            ["pair", "seconds", "reference_s", "speedup", "makespan identical"],
            rows,
            title=f"engine benchmark (best of {report['repeat']})",
        ),
        file=out,
    )
    print(f"wrote {path}", file=sys.stderr)
    failed = False
    drifted = [
        row["pair"]
        for row in report["pairs"]
        if row.get("makespan_identical") is False
    ]
    if drifted:
        print(
            f"error: makespan drift vs. reference on: {', '.join(drifted)}",
            file=sys.stderr,
        )
        failed = True
    regressed = regressions(report, min_speedup)
    if regressed:
        detail = ", ".join(
            f"{row['pair']} ({row['speedup']}x)" for row in regressed
        )
        print(
            f"error: speedup below {min_speedup}x vs. reference on: {detail}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _latency_rows(latency: dict) -> list:
    """Table rows (span, count, p50/p95/p99 in ms) from a latency digest."""
    rows = []
    sections = [
        ("end_to_end", latency.get("end_to_end") or {}),
        ("queue_wait", latency.get("queue_wait") or {}),
    ]
    sections.extend(
        (f"route:{route}", summary)
        for route, summary in sorted((latency.get("routes") or {}).items())
    )
    for name, summary in sections:
        if not summary.get("count"):
            continue
        rows.append(
            (
                name,
                summary["count"],
                f"{summary['p50'] * 1000:.2f}",
                f"{summary['p95'] * 1000:.2f}",
                f"{summary['p99'] * 1000:.2f}",
            )
        )
    return rows


def cmd_serve(args, out) -> int:
    import asyncio

    from repro.service import (
        FleetConfig,
        RequestLedger,
        ServiceConfig,
        ServiceFleet,
        SimulationService,
        drive_service,
        generate_traffic,
        load_requests,
    )
    from repro.service.ledger import SHED as LEDGER_SHED

    if args.requests is not None:
        requests = load_requests(args.requests)
        source = args.requests
    else:
        if args.synthetic < 1:
            print(
                f"error: --synthetic must be >= 1, got {args.synthetic}",
                file=sys.stderr,
            )
            return 2
        if args.gap_ms < 0:
            print(
                f"error: --gap-ms must be >= 0, got {args.gap_ms}",
                file=sys.stderr,
            )
            return 2
        requests = generate_traffic(
            args.synthetic,
            seed=args.traffic_seed,
            mean_gap_s=args.gap_ms / 1000.0,
        )
        source = f"synthetic (seed {args.traffic_seed})"
    if not requests:
        print("error: no requests to serve", file=sys.stderr)
        return 2
    config = ServiceConfig(
        jobs=args.jobs,
        deadline_ms=args.deadline_ms,
        inline_threshold_ms=args.inline_ms,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        autotune=args.autotune,
        autotune_pulls=args.autotune_pulls,
        autotune_seed=args.traffic_seed,
    )
    wiring = _service_runners(args)
    if wiring is None:
        return 2
    faults, runners = wiring
    if args.shards > 1:
        service = ServiceFleet(
            runners,
            config=FleetConfig(shards=args.shards, service=config),
            faults=faults,
        )
    else:
        service = SimulationService(runners[0], config=config, faults=faults)

    async def drive():
        async with service:
            entries = await drive_service(service, requests)
        return entries, service.stats()

    entries, stats = asyncio.run(drive())
    for entry in entries:
        if entry.outcome == LEDGER_SHED:
            print(
                f"shed: {entry.benchmark}/{entry.scheme} seed {entry.seed}",
                file=sys.stderr,
            )
    if args.record:
        ledger = RequestLedger(entries=list(entries))
        path = ledger.write(args.record)
        print(
            f"recorded {len(ledger)} requests to {path} "
            f"(fingerprint {ledger.fingerprint()[:12]})",
            file=sys.stderr,
        )
    print(
        f"served {len(requests)} requests from {source}: "
        f"completed={stats.completed} failed={stats.failed} "
        f"shed={stats.shed} coalesced={stats.coalesced} "
        f"cache_hits={stats.cache_hits} inline={stats.inline} "
        f"batches={stats.batches} lost={stats.lost}",
        file=sys.stderr,
    )
    if args.stats:
        payload = stats.to_dict()
        model = payload.pop("model")
        autotune = payload.pop("autotune", None)
        latency = payload.pop("latency")
        fleet_info = payload.pop("fleet", None)
        per_shard = payload.pop("per_shard", None)
        print(
            format_table(
                ["counter", "value"],
                sorted(payload.items()),
                title="service admission ledger",
            ),
            file=out,
        )
        if fleet_info is not None and per_shard is not None:
            routed = fleet_info.get("routed", {})
            print(file=out)
            print(
                format_table(
                    ["shard", "routed", "completed", "shed", "cache_hits",
                     "coalesced"],
                    [
                        (
                            index,
                            routed.get(str(index), 0),
                            shard["completed"],
                            shard["shed"],
                            shard["cache_hits"],
                            shard["coalesced"],
                        )
                        for index, shard in enumerate(per_shard)
                    ],
                    title=(
                        f"fleet routing ({fleet_info['shards']} shards, "
                        f"failovers={fleet_info['failovers']}, "
                        f"fleet_shed={fleet_info['fleet_shed']})"
                    ),
                ),
                file=out,
            )
        latency_rows = _latency_rows(latency)
        if latency_rows:
            print(file=out)
            print(
                format_table(
                    ["span", "count", "p50_ms", "p95_ms", "p99_ms"],
                    latency_rows,
                    title="service latency percentiles",
                ),
                file=out,
            )
        if model:
            print(file=out)
            print(
                format_table(
                    ["pair", "predicted_s", "samples", "cycles_per_s"],
                    [
                        (
                            pair,
                            f"{entry['seconds']:.4f}",
                            entry["samples"],
                            f"{entry['cycles_per_second']:.0f}"
                            if entry.get("cycles_per_second")
                            else "-",
                        )
                        for pair, entry in sorted(model.items())
                    ],
                    title="cost model snapshot (windowed EWMA)",
                ),
                file=out,
            )
        if autotune:
            print(file=out)
            print(
                format_table(
                    ["pair", "incumbent", "alive", "round", "pulls",
                     "converged"],
                    [
                        (
                            pair,
                            snap["incumbent"] or "-",
                            f"{snap['arms_alive']}/{snap['arms']}",
                            f"{snap['round']}/{snap['rounds_total']}",
                            snap["pulls"],
                            "yes" if snap["converged"] else "no",
                        )
                        for pair, snap in sorted(autotune.items())
                    ],
                    title="autotuner (successive halving)",
                ),
                file=out,
            )
    if args.stats_json:
        write_json_atomic(stats.to_dict(), args.stats_json)
        print(f"wrote {args.stats_json}", file=sys.stderr)
    if stats.lost:
        print(f"error: {stats.lost} submissions lost", file=sys.stderr)
        return 1
    return 1 if stats.failed else 0


def cmd_replay(args, out) -> int:
    import asyncio

    from repro.errors import ReplayBudgetExceeded
    from repro.service import (
        ReplayBudgets,
        RequestLedger,
        ServiceConfig,
        replay_ledger,
    )

    ledger = RequestLedger.read(args.ledger)
    if not len(ledger):
        print(f"error: {args.ledger} holds no requests", file=sys.stderr)
        return 2
    if args.speed <= 0:
        print(f"error: --speed must be positive, got {args.speed}",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        jobs=args.jobs,
        deadline_ms=args.deadline_ms,
        inline_threshold_ms=args.inline_ms,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
    )
    wiring = _service_runners(args)
    if wiring is None:
        return 2
    faults, runners = wiring
    budgets = ReplayBudgets(
        max_p99_s=(
            args.max_p99_ms / 1000.0 if args.max_p99_ms is not None else None
        ),
        max_shed_rate=args.max_shed_rate,
    )

    if args.shards > 1:
        replay_kwargs = {"runners": runners, "shards": args.shards}
    else:
        replay_kwargs = {"runner": runners[0]}

    report = asyncio.run(
        replay_ledger(
            ledger,
            speed=args.speed,
            config=config,
            faults=faults,
            **replay_kwargs,
        )
    )
    percentiles = report.percentiles()
    print(
        f"replayed {report.requests} requests at {args.speed:g}x: "
        f"completed={report.completed} failed={report.failed} "
        f"shed={report.shed} shed_rate={report.shed_rate:.3f} "
        + (
            f"p99={percentiles['p99'] * 1000:.1f}ms "
            if "p99" in percentiles else ""
        )
        + f"results_identical={report.results_identical}",
        file=sys.stderr,
    )
    # Evidence before judgement: the report JSON and any re-recorded
    # ledger are written before budgets can fail the run.
    if args.stats_json:
        write_json_atomic(report.to_dict(), args.stats_json)
        print(f"wrote {args.stats_json}", file=sys.stderr)
    if args.record and report.ledger is not None:
        path = report.ledger.write(args.record)
        print(f"re-recorded replay to {path}", file=sys.stderr)
    if not report.results_identical:
        for mismatch in report.mismatches[:10]:
            print(f"mismatch: {mismatch}", file=sys.stderr)
        print(
            "error: replayed simulation results diverge from the recording",
            file=sys.stderr,
        )
        return 1
    try:
        report.enforce(budgets)
    except ReplayBudgetExceeded as exc:
        for item in exc.evidence:
            print(
                f"budget violated: {item['budget']} measured "
                f"{item['measured']:.6g} > limit {item['limit']:.6g}",
                file=sys.stderr,
            )
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("replay ok: results bit-identical, budgets met", file=sys.stderr)
    return 0


def cmd_perf(args, out) -> int:
    import asyncio
    import datetime

    from repro.harness.bench import BENCH_PAIRS, run_bench
    from repro.harness.history import (
        DEFAULT_HISTORY_PATH,
        append_records,
        compare,
        load_history,
        records_from_bench,
        soak_record,
        trend_chart,
    )
    from repro.service import (
        ServiceConfig,
        SimulationService,
        drive_service,
        generate_traffic,
    )

    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}",
              file=sys.stderr)
        return 2
    if args.pairs:
        pairs = []
        for token in args.pairs.split(","):
            token = token.strip()
            if not token:
                continue
            benchmark, sep, scheme = token.partition("/")
            if not sep or not benchmark or not scheme:
                print(
                    f"error: --pairs entries must be benchmark/scheme, "
                    f"got {token!r}",
                    file=sys.stderr,
                )
                return 2
            pairs.append((benchmark, scheme))
        if not pairs:
            print("error: --pairs named no pairs", file=sys.stderr)
            return 2
    else:
        pairs = list(BENCH_PAIRS)

    at = datetime.datetime.now().isoformat(timespec="seconds")
    history_path = args.history if args.history else DEFAULT_HISTORY_PATH
    history = load_history(history_path)

    bench_report = run_bench(
        pairs=pairs,
        repeat=args.repeat,
        seed=args.seed,
        store=_open_cli_store(args, default=False),
    )
    fresh = records_from_bench(bench_report, at)

    if args.soak > 0:
        import time as _time

        from repro.harness.runner import Runner as _Runner

        requests = generate_traffic(args.soak, seed=args.traffic_seed)
        config = ServiceConfig(
            jobs=2,
            deadline_ms=args.deadline_ms,
            autotune=args.autotune,
            autotune_seed=args.traffic_seed,
        )

        async def soak():
            # Memory-only runner: a warm disk store would turn the soak
            # into a pure cache read and flatter the throughput number.
            service = SimulationService(_Runner(), config=config)
            async with service:
                if config.autotune:
                    # Converged-service soak: an un-timed sequential
                    # warm-up pass first (each completion feeds the
                    # tuner), so the timed pass below measures the
                    # closed loop's steady state — incumbent arms over
                    # a warm cache — not its exploration phase.
                    for request in requests:
                        job = await service.submit(request.config())
                        await job.result()
                before = service.stats()
                start = _time.perf_counter()
                await drive_service(service, requests)
                seconds = _time.perf_counter() - start
            return seconds, before, service.stats()

        seconds, before, stats = asyncio.run(soak())
        details = {
            "coalesced": stats.coalesced - before.coalesced,
            "cache_hits": stats.cache_hits - before.cache_hits,
            "batches": stats.batches - before.batches,
        }
        # A label suffix makes the closed-loop soak its own history
        # series, so `repro perf` trends and gates it separately from the
        # static-scheme soak.
        label = "service-soak@autotuned" if args.autotune else "service-soak"
        if args.autotune:
            details["autotuned"] = stats.autotuned
            details["converged_pairs"] = sum(
                1 for snap in stats.autotune.values() if snap["converged"]
            )
        fresh.append(
            soak_record(
                requests=stats.submitted - before.submitted,
                seconds=seconds,
                shed=stats.shed - before.shed,
                at=at,
                label=label,
                details=details,
            )
        )

    verdicts = compare(
        history, fresh, window=args.window, max_ratio=args.max_ratio
    )
    if not args.no_append:
        append_records(fresh, history_path)
        print(
            f"appended {len(fresh)} records to {history_path}",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "at": at,
            "records": [record.to_dict() for record in fresh],
            "verdicts": verdicts,
        }
        write_json_atomic(payload, args.json)
        print(f"wrote {args.json}", file=sys.stderr)

    rows = [
        (
            record.label,
            record.kind,
            f"{record.value:.4g} {record.unit}",
            next(
                (
                    f"{v['baseline']:.4g} (x{v['ratio']})"
                    for v in verdicts if v["label"] == record.label
                ),
                "-",
            ),
        )
        for record in fresh
    ]
    print(
        format_table(
            ["series", "kind", "measured", "trailing baseline"],
            rows,
            title=f"perf records ({at})",
        ),
        file=out,
    )
    chart = trend_chart(
        history + fresh, labels=[record.label for record in fresh]
    )
    print(file=out)
    print(chart, file=out)

    failed = False
    for verdict in verdicts:
        if verdict["drift"]:
            print(
                f"error: {verdict['label']}: makespan drifted from the "
                "last recorded value (simulation results must be "
                "deterministic)",
                file=sys.stderr,
            )
            failed = True
        if verdict["regressed"]:
            print(
                f"error: {verdict['label']}: {verdict['value']:.4g} vs. "
                f"trailing mean {verdict['baseline']:.4g} "
                f"(ratio {verdict['ratio']}, limit {args.max_ratio})",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


def cmd_plot(args, out) -> int:
    from repro.harness.plotting import timeline

    runner = Runner()
    result = runner.run(
        RunConfig(benchmark=args.benchmark, scheme=args.scheme, seed=args.seed)
    )
    trace = result.stats.trace
    print(
        timeline(
            [(s.time, s.total_ctas) for s in trace],
            title=f"{args.benchmark} / {args.scheme}: concurrent CTAs over time",
        ),
        file=out,
    )
    print(file=out)
    print(
        timeline(
            [(s.time, s.utilization) for s in trace],
            title="resource utilization over time",
        ),
        file=out,
    )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(out)
        if args.command == "config":
            return cmd_config(out)
        if args.command == "run":
            return cmd_run(args, out)
        if args.command == "audit":
            return cmd_audit(args, out)
        if args.command == "sweep":
            return cmd_sweep(args, out)
        if args.command == "experiment":
            return cmd_experiment(args, out)
        if args.command == "suite":
            return cmd_suite(args, out)
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "cache":
            return cmd_cache(args, out)
        if args.command == "bench":
            return cmd_bench(args, out)
        if args.command == "serve":
            return cmd_serve(args, out)
        if args.command == "replay":
            return cmd_replay(args, out)
        if args.command == "perf":
            return cmd_perf(args, out)
        if args.command == "plot":
            return cmd_plot(args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unwritable trace paths, missing cache dirs, full disks: report
        # like any other user-facing error instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
