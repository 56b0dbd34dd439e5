"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-requests --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
every time among them is in normalised seconds (see ``calibrate.py``).
``--trace 1`` prints the per-layer metrics of a traced pass.  On the
closed loops it alternates that pass request by request with an
untraced one of the same size, and reports the tracing overhead between
the two.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output checked out.

The program is imported from ``src/`` next to this directory; without it
the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"
OUT_ROOT = HERE / "_out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import plan as plans  # noqa: E402
import quantiles as q  # noqa: E402

#: Set-up runs this many extra times, each in a fresh process, so that
#: ``setup_s`` is a median of ``1 + SETUP_PROBES`` cold set-ups.
SETUP_PROBES = 1
#: Calibration samples taken right after each set-up.
PROBE_CALIBRATION = 3
PROBE_TIMEOUT_S = 120

#: End-to-end metrics (untraced run), identical on every workload.  The
#: latency tail is printed beside them with its percentile and sample
#: count but is not one of them: its run-to-run spread exceeds any bound
#: the benchmark may set (see README.md, "Reading .tail").
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_s.p50": "s",
    "throughput_rps": "1/s",
    "sim_ctas_per_s": "1/s",
}

#: What the generic end-to-end names mean on each workload.
READS_AS = {
    plans.COLD: {
        "latency_s.p50": "cold_request_s.p50",
        "latency_s.tail": "cold_request_s.tail",
        "throughput_rps": "cold_requests_per_s",
    },
    plans.WARM: {
        "latency_s.p50": "warm_run_s.p50",
        "latency_s.tail": "warm_run_s.tail",
        "throughput_rps": "warm_runs_per_s",
    },
    plans.SERVICE: {
        "latency_s.p50": "service.latency_s.p50",
        "latency_s.tail": "service.latency_s.tail",
        "throughput_rps": "service.goodput_rps",
    },
}

#: Per-layer metrics (traced run), identical on every workload; a layer
#: a workload does not reach reads 0.
PER_LAYER = {
    "workloads.build_s.p50": "s",
    "workloads.build_s.sum": "s",
    "workloads.builds": "count",
    "workloads.build_share": "ratio",
    "workloads.self_s": "s",
    "sim.run_s.p50": "s",
    "sim.run_s.sum": "s",
    "sim.share": "ratio",
    "sim.ctas": "count",
    "sim.kernels": "count",
    "sim.us_per_cta": "us",
    "sim.self_s": "s",
    "core.launch_decisions": "count",
    "core.launch_ratio": "ratio",
    "store.load_s.p50": "s",
    "store.save_s.p50": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.self_s": "s",
    "service.submit_s.p50": "s",
    "service.route.cached": "count",
    "service.route.coalesced": "count",
    "service.route.batch": "count",
    "service.route.inline": "count",
    "service.route.shed": "count",
    "service.reuse_ratio": "ratio",
    "service.queue_s.p50": "s",
    "service.dispatch_s.p50": "s",
    "service.batches": "count",
    "service.batch_size.mean": "count",
    "service.self_s": "s",
    "parallel.task_s.p50": "s",
    "parallel.worker_peak_rss_mb": "MB",
    "driver.late_s.p99": "s",
    "driver.self_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "obs.selftime_violations": "count",
    "obs.spans": "count",
}

FIDELITY_NOTE = (
    "simulated statistics are checked, not reported: the model's fidelity "
    "to the paper is tracked in EXPERIMENTS.md, and this benchmark claims "
    "no simulated speedup"
)


def import_program() -> None:
    """Import the program from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro.api  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process (or of its largest reaped child), in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_pass(driver, recorder=None):
    """Measure one pass (traced when ``recorder`` is given), then check it."""
    import drivers
    from repro.api import METRICS

    METRICS.clear()
    if recorder is None:
        result = driver.measure(None)
    else:
        from spans import instrument

        with instrument(recorder):
            result = driver.measure(recorder)
    # Before the output check, which simulates in this process.
    result.peak_rss_mb = peak_rss_mb()
    result.task_s_p50 = drivers.task_seconds_p50()
    driver.finish(result)
    return result


def end_to_end(result, setup_s: float, slowdown: float = 1.0):
    """The end-to-end metrics: times divided, rates multiplied by ``slowdown``.

    The open loop takes no calibration samples, so its slowdown is 1.
    """
    if result.p50_by_pair:
        p50 = q.p50_by_pair(result.latencies, result.pairs)
    else:
        p50 = q.p50(result.latencies)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result.peak_rss_mb,
        "latency_s.p50": p50 / slowdown,
        "throughput_rps": ratio(result.good, result.window_s) * slowdown,
        "sim_ctas_per_s": ratio(result.ctas, result.window_s) * slowdown,
    }


def per_layer(recorder, traced, untraced=None):
    """Per-layer metrics of ``traced``; ``untraced`` gives the overhead."""
    from spans import breakdown, self_times

    selfs = self_times(recorder.spans)
    tree = breakdown(recorder.spans)
    build_parents = {s.parent for s in recorder.named("workloads.build")}
    runs = [s for s in recorder.named("sim.run") if s.id in build_parents]
    run_self = [selfs[s.id] for s in runs]
    ctas = sum(s.attrs.get("ctas", 0) for s in runs)
    decisions = sum(s.attrs.get("decisions", 0) for s in runs)
    builds = [s.duration for s in recorder.named("workloads.build")]
    loads = recorder.named("store.load")
    svc = traced.service
    submitted = svc.get("submitted", 0)
    layer = tree.layer_self_s.get
    metrics = {
        "workloads.build_s.p50": q.p50(builds),
        "workloads.build_s.sum": sum(builds),
        "workloads.builds": len(builds),
        "workloads.build_share": ratio(layer("workloads", 0.0), tree.root_s),
        "workloads.self_s": layer("workloads", 0.0),
        "sim.run_s.p50": q.p50(run_self),
        "sim.run_s.sum": sum(run_self),
        "sim.share": ratio(layer("sim", 0.0), tree.root_s),
        "sim.ctas": ctas,
        "sim.kernels": sum(s.attrs.get("kernels", 0) for s in runs),
        "sim.us_per_cta": ratio(sum(run_self), ctas) * 1e6,
        "sim.self_s": layer("sim", 0.0),
        "core.launch_decisions": decisions,
        "core.launch_ratio": ratio(sum(s.attrs.get("launched", 0) for s in runs), decisions),
        "store.load_s.p50": q.p50([s.duration for s in loads]),
        "store.save_s.p50": q.p50([s.duration for s in recorder.named("store.save")]),
        "store.hits": sum(1 for s in loads if s.attrs.get("hit")),
        "store.misses": sum(1 for s in loads if not s.attrs.get("hit")),
        "store.self_s": layer("store", 0.0),
        "service.submit_s.p50": q.p50(
            [s.duration for s in recorder.named("service.submit")]
        ),
        "service.reuse_ratio": ratio(
            svc.get("cached", 0) + svc.get("coalesced", 0), submitted
        ),
        "service.queue_s.p50": q.p50(traced.queue_s),
        "service.dispatch_s.p50": q.p50(traced.dispatch_s),
        "service.batches": svc.get("batches", 0),
        "service.batch_size.mean": ratio(svc.get("batch", 0), svc.get("batches", 0)),
        "service.self_s": layer("service", 0.0),
        "parallel.task_s.p50": traced.task_s_p50,
        "parallel.worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "driver.late_s.p99": q.nearest_rank(traced.lateness, 0.99),
        "driver.self_s": layer("driver", 0.0),
        "obs.trace_overhead_frac": ratio(
            sum(traced.latencies), sum(untraced.latencies)
        ) - 1.0 if untraced is not None else 0.0,
        "obs.selftime_violations": tree.violations,
        "obs.spans": len(recorder.spans),
    }
    for route in ("cached", "coalesced", "batch", "inline", "shed"):
        metrics[f"service.route.{route}"] = svc.get(route, 0)
    return metrics, tree


def setup_probe(args) -> int:
    """Time one set-up in this (fresh) process, then the host's speed."""
    started = time.perf_counter()
    import_program()
    import drivers

    driver = drivers.make(args.workload, args.seed, args.seconds, WORK_ROOT)
    try:
        driver.setup()
        elapsed = time.perf_counter() - started
    finally:
        driver.teardown()
    slowdown = calibrate.host_slowdown(PROBE_CALIBRATION)
    print(json.dumps({"setup_s": elapsed, "slowdown": slowdown}))
    return 0


def probe_setups(args) -> list:
    """``(host seconds, slowdown)`` of each fresh-process set-up."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
            ],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probes.append((probe["setup_s"], probe["slowdown"]))
    return probes


def write_spans(args, recorder) -> Path:
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    from spans import SELF_TIME_EPSILON_S

    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "epsilon_s": SELF_TIME_EPSILON_S,
        "spans": [s.to_dict() for s in recorder.spans],
    }))
    return path


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure_untraced(args, started: float, lines: list):
    """One untraced pass plus set-up probes: the end-to-end metrics."""
    import drivers

    driver = drivers.make(args.workload, args.seed, args.seconds, WORK_ROOT)
    try:
        driver.setup()
        setup_main = time.perf_counter() - started
        setups = [(setup_main, calibrate.host_slowdown(PROBE_CALIBRATION))]
        result = run_pass(driver)
    finally:
        driver.teardown()
    setups += probe_setups(args)
    setup_s = statistics.median(raw / slow for raw, slow in setups)
    slowdown = calibrate.slowdown(result.calibration)
    metrics = end_to_end(result, setup_s, slowdown)
    host = end_to_end(result, 0.0)
    names = READS_AS[args.workload]
    if result.calibration:
        lines.append(
            f"  host slowdown = {slowdown:.4g}  ((median of {len(result.calibration)} "
            f"calibration passes / {calibrate.REFERENCE_S:g} s) ** "
            f"{calibrate.ELASTICITY:g}; the figures below are divided or "
            f"multiplied by it, host figures in brackets)"
        )
    else:
        lines.append("  host slowdown: applied to set-up only (open loop)")
    for name, value in metrics.items():
        line = f"  {names.get(name, name)} = {fmt(value)} {END_TO_END[name]}"
        if name == "setup_s":
            line += "  (median of " + ", ".join(
                f"{raw / slow:.4g} [{raw:.4g}]" for raw, slow in setups
            ) + ")"
        elif name != "peak_rss_mb" and result.calibration:
            line += f"  [{fmt(host[name])}]"
        lines.append(line)
    tail = q.tail(result.latencies)
    lines.append(
        f"  {names['latency_s.tail']} = "
        + (f"{fmt(tail.value / slowdown)} s  "
           + (f"[{fmt(tail.value)}]  " if result.calibration else "")
           + f"({tail.describe()}; not gated)" if tail
           else f"n/a  (only {len(result.latencies)} samples)")
    )
    return [result], metrics, END_TO_END


def traced_passes(pair, recorder):
    """An untraced and a traced closed-loop pass of equal size.

    The two alternate request by request, so both see the same host speed
    and their difference is the tracing overhead.
    """
    import drivers
    from spans import instrument

    untraced_driver, traced_driver = pair
    untraced, traced = drivers.PassResult(), drivers.PassResult()
    for plain, spanned in zip(untraced_driver.requests, traced_driver.requests):
        untraced_driver.send(plain, None, untraced)
        with instrument(recorder):
            traced_driver.send(spanned, recorder, traced)
    return untraced, traced


def measure_traced(args, lines: list):
    """A traced pass (beside an untraced one on closed loops): per-layer metrics.

    An open loop cannot alternate two passes request by request, and two
    passes one after the other differ mostly by host drift, so
    service-open runs its traced pass alone and does not measure the
    tracing overhead.
    """
    import drivers
    from spans import SELF_TIME_EPSILON_S, SpanRecorder

    recorder = SpanRecorder()
    open_loop = args.workload == plans.SERVICE
    # The closed loops' two passes share the run's ``--seconds``.
    seconds = args.seconds if open_loop else args.seconds / 2
    used = [
        drivers.make(args.workload, args.seed, seconds, WORK_ROOT, index, passes=2)
        for index in range(1 if open_loop else 2)
    ]
    try:
        for driver in used:
            driver.setup()
        if open_loop:
            untraced, traced = None, run_pass(used[0], recorder)
        else:
            untraced, traced = traced_passes(used, recorder)
    finally:
        for driver in used:
            driver.teardown()
    metrics, tree = per_layer(recorder, traced, untraced)
    for name, value in metrics.items():
        line = f"  {name} = {fmt(value)} {PER_LAYER[name]}"
        if name == "obs.trace_overhead_frac" and untraced is None:
            line += "  (not measured on an open loop; reads 0)"
        lines.append(line)
    lines.append(
        f"  self-times sum to each request's span within "
        f"{SELF_TIME_EPSILON_S:g} s: {'yes' if tree.ok else 'NO'} "
        f"(worst gap {tree.max_gap_s:.3g} s over {tree.requests} requests)"
    )
    path = write_spans(args, recorder)
    lines.append(f"  spans written to {path.relative_to(ROOT)}")
    if not tree.ok:
        traced.failures.append("layer self-times do not sum to the request time")
    return [p for p in (untraced, traced) if p is not None], metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    started = time.perf_counter()
    import_program()
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    if args.trace:
        passes, metrics, units = measure_traced(args, lines)
    else:
        passes, metrics, units = measure_untraced(args, started, lines)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    lines.append(
        f"  failed_frac = {fmt(ratio(len(failures), attempted))} "
        f"({len(failures)}/{attempted})"
    )
    lines.append(f"  note: {FIDELITY_NOTE}")
    lines.extend(f"  FAILED {failure}" for failure in failures[:20])
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
