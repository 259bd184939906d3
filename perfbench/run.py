"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload verify-adder-cdcl --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` replays the workload's
inputs in three passes with no wrappers, rescales each request's time
to the reference host's speed (:func:`tick`), takes each request's best
time over the passes and reports the end-to-end metrics.  ``--trace 1`` runs
an untraced and a traced pass over the same inputs in alternating
chunks, with every layer boundary of the traced one wrapped in a span,
and reports the per-layer metrics.  The last line of standard output is
the result object; the line before it holds the run's details
(host-speed probe, work fingerprint, per-half figures), which are also
kept under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench_runs"
WORKLOADS = ("verify-adder-cdcl", "verify-mcx-bdd", "fleet-migrate")
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 9


def host_probe() -> dict:
    """Seconds of a fixed pure-Python loop (min and median of 20): the
    host's speed around a run, kept beside it and never a metric.  The
    loop allocates, like the workloads, so it also feels memory
    contention from other tenants of the host."""
    samples = []
    for _ in range(20):
        begin = time.perf_counter()
        table = {}
        for i in range(50_000):
            table[i] = (i, i * i % 7)
        samples.append(time.perf_counter() - begin)
    return {"min": min(samples), "median": statistics.median(samples)}


def tick() -> float:
    """Seconds of a fixed integer loop (~2 ms): the host's speed now.

    On the 2-vCPU VM the bounds were set on, the CPU itself runs fast or
    up to 2x slower in phases of 0.1 s to minutes (other tenants; CPU
    time rises with wall time, so ``process_time`` does not remove it).
    The loop's time tracks a request's time under those phases.  It
    allocates nothing the garbage collector tracks, so its time does not
    depend on the state of the process's own heap.
    """
    begin = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - begin


#: ``tick()`` on the reference host in its fast phase.  Every reported
#: time is rescaled by ``TICK_REFERENCE_S / tick()``, the ticks taken
#: around it, so it reads as on the reference host.
TICK_REFERENCE_S = 0.002


def paced_pass(one):
    """Play a pass chunk by chunk with a tick before and after each
    chunk, rescale each request's time by the mean of those two ticks,
    and finish the pass."""
    latencies = one.run.latencies
    ticks = [tick()]
    for start in range(0, one.units, one.chunk):
        done = len(latencies)
        one.play(start, start + one.chunk)
        ticks.append(tick())
        scale = 2 * TICK_REFERENCE_S / (ticks[-2] + ticks[-1])
        latencies[done:] = [t * scale for t in latencies[done:]]
    run = one.finish()
    run.tick = statistics.median(ticks)
    return run


def time_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its ``READY`` line,
    rescaled by the ticks the child takes at its start and when ready."""
    begin = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    ready, first, last = map(float, done.stdout.split("READY", 1)[1].split())
    return (ready - begin) * 2 * TICK_REFERENCE_S / (first + last)


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources: a
    change to either may change the work a seed makes."""
    digest = hashlib.blake2b(digest_size=8)
    for tree in (SRC, HERE):
        for path in sorted(tree.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def quantile(values, fraction: float) -> float:
    """The ``fraction`` quantile (``statistics.quantiles``' default method)."""
    steps = round(1 / (1 - fraction))
    return statistics.quantiles(values, n=steps)[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run, setup_samples) -> dict:
    ms = [t * 1e3 for t in run.latencies]
    ok = run.attempted - run.failed
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "latency_p50_ms": metric(statistics.median(ms), "ms"),
        "latency_p90_ms": metric(quantile(ms, 0.9), "ms"),
        "throughput_per_s": metric(len(ms) / run.busy, "1/s"),
        "ok_frac": metric(ok / run.attempted, "fraction"),
        "served_frac": metric(run.served, "fraction"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def op_percentiles(run) -> dict:
    """Untraced submit/release percentiles (fleet; zeros elsewhere)."""
    out = {}
    for kind in ("submit", "release"):
        ms = [t * 1e3 for t, k in zip(run.latencies, run.kinds) if k == kind]
        for label, fraction in (("p50", 0.5), ("p99", 0.99)):
            value = 0.0
            if len(ms) >= 2:
                value = (statistics.median(ms) if fraction == 0.5
                         else quantile(ms, fraction))
            out[f"multiprog.{kind}_{label}_ms"] = metric(value, "ms")
    return out


def per_layer(run, reference, tracer) -> tuple:
    """Per-layer metrics of a traced pass, and the span aggregate behind
    them; ``reference`` is the same work untraced, run in chunks that
    alternate with the traced pass's.  Times are self time per request
    (per job on the fleet)."""
    agg = tracer.aggregate()
    counts = tracer.counts
    per = run.jobs if run.jobs else run.attempted

    def self_ms(*names):
        return metric(sum(agg.self_time[n] for n in names) * 1e3 / per, "ms")

    def per_unit(value, unit="count"):
        return metric(value / per, unit)

    def ratio(num, den):
        return metric(num / den if den else 0.0, "fraction")

    probes = agg.durations["sat.probe"]
    admits = agg.calls["multiprog.admit"]
    hits, misses = counts["verify.memo_hits"], counts["verify.memo_misses"]
    deltas = run.deltas
    roots = agg.total["request"]
    metrics = {
        "lang.elaborate_ms": self_ms("lang.elaborate"),
        "lang.gates": per_unit(counts["lang.gates"]),
        "verify.track_ms": self_ms("verify.track"),
        "verify.formula_ms": self_ms("verify.formula"),
        "verify.engine_self_ms": self_ms("verify.engine"),
        "verify.check_self_ms": self_ms("verify.check"),
        "verify.replay_ms": self_ms("verify.replay"),
        "verify.memo_hit_ratio": ratio(hits, hits + misses),
        "verify.obligations": per_unit(
            agg.calls["verify.check"] + agg.calls["bdd.check"]
        ),
        "boolfn.encode_ms": self_ms("boolfn.encode"),
        "sat.probe_ms": self_ms("sat.probe"),
        "sat.probe_p50_ms": metric(
            statistics.median(probes) * 1e3 if probes else 0.0, "ms"
        ),
        "sat.decisions": per_unit(counts["sat.decisions"]),
        "sat.conflicts": per_unit(counts["sat.conflicts"]),
        "sat.propagations": per_unit(counts["sat.propagations"]),
        "bdd.build_ms": self_ms("bdd.build"),
        "bdd.nodes": per_unit(counts["bdd.nodes"]),
        "bdd.check_ms": self_ms("bdd.check"),
        "circuits.fingerprint_ms": self_ms("circuits.fingerprint"),
        "circuits.fingerprint_calls_per_job": per_unit(
            agg.calls["circuits.fingerprint"], "count/job"
        ),
        "alloc.build_model_ms": self_ms("alloc.build_model"),
        "alloc.model_memo_hit_ratio": ratio(
            deltas.get("model_hits", 0),
            deltas.get("model_hits", 0) + deltas.get("model_misses", 0),
        ),
        "alloc.allocate_ms": self_ms("alloc.allocate"),
        "alloc.materialise_ms": self_ms("alloc.materialise"),
        "alloc.allocate_calls_per_job": per_unit(
            agg.calls["alloc.allocate"], "count/job"
        ),
        "multiprog.admit_attempts_per_job": per_unit(admits, "count/job"),
        "multiprog.admit_success_ratio": ratio(
            admits - tracer.raised["multiprog.admit"], admits
        ),
        "multiprog.admit_self_ms": self_ms("multiprog.admit"),
        "multiprog.router_self_ms": self_ms("multiprog.router"),
        "multiprog.queue_len_mean": metric(
            statistics.mean(run.queue) if run.queue else 0.0, "count"
        ),
        "multiprog.queue_wait_events_mean": metric(
            deltas["wait_events"] / deltas["waited"]
            if deltas.get("waited") else 0.0,
            "events",
        ),
        "multiprog.migrations": metric(deltas.get("migrations", 0), "count"),
        "multiprog.expired": metric(deltas.get("expired", 0), "count"),
        **op_percentiles(reference),
        "trace.unattributed_frac": ratio(agg.self_time["request"], roots),
        "trace.overhead_frac": metric(run.busy / reference.busy - 1, "fraction"),
    }
    return metrics, agg


def halves(run, agg=None) -> dict:
    """Fleet stationarity: queue depth, admit attempts per job and
    release p50 over the first half of the timed phase and the whole."""
    if not run.queue:
        return {}
    middle = len(run.queue) // 2
    out = {}
    for label, stop in (("first_half", middle), ("whole", len(run.queue))):
        rel = [t * 1e3 for t, k in zip(run.latencies[:stop], run.kinds[:stop])
               if k == "release"]
        jobs = sum(k == "submit" for k in run.kinds[:stop])
        part = {
            "queue_len_mean": statistics.mean(run.queue[:stop]),
            "release_p50_ms": statistics.median(rel),
        }
        if agg is not None:
            per_request = agg.by_request["multiprog.admit"]
            part["admit_attempts_per_job"] = sum(
                calls for request, calls in per_request.items()
                if 0 <= request < stop
            ) / jobs
        out[label] = part
    return out


def check_fingerprint(key: str, fingerprint: dict) -> bool:
    """Compare with the first run of the same key; record it if new."""
    path = RECORDS / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    first = known.setdefault(key, fingerprint)
    if first is fingerprint:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return first == fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print READY <monotonic time>, exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        first = tick()
        import workloads

        workloads.setup(args.workload)
        ready = time.monotonic()
        print(f"READY {ready!r} {first!r} {tick()!r}", flush=True)
        return 0

    probe_before = host_probe()
    setup_samples = []
    if not args.trace:
        setup_samples = [time_setup(args.workload) for _ in range(SETUP_SAMPLES)]

    import workloads
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    routers = workloads.setup(args.workload)
    backend = workloads.VERIFY_BACKENDS.get(args.workload)
    if backend:
        programs = workloads.verify_programs(args.workload, args.seed,
                                             args.seconds)

        def new_pass():
            return workloads.VerifyPass(programs, backend)
    else:
        trace = workloads.fleet_trace(args.seed, args.seconds)

        def new_pass():
            return workloads.FleetPass(trace, routers.pop())

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    agg = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_layers(tracer)
        plain, traced = new_pass(), new_pass()

        def traced_chunk(start, stop):
            tracer.enable()
            try:
                traced.play(start, stop, tracer.root)
            finally:
                tracer.disable()

        for index, start in enumerate(range(0, plain.units, plain.chunk)):
            steps = (plain.play, traced_chunk)
            for step in steps if index % 2 == 0 else reversed(steps):
                step(start, start + plain.chunk)
        reference, run = plain.finish(), traced.finish()
        metrics, agg = per_layer(run, reference, tracer)
        # The wrappers must not change the work: both passes count alike.
        if reference.fingerprint != run.fingerprint or reference.failed:
            print("the traced pass did other work than the reference",
                  file=sys.stderr)
            run.failed = max(run.failed, reference.failed, 1)
        # The traced pass adds the layer counts that must repeat too.
        run.fingerprint.update(sorted(tracer.counts.items()))
        run.fingerprint["admit_attempts"] = agg.calls["multiprog.admit"]
        details["boundaries"] = dict(sorted(agg.calls.items()))
    else:
        passes = []
        for _ in range(workloads.PASSES):
            gc.collect()  # each pass starts from the same clean heap
            passes.append(paced_pass(new_pass()))
        run = workloads.best_of(passes)
        metrics = end_to_end(run, setup_samples)
        details["setup_samples_s"] = setup_samples
        details["pass_busy_s"] = [one.busy for one in passes]
        details["pass_tick_median_s"] = [one.tick for one in passes]
        if run.kinds:
            details.update(op_percentiles(run))
    details["halves"] = halves(run, agg)
    details["host_probe_s"] = {"before": probe_before, "after": host_probe()}

    key = (f"{args.workload}|seed={args.seed}|seconds={args.seconds}"
           f"|trace={args.trace}|src={source_digest()}")
    RECORDS.mkdir(exist_ok=True)
    details["fingerprint"] = run.fingerprint
    details["fingerprint_matches_first"] = check_fingerprint(key, run.fingerprint)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    if args.trace:
        tracer.write(str(RECORDS / f"{name}.spans.json.gz"))
    result = {
        "correct": run.failed == 0 and details["fingerprint_matches_first"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (RECORDS / f"{name}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1)
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
