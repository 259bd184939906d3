"""Regenerate the paper's tables and the machine-readable perf record.

Standalone companion to the pytest-benchmark harness: prints

* Figure 1.1  — adder cost table;
* Figure 10.2 — adder verification seconds per qubit count, per backend;
* Figure 10.3 — MCX verification seconds per qubit count, per backend;

and always writes two machine-readable perf records so successive PRs
can track the trajectory:

* ``BENCH_verify.json`` — per-backend solver seconds on a fixed
  ≥12-dirty-qubit circuit plus the sequential-loop vs. batch-engine
  wall-time comparison;
* ``BENCH_alloc.json`` — final width and wall time of every registered
  allocation strategy on the Figure 3.1 example and the 13-dirty-qubit
  adder, the lazy vs. eager verification comparison, a ≥8-job online
  multi-programming workload per strategy, the seeded 50-job queueing
  trace per queue policy (fifo / backfill / sjf / priority), and the
  seeded 50-job *lending* trace per (policy, lending-mode) pair —
  whole vs. windowed vs. segmented admitted counts — and the seeded
  50-job *fleet* trace routed through single-machine baselines and a
  2x11 :class:`FleetRouter` under every placement policy; together
  the numbers the bench-regression gate guards.

The *sequential loop* baseline is the pre-batch caller pattern (one
:func:`verify_circuit` call per dirty qubit, re-tracking and re-encoding
the circuit each time — what the multi-programming scheduler used to do
per borrow).  The batch row runs the same checks through one
:class:`repro.verify.batch.BatchVerifier` call.

Run:  python benchmarks/run_paper_tables.py [--quick] [--bench-only]
                                            [--bench-json PATH]
                                            [--alloc-json PATH]
"""

from __future__ import annotations

import json
import sys
import time

from repro.adders import haner_ripple_constant_adder
from repro.adders.costs import adder_cost_rows
from repro.alloc import (
    IncrementalConflictModel,
    LookaheadStrategy,
    StreamingAllocator,
    allocate,
    available_strategies,
    build_model,
    stream_allocate,
)
from repro.circuits import Circuit, cnot, from_qasm, iter_qasm_gates, toffoli, x
from repro.errors import SolverError
from repro.lang.surface import elaborate, iter_program
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.mcx import cccnot_with_dirty_ancilla
from repro.multiprog import (
    BorrowRequest,
    FleetRouter,
    MultiProgrammer,
    QuantumJob,
    available_placements,
    available_policies,
)
from repro.testing import (
    random_arrival_trace,
    random_fleet_trace,
    random_lending_trace,
    random_reversible_circuit,
    replay_trace,
)
from repro.verify import (
    BatchVerifier,
    available_backends,
    make_checker,
    track_circuit,
    verify_circuit,
)

QUICK = "--quick" in sys.argv
BENCH_ONLY = "--bench-only" in sys.argv

#: Fixed workload of the BENCH_verify.json record: adder.qbr with 13
#: dirty carry ancillas (the acceptance floor is >= 12).
BENCH_ADDER_N = 14

#: Sweep rows collected for BENCH_verify.json as figures run.
_figure_rows: dict = {}


def _flag_path(flag: str, default: str) -> str:
    if flag in sys.argv:
        index = sys.argv.index(flag) + 1
        if index >= len(sys.argv) or sys.argv[index].startswith("--"):
            sys.exit(f"error: {flag} requires a path argument")
        return sys.argv[index]
    return default


def _bench_json_path() -> str:
    return _flag_path("--bench-json", "BENCH_verify.json")


def _alloc_json_path() -> str:
    return _flag_path("--alloc-json", "BENCH_alloc.json")


def figure_1_1() -> None:
    print("=== Figure 1.1: constant-adder costs (measured at n = 64) ===")
    rows = {row.adder: row for row in adder_cost_rows([64])}
    print(f"{'':14}{'cuccaro':>10}{'takahashi':>12}{'draper':>10}{'haner':>10}")
    for metric in ("size", "depth"):
        values = [getattr(rows[a], metric) for a in
                  ("cuccaro", "takahashi", "draper", "haner")]
        print(f"{metric:<14}" + "".join(f"{v:>10}" for v in [values[0], values[1]])
              + f"{values[2]:>10}{values[3]:>10}")
    ancillas = [
        f"{rows['cuccaro'].clean_ancillas}(clean)",
        f"{rows['takahashi'].clean_ancillas}(clean)",
        "0",
        f"{rows['haner'].dirty_ancillas}(dirty)",
    ]
    print(f"{'ancillas':<14}" + "".join(f"{v:>10}" for v in ancillas[:2])
          + f"{ancillas[2]:>10}{ancillas[3]:>10}")
    print()


def _sweep(name, key, sources, backends) -> None:
    print(f"=== {name} ===")
    header = f"{'Duration (s)':<14}" + "".join(
        f"{label:>14}" for label, _ in sources
    )
    print(header)
    rows = _figure_rows.setdefault(key, [])
    for backend, cap in backends:
        cells = []
        for label, source in sources:
            program = elaborate(source)
            if cap is not None and program.circuit.num_qubits > cap:
                cells.append(f"{'—':>14}")
                continue
            start = time.perf_counter()
            report = verify_circuit(
                program.circuit, program.dirty_wires, backend=backend
            )
            elapsed = time.perf_counter() - start
            flag = "" if report.all_safe else "!UNSAFE"
            cells.append(f"{elapsed:>13.2f}{flag:1}")
            rows.append({
                "backend": backend,
                "qubits": program.circuit.num_qubits,
                "dirty_qubits": len(program.dirty_wires),
                "wall_seconds": round(elapsed, 4),
                "solver_seconds": round(report.solver_seconds, 4),
                "all_safe": report.all_safe,
            })
        print(f"{backend:<14}" + "".join(cells))
    print()


def figure_10_2() -> None:
    ns = [50, 75, 100] if QUICK else [50, 75, 100, 125, 150, 175, 200]
    sources = [(f"{n} qubits", adder_qbr_source(n)) for n in ns]
    backends = [("bdd", None), ("cdcl", 160 if not QUICK else 110)]
    _sweep(
        "Figure 10.2: adder.qbr verification (all n-1 dirty ancillas)",
        "fig10_2",
        sources,
        backends,
    )


def figure_10_3() -> None:
    ms = [250, 500, 750] if QUICK else [250, 500, 750, 1000, 1250, 1500, 1750]
    sources = [(f"{2 * m - 1} qubits", mcx_qbr_source(m)) for m in ms]
    backends = [("cdcl", None), ("bdd", None)]
    _sweep(
        "Figure 10.3: mcx.qbr verification (one dirty ancilla)",
        "fig10_3",
        sources,
        backends,
    )


#: Largest adder each backend gets in the per-backend table.  Brute
#: and bitset enumerate truth tables, whose cone width crosses the
#: bitset kernel's 20-variable ceiling past n=10 (n=10 is up from
#: brute's historical n=4 — the bitset fast path moved its wall).
#: Reduced workloads are recorded per row so the JSON stays honest.
_BACKEND_ADDER_CAP = {"brute": 10, "bitset": 10}

#: Backends kept registered but retired from the default bench
#: workload: dpll has no clause learning (~30x per +2 qubits past its
#: n=8/3s cap) and only ever dragged the verify record — see the
#: docstring note in repro/verify/backends/dpll.py.
_BENCH_RETIRED = ("dpll",)


def per_backend_solver_seconds() -> list:
    """Solver seconds of every registered backend on its largest
    tractable adder workload (``qubits`` recorded per row).  Retired
    backends (:data:`_BENCH_RETIRED`) stay registered and tested but
    are skipped here.  The ROBDD rows also record ``bdd_nodes``, the
    compiled manager's node count, which is deterministic and gated
    exactly."""
    rows = []
    for backend in available_backends():
        if backend in _BENCH_RETIRED:
            print(f"  {backend:<14} retired from the bench workload", flush=True)
            continue
        n = min(BENCH_ADDER_N, _BACKEND_ADDER_CAP.get(backend, BENCH_ADDER_N))
        program = elaborate(adder_qbr_source(n))
        start = time.perf_counter()
        try:
            report = verify_circuit(
                program.circuit, program.dirty_wires, backend=backend
            )
        except SolverError as error:
            rows.append({"backend": backend, "adder_n": n, "error": str(error)})
            print(f"  {backend:<14} n={n:<3} (failed: {error})", flush=True)
            continue
        wall = time.perf_counter() - start
        row = {
            "backend": backend,
            "adder_n": n,
            "dirty_qubits": len(program.dirty_wires),
            "wall_seconds": round(wall, 4),
            "solver_seconds": round(report.solver_seconds, 4),
            "all_safe": report.all_safe,
        }
        if backend in ("bdd", "bdd-reversed"):
            checker = make_checker(track_circuit(program.circuit), backend)
            row["bdd_nodes"] = checker.bdd.node_count
        rows.append(row)
        print(
            f"  {backend:<14} n={n:<3} solver={report.solver_seconds:>8.3f}s "
            f"wall={wall:>8.3f}s",
            flush=True,
        )
    return rows


def sequential_vs_batch(program, backend: str) -> dict:
    """The headline comparison: per-qubit verify_circuit loop vs. one
    BatchVerifier call over the same dirty qubits.  Records parallel
    *efficiency* (speedup / workers) so a "1.11x with 8 threads" result
    reads as the 14% efficiency it is, not as a win."""
    start = time.perf_counter()
    sequential_verdicts = []
    for qubit in program.dirty_wires:
        report = verify_circuit(program.circuit, [qubit], backend=backend)
        sequential_verdicts.extend(report.verdicts)
    sequential_wall = time.perf_counter() - start

    verifier = BatchVerifier(backend=backend)
    start = time.perf_counter()
    batch_report = verifier.verify_circuit(
        program.circuit, program.dirty_wires
    )
    batch_wall = time.perf_counter() - start

    agree = [v.safe for v in sequential_verdicts] == [
        v.safe for v in batch_report.verdicts
    ]
    speedup = (
        round(sequential_wall / batch_wall, 2) if batch_wall > 0 else None
    )
    workers = verifier.max_workers
    row = {
        "backend": backend,
        "dirty_qubits": len(program.dirty_wires),
        "sequential_wall_seconds": round(sequential_wall, 4),
        "batch_wall_seconds": round(batch_wall, 4),
        "speedup": speedup,
        "workers": workers,
        "efficiency": round(speedup / workers, 3)
        if speedup is not None else None,
        "verdicts_agree": agree,
    }
    print(
        f"  {backend:<14} sequential={sequential_wall:>8.3f}s "
        f"batch={batch_wall:>8.3f}s speedup={row['speedup']}x "
        f"efficiency={row['efficiency']}"
    )
    return row


def front_bitset_vs_brute() -> dict:
    """Front 1: the bitset truth-table kernel vs. the historical brute
    CNF enumeration, on the n=4 adder the old brute wall was measured
    on.  ``bitset_max_vars=0`` disables brute's bitset fast path, so
    the baseline is the genuine pre-kernel code path."""
    from repro.verify.backends.brute import BruteCheckerBackend

    program = elaborate(adder_qbr_source(4))
    qubits = sorted(program.dirty_wires)

    old = BruteCheckerBackend(
        track_circuit(program.circuit), bitset_max_vars=0
    )
    start = time.perf_counter()
    old_safe = all(old.check_qubit(q).safe for q in qubits)
    old_wall = time.perf_counter() - start

    start = time.perf_counter()
    report = verify_circuit(
        program.circuit, qubits, backend="bitset"
    )
    new_wall = time.perf_counter() - start

    row = {
        "front": "bitset_vs_brute",
        "adder_n": 4,
        "obligations": len(qubits),
        "old_brute_wall_seconds": round(old_wall, 4),
        "bitset_wall_seconds": round(new_wall, 4),
        "speedup": round(old_wall / new_wall, 1) if new_wall > 0 else None,
        "verdicts_agree": old_safe == report.all_safe,
    }
    print(
        f"  bitset_vs_brute    old={old_wall:>8.3f}s new={new_wall:>8.3f}s "
        f"speedup={row['speedup']}x"
    )
    return row


def front_incremental_vs_fresh(program) -> dict:
    """Front 2: one long-lived probing solver vs. a fresh CDCL instance
    per obligation, over the full per-qubit batch.  Interleaved repeats
    with a median keep the strict `incremental < fresh` gate out of
    runner-jitter territory."""
    from repro.verify.backends.cdcl import CdclCheckerBackend

    qubits = sorted(program.dirty_wires)
    repeats = 3 if QUICK else 5

    def run(incremental: bool) -> float:
        checker = CdclCheckerBackend(
            track_circuit(program.circuit), incremental=incremental
        )
        start = time.perf_counter()
        for qubit in qubits:
            checker.check_qubit(qubit)
        return time.perf_counter() - start

    fresh_walls, incremental_walls = [], []
    for _ in range(repeats):
        fresh_walls.append(run(False))
        incremental_walls.append(run(True))
    fresh = sorted(fresh_walls)[repeats // 2]
    incremental = sorted(incremental_walls)[repeats // 2]
    row = {
        "front": "incremental_vs_fresh",
        "adder_n": BENCH_ADDER_N,
        "obligations": len(qubits),
        "repeats": repeats,
        "fresh_solver_seconds": round(fresh, 4),
        "incremental_solver_seconds": round(incremental, 4),
        "ratio": round(incremental / fresh, 3) if fresh > 0 else None,
    }
    print(
        f"  incremental_vs_fresh fresh={fresh:>7.3f}s "
        f"incremental={incremental:>7.3f}s ratio={row['ratio']}"
    )
    return row


def front_process_vs_thread() -> dict:
    """Front 3: the process-pool executor vs. the thread pool on a
    CPU-bound multi-circuit batch.  Pure-Python solving holds the GIL,
    so threads add nothing; processes scale with cores — which is why
    the row records ``cpu_count`` and the gate only binds on machines
    with enough of them."""
    import os

    from repro.verify import BatchVerifier, VerificationJob

    ns = (13, 14, 15, 16) if QUICK else (15, 16, 17, 18)
    workers = 4
    jobs = []
    for n in ns:
        program = elaborate(adder_qbr_source(n))
        jobs.append(
            VerificationJob(
                program.circuit, tuple(sorted(program.dirty_wires))
            )
        )

    def run(executor: str) -> float:
        with BatchVerifier(
            backend="cdcl",
            executor=executor,
            max_workers=workers,
            replay=False,
        ) as verifier:
            if executor == "process":
                # Spin the pool up outside the timed region: the row
                # measures steady-state batch throughput, not fork cost.
                verifier._process_pool()
            start = time.perf_counter()
            reports = verifier.verify_circuits(jobs)
            wall = time.perf_counter() - start
        assert all(report.all_safe for report in reports)
        return wall

    thread_wall = run("thread")
    process_wall = run("process")
    row = {
        "front": "process_vs_thread",
        "adder_ns": list(ns),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "thread_wall_seconds": round(thread_wall, 4),
        "process_wall_seconds": round(process_wall, 4),
        "speedup": round(thread_wall / process_wall, 2)
        if process_wall > 0 else None,
    }
    print(
        f"  process_vs_thread  thread={thread_wall:>7.3f}s "
        f"process={process_wall:>7.3f}s speedup={row['speedup']}x "
        f"(cpus={row['cpu_count']})"
    )
    return row


def bench_verify(path: str) -> None:
    program = elaborate(adder_qbr_source(BENCH_ADDER_N))
    workload = (
        f"adder.qbr n={BENCH_ADDER_N} "
        f"({len(program.dirty_wires)} dirty carry ancillas); "
        f"reduced workloads: brute/bitset n=10 "
        f"(brute raised from its historical n=4 wall); "
        f"dpll retired from the bench (still registered)"
    )
    print(f"=== BENCH_verify: {workload} ===", flush=True)
    print("per-backend solver seconds:", flush=True)
    backend_rows = per_backend_solver_seconds()
    print("solver-speed fronts:", flush=True)
    fronts = [
        front_bitset_vs_brute(),
        front_incremental_vs_fresh(program),
        front_process_vs_thread(),
    ]
    print("sequential loop vs. batch engine:", flush=True)
    comparison = [
        sequential_vs_batch(program, backend) for backend in ("bdd", "cdcl")
    ]
    payload = {
        "schema": "bench-verify/v2",
        "generated_by": "benchmarks/run_paper_tables.py",
        "workload": workload,
        "quick": QUICK,
        "backends": backend_rows,
        "fronts": fronts,
        "sequential_vs_batch": comparison,
        "figures": _figure_rows,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    print()


# --------------------------------------------------------------------- #
# BENCH_alloc: the borrow-allocation subsystem
# --------------------------------------------------------------------- #


def _fig31_circuit() -> Circuit:
    """The Figure 3.1a running example (see tests/conftest.py)."""
    c = Circuit(7, labels=["q1", "q2", "q3", "q4", "q5", "a1", "a2"])
    c.append(cnot(1, 2))
    c.extend(
        [toffoli(0, 1, 5), toffoli(5, 3, 4), toffoli(0, 1, 5), toffoli(5, 3, 4)]
    )
    c.extend(
        [toffoli(3, 4, 6), toffoli(6, 1, 0), toffoli(3, 4, 6), toffoli(6, 1, 0)]
    )
    return c


def _strategy_rows(label: str, circuit: Circuit, dirty) -> list:
    """Final width + wall seconds of every registered strategy."""
    rows = []
    for name in available_strategies():
        strategy = (
            LookaheadStrategy() if name == "lookahead" else name
        )
        start = time.perf_counter()
        plan = allocate(circuit, list(dirty), strategy=strategy)
        wall = time.perf_counter() - start
        row = {
            "strategy": name,
            "final_width": plan.final_width,
            "placed": len(plan.assignment),
            "unplaced": len(plan.unplaced),
            "wall_seconds": round(wall, 4),
        }
        if name == "lookahead":
            row["optimal"] = strategy.last_optimal
        rows.append(row)
        print(
            f"  {label:<10} {name:<15} width={plan.final_width:<4} "
            f"placed={len(plan.assignment):<3} wall={wall:>8.4f}s"
        )
    return rows


def _lazy_vs_eager_verification(circuit: Circuit, dirty) -> dict:
    """The tentpole comparison: the seed verified every requested
    ancilla up front; the ``verified`` strategy only pays for ancillas
    that actually have a candidate host."""
    eager = BatchVerifier(backend="bdd")
    start = time.perf_counter()
    eager.verify_circuit(circuit, list(dirty))
    eager_wall = time.perf_counter() - start

    lazy = BatchVerifier(backend="bdd")
    start = time.perf_counter()
    allocate(circuit, list(dirty), strategy="verified", verifier=lazy)
    lazy_wall = time.perf_counter() - start

    row = {
        "dirty_qubits": len(dirty),
        "eager_wall_seconds": round(eager_wall, 4),
        "eager_solver_runs": eager.cache_misses,
        "lazy_wall_seconds": round(lazy_wall, 4),
        "lazy_solver_runs": lazy.cache_misses,
    }
    print(
        f"  verification: eager={eager_wall:.4f}s "
        f"({eager.cache_misses} solver runs) vs "
        f"lazy={lazy_wall:.4f}s ({lazy.cache_misses} runs)"
    )
    return row


def _online_jobs() -> list:
    """A mixed ≥8-job arrival sequence for the online scheduler."""
    jobs = []
    for i in range(3):
        circuit = Circuit(5).extend(
            cccnot_with_dirty_ancilla([0, 1, 3], 4, 2)
        )
        jobs.append(QuantumJob(f"oracle-{i}", circuit, [BorrowRequest(2)]))
    for i in range(2):
        layout = haner_ripple_constant_adder(3 + i, 5)
        jobs.append(
            QuantumJob(
                f"adder-{i}",
                layout.circuit,
                [BorrowRequest(w) for w in layout.dirty_ancillas],
            )
        )
    for i in range(3):
        circuit = Circuit(4).extend([cnot(0, 1), x(0), cnot(0, 1)])
        jobs.append(QuantumJob(f"sampler-{i}", circuit, []))
    return jobs


def _online_workload(strategy: str) -> dict:
    """Admit 8 jobs, release the first half, admit them again —
    exercising occupancy, lending and verdict memoisation."""
    jobs = _online_jobs()
    machine = sum(job.circuit.num_qubits for job in jobs)
    programmer = MultiProgrammer(machine, strategy=strategy)
    start = time.perf_counter()
    for job in jobs:
        programmer.admit(job)
    peak = programmer.occupancy
    for job in jobs[: len(jobs) // 2]:
        programmer.release(job.name)
    for job in jobs[: len(jobs) // 2]:
        programmer.admit(job)
    wall = time.perf_counter() - start
    cross = sum(
        len(programmer.admission(job.name).cross_hosts) for job in jobs
    )
    row = {
        "strategy": strategy,
        "jobs": len(jobs),
        "machine": machine,
        "wall_seconds": round(wall, 4),
        "peak_occupancy": peak,
        "final_occupancy": programmer.occupancy,
        "cross_borrows": cross,
        "solver_runs": programmer.verifier.cache_misses,
        "cache_hits": programmer.verifier.cache_hits,
    }
    print(
        f"  online     {strategy:<15} wall={wall:>8.4f}s "
        f"peak={peak:<4} cross_borrows={cross:<3} "
        f"solver_runs={programmer.verifier.cache_misses}"
    )
    return row


#: The queueing record's fixed workload: one seeded ≥50-job arrival
#: trace (repro.testing) with jobs up to 9 wires against a 12-qubit
#: machine — wide arrivals block a strict FIFO head while narrower
#: jobs' timeouts run out, which is exactly the regime backfill is
#: for.  Replayed under every registered queue policy.
QUEUE_TRACE_SEED = 1
QUEUE_TRACE_JOBS = 50
QUEUE_MACHINE = 12


def _queueing_workload(policy: str) -> dict:
    """Replay the fixed seeded trace under one queue policy.

    The trace is regenerated from the seed for each policy, so every
    policy sees byte-identical jobs and the admitted/wait numbers are
    directly comparable; verdict memoisation is intentionally NOT
    shared across policies so each row's wall time is honest.  Mean
    wait can legitimately be *higher* under backfill — it admits jobs
    FIFO would have let expire, and those waited longest.
    """
    trace = random_arrival_trace(
        QUEUE_TRACE_SEED,
        num_jobs=QUEUE_TRACE_JOBS,
        timeout_probability=0.4,
        max_data=7,
        max_ancillas=2,
    )
    programmer = MultiProgrammer(
        QUEUE_MACHINE, queue_policy=policy, max_workers=1
    )
    start = time.perf_counter()
    log = replay_trace(programmer, trace)
    wall = time.perf_counter() - start
    stats = log.stats
    row = {
        "policy": policy,
        "jobs": QUEUE_TRACE_JOBS,
        "machine": QUEUE_MACHINE,
        "trace_events": len(trace),
        "admitted": stats["admitted"],
        "admitted_from_queue": stats["admitted_from_queue"],
        "expired": stats["expired"],
        "rejected": stats["rejected"],
        "mean_wait_events": stats["mean_wait_events"],
        "wall_seconds": round(wall, 4),
        "admitted_per_second": round(stats["admitted"] / wall, 2)
        if wall > 0
        else None,
        "solver_runs": programmer.verifier.cache_misses,
    }
    print(
        f"  queueing   {policy:<15} admitted={stats['admitted']:<3} "
        f"(queue {stats['admitted_from_queue']}, "
        f"expired {stats['expired']}) "
        f"mean_wait={stats['mean_wait_events']:<6} "
        f"wall={wall:>8.4f}s"
    )
    return row


#: The lending record's fixed workload: the seed-1 50-job lending
#: trace (repro.testing.random_lending_trace: every 8th arrival is a
#: 5-wire lender offering 2 idle wires, the rest are guests whose safe
#: ancillas can only be hosted by a cross-program lease — 70% of them
#: segmented guests whose two identity blocks straddle a long restore
#: gap) against an 11-qubit machine.  Offers are scarce by
#: construction, so whole-residency lending runs out of lease-free
#: wires, windowed lending multiplexes them, and segmented lending
#: additionally threads guests through the restore gaps — replayed
#: under every registered queue policy and all three lending modes so
#: the admitted counts are directly comparable (and CI-gated:
#: windowed must never admit fewer than whole, segmented never fewer
#: than windowed, and segmented must beat windowed outright under at
#: least one policy).
LENDING_TRACE_SEED = 1
LENDING_TRACE_JOBS = 50
LENDING_MACHINE = 11
LENDING_MODES = ("whole", "windowed", "segmented")


def _lending_workload(policy: str, lending: str) -> dict:
    """Replay the fixed seeded lending trace under one (policy,
    lending-mode) pair.  Deterministic counts, honest wall times (no
    verifier sharing across rows)."""
    trace = random_lending_trace(
        LENDING_TRACE_SEED, num_jobs=LENDING_TRACE_JOBS
    )
    programmer = MultiProgrammer(
        LENDING_MACHINE,
        queue_policy=policy,
        lending=lending,
        max_workers=1,
    )
    start = time.perf_counter()
    log = replay_trace(programmer, trace)
    wall = time.perf_counter() - start
    stats = log.stats
    row = {
        "policy": policy,
        "lending": lending,
        "jobs": LENDING_TRACE_JOBS,
        "machine": LENDING_MACHINE,
        "admitted": stats["admitted"],
        "expired": stats["expired"],
        "leases_granted": programmer.total_leases,
        "wall_seconds": round(wall, 4),
    }
    print(
        f"  lending    {policy:<9} {lending:<9} "
        f"admitted={stats['admitted']:<3} "
        f"leases={programmer.total_leases:<3} "
        f"expired={stats['expired']:<3} wall={wall:>8.4f}s"
    )
    return row


# --------------------------------------------------------------------- #
# Fleet routing (repro.multiprog.fleet)
# --------------------------------------------------------------------- #

#: The fleet record's fixed workload: one seeded 50-job fleet trace
#: (recurring circuit families included — the signal family-affinity
#: placement routes on), replayed through a single 11-qubit machine
#: (the baseline a half-fleet must never lose to), one monolithic
#: 22-qubit router, and a 2x11 fleet under every registered placement
#: policy.  The CI gate binds fleet(2x11) admitted >= single(11)
#: admitted for each policy.
FLEET_TRACE_SEED = 1
FLEET_TRACE_JOBS = 50
FLEET_SHARD = 11


def _fleet_trace() -> list:
    return random_fleet_trace(FLEET_TRACE_SEED, num_jobs=FLEET_TRACE_JOBS)


def _fleet_row(label: str, shards: list, placement: str) -> dict:
    """Replay the fixed fleet trace through one router configuration.

    The trace is regenerated from the seed per row, so every
    configuration sees byte-identical jobs; no verifier sharing across
    rows, so each wall time is honest."""
    trace = _fleet_trace()
    router = FleetRouter(shards, placement=placement, max_workers=1)
    start = time.perf_counter()
    log = replay_trace(router, trace)
    wall = time.perf_counter() - start
    stats = log.stats
    row = {
        "label": label,
        "shards": list(shards),
        "placement": placement,
        "jobs": FLEET_TRACE_JOBS,
        "admitted": stats["admitted"],
        "admitted_from_queue": stats["admitted_from_queue"],
        "migrations": stats["migrations"],
        "rejected": stats["rejected"],
        "wall_seconds": round(wall, 4),
    }
    print(
        f"  fleet      {label:<22} admitted={stats['admitted']:<3} "
        f"(queue {stats['admitted_from_queue']}, "
        f"migrations {stats['migrations']}) wall={wall:>8.4f}s"
    )
    return row


def _fleet_section() -> dict:
    """The ``fleet`` record: single-shard baselines plus a 2x11 fleet
    per placement policy, all on one pinned trace."""
    rows = [
        _fleet_row(f"single{FLEET_SHARD}", [FLEET_SHARD], "least-loaded"),
        _fleet_row(
            f"single{2 * FLEET_SHARD}",
            [2 * FLEET_SHARD],
            "least-loaded",
        ),
    ]
    rows.extend(
        _fleet_row(
            f"fleet2x{FLEET_SHARD}[{placement}]",
            [FLEET_SHARD, FLEET_SHARD],
            placement,
        )
        for placement in available_placements()
    )
    return {"seed": FLEET_TRACE_SEED, "rows": rows}


# --------------------------------------------------------------------- #
# Streaming allocation (repro.alloc.streaming)
# --------------------------------------------------------------------- #

#: Seeds of the streaming record's fixed workloads.  The large
#: generated circuit is what the incremental-vs-rescan gate binds on;
#: the lookahead sweep replays a 20-circuit corpus (seeds
#: STREAM_CORPUS_BASE..+N) at every horizon.
STREAM_SEED = 7
STREAM_CORPUS_BASE = 100

#: Horizons of the plan-quality sweep; ``None`` is ∞ and is recorded
#: as the string ``"inf"`` (JSON has no infinity).
STREAM_LOOKAHEADS = (0, 8, 64, None)


def _stream_workloads() -> list:
    """``(label, circuit, ancillas)`` rows for incremental-vs-rescan:
    a 200+-gate generated circuit (144 gates in quick mode) and a wide
    adder."""
    seg, mid = (6, 30) if QUICK else (12, 60)
    generated, gen_ancillas = random_reversible_circuit(
        STREAM_SEED,
        num_data=12,
        num_ancillas=6,
        segment_gates=seg,
        middle_gates=mid,
    )
    rows = [
        (f"generated-{len(generated.gates)}", generated, gen_ancillas)
    ]
    n = 12 if QUICK else 16
    adder = elaborate(adder_qbr_source(n))
    rows.append(
        (f"adder{n}", adder.circuit, tuple(sorted(adder.dirty_wires)))
    )
    return rows


def _stream_rescan_row(label: str, circuit: Circuit, ancillas) -> dict:
    """Per-gate model maintenance, two ways.

    The *rescan* path is the pre-streaming caller pattern: after every
    arriving gate, rebuild the conflict model from scratch over the
    whole prefix (O(gates) per gate, quadratic overall).  The
    *incremental* path appends each gate to one
    :class:`IncrementalConflictModel`, answers the same per-touch
    window query the streaming allocator makes, and snapshots the full
    model once at the end.  Both finish with identical models (checked
    and recorded), so the speedup is pure data-structure win.
    """
    ancilla_set = set(ancillas)

    start = time.perf_counter()
    grow = Circuit(circuit.num_qubits, labels=circuit.labels)
    rescan_model = None
    for gate in circuit.gates:
        grow.append(gate)
        rescan_model = build_model(grow, ancillas)
    rescan_wall = time.perf_counter() - start

    start = time.perf_counter()
    engine = IncrementalConflictModel(
        circuit.num_qubits, ancillas, labels=circuit.labels
    )
    for gate in circuit.gates:
        engine.append(gate)
        for a in set(gate.qubits) & ancilla_set:
            engine.window(a)
    incremental_model = engine.snapshot()
    incremental_wall = time.perf_counter() - start

    agree = (
        rescan_model.windows == incremental_model.windows
        and rescan_model.candidates == incremental_model.candidates
        and rescan_model.conflicts == incremental_model.conflicts
    )
    speedup = (
        round(rescan_wall / incremental_wall, 1)
        if incremental_wall > 0
        else None
    )
    row = {
        "workload": label,
        "gates": len(circuit.gates),
        "ancillas": len(ancillas),
        "rescan_wall_seconds": round(rescan_wall, 4),
        "incremental_wall_seconds": round(incremental_wall, 4),
        "speedup": speedup,
        "models_agree": agree,
    }
    print(
        f"  streaming  {label:<15} rescan={rescan_wall:>8.4f}s "
        f"incremental={incremental_wall:>8.4f}s speedup={speedup}x"
    )
    return row


def _stream_throughput_row(circuit: Circuit, ancillas) -> dict:
    """Gates/second of a live :class:`StreamingAllocator` (lookahead 8,
    the middle of the sweep) over the large generated workload."""
    allocator = StreamingAllocator(
        circuit.num_qubits, ancillas, lookahead=8, labels=circuit.labels
    )
    start = time.perf_counter()
    for gate in circuit.gates:
        allocator.feed(gate)
    plan = allocator.close()
    wall = time.perf_counter() - start
    row = {
        "lookahead": 8,
        "gates": len(circuit.gates),
        "wall_seconds": round(wall, 4),
        "gates_per_second": round(len(circuit.gates) / wall, 1)
        if wall > 0
        else None,
        "final_width": plan.final_width,
        "stats": allocator.stats.as_dict(),
    }
    print(
        f"  streaming  throughput      {row['gates']} gates in "
        f"{wall:>8.4f}s = {row['gates_per_second']} gates/s"
    )
    return row


def _stream_lookahead_rows() -> list:
    """Plan quality vs horizon over a seeded corpus.

    Every circuit is replayed at each K; the ∞ row must reproduce the
    offline greedy plans exactly (``plans_match_offline`` — the
    differential contract, CI-gated), and every row's total width is
    directly comparable against ``offline_total_width``.
    """
    count = 8 if QUICK else 20
    corpus = [
        random_reversible_circuit(
            seed,
            num_data=6,
            num_ancillas=3,
            segment_gates=4,
            middle_gates=8,
        )
        for seed in range(STREAM_CORPUS_BASE, STREAM_CORPUS_BASE + count)
    ]
    offline = [
        allocate(circuit, ancillas, strategy="greedy")
        for circuit, ancillas in corpus
    ]
    offline_width = sum(plan.final_width for plan in offline)
    rows = []
    for lookahead in STREAM_LOOKAHEADS:
        plans = [
            stream_allocate(circuit, ancillas, lookahead=lookahead)
            for circuit, ancillas in corpus
        ]
        width = sum(plan.final_width for plan in plans)
        matches = all(
            plan.assignment == base.assignment
            and plan.unplaced == base.unplaced
            for plan, base in zip(plans, offline)
        )
        label = "inf" if lookahead is None else lookahead
        rows.append(
            {
                "lookahead": label,
                "circuits": len(corpus),
                "total_width": width,
                "offline_total_width": offline_width,
                "width_matches_offline": width == offline_width,
                "plans_match_offline": matches,
            }
        )
        print(
            f"  streaming  lookahead={label!s:<5} total_width={width:<4} "
            f"(offline {offline_width}) plans_match={matches}"
        )
    return rows


def _stream_segmented_parity() -> dict:
    """∞-lookahead differential under segmented windows and spoiled
    ancillas: every seeded plan must equal offline greedy, window sets
    included."""
    count = 6 if QUICK else 12
    matches = True
    for seed in range(STREAM_CORPUS_BASE, STREAM_CORPUS_BASE + count):
        circuit, ancillas = random_reversible_circuit(
            seed,
            num_data=5,
            num_ancillas=3,
            segment_gates=3,
            middle_gates=6,
            # Wire 5 is the first ancilla; spoiling it on odd seeds
            # exercises the never-segmented whole-window path too.
            spoiled=(5,) if seed % 2 else (),
        )
        base = allocate(
            circuit, ancillas, strategy="greedy", segmented=True
        )
        plan = stream_allocate(circuit, ancillas, segmented=True)
        matches = matches and (
            plan.assignment == base.assignment
            and plan.unplaced == base.unplaced
            and plan.windows == base.windows
            and plan.final_width == base.final_width
        )
    row = {"circuits": count, "matches_offline": matches}
    print(
        f"  streaming  segmented ∞-parity over {count} circuits: "
        f"matches={matches}"
    )
    return row


def _streaming_section() -> dict:
    workloads = _stream_workloads()
    large = workloads[0]
    return {
        "seed": STREAM_SEED,
        "incremental_vs_rescan": [
            _stream_rescan_row(label, circuit, ancillas)
            for label, circuit, ancillas in workloads
        ],
        "throughput": _stream_throughput_row(large[1], large[2]),
        "lookahead": _stream_lookahead_rows(),
        "segmented_parity": _stream_segmented_parity(),
    }


# --------------------------------------------------------------------- #
# Streaming front end (parse-while-allocate)
# --------------------------------------------------------------------- #

#: Repeats per wall-time measurement; medians go into the record so a
#: single noisy run cannot flip the overlapped-vs-staged comparison.
FRONTEND_REPEATS = 3 if QUICK else 5

#: How many times each pipeline runs inside one timed measurement —
#: the single-shot walls sit under the gate's noise floor, so the
#: rows record amplified (and therefore gateable) timings.
FRONTEND_AMPLIFY = 4 if QUICK else 12


def _median(values: list) -> float:
    return sorted(values)[len(values) // 2]


def _frontend_workloads() -> list:
    adder_n, mcx_n = (16, 12) if QUICK else (32, 20)
    return [
        (f"adder{adder_n}", adder_qbr_source(adder_n)),
        (f"mcx{mcx_n}", mcx_qbr_source(mcx_n)),
    ]


def _frontend_overlap_row(label: str, source: str) -> dict:
    """Staged vs overlapped front end over one ``.qbr`` workload.

    *Staged* is the pre-streaming caller pattern: elaborate the whole
    program, then feed the finished gate list to a
    :class:`StreamingAllocator`.  *Overlapped* feeds the allocator
    from :func:`iter_program` as each statement elaborates — the
    parse-while-allocate path.  Register width and dirty wires are
    precomputed outside both timed regions (both paths need them to
    build the allocator), and each measurement runs the pipeline
    ``FRONTEND_AMPLIFY`` times so the medians clear the gate's noise
    floor.
    """
    program = elaborate(source)
    width = program.circuit.num_qubits
    dirty = tuple(sorted(program.dirty_wires))

    staged_walls, overlapped_walls = [], []
    for _ in range(FRONTEND_REPEATS):
        start = time.perf_counter()
        for _ in range(FRONTEND_AMPLIFY):
            staged = elaborate(source)
            allocator = StreamingAllocator(width, dirty, lookahead=8)
            for gate in staged.circuit.gates:
                allocator.feed(gate)
            allocator.close()
        staged_walls.append(time.perf_counter() - start)

        start = time.perf_counter()
        for _ in range(FRONTEND_AMPLIFY):
            allocator = StreamingAllocator(width, dirty, lookahead=8)
            for gate in iter_program(source):
                allocator.feed(gate)
            allocator.close()
        overlapped_walls.append(time.perf_counter() - start)

    staged_wall = _median(staged_walls)
    overlapped_wall = _median(overlapped_walls)
    row = {
        "workload": label,
        "gates": len(program.circuit.gates),
        "repeats": FRONTEND_REPEATS,
        "amplify": FRONTEND_AMPLIFY,
        "staged_wall_seconds": round(staged_wall, 4),
        "overlapped_wall_seconds": round(overlapped_wall, 4),
        "overlap_ratio": round(overlapped_wall / staged_wall, 3)
        if staged_wall > 0
        else None,
    }
    print(
        f"  frontend   {label:<15} staged={staged_wall:>8.4f}s "
        f"overlapped={overlapped_wall:>8.4f}s "
        f"ratio={row['overlap_ratio']}"
    )
    return row


def _frontend_first_lease() -> dict:
    """Time to first lease of a prefix admission vs one full parse.

    A long OpenQASM program opens with a four-gate dirty-borrow block
    on wire 3 (provably safe on the prefix), followed by a tail that
    never touches it again.  The staged baseline must parse all of it
    before any admission decision; :meth:`MultiProgrammer.admit_stream`
    grants the cross-program lease after consuming only the prefix —
    the latency win the whole streaming front end exists for.
    """
    tail = 1200 if QUICK else 4000
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[4];",
        "ccx q[0],q[1],q[3];",
        "cx q[3],q[2];",
        "ccx q[0],q[1],q[3];",
        "cx q[3],q[2];",
    ]
    lines.extend("x q[0];" if i % 2 else "cx q[0],q[1];" for i in range(tail))
    text = "\n".join(lines) + "\n"
    prefix_gates = 4

    lender = Circuit(5)
    lender.append(cnot(0, 1))
    lender.append(cnot(1, 2))

    parse_walls, lease_walls = [], []
    lease_granted = True
    for _ in range(FRONTEND_REPEATS):
        start = time.perf_counter()
        parsed = from_qasm(text)
        parse_walls.append(time.perf_counter() - start)

        programmer = MultiProgrammer(9, max_workers=1)
        programmer.admit(QuantumJob("lender", lender))
        start = time.perf_counter()
        stream = iter_qasm_gates(text)
        prefix = [next(stream) for _ in range(prefix_gates)]
        handle = programmer.admit_stream(
            "guest", stream.num_qubits, [3], prefix=prefix
        )
        lease_walls.append(time.perf_counter() - start)
        lease_granted = lease_granted and bool(handle.admission.leases)
        handle.extend(stream)
        handle.close()

    row = {
        "gates": len(parsed.gates),
        "prefix_gates": prefix_gates,
        "repeats": FRONTEND_REPEATS,
        "staged_parse_wall_seconds": round(_median(parse_walls), 4),
        "time_to_first_lease_seconds": round(_median(lease_walls), 4),
        "lease_granted": lease_granted,
    }
    print(
        f"  frontend   first-lease     parse={row['staged_parse_wall_seconds']:>8.4f}s "
        f"first_lease={row['time_to_first_lease_seconds']:>8.4f}s "
        f"granted={lease_granted}"
    )
    return row


def _frontend_adaptive_rows() -> list:
    """Adaptive vs fixed lookahead over the seeded streaming corpus.

    Replays the lookahead sweep's corpus under ``fixed-0`` (commit at
    first sight: narrowest latency, most premature commits),
    ``fixed-8`` (the sweep's middle horizon) and the ``adaptive``
    policy (fresh per circuit — the registry string builds one per
    allocator).  The gate binds adaptive's total width to the best
    fixed row and its disturbance count (rollbacks + revocations) to
    fixed-0's.
    """
    count = 8 if QUICK else 20
    corpus = [
        random_reversible_circuit(
            seed,
            num_data=6,
            num_ancillas=3,
            segment_gates=4,
            middle_gates=8,
        )
        for seed in range(STREAM_CORPUS_BASE, STREAM_CORPUS_BASE + count)
    ]
    rows = []
    for label, lookahead in (
        ("fixed-0", 0),
        ("fixed-8", 8),
        ("adaptive", "adaptive"),
    ):
        width = rollbacks = revocations = replans = 0
        for circuit, ancillas in corpus:
            allocator = StreamingAllocator(
                circuit.num_qubits, ancillas, lookahead=lookahead
            )
            for gate in circuit.gates:
                allocator.feed(gate)
            plan = allocator.close()
            width += plan.final_width
            rollbacks += allocator.stats.rollbacks
            revocations += allocator.stats.revocations
            replans += allocator.stats.replans
        rows.append(
            {
                "policy": label,
                "circuits": count,
                "total_width": width,
                "rollbacks": rollbacks,
                "revocations": revocations,
                "disturbances": rollbacks + revocations,
                "replans": replans,
            }
        )
        print(
            f"  frontend   policy={label:<9} total_width={width:<4} "
            f"rollbacks={rollbacks:<3} revocations={revocations:<3} "
            f"replans={replans}"
        )
    return rows


def _streaming_frontend_section() -> dict:
    return {
        "workloads": [
            _frontend_overlap_row(label, source)
            for label, source in _frontend_workloads()
        ],
        "first_lease": _frontend_first_lease(),
        "adaptive": _frontend_adaptive_rows(),
    }


# --------------------------------------------------------------------- #
# Restore-check admission cost (structural vs solver)
# --------------------------------------------------------------------- #

#: The restore-check record's pinned workload: a large seeded lending
#: trace (timeouts off, so admission work — not queue churn —
#: dominates) replayed under segmented lending with each certifier.
RESTORE_TRACE_SEED = 2
RESTORE_TRACE_JOBS = 100 if QUICK else 300
RESTORE_MACHINE = 11


def _restore_check_row(restore_check: str) -> dict:
    walls = []
    for _ in range(FRONTEND_REPEATS):
        trace = random_lending_trace(
            RESTORE_TRACE_SEED, num_jobs=RESTORE_TRACE_JOBS, timeouts=False
        )
        programmer = MultiProgrammer(
            RESTORE_MACHINE,
            lending="segmented",
            restore_check=restore_check,
            max_workers=1,
        )
        start = time.perf_counter()
        log = replay_trace(programmer, trace)
        walls.append(time.perf_counter() - start)
    wall = _median(walls)
    row = {
        "restore_check": restore_check,
        "jobs": RESTORE_TRACE_JOBS,
        "machine": RESTORE_MACHINE,
        "admitted": len(log.admitted),
        "leases_granted": programmer.total_leases,
        "wall_seconds": round(wall, 4),
    }
    print(
        f"  restore    {restore_check:<11} admitted={row['admitted']:<4} "
        f"leases={row['leases_granted']:<4} wall={wall:>8.4f}s"
    )
    return row


def _restore_check_section() -> dict:
    """Admission cost of the solver-backed restore certifier.

    The measurement behind the scheduler's segmented-mode default: the
    solver certifier only runs where the structural palindrome check
    fails, and its verdicts share the scheduler's memoised verifier,
    so the overhead on the pinned trace is small — under the 10%
    budget that justified flipping ``lending="segmented"`` to
    ``restore_check="solver"`` by default.
    """
    rows = [
        _restore_check_row(check) for check in ("structural", "solver")
    ]
    structural, solver = rows
    overhead = (
        round(
            (solver["wall_seconds"] - structural["wall_seconds"])
            / structural["wall_seconds"],
            3,
        )
        if structural["wall_seconds"] > 0
        else None
    )
    print(f"  restore    solver overhead fraction: {overhead}")
    return {
        "seed": RESTORE_TRACE_SEED,
        "rows": rows,
        "solver_overhead_fraction": overhead,
        "segmented_default": "solver",
    }


def bench_alloc(path: str) -> None:
    fig31 = _fig31_circuit()
    adder = elaborate(adder_qbr_source(BENCH_ADDER_N))
    print(
        f"=== BENCH_alloc: fig 3.1 + adder.qbr n={BENCH_ADDER_N} "
        f"({len(adder.dirty_wires)} dirty) + "
        f"{len(_online_jobs())}-job online workload + "
        f"{QUEUE_TRACE_JOBS}-job queueing trace + "
        f"{LENDING_TRACE_JOBS}-job lending trace + "
        f"{FLEET_TRACE_JOBS}-job fleet trace ===",
        flush=True,
    )
    payload = {
        "schema": "bench-alloc/v1",
        "generated_by": "benchmarks/run_paper_tables.py",
        "quick": QUICK,
        "workloads": {
            "fig31": _strategy_rows("fig31", fig31, [5, 6]),
            f"adder{BENCH_ADDER_N}": _strategy_rows(
                f"adder{BENCH_ADDER_N}", adder.circuit, adder.dirty_wires
            ),
        },
        "lazy_vs_eager_verification": _lazy_vs_eager_verification(
            adder.circuit, adder.dirty_wires
        ),
        "online": [
            _online_workload(strategy)
            for strategy in available_strategies()
        ],
        "queueing": {
            "seed": QUEUE_TRACE_SEED,
            "rows": [
                _queueing_workload(policy)
                for policy in available_policies()
            ],
        },
        "lending": {
            "seed": LENDING_TRACE_SEED,
            "rows": [
                _lending_workload(policy, lending)
                for policy in available_policies()
                for lending in LENDING_MODES
            ],
        },
        "fleet": _fleet_section(),
        "streaming": _streaming_section(),
        "streaming_frontend": _streaming_frontend_section(),
        "restore_check": _restore_check_section(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    print()


if __name__ == "__main__":
    bench_path = _bench_json_path()  # validate flags before the sweeps
    alloc_path = _alloc_json_path()
    if not BENCH_ONLY:
        figure_1_1()
        figure_10_2()
        figure_10_3()
    bench_verify(bench_path)
    bench_alloc(alloc_path)
