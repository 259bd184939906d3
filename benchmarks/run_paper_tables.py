"""Regenerate the paper's tables and the machine-readable perf record.

Standalone companion to the pytest-benchmark harness: prints

* Figure 1.1  — adder cost table;
* Figure 10.2 — adder verification seconds per qubit count, per backend;
* Figure 10.3 — MCX verification seconds per qubit count, per backend;

and always writes two machine-readable perf records so successive PRs
can track the trajectory:

* ``BENCH_verify.json`` — per-backend solver seconds on a fixed
  ≥12-dirty-qubit circuit, the solver-speed fronts (the dependence
  sweep against the engine alone among them), the sequential-loop vs.
  batch-engine wall-time comparison, and the paper-scale ``elaborate``
  row (the ``.qbr`` front end on ``mcx.qbr`` m=750).  Every row but
  ``sweep_vs_engine`` runs with the sweep off, so it measures the
  engines it names;
* ``BENCH_alloc.json`` — final width and wall time of every registered
  allocation strategy on the Figure 3.1 example and the 13-dirty-qubit
  adder, the lazy vs. eager verification comparison, a ≥8-job online
  multi-programming workload per strategy, the seeded 50-job queueing
  trace per queue policy (fifo / backfill / sjf / priority), and the
  seeded 50-job *lending* trace per (policy, lending-mode) pair —
  windowed vs. segmented admitted counts — and the seeded
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
    LookaheadStrategy,
    allocate,
    available_strategies,
)
from repro.circuits import Circuit, cnot, toffoli, x
from repro.errors import SolverError
from repro.lang.surface import elaborate
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

#: Adder of the ``sweep_vs_engine`` front: cdcl alone needs ~1 s there.
SWEEP_ADDER_N = 25

#: ``mcx.qbr`` parameter of the ``elaborate`` row: the paper's Fig 6.4
#: size (11,968 gates).  Quick mode keeps it, so a quick record still
#: compares against the committed one.
BENCH_ELABORATE_M = 750

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


def _median(values: list) -> float:
    return sorted(values)[len(values) // 2]


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
                program.circuit, program.dirty_wires, backend=backend,
                sweep=False,
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


def per_backend_solver_seconds() -> list:
    """Solver seconds of every registered backend, with the dependence
    sweep off, on its largest tractable adder workload (``qubits``
    recorded per row).  The ROBDD rows also record ``bdd_nodes``, the
    manager's node count once every wire's formula is compiled, which
    is deterministic and gated exactly."""
    rows = []
    for backend in available_backends():
        n = min(BENCH_ADDER_N, _BACKEND_ADDER_CAP.get(backend, BENCH_ADDER_N))
        program = elaborate(adder_qbr_source(n))
        start = time.perf_counter()
        try:
            report = verify_circuit(
                program.circuit, program.dirty_wires, backend=backend,
                sweep=False,
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
            for qubit in range(program.circuit.num_qubits):
                checker.root(qubit)
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
    BatchVerifier call over the same dirty qubits, both in this thread
    and with the dependence sweep off; the speedup is the shared
    tracking, checker build and incremental solving."""
    start = time.perf_counter()
    sequential_verdicts = []
    for qubit in program.dirty_wires:
        report = verify_circuit(
            program.circuit, [qubit], backend=backend, sweep=False
        )
        sequential_verdicts.extend(report.verdicts)
    sequential_wall = time.perf_counter() - start

    verifier = BatchVerifier(backend=backend, sweep=False)
    start = time.perf_counter()
    batch_report = verifier.verify_circuit(
        program.circuit, program.dirty_wires
    )
    batch_wall = time.perf_counter() - start

    agree = [v.safe for v in sequential_verdicts] == [
        v.safe for v in batch_report.verdicts
    ]
    row = {
        "backend": backend,
        "dirty_qubits": len(program.dirty_wires),
        "sequential_wall_seconds": round(sequential_wall, 4),
        "batch_wall_seconds": round(batch_wall, 4),
        "speedup": round(sequential_wall / batch_wall, 2)
        if batch_wall > 0 else None,
        "verdicts_agree": agree,
    }
    print(
        f"  {backend:<14} sequential={sequential_wall:>8.3f}s "
        f"batch={batch_wall:>8.3f}s speedup={row['speedup']}x"
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
        program.circuit, qubits, backend="bitset", sweep=False
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
    per obligation, over the full per-qubit batch.  The two sides run
    in back-to-back pairs, alternating which goes first, and ``ratio``
    is the median of the per-pair ratios: host drift between pairs
    cancels inside each pair, which keeps the strict
    `incremental < fresh` gate out of runner-jitter territory."""
    from repro.verify.backends.cdcl import CdclCheckerBackend

    qubits = sorted(program.dirty_wires)
    pairs = 5 if QUICK else 9

    def run(incremental: bool) -> float:
        checker = CdclCheckerBackend(
            track_circuit(program.circuit), incremental=incremental
        )
        start = time.perf_counter()
        for qubit in qubits:
            checker.check_qubit(qubit)
        return time.perf_counter() - start

    fresh_walls, incremental_walls = [], []
    for pair in range(pairs):
        if pair % 2:
            incremental_walls.append(run(True))
            fresh_walls.append(run(False))
        else:
            fresh_walls.append(run(False))
            incremental_walls.append(run(True))
    ratios = [i / f for i, f in zip(incremental_walls, fresh_walls) if f > 0]
    fresh = _median(fresh_walls)
    incremental = _median(incremental_walls)
    row = {
        "front": "incremental_vs_fresh",
        "adder_n": BENCH_ADDER_N,
        "obligations": len(qubits),
        "pairs": pairs,
        "fresh_solver_seconds": round(fresh, 4),
        "incremental_solver_seconds": round(incremental, 4),
        "ratio": round(_median(ratios), 3) if ratios else None,
    }
    print(
        f"  incremental_vs_fresh fresh={fresh:>7.3f}s "
        f"incremental={incremental:>7.3f}s ratio={row['ratio']}"
    )
    return row


def front_sweep_vs_engine() -> dict:
    """Front 3: the dependence sweep before the engine vs. the engine
    alone, cdcl on the adder at :data:`SWEEP_ADDER_N`.  ``swept``
    counts the (6.2) obligations the sweep decided; the gate wants
    every one of them, and the same verdicts both ways."""
    program = elaborate(adder_qbr_source(SWEEP_ADDER_N))
    walls, reports = {}, {}
    for sweep in (False, True):
        start = time.perf_counter()
        reports[sweep] = verify_circuit(
            program.circuit, program.dirty_wires, backend="cdcl", sweep=sweep
        )
        walls[sweep] = time.perf_counter() - start
    row = {
        "front": "sweep_vs_engine",
        "adder_n": SWEEP_ADDER_N,
        "obligations": len(program.dirty_wires),
        "swept": reports[True].swept,
        "engine_wall_seconds": round(walls[False], 4),
        "sweep_wall_seconds": round(walls[True], 4),
        "sweep_seconds": round(reports[True].sweep_seconds, 4),
        "speedup": round(walls[False] / walls[True], 1)
        if walls[True] > 0 else None,
        "verdicts_agree": [v.safe for v in reports[True].verdicts]
        == [v.safe for v in reports[False].verdicts],
    }
    print(
        f"  sweep_vs_engine    engine={walls[False]:>7.3f}s "
        f"sweep={walls[True]:>7.3f}s swept={row['swept']}/"
        f"{row['obligations']} speedup={row['speedup']}x"
    )
    return row


def elaborate_row() -> dict:
    """Front-end wall time at paper scale: parse, borrow-check and
    elaborate ``mcx.qbr`` at :data:`BENCH_ELABORATE_M`
    (``wall_seconds``), then track the Section 6.1 formulas of the
    elaborated circuit (``track_seconds``), each the median of 5 runs.
    The emitted ``gates`` count is deterministic and gated exactly."""
    repeats = 5
    source = mcx_qbr_source(BENCH_ELABORATE_M)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        program = elaborate(source)
        walls.append(time.perf_counter() - start)
    tracks = []
    for _ in range(repeats):
        start = time.perf_counter()
        track_circuit(program.circuit)
        tracks.append(time.perf_counter() - start)
    row = {
        "program": f"mcx.qbr m={BENCH_ELABORATE_M}",
        "repeats": repeats,
        "wall_seconds": round(_median(walls), 4),
        "track_seconds": round(_median(tracks), 4),
        "gates": len(program.circuit.gates),
    }
    print(
        f"  elaborate {row['program']} median={row['wall_seconds']:.3f}s "
        f"track={row['track_seconds']:.3f}s gates={row['gates']}",
        flush=True,
    )
    return row


def bench_verify(path: str) -> None:
    program = elaborate(adder_qbr_source(BENCH_ADDER_N))
    workload = (
        f"adder.qbr n={BENCH_ADDER_N} "
        f"({len(program.dirty_wires)} dirty carry ancillas); "
        f"reduced workloads: brute/bitset n=10 "
        f"(brute raised from its historical n=4 wall)"
    )
    print(f"=== BENCH_verify: {workload} ===", flush=True)
    print("per-backend solver seconds:", flush=True)
    backend_rows = per_backend_solver_seconds()
    print("solver-speed fronts:", flush=True)
    fronts = [
        front_bitset_vs_brute(),
        front_incremental_vs_fresh(program),
        front_sweep_vs_engine(),
    ]
    print("sequential loop vs. batch engine:", flush=True)
    comparison = [
        sequential_vs_batch(program, backend) for backend in ("bdd", "cdcl")
    ]
    print("front end at paper scale:", flush=True)
    elaboration = elaborate_row()
    payload = {
        "schema": "bench-verify/v2",
        "generated_by": "benchmarks/run_paper_tables.py",
        "workload": workload,
        "quick": QUICK,
        "backends": backend_rows,
        "fronts": fronts,
        "sequential_vs_batch": comparison,
        "elaborate": elaboration,
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
    programmer = MultiProgrammer(QUEUE_MACHINE, queue_policy=policy)
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
#: construction, so windowed lending multiplexes them and segmented
#: lending additionally threads guests through the restore gaps —
#: replayed under every registered queue policy and both lending modes
#: so the admitted counts are directly comparable (and CI-gated:
#: segmented never admits fewer than windowed, and must beat it
#: outright under at least one policy).
LENDING_TRACE_SEED = 1
LENDING_TRACE_JOBS = 50
LENDING_MACHINE = 11
LENDING_MODES = ("windowed", "segmented")


def _lending_workload(policy: str, lending: str) -> dict:
    """Replay the fixed seeded lending trace under one (policy,
    lending-mode) pair.  Deterministic counts, honest wall times (no
    verifier sharing across rows)."""
    trace = random_lending_trace(
        LENDING_TRACE_SEED, num_jobs=LENDING_TRACE_JOBS
    )
    programmer = MultiProgrammer(
        LENDING_MACHINE, queue_policy=policy, lending=lending
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
    router = FleetRouter(shards, placement=placement)
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
        "rejected": stats["rejected"],
        "wall_seconds": round(wall, 4),
    }
    print(
        f"  fleet      {label:<22} admitted={stats['admitted']:<3} "
        f"(queue {stats['admitted_from_queue']}) wall={wall:>8.4f}s"
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
# Restore-check admission cost (segmented lending, solver certifier)
# --------------------------------------------------------------------- #

#: The restore-check record's pinned workload: a large seeded lending
#: trace (timeouts off, so admission work — not queue churn —
#: dominates) replayed under segmented lending, whose restore segments
#: are certified by the solver-backed checker.
RESTORE_TRACE_SEED = 2
RESTORE_TRACE_JOBS = 100 if QUICK else 300
RESTORE_MACHINE = 11

#: Repeats of the restore-check wall measurement; the median goes into
#: the record so a single noisy run cannot set it.
RESTORE_REPEATS = 3 if QUICK else 5


def _restore_check_section() -> dict:
    """Admission cost of segmented lending's solver-backed restore
    certifier: the solver only runs where the structural palindrome
    check fails, and its verdicts share the scheduler's memoised
    verifier.  One row, keyed ``restore_check="solver"``."""
    walls = []
    for _ in range(RESTORE_REPEATS):
        trace = random_lending_trace(
            RESTORE_TRACE_SEED, num_jobs=RESTORE_TRACE_JOBS, timeouts=False
        )
        programmer = MultiProgrammer(RESTORE_MACHINE, lending="segmented")
        start = time.perf_counter()
        log = replay_trace(programmer, trace)
        walls.append(time.perf_counter() - start)
    wall = _median(walls)
    row = {
        "restore_check": "solver",
        "jobs": RESTORE_TRACE_JOBS,
        "machine": RESTORE_MACHINE,
        "admitted": len(log.admitted),
        "leases_granted": programmer.total_leases,
        "wall_seconds": round(wall, 4),
    }
    print(
        f"  restore    solver      admitted={row['admitted']:<4} "
        f"leases={row['leases_granted']:<4} wall={wall:>8.4f}s"
    )
    return {"seed": RESTORE_TRACE_SEED, "rows": [row]}


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
