"""Section 7 made executable: ONLINE multi-programming with verified
dirty-qubit borrowing.

Jobs arrive at a shared machine over time, QuCloud-style.  Each
admission width-reduces the arriving circuit with a registered
allocation strategy (``repro.alloc``), lazily batch-verifies its
requested ancillas — only ancillas with a candidate host pay solver
time — and lets a verified-safe ancilla borrow an idle wire a resident
co-tenant lends out.  Completed jobs release their wires back to the
pool; a wire lent to a still-running guest stays occupied until the
guest finishes.  Lending is *time-sliced*: a lease covers only the
gate-index window in which the guest's ancilla actually touches the
wire, so several guests with disjoint windows multiplex one idle wire
(the composite-interleave construction of Section 7).  An unsafe
ancilla is never borrowed across a program boundary — it would corrupt
the co-tenant, the failure mode the paper warns about for
multi-programming clouds.

Run:  python examples/multiprogramming.py
"""

from repro.adders import haner_ripple_constant_adder
from repro.circuits import Circuit, cnot, restore_segments, x
from repro.mcx import cccnot_with_dirty_ancilla
from repro.multiprog import BorrowRequest, MultiProgrammer, QuantumJob
from repro.testing import lender_job, segmented_guest_job, windowed_guest_job


def grover_oracle_job(name="grover-oracle") -> QuantumJob:
    circuit = Circuit(5, labels=["q1", "q2", "a", "q3", "flag"]).extend(
        cccnot_with_dirty_ancilla([0, 1, 3], 4, 2)
    )
    return QuantumJob(name, circuit, [BorrowRequest(2)])


def arithmetic_job(name="arithmetic") -> QuantumJob:
    layout = haner_ripple_constant_adder(3, 5)
    requests = [BorrowRequest(w) for w in layout.dirty_ancillas]
    return QuantumJob(name, layout.circuit, requests)


def sampler_job(name="sampler") -> QuantumJob:
    circuit = Circuit(4, labels=["s0", "s1", "s2", "s3"])
    circuit.extend([cnot(0, 1), x(0), cnot(0, 1)])
    return QuantumJob(name, circuit, [])


def rogue_job(name="rogue") -> QuantumJob:
    """An ancilla that is NOT safely uncomputed (left flipped)."""
    circuit = Circuit(2, labels=["w", "anc"]).extend([cnot(0, 1), x(1)])
    return QuantumJob(name, circuit, [BorrowRequest(1)])


def main() -> None:
    machine = MultiProgrammer(16, strategy="greedy")
    print("=== online arrivals on a 16-qubit machine ===")

    print("\n[t=0] sampler arrives (its two idle wires become lendable)")
    machine.admit(sampler_job())
    print(machine.snapshot())

    print("\n[t=1] grover-oracle arrives; its verified ancilla borrows")
    print("      an idle sampler wire instead of a fresh qubit")
    admission = machine.admit(grover_oracle_job())
    print(machine.snapshot())
    print(f"      cross-program borrows: {admission.cross_hosts}")

    print("\n[t=2] arithmetic arrives, placed with the lookahead strategy")
    print("      (a per-admission policy knob; its dirty carries are")
    print("      packed onto its own idle wires)")
    admission = machine.admit(arithmetic_job(), strategy="lookahead")
    print(machine.snapshot())
    print(f"      internal borrow plan: {admission.plan.assignment}")

    print("\n[t=3] rogue arrives: its ancilla verifies UNSAFE, so it")
    print("      gets a private wire — never a co-tenant's")
    admission = machine.admit(rogue_job())
    print(f"      safety verdicts: {admission.safety}")
    print(f"      cross-program borrows: {admission.cross_hosts or 'none'}")

    print("\n[t=4] a second oracle is REJECTED — machine full")
    try:
        machine.admit(grover_oracle_job("grover-2"))
    except Exception as error:
        print(f"      {error}")

    print("\n[t=5] sampler and arithmetic complete; un-lent wires free")
    print("      up (the wire lent to grover-oracle stays busy until")
    print("      it exits)")
    freed = machine.release("sampler")
    print(f"      sampler freed wires: {freed}")
    machine.release("arithmetic")
    print(machine.snapshot())

    print("\n[t=6] now grover-2 fits")
    machine.admit(grover_oracle_job("grover-2"))
    print(machine.snapshot())

    print("\n=== queued arrivals: rejected jobs wait, then backfill ===")
    queue_machine = MultiProgrammer(6, queue_policy="backfill")
    print("a 6-qubit machine with the 'backfill' queue policy")

    print("\n[t=0] sampler (4 wires) arrives and is admitted")
    queue_machine.submit(sampler_job())
    print("\n[t=1] grover-oracle (5 wires) does not fit -> QUEUED,")
    print("      with a 6-event timeout instead of bouncing")
    outcome = queue_machine.submit(grover_oracle_job(), timeout=6)
    print(f"      outcome: {outcome.status}, pending={queue_machine.pending()}")

    print("\n[t=2] tiny (2 wires) arrives; backfill lets it slip past")
    print("      the blocked head (strict fifo would queue it)")
    tiny = QuantumJob(
        "tiny", Circuit(2, labels=["t0", "t1"]).extend([cnot(0, 1)]), []
    )
    outcome = queue_machine.submit(tiny)
    print(f"      outcome: {outcome.status}")
    print(queue_machine.snapshot())

    print("\n[t=3] sampler completes -> the release triggers a backfill")
    print("      pass; grover-oracle still waits (tiny holds 2 wires)")
    queue_machine.release("sampler")
    print(queue_machine.snapshot())

    print("\n[t=4] tiny completes -> now grover-oracle is admitted from")
    print("      the queue")
    queue_machine.release("tiny")
    print(queue_machine.snapshot())
    print(f"      queue stats: {queue_machine.stats()}")

    print("\n=== time-sliced lending: one idle wire, many guests ===")
    window_machine = MultiProgrammer(9)
    print("a 9-qubit machine; a lender job offers its two idle wires")
    window_machine.admit(lender_job("lender"))

    print("\n[t=0] early-window guest arrives (ancilla active over")
    print("      gates [0,1]) and leases the first offered wire")
    early = window_machine.admit(windowed_guest_job("early", prelude=0))
    print(f"      leases: {[str(lease) for lease in early.leases.values()]}")

    print("\n[t=1] late-window guest (gates [6,7]) lands on the SAME")
    print("      wire — the windows are disjoint, so the leases stack")
    late = window_machine.admit(windowed_guest_job("late", prelude=6))
    print(f"      leases: {[str(lease) for lease in late.leases.values()]}")
    print("      per-wire lease table:")
    for wire, leases in window_machine.lease_table().items():
        spans = ", ".join(
            f"{lease.guest}@{lease.window}" for lease in leases
        )
        print(f"        m{wire}: {spans}")

    print("\n[t=2] an overlapping-window guest (gates [1,2]) cannot")
    print("      share that wire and takes the second offer instead")
    clash = window_machine.admit(windowed_guest_job("clash", prelude=1))
    print(f"      leases: {[str(lease) for lease in clash.leases.values()]}")
    print(
        f"      whole-residency lending would have needed "
        f"{sum(1 for _ in (early, late, clash))} separate wires for "
        f"these guests; windowed lending used "
        f"{len(window_machine.lease_table())}"
    )

    print("\n=== segmented lending: restore gaps become capacity ===")
    print("a guest whose ancilla runs two identity blocks around a")
    print("long idle gap — the restore-point analysis proves the wire")
    print("can be handed back in between")
    gappy = segmented_guest_job("gappy", prelude=0, span=1, gap=6)
    print(
        f"      restore segments of gappy's ancilla: "
        f"{restore_segments(gappy.circuit, 1)}"
    )
    seg_machine = MultiProgrammer(9, lending="segmented")
    seg_machine.admit(lender_job("lender"))
    gap_adm = seg_machine.admit(gappy)
    print(
        f"      lease covers only the segments: "
        f"{[str(lease) for lease in gap_adm.leases.values()]}"
    )

    print("\n[t=1] a guest whose window [3,4] sits inside gappy's gap")
    print("      lands on the SAME wire — under plain windowed lending")
    print("      the whole hull [0,9] would have blocked it")
    mid = seg_machine.admit(windowed_guest_job("mid", prelude=3))
    print(f"      leases: {[str(lease) for lease in mid.leases.values()]}")
    for wire, leases in seg_machine.lease_table().items():
        spans = ", ".join(
            f"{lease.guest}@{lease.window}" for lease in leases
        )
        print(f"        m{wire}: {spans}")

    print("\n=== lazy verification: only placeable ancillas pay ===")
    print("a second machine sharing the first one's verifier admits an")
    print("identical oracle next to a lending sampler: its ancilla's")
    print("verdict comes from the memo, not from the solver")
    replica = MultiProgrammer(16, verifier=machine.verifier)
    replica.admit(sampler_job())
    replica.admit(grover_oracle_job("grover-3"))
    print(
        f"solver runs so far: {machine.verifier.cache_misses} "
        f"(memoised hits: {machine.verifier.cache_hits}) — identical "
        f"circuits re-verify for free, and ancillas with no candidate "
        f"host are never checked at all"
    )

    print("\n=== the batch path is a replay over the online engine ===")
    jobs = [grover_oracle_job(), arithmetic_job(), sampler_job()]
    result = MultiProgrammer(
        sum(j.circuit.num_qubits for j in jobs), strategy="interval-graph"
    ).schedule(jobs)
    print(result.summary())
    print(
        f"\ncomposite borrow assignments ({result.plan.strategy}): "
        f"{result.plan.assignment or 'none'}"
    )


if __name__ == "__main__":
    main()
