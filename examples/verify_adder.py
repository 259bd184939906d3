"""Verify the paper's adder benchmark (Figure 6.2) end to end.

Parses the verbatim ``adder.qbr`` program, verifies all ``n-1`` dirty
carry ancillas on both solver backends, and then injects a fault (drops
one uncompute gate) to show how an unsafe ancilla is reported with a
replayable counterexample.

Run:  python examples/verify_adder.py [n]
"""

import sys

from repro.circuits import Circuit
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.verify import verify_circuit


def main(n: int = 16) -> None:
    source = adder_qbr_source(n)
    print(f"=== adder.qbr with n = {n} ===")
    program = elaborate(source)
    print(f"elaborated: {program.summary()}")

    for backend in ("bdd", "cdcl"):
        report = verify_circuit(
            program.circuit, program.dirty_wires, backend=backend
        )
        status = "ALL SAFE" if report.all_safe else "UNSAFE"
        print(
            f"backend={backend:<4} {status}: {len(report.verdicts)} dirty "
            f"qubits in {report.solver_seconds:.3f}s solver time"
        )

    print("\n--- batch engine: one shared tracking/compile pass ---")
    import time

    from repro.verify import BatchVerifier

    start = time.perf_counter()
    for qubit in program.dirty_wires:  # the pre-batch caller pattern
        verify_circuit(program.circuit, [qubit], backend="bdd")
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    BatchVerifier(backend="bdd").verify_circuit(
        program.circuit, program.dirty_wires
    )
    batch = time.perf_counter() - start
    print(
        f"per-qubit loop {sequential:.3f}s vs one batch call {batch:.3f}s "
        f"({sequential / batch:.1f}x)"
    )

    print("\n--- fault injection: drop the final uncompute gate ---")
    broken = Circuit(
        program.circuit.num_qubits,
        program.circuit.gates[:-1],
        labels=program.circuit.labels,
    )
    report = verify_circuit(broken, program.dirty_wires, backend="bdd")
    for verdict in report.verdicts:
        if not verdict.safe:
            print(f"  {verdict}")
            print(f"    {verdict.counterexample.describe()}")
    if report.all_safe:
        print("  (mutation did not affect safety)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 16)
