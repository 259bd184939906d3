"""The Figure 3.1 width-reduction story: borrow idle qubits as dirty
ancillas.

Starts from the 7-wire circuit of Figure 3.1a (two CCCNOT routines with
dirty ancillas a1, a2 over five working qubits), verifies both ancillas
are safely uncomputed, and lets the borrow scheduler map both onto the
idle working qubit q3 — reproducing Figures 3.1b/3.1c: same function,
five qubits, no ancilla wires.

Run:  python examples/width_reduction.py
"""

from repro.alloc import allocate
from repro.circuits import Circuit, cnot, toffoli
from repro.circuits.intervals import activity_intervals
from repro.verify import classical_safe_uncomputation


def build_figure_31a() -> Circuit:
    circuit = Circuit(7, labels=["q1", "q2", "q3", "q4", "q5", "a1", "a2"])
    circuit.append(cnot(1, 2))
    # CCCNOT(q1,q2,q4 -> q5) borrowing a1 (wire 5)
    circuit.extend(
        [toffoli(0, 1, 5), toffoli(5, 3, 4), toffoli(0, 1, 5), toffoli(5, 3, 4)]
    )
    # CCCNOT(q4,q5,q2 -> q1) borrowing a2 (wire 6)
    circuit.extend(
        [toffoli(3, 4, 6), toffoli(6, 1, 0), toffoli(3, 4, 6), toffoli(6, 1, 0)]
    )
    return circuit


def main() -> None:
    circuit = build_figure_31a()
    print("=== Figure 3.1a: 5 working qubits + 2 dirty ancillas ===")
    print(circuit)

    print("\n--- ancilla periods (gate-index intervals) ---")
    intervals = activity_intervals(circuit)
    for wire in (5, 6):
        print(f"  {circuit.label_of(wire)}: period {intervals[wire]}")

    print("\n--- verifying safe uncomputation before borrowing ---")
    for wire in (5, 6):
        result = classical_safe_uncomputation(circuit, wire)
        print(f"  {circuit.label_of(wire)}: {'safe' if result.safe else 'UNSAFE'}")

    plan = allocate(
        circuit,
        ancillas=[5, 6],
        safety_check=lambda c, q: classical_safe_uncomputation(c, q).safe,
    )
    print("\n--- borrow plan ---")
    print(plan)
    print("\n=== rewritten circuit (Figure 3.1c) ===")
    print(plan.circuit)
    print(
        "\nNote: a *clean*-qubit scheduler could not reuse q3 here — the"
        "\nopening CNOT knocks q3 out of |0>, but a dirty borrow only"
        "\nneeds idleness (Section 3 of the paper)."
    )


if __name__ == "__main__":
    main()
