"""Verify the paper's multi-controlled-NOT benchmark (Figure 10.4).

Builds the ``mcx.qbr`` construction — a (2m-1)-controlled NOT from
16(m-2) Toffolis and a single dirty ancilla — at a few hundred qubits,
verifies the ancilla, and contrasts the three MCX constructions of the
repository (clean ladder, dirty chain, Gidney single-dirty).

Run:  python examples/verify_mcx.py [m]
"""

import sys

from repro.circuits import Circuit, circuit_costs
from repro.mcx import gidney_mcx, mcx_clean_ladder, mcx_dirty_chain
from repro.verify import verify_circuit


def main(m: int = 100) -> None:
    layout = gidney_mcx(m)
    print(f"=== mcx.qbr with m = {m}: C^{layout.n}X ===")
    print(f"costs: {circuit_costs(layout.circuit)}")

    for backend in ("cdcl", "bdd"):
        report = verify_circuit(
            layout.circuit, [layout.ancilla], backend=backend
        )
        verdict = report.verdicts[0]
        print(
            f"backend={backend:<4} ancilla '{verdict.name}': "
            f"{'SAFE' if verdict.safe else 'UNSAFE'} "
            f"({verdict.solve_seconds:.3f}s)"
        )

    print("\n--- construction comparison for k = 8 controls ---")
    k = 8
    ladder = Circuit(2 * k - 1).extend(
        mcx_clean_ladder(list(range(k)), k, list(range(k + 1, 2 * k - 1)))
    )
    chain = Circuit(2 * k - 1).extend(
        mcx_dirty_chain(list(range(k)), k, list(range(k + 1, 2 * k - 1)))
    )
    print(f"clean ladder ({k - 2} clean ancillas): {circuit_costs(ladder)}")
    print(f"dirty chain  ({k - 2} dirty ancillas): {circuit_costs(chain)}")

    ancillas = list(range(k + 1, 2 * k - 1))
    ladder_report = verify_circuit(ladder, ancillas, backend="bdd")
    chain_report = verify_circuit(chain, ancillas, backend="bdd")
    print(
        f"ladder ancillas safe as dirty? {ladder_report.all_safe} "
        f"(they require |0> — clean-only reuse)"
    )
    print(f"chain ancillas safe as dirty?  {chain_report.all_safe}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
