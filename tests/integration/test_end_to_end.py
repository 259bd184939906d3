"""Integration tests: the full pipeline from .qbr source or circuit
builders through verification, mutation detection, and width reduction."""

import pytest

from repro import verify_qbr
from repro.adders import haner_carry_benchmark, haner_ripple_constant_adder
from repro.alloc import allocate
from repro.circuits import Circuit, apply_to_bits
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.mcx import gidney_mcx
from repro.verify import classical_safe_uncomputation, verify_circuit


class TestArtifactVerification:
    @pytest.mark.parametrize("backend", ["bdd", "cdcl"])
    def test_adder_program_all_safe(self, backend):
        report = verify_qbr(adder_qbr_source(8), backend=backend)
        assert report.all_safe and len(report.verdicts) == 7

    @pytest.mark.parametrize("backend", ["bdd", "cdcl"])
    def test_mcx_program_safe(self, backend):
        report = verify_qbr(mcx_qbr_source(5), backend=backend)
        assert report.all_safe

    def test_verify_qbr_accepts_elaborated_program(self):
        program = elaborate(adder_qbr_source(5))
        report = verify_qbr(program, backend="bdd")
        assert report.all_safe


class TestMutationDetection:
    """Failure injection: every single-gate deletion that breaks safety
    is caught, and every counterexample replays on the simulator."""

    def test_adder_gate_deletions(self):
        layout = haner_carry_benchmark(4)
        base = layout.circuit
        flagged = 0
        for drop in range(len(base.gates)):
            mutated = Circuit(
                base.num_qubits,
                base.gates[:drop] + base.gates[drop + 1 :],
                labels=base.labels,
            )
            report = verify_circuit(
                mutated, layout.dirty_ancillas, backend="bdd"
            )
            oracle = all(
                classical_safe_uncomputation(mutated, q).safe
                for q in layout.dirty_ancillas
            )
            assert report.all_safe == oracle, f"gate {drop}"
            if not report.all_safe:
                flagged += 1
        assert flagged > len(base.gates) // 2

    def test_mcx_gate_deletions_sampled(self):
        layout = gidney_mcx(3)
        base = layout.circuit
        for drop in range(0, len(base.gates), 3):
            mutated = Circuit(
                base.num_qubits,
                base.gates[:drop] + base.gates[drop + 1 :],
                labels=base.labels,
            )
            report = verify_circuit(mutated, [layout.ancilla], backend="cdcl")
            oracle = classical_safe_uncomputation(mutated, layout.ancilla).safe
            assert report.all_safe == oracle


class TestVerifyThenBorrow:
    def test_adder_ancillas_can_share_hosts_after_verification(self):
        """End-to-end Section 3 story: verify the dirty ancillas, then
        reuse idle qubits to shrink the register."""
        layout = haner_ripple_constant_adder(4, 11)
        report = verify_circuit(
            layout.circuit, layout.dirty_ancillas, backend="bdd"
        )
        assert report.all_safe
        plan = allocate(
            layout.circuit,
            layout.dirty_ancillas,
            safety_check=lambda c, q: classical_safe_uncomputation(c, q).safe,
        )
        # hosts may or may not exist depending on idleness; the pass must
        # at least keep functionality when it rewires.
        total = plan.circuit.num_qubits
        for x_val in (0, 3, 9, 15):
            bits = [0] * total
            for i in range(4):
                bits[plan.wire_map[i]] = (x_val >> i) & 1
            out = apply_to_bits(plan.circuit, bits)
            y = sum(out[plan.wire_map[4 + i]] << i for i in range(4))
            assert y == (x_val + 11) % 16


class TestScaleSmoke:
    def test_adder_at_fifty_qubits_bdd(self):
        report = verify_qbr(adder_qbr_source(50), backend="bdd")
        assert report.all_safe
        assert report.num_qubits == 99

    def test_mcx_at_201_qubits_cdcl(self):
        report = verify_qbr(mcx_qbr_source(100), backend="cdcl")
        assert report.all_safe
        assert report.num_qubits == 201
