"""Tests for the end-to-end verification pipeline with counterexample
replay."""

import pytest

from repro.circuits import Circuit, cnot, x
from repro.errors import VerificationError
from repro.verify import verify_circuit
from repro.verify.report import Counterexample, replay_counterexample
from tests.conftest import fig13_circuit


class TestReports:
    def test_safe_report(self):
        report = verify_circuit(fig13_circuit(), [2], backend="bdd")
        assert report.all_safe
        assert report.num_qubits == 5 and report.num_gates == 4
        verdict = report.verdict_for("a")
        assert verdict.safe and "SAFE" in str(verdict)

    def test_multiple_dirty_qubits(self):
        circuit = Circuit(4, labels=["w", "d1", "d2", "d3"]).extend(
            [cnot(0, 1), cnot(0, 1), x(2)]
        )
        report = verify_circuit(circuit, [1, 2, 3], backend="cdcl")
        assert report.verdict_for("d1").safe
        assert not report.verdict_for("d2").safe
        assert report.verdict_for("d3").safe  # untouched wire
        assert not report.all_safe

    def test_summary_text(self):
        report = verify_circuit(fig13_circuit(), [2], backend="bdd")
        text = report.summary()
        assert "backend=bdd" in text and "a: SAFE" in text

    def test_unknown_verdict_name(self):
        report = verify_circuit(fig13_circuit(), [2])
        with pytest.raises(VerificationError):
            report.verdict_for("zz")

    def test_dirty_qubit_out_of_range(self):
        with pytest.raises(VerificationError):
            verify_circuit(fig13_circuit(), [9])

    def test_timings_recorded(self):
        report = verify_circuit(fig13_circuit(), [2])
        assert report.total_seconds >= report.solver_seconds >= 0


class TestCounterexamples:
    def test_zero_restoration_replayable(self):
        report = verify_circuit(Circuit(2).append(x(1)), [1], backend="cdcl")
        cex = report.verdicts[0].counterexample
        assert cex.kind == "zero-restoration"
        assert cex.input_bits[1] == 0
        assert "zero-restoration" in cex.describe()

    def test_plus_restoration_replayable(self):
        circuit = Circuit(2).append(cnot(1, 0))
        for backend in ("cdcl", "bdd", "brute"):
            report = verify_circuit(circuit, [1], backend=backend)
            cex = report.verdicts[0].counterexample
            assert cex.kind == "plus-restoration"

    def test_bogus_counterexample_rejected(self):
        circuit = fig13_circuit()  # a is actually safe
        bogus = Counterexample("zero-restoration", {}, [0, 0, 0, 0, 0])
        with pytest.raises(VerificationError):
            replay_counterexample(circuit, 2, bogus)
        bogus2 = Counterexample("plus-restoration", {}, [0, 0, 0, 0, 0])
        with pytest.raises(VerificationError):
            replay_counterexample(circuit, 2, bogus2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(VerificationError):
            replay_counterexample(
                fig13_circuit(), 2, Counterexample("weird", {}, [0] * 5)
            )


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_backends_agree_on_random_circuits(self, seed):
        import random

        from repro.circuits import mcx

        rng = random.Random(seed + 77)
        n = 5
        gates = []
        for _ in range(rng.randint(1, 10)):
            wires = rng.sample(range(n), rng.randint(1, 3))
            gates.append(mcx(wires[:-1], wires[-1]))
        circuit = Circuit(n).extend(gates)
        verdicts = {}
        for backend in ("cdcl", "bdd", "bdd-reversed", "brute"):
            report = verify_circuit(circuit, list(range(n)), backend=backend)
            verdicts[backend] = [v.safe for v in report.verdicts]
        reference = verdicts.pop("brute")
        for backend, values in verdicts.items():
            assert values == reference, (seed, backend)
