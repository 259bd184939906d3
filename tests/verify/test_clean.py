"""Tests for the clean-qubit (alloc) verification path."""

import pytest

from repro.circuits import Circuit, cnot, toffoli, x
from repro.errors import SolverError, VerificationError
from repro.verify import (
    available_backends,
    check_clean_uncomputation,
    track_circuit,
    verify_clean_wires,
)
from repro.lang.surface import verify_qbr

BACKENDS = available_backends()


class TestCheckClean:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compute_uncompute_is_clean(self, backend):
        circuit = Circuit(3).extend(
            [toffoli(0, 1, 2), toffoli(0, 1, 2)]
        )
        tracked = track_circuit(circuit)
        clean, model = check_clean_uncomputation(tracked, 2, backend)
        assert clean and model is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leftover_scratch_detected(self, backend):
        circuit = Circuit(3).append(toffoli(0, 1, 2))
        tracked = track_circuit(circuit)
        clean, model = check_clean_uncomputation(tracked, 2, backend)
        assert not clean
        assert model.get("q0") and model.get("q1")

    def test_clean_is_weaker_than_dirty(self):
        """The Figure 1.4 separation: a-as-control is clean but dirty-
        unsafe; single-read scratch is clean but dirty-unsafe too."""
        from repro.verify import classical_safe_uncomputation

        for circuit, wire in [
            (Circuit(2).append(cnot(1, 0)), 1),
            (
                Circuit(4).extend(
                    [toffoli(0, 1, 2), cnot(2, 3), toffoli(0, 1, 2)]
                ),
                2,
            ),
        ]:
            tracked = track_circuit(circuit)
            clean, _ = check_clean_uncomputation(tracked, wire, "bdd")
            assert clean
            assert not classical_safe_uncomputation(circuit, wire).safe

    def test_unknown_backend(self):
        tracked = track_circuit(Circuit(1).append(x(0)))
        with pytest.raises(SolverError):
            check_clean_uncomputation(tracked, 0, "z3")


class TestVerifyCleanWires:
    def test_report(self):
        circuit = Circuit(3, labels=["w", "c1", "c2"]).extend(
            [cnot(0, 1), cnot(0, 1), x(2)]
        )
        report = verify_clean_wires(circuit, [1, 2], backend="cdcl")
        assert report.verdict_for("c1").safe
        verdict = report.verdict_for("c2")
        assert not verdict.safe
        assert verdict.failed_condition == "zero-restoration"
        assert verdict.counterexample.input_bits[2] == 0

    def test_out_of_range(self):
        with pytest.raises(VerificationError):
            verify_clean_wires(Circuit(1), [3])


class TestQbrIntegration:
    SOURCE = """
        borrow@ w[2];
        alloc c;
        borrow d;
        CCNOT[w[1], w[2], c];
        CNOT[c, d];
        CNOT[c, d];
        CCNOT[w[1], w[2], c];
    """

    def test_clean_wires_included_on_request(self):
        report = verify_qbr(self.SOURCE, backend="bdd", include_clean=True)
        names = {v.name for v in report.verdicts}
        assert names == {"c", "d"}
        assert report.all_safe

    def test_clean_wires_excluded_by_default(self):
        report = verify_qbr(self.SOURCE, backend="bdd")
        assert {v.name for v in report.verdicts} == {"d"}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_checks_clean_wires(self, backend):
        # d ends as d XOR x (dirty-unsafe); c ends back at c (clean).
        source = (
            "borrow@ x; alloc c; borrow d; "
            "CNOT[x, c]; CNOT[c, d]; CNOT[x, c]; CNOT[c, d];"
        )
        report = verify_qbr(source, backend=backend, include_clean=True)
        assert [(v.name, v.safe) for v in report.verdicts] == [
            ("d", False),
            ("c", True),
        ]

    def test_unclean_alloc_detected(self):
        source = "borrow@ w; alloc c; CNOT[w, c];"
        report = verify_qbr(source, backend="cdcl", include_clean=True)
        assert not report.verdict_for("c").safe
