"""Tests for the Section 6.1 Boolean reduction and its backends."""

import pytest

from repro.circuits import Circuit, cnot, toffoli, x
from repro.errors import SolverError, VerificationError
from repro.verify import (
    available_backends,
    formula_61,
    formula_62,
    make_checker,
    track_circuit,
)
from tests.conftest import fig13_circuit

BACKENDS = available_backends()


class TestTrackCircuit:
    def test_initial_formulas_are_variables(self):
        tracked = track_circuit(Circuit(2, labels=["p", "q"]))
        assert tracked.formula_of(0) is tracked.input_vars[0]
        assert tracked.name_of(1) == "q"

    def test_x_negates(self):
        tracked = track_circuit(Circuit(1).append(x(0)))
        b = tracked.builder
        assert tracked.formula_of(0) is b.not_(b.var("q0"))

    def test_toffoli_update_rule(self):
        tracked = track_circuit(Circuit(3).append(toffoli(0, 1, 2)))
        b = tracked.builder
        expected = b.xor_(
            [b.var("q2"), b.and_([b.var("q0"), b.var("q1")])]
        )
        assert tracked.formula_of(2) is expected

    def test_figure_61_cancellation(self):
        """After gates 1 and 3 of Figure 1.3, b_a collapses to a."""
        circuit = Circuit(5, labels=["q1", "q2", "a", "q3", "q4"]).extend(
            [toffoli(0, 1, 2), toffoli(0, 1, 2)]
        )
        tracked = track_circuit(circuit)
        assert tracked.formula_of(2) is tracked.input_vars[2]

    def test_no_cancellation_when_disabled(self):
        circuit = Circuit(5).extend([toffoli(0, 1, 2), toffoli(0, 1, 2)])
        tracked = track_circuit(circuit, simplify_xor=False)
        assert tracked.formula_of(2) is not tracked.input_vars[2]

    def test_rejects_non_classical(self):
        from repro.circuits import hadamard

        with pytest.raises(VerificationError):
            track_circuit(Circuit(1).append(hadamard(0)))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(VerificationError):
            track_circuit(Circuit(2, labels=["same", "same"]))


class TestFormulas:
    def test_formula_61_shape(self):
        tracked = track_circuit(fig13_circuit())
        expr = formula_61(tracked, 2)
        # b_a = a after the circuit, so a AND NOT a = false.
        assert expr.is_false

    def test_formula_61_satisfiable_for_x(self):
        tracked = track_circuit(Circuit(1).append(x(0)))
        expr = formula_61(tracked, 0)
        assert tracked.builder.evaluate(expr, {"q0": False}) is True

    def test_formula_62_semantically_false_for_safe_qubit(self):
        # The Figure 1.3 disjunction is zero but only *semantically* —
        # local simplification cannot distribute AND over XOR, so the
        # unsatisfiability is the solver's job (here decided by BDD
        # canonicity).
        from repro.bdd import Bdd

        tracked = track_circuit(fig13_circuit())
        expr = formula_62(tracked, 2)
        assert not expr.is_false  # structurally non-trivial
        bdd = Bdd(sorted(expr.variables()))
        assert bdd.is_false(bdd.from_expr(expr))

    def test_formula_62_detects_dependence(self):
        circuit = Circuit(2).append(cnot(1, 0))
        tracked = track_circuit(circuit)
        expr = formula_62(tracked, 1)
        assert not expr.is_false

    def test_formula_62_others_subset(self):
        circuit = Circuit(3).extend([cnot(2, 0)])
        tracked = track_circuit(circuit)
        assert not formula_62(tracked, 2, others=[0]).is_false
        assert formula_62(tracked, 2, others=[1]).is_false


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_safe_verdict(self, backend):
        tracked = track_circuit(fig13_circuit())
        checker = make_checker(tracked, backend)
        outcome = checker.check_qubit(2)
        assert outcome.safe and bool(outcome)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_restoration_counterexample(self, backend):
        tracked = track_circuit(Circuit(2).append(x(1)))
        outcome = make_checker(tracked, backend).check_qubit(1)
        assert not outcome.safe
        assert outcome.failed_condition == "zero-restoration"
        assert outcome.counterexample["q1"] is False

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plus_restoration_counterexample(self, backend):
        tracked = track_circuit(Circuit(2).append(cnot(1, 0)))
        outcome = make_checker(tracked, backend).check_qubit(1)
        assert not outcome.safe
        assert outcome.failed_condition == "plus-restoration"

    def test_unknown_backend(self):
        tracked = track_circuit(Circuit(1).append(x(0)))
        with pytest.raises(SolverError):
            make_checker(tracked, "z3")

    def test_bdd_reports_dependent_qubit(self):
        tracked = track_circuit(
            Circuit(2, labels=["t", "d"]).append(cnot(1, 0))
        )
        outcome = make_checker(tracked, "bdd").check_qubit(1)
        assert outcome.details["dependent_qubit"] == "t"

    def test_ablation_no_simplify_same_verdicts(self):
        for simplify in (True, False):
            tracked = track_circuit(fig13_circuit(), simplify_xor=simplify)
            outcome = make_checker(tracked, "cdcl").check_qubit(2)
            assert outcome.safe

    def test_formula_sizes_grow_without_simplification(self):
        plain = track_circuit(fig13_circuit(), simplify_xor=True)
        bloated = track_circuit(fig13_circuit(), simplify_xor=False)
        assert (
            bloated.formula_of(2).dag_size() > plain.formula_of(2).dag_size()
        )
