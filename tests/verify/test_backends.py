"""Tests for the pluggable backend registry (repro.verify.backends)."""

import random
import threading

import pytest

from repro.adders.cuccaro import cuccaro_add_registers
from repro.adders.takahashi import takahashi_add_registers
from repro.circuits import Circuit, cnot, mcx, toffoli, x
from repro.errors import SolverCancelled, SolverError
from repro.verify import make_checker, track_circuit
from repro.verify.backends import (
    BooleanCheckOutcome,
    CheckerBackend,
    available_backends,
    backend_class,
    register_backend,
)
from repro.verify.backends.bdd import variable_order
from repro.verify.backends.registry import _REGISTRY

BUILTIN = ("bdd", "bdd-reversed", "bitset", "brute", "cdcl", "dpll", "portfolio")


def random_circuit(seed: int, num_qubits: int = 6, max_gates: int = 12):
    rng = random.Random(seed)
    gates = []
    for _ in range(rng.randint(1, max_gates)):
        wires = rng.sample(range(num_qubits), rng.randint(1, 3))
        gates.append(mcx(wires[:-1], wires[-1]))
    return Circuit(num_qubits).extend(gates)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == BUILTIN

    def test_unknown_name_lists_registered_backends(self):
        tracked = track_circuit(Circuit(1))
        with pytest.raises(SolverError) as excinfo:
            make_checker(tracked, "z3")
        message = str(excinfo.value)
        assert "z3" in message
        for name in BUILTIN:
            assert name in message

    def test_backend_class_lookup(self):
        cls = backend_class("cdcl")
        assert issubclass(cls, CheckerBackend)
        assert cls.name == "cdcl"

    def test_register_custom_backend_and_clean_up(self):
        @register_backend("always-safe")
        class AlwaysSafe(CheckerBackend):
            def check_qubit(self, qubit):
                return BooleanCheckOutcome(qubit, safe=True)

        try:
            assert "always-safe" in available_backends()
            tracked = track_circuit(random_circuit(3))
            outcome = make_checker(tracked, "always-safe").check_qubit(0)
            assert outcome.safe
        finally:
            _REGISTRY.pop("always-safe")

    def test_duplicate_name_rejected(self):
        with pytest.raises(SolverError):

            @register_backend("cdcl")
            class Impostor(CheckerBackend):
                def check_qubit(self, qubit):  # pragma: no cover
                    raise AssertionError

    def test_non_backend_class_rejected(self):
        with pytest.raises(SolverError):
            register_backend("not-a-backend")(dict)


class TestBddVariableOrder:
    @pytest.mark.parametrize(
        "circuit, expected",
        [
            # Gate 0 touches wires 3 and 1 (a tie, so 1 first), gate 1
            # first touches 0, gate 2 first touches 2 and 5; wire 4 is
            # never used.
            (
                Circuit(6).extend([cnot(3, 1), cnot(0, 3), toffoli(5, 0, 2)]),
                [1, 3, 0, 2, 5, 4],
            ),
            (Circuit(3), [0, 1, 2]),
        ],
    )
    def test_first_use_order(self, circuit, expected):
        order = variable_order(circuit)
        assert sorted(order) == list(range(circuit.num_qubits))
        assert order == expected

    def test_reversed_backend_uses_the_reverse(self):
        circuit = Circuit(4, labels=["p", "q", "r", "s"]).extend(
            [cnot(2, 0), cnot(1, 2)]
        )
        tracked = track_circuit(circuit)
        assert make_checker(tracked, "bdd").bdd.order == ["p", "r", "q", "s"]
        assert make_checker(tracked, "bdd-reversed").bdd.order == [
            "s", "q", "r", "p",
        ]

    @pytest.mark.parametrize(
        "adder", [cuccaro_add_registers, takahashi_add_registers]
    )
    def test_register_adders_compile_small(self, adder):
        # Under declaration order (all of a, then all of b) these adders
        # exceed the default node budget; the first-use order interleaves
        # the two registers bit by bit.
        checker = make_checker(track_circuit(adder(32).circuit), "bdd")
        assert checker.bdd.node_count < 10_000


class TestDifferential:
    """Every registered backend must agree with the ``brute`` oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_all_backends_match_brute_on_random_6q_circuits(self, seed):
        circuit = random_circuit(seed + 1000)
        tracked = track_circuit(circuit)
        oracle = make_checker(tracked, "brute")
        others = [
            make_checker(tracked, name)
            for name in available_backends()
            if name != "brute"
        ]
        for qubit in range(circuit.num_qubits):
            expected = oracle.check_qubit(qubit).safe
            for checker in others:
                assert checker.check_qubit(qubit).safe == expected, (
                    checker.name,
                    qubit,
                )


class TestPortfolio:
    @pytest.mark.parametrize("seed", range(5))
    def test_portfolio_verdict_identical_to_cdcl(self, seed):
        circuit = random_circuit(seed + 500)
        tracked = track_circuit(circuit)
        portfolio = make_checker(tracked, "portfolio")
        cdcl = make_checker(tracked, "cdcl")
        for qubit in range(circuit.num_qubits):
            raced = portfolio.check_qubit(qubit)
            reference = cdcl.check_qubit(qubit)
            assert raced.safe == reference.safe, qubit
            assert raced.failed_condition == reference.failed_condition, qubit

    def test_winner_recorded(self):
        tracked = track_circuit(random_circuit(7))
        outcome = make_checker(tracked, "portfolio").check_qubit(0)
        assert outcome.details["winner"] in ("cdcl", "bdd")

    def test_pool_threads_released_on_gc(self):
        import gc
        import time

        for _ in range(3):  # settle unrelated thread churn
            gc.collect()
        time.sleep(0.05)
        before = threading.active_count()
        for _ in range(8):
            tracked = track_circuit(random_circuit(13, num_qubits=3))
            make_checker(tracked, "portfolio").check_qubit(0)
        gc.collect()
        time.sleep(0.2)  # woken workers need a moment to exit
        # Without the finalizer this leaks 2 threads per checker (16+).
        assert threading.active_count() <= before + 4

    def test_empty_portfolio_rejected(self):
        from repro.verify.backends.portfolio import PortfolioCheckerBackend

        tracked = track_circuit(Circuit(1))
        with pytest.raises(SolverError):
            PortfolioCheckerBackend(tracked, contenders=())
        with pytest.raises(SolverError):
            PortfolioCheckerBackend(tracked, contenders=("portfolio",))


class TestCancellation:
    """A pre-set cancel event must abort checks with SolverCancelled."""

    @pytest.mark.parametrize("backend", ("cdcl", "dpll"))
    def test_sat_check_unwinds(self, backend):
        # x(1) keeps formula (6.1) non-trivial, so the solver loop runs.
        tracked = track_circuit(Circuit(2).append(x(1)))
        checker = make_checker(tracked, backend)
        cancelled = threading.Event()
        cancelled.set()
        with pytest.raises(SolverCancelled):
            checker.check_qubit(1, cancel_event=cancelled)

    def test_bdd_check_unwinds(self):
        from tests.conftest import fig13_circuit

        tracked = track_circuit(fig13_circuit())
        checker = make_checker(tracked, "bdd")
        cancelled = threading.Event()
        cancelled.set()
        with pytest.raises(SolverCancelled):
            checker.check_qubit(2, cancel_event=cancelled)

    def test_unset_event_changes_nothing(self):
        tracked = track_circuit(random_circuit(11))
        checker = make_checker(tracked, "cdcl")
        free = threading.Event()
        with_event = checker.check_qubit(0, cancel_event=free)
        without = make_checker(tracked, "cdcl").check_qubit(0)
        assert with_event.safe == without.safe

    def test_portfolio_forwards_outer_cancellation(self):
        tracked = track_circuit(Circuit(2).append(x(1)))
        checker = make_checker(tracked, "portfolio")
        cancelled = threading.Event()
        cancelled.set()
        with pytest.raises(SolverCancelled):
            checker.check_qubit(1, cancel_event=cancelled)
