"""Tests for the pluggable backend registry (repro.verify.backends)."""

import importlib
import itertools
import json
import random
from functools import partial
from pathlib import Path

import pytest

from repro.adders.cuccaro import cuccaro_add_registers, cuccaro_constant_adder
from repro.adders.takahashi import (
    takahashi_add_registers,
    takahashi_constant_adder,
)
from repro.alloc import VerifiedStrategy
from repro.circuits import (
    Circuit,
    apply_to_bits,
    cnot,
    mcx,
    solver_restore_checker,
    toffoli,
    x,
)
from repro.errors import SolverError
from repro.lang import unitary
from repro.lang.surface import verify_qbr
from repro.multiprog import FleetRouter, MultiProgrammer
from repro.verify import (
    BatchVerifier,
    VerificationJob,
    make_checker,
    track_circuit,
    verify_circuit,
    verify_clean_wires,
)
from repro.verify.backends import (
    BooleanCheckOutcome,
    CheckerBackend,
    available_backends,
    backend_class,
    register_backend,
)
from repro.verify.backends.bdd import variable_order
from repro.verify.backends.registry import _REGISTRY
from repro.verify.program import verify_borrows_in_program

BUILTIN = ("bdd", "bdd-reversed", "bitset", "brute", "cdcl")

BENCH_VERIFY = Path(__file__).resolve().parents[2] / "BENCH_verify.json"


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

    @pytest.mark.parametrize("name", available_backends())
    def test_every_backend_has_a_committed_bench_row(self, name):
        # A registry entry stays only while the committed record measures
        # it, so a backend cannot linger registered but unbenchmarked.
        record = json.loads(BENCH_VERIFY.read_text())
        assert name in {row["backend"] for row in record["backends"]}

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sat.dpll",
            "repro.verify.backends.dpll",
            "repro.verify.backends.portfolio",
            "repro.verify.boolean",
        ],
    )
    def test_retired_engine_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: BatchVerifier(backend="z3"),
            lambda: MultiProgrammer(4, backend="z3"),
            lambda: FleetRouter([4], backend="z3"),
            # Wire 1 is outside the register as well: the name is
            # rejected first, when the verifier is built.
            lambda: verify_circuit(Circuit(1), [1], backend="z3"),
            # The remaining entry points build a private BatchVerifier;
            # each input has nothing to verify, so only that can raise.
            lambda: VerifiedStrategy(backend="z3"),
            lambda: solver_restore_checker(backend="z3"),
            lambda: verify_borrows_in_program(
                unitary("X", "q"), ["q"], backend="z3"
            ),
            lambda: verify_qbr("alloc q[1];\nX[q[1]];\n", backend="z3"),
        ],
        ids=[
            "BatchVerifier",
            "MultiProgrammer",
            "FleetRouter",
            "verify_circuit",
            "VerifiedStrategy",
            "solver_restore_checker",
            "verify_borrows_in_program",
            "verify_qbr",
        ],
    )
    def test_unknown_name_fails_at_construction(self, construct):
        with pytest.raises(SolverError) as excinfo:
            construct()
        assert str(excinfo.value) == (
            f"unknown backend 'z3'; registered backends: {', '.join(BUILTIN)}"
        )

    def test_backend_class_lookup(self):
        cls = backend_class("cdcl")
        assert issubclass(cls, CheckerBackend)
        assert cls.name == "cdcl"

    def test_register_custom_backend_and_clean_up(self):
        @register_backend("always-safe")
        class AlwaysSafe(CheckerBackend):
            def check_qubit(self, qubit, clean=False):
                return BooleanCheckOutcome(qubit, safe=True)

        try:
            assert "always-safe" in available_backends()
            tracked = track_circuit(random_circuit(3))
            outcome = make_checker(tracked, "always-safe").check_qubit(0)
            assert outcome.safe
            # Clean wires ride the same registry: any backend serves them.
            report = verify_clean_wires(
                random_circuit(3), [0], backend="always-safe"
            )
            assert [(v.qubit, v.safe) for v in report.verdicts] == [(0, True)]
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
            # A lone X relates its wire to no other, so it ranks nothing:
            # wire 3 ranks by the CNOT of gate 2, and wire 1 is untouched
            # by any controlled gate.
            (
                Circuit(4).extend([x(3), x(1), cnot(2, 0), cnot(0, 3)]),
                [0, 2, 3, 1],
            ),
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
        "adder",
        [
            cuccaro_add_registers,
            takahashi_add_registers,
            # Fig 1.1's clean-ancilla adders load their constant with
            # leading X gates, which must not split the registers.
            partial(cuccaro_constant_adder, constant=0x55555555),
            partial(takahashi_constant_adder, constant=0x55555555),
        ],
    )
    def test_register_adders_compile_small(self, adder):
        # Under declaration order (all of a, then all of b) these adders
        # exceed the default node budget; the first-use order interleaves
        # the two registers bit by bit.
        checker = make_checker(track_circuit(adder(32).circuit), "bdd")
        for qubit in range(checker.tracked.circuit.num_qubits):
            checker.root(qubit)
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

    @staticmethod
    def clean_by_truth_table(circuit, wire):
        """(6.1) by enumeration: every input with ``wire`` at 0 leaves
        it at 0."""
        for bits in itertools.product((0, 1), repeat=circuit.num_qubits):
            if bits[wire] == 0 and apply_to_bits(circuit, list(bits))[wire]:
                return False
        return True

    @pytest.mark.parametrize("backend", available_backends())
    def test_clean_verdicts_match_truth_table(self, backend):
        circuits = [random_circuit(seed + 1000) for seed in range(6)]
        expected = [
            [self.clean_by_truth_table(c, w) for w in range(c.num_qubits)]
            for c in circuits
        ]
        flat = [safe for row in expected for safe in row]
        assert any(flat) and not all(flat)  # both verdicts are exercised
        reports = BatchVerifier(backend=backend, replay=True).verify_circuits(
            VerificationJob(c, (), clean_qubits=range(c.num_qubits))
            for c in circuits
        )
        verdicts = [[v.safe for v in r.verdicts] for r in reports]
        assert verdicts == expected
