"""Differential suites locking in the solver-speed overhaul.

Two fronts, two agreements that must hold exactly:

* the ``bitset`` kernel backend, the old enumeration path of ``brute``
  (``bitset_max_vars=0``) and the ``cdcl`` solver return identical
  verdicts over a seeded corpus of random reversible circuits,
  including deliberately spoiled (known-unsafe) ancillas;
* the incremental probe-based ``cdcl`` backend and its historical
  fresh-instance-per-check mode agree verdict-for-verdict.
"""

import pytest

from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.testing.generators import random_reversible_circuit
from repro.verify import make_checker, track_circuit
from repro.verify.backends.brute import BruteCheckerBackend
from repro.verify.backends.cdcl import CdclCheckerBackend

CORPUS = [
    random_reversible_circuit(seed, num_ancillas=2)
    for seed in range(6)
] + [
    random_reversible_circuit(seed + 50, num_ancillas=2, spoiled=(5,))
    for seed in range(4)
]


class TestBitsetDifferential:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_bitset_old_brute_and_cdcl_agree(self, index):
        circuit, ancillas = CORPUS[index]
        tracked = track_circuit(circuit)
        bitset = make_checker(tracked, "bitset")
        old_brute = BruteCheckerBackend(tracked, bitset_max_vars=0)
        cdcl = make_checker(tracked, "cdcl")
        for qubit in ancillas:
            reference = old_brute.check_qubit(qubit)
            for checker in (bitset, cdcl):
                outcome = checker.check_qubit(qubit)
                assert outcome.safe == reference.safe, (checker.name, qubit)
                assert outcome.failed_condition == (
                    reference.failed_condition
                ), (checker.name, qubit)

    def test_spoiled_ancillas_actually_flagged(self):
        circuit, ancillas = random_reversible_circuit(
            99, num_ancillas=2, spoiled=(5,)
        )
        tracked = track_circuit(circuit)
        checker = make_checker(tracked, "bitset")
        assert not checker.check_qubit(5).safe
        assert 5 in ancillas


class TestIncrementalMatchesFresh:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_identical_verdicts_on_corpus(self, index):
        circuit, ancillas = CORPUS[index]
        tracked = track_circuit(circuit)
        incremental = CdclCheckerBackend(tracked, incremental=True)
        fresh = CdclCheckerBackend(tracked, incremental=False)
        for qubit in ancillas:
            a = incremental.check_qubit(qubit)
            b = fresh.check_qubit(qubit)
            assert a.safe == b.safe, qubit
            assert a.failed_condition == b.failed_condition, qubit

    def test_adder_suite_identical_verdicts(self):
        program = elaborate(adder_qbr_source(8))
        tracked = track_circuit(program.circuit)
        incremental = CdclCheckerBackend(tracked, incremental=True)
        fresh = CdclCheckerBackend(tracked, incremental=False)
        for qubit in program.dirty_wires:
            assert (
                incremental.check_qubit(qubit).safe
                == fresh.check_qubit(qubit).safe
            ), qubit
