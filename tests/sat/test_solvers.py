"""Tests for the CDCL solver, including differential fuzzing against
brute-force enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfn import Cnf
from repro.boolfn.cnf import TseitinEncoder
from repro.errors import SolverError
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.sat import CdclSolver, brute_force_solve
from repro.verify import formula_61, formula_62, track_circuit


def cnf_from(num_vars, clauses):
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(list(clause))
    return cnf


def check_model(cnf, model):
    for clause in cnf.clauses:
        if not any(model[abs(l)] == (l > 0) for l in clause):
            return False
    return True


SOLVERS = [
    pytest.param(lambda c: CdclSolver(c).solve(), id="cdcl"),
]


@pytest.mark.parametrize("solve", SOLVERS)
class TestBasics:
    def test_empty_cnf_is_sat(self, solve):
        assert solve(cnf_from(3, [])).is_sat

    def test_unit_clauses(self, solve):
        cnf = cnf_from(2, [[1], [-2]])
        result = solve(cnf)
        assert result.is_sat
        assert result.model[1] is True and result.model[2] is False

    def test_conflicting_units(self, solve):
        assert solve(cnf_from(1, [[1], [-1]])).is_unsat

    def test_empty_clause(self, solve):
        cnf = Cnf()
        cnf.new_var()
        cnf.clauses.append([])
        assert solve(cnf).is_unsat

    def test_chain_implication(self, solve):
        # x1 and (x_i -> x_{i+1}) forces all true.
        n = 30
        clauses = [[1]] + [[-i, i + 1] for i in range(1, n)]
        result = solve(cnf_from(n, clauses))
        assert result.is_sat
        assert all(result.model[v] for v in range(1, n + 1))

    def test_model_satisfies(self, solve):
        cnf = cnf_from(4, [[1, 2], [-1, 3], [-3, -2, 4], [2, -4]])
        result = solve(cnf)
        assert result.is_sat
        assert check_model(cnf, result.model)

    def test_pigeonhole_3_into_2_unsat(self, solve):
        # p_ij: pigeon i in hole j; vars 1..6 as (i,j) row-major.
        def var(i, j):
            return i * 2 + j + 1

        clauses = []
        for i in range(3):
            clauses.append([var(i, 0), var(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        assert solve(cnf_from(6, clauses)).is_unsat


class TestCdclSpecifics:
    def test_learns_clauses_on_hard_instance(self):
        def var(i, j):
            return i * 3 + j + 1

        clauses = []
        for i in range(4):
            clauses.append([var(i, j) for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    clauses.append([-var(i1, j), -var(i2, j)])
        solver = CdclSolver(cnf_from(12, clauses))
        assert solver.solve().is_unsat
        assert solver.stats.conflicts > 0
        assert solver.stats.learned_clauses > 0

    def test_conflict_budget(self):
        def var(i, j):
            return i * 4 + j + 1

        clauses = []
        for i in range(5):
            clauses.append([var(i, j) for j in range(4)])
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    clauses.append([-var(i1, j), -var(i2, j)])
        with pytest.raises(SolverError):
            CdclSolver(cnf_from(20, clauses), max_conflicts=3).solve()

    def test_tautology_ignored(self):
        result = CdclSolver(cnf_from(2, [[1, -1], [2]])).solve()
        assert result.is_sat and result.model[2] is True


class TestBruteForce:
    def test_caps_variables(self):
        with pytest.raises(SolverError):
            brute_force_solve(cnf_from(30, []))


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=0, max_value=20))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=4))
        clause = draw(
            st.lists(
                st.tuples(
                    st.integers(1, num_vars), st.booleans()
                ).map(lambda t: t[0] if t[1] else -t[0]),
                min_size=width,
                max_size=width,
            )
        )
        clauses.append(clause)
    return cnf_from(num_vars, clauses)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(random_cnf())
    def test_cdcl_agrees_with_brute(self, cnf):
        reference = brute_force_solve(cnf)
        cdcl = CdclSolver(cnf_from(cnf.num_vars, cnf.clauses)).solve()
        assert cdcl.is_sat == reference.is_sat
        if cdcl.is_sat:
            assert check_model(cnf, cdcl.model)


def pigeonhole(pigeons, holes):
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return cnf_from(pigeons * holes, clauses)


def random_3sat(seed, num_vars=60, ratio=4.26):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(num_vars * ratio)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf_from(num_vars, clauses)


def adder_plus_restoration(n):
    """Formula (6.2) for the middle carry ancilla of ``adder.qbr``."""
    program = elaborate(adder_qbr_source(n))
    tracked = track_circuit(program.circuit)
    wire = program.dirty_wires[len(program.dirty_wires) // 2]
    encoder = TseitinEncoder()
    encoder.assert_true(formula_62(tracked, wire))
    return encoder.cnf


def stats_tuple(stats):
    return (
        stats.decisions,
        stats.propagations,
        stats.conflicts,
        stats.restarts,
        stats.learned_clauses,
    )


class TestSearchPath:
    """Pinned search statistics of the CDCL engine.

    Any change to branching, propagation, restarts, learning or clause
    deletion moves these numbers, so a change that claims to leave the
    search alone must keep them.  Each tuple is (decisions,
    propagations, conflicts, restarts, learned clauses).
    """

    @pytest.mark.parametrize(
        "build, is_sat, expected",
        [
            (lambda: pigeonhole(6, 5), False, (184, 1647, 143, 1, 142)),
            (lambda: pigeonhole(7, 6), False, (881, 9175, 735, 4, 734)),
            (lambda: random_3sat(0), False, (139, 2107, 127, 0, 126)),
            (lambda: random_3sat(1), True, (30, 258, 11, 0, 11)),
            (lambda: adder_plus_restoration(8), False, (47, 578, 41, 0, 40)),
            (
                lambda: adder_plus_restoration(12),
                False,
                (100, 1244, 68, 0, 67),
            ),
        ],
        ids=[
            "pigeonhole-6-5",
            "pigeonhole-7-6",
            "random-3sat-0",
            "random-3sat-1",
            "adder-8",
            "adder-12",
        ],
    )
    def test_solve(self, build, is_sat, expected):
        cnf = build()
        solver = CdclSolver(cnf)
        result = solver.solve()
        assert result.is_sat == is_sat
        if is_sat:
            assert check_model(cnf, result.model)
        assert stats_tuple(solver.stats) == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            (adder_qbr_source(8), (305, 4273, 235, 0, 229)),
            (adder_qbr_source(12), (1610, 27069, 1233, 0, 1223)),
            (mcx_qbr_source(40), (99, 717, 25, 0, 24)),
        ],
        ids=["adder-8", "adder-12", "mcx-40"],
    )
    def test_probe_every_dirty_wire(self, source, expected):
        # The incremental discharge of the cdcl backend: one shared
        # instance, formulas (6.1) then (6.2) probed per dirty wire, and
        # each refuted root asserted negated.
        program = elaborate(source)
        tracked = track_circuit(program.circuit)
        encoder = TseitinEncoder()
        solver = CdclSolver()
        fed = 0
        for wire in program.dirty_wires:
            for formula in (formula_61, formula_62):
                expr = formula(tracked, wire)
                literal = encoder.literal(expr)
                focus = encoder.cone_vars(expr)
                solver.ensure_vars(encoder.cnf.num_vars)
                while fed < len(encoder.cnf.clauses):
                    solver.add_clause(encoder.cnf.clauses[fed])
                    fed += 1
                assert solver.probe(literal, focus=focus).is_unsat
                solver.add_clause([-literal])
        assert stats_tuple(solver.stats) == expected
