"""Tests for the ROBDD engine."""

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE_NODE, TRUE_NODE, Bdd
from repro.boolfn import ExprBuilder
from repro.errors import SolverError
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.verify import make_checker, track_circuit


@pytest.fixture
def bdd():
    return Bdd(["a", "b", "c", "d"])


class TestConstruction:
    def test_terminals(self, bdd):
        assert bdd.const(False) == FALSE_NODE
        assert bdd.const(True) == TRUE_NODE

    def test_var_canonical(self, bdd):
        assert bdd.var("a") == bdd.var("a")

    def test_unknown_var_rejected(self, bdd):
        with pytest.raises(SolverError):
            bdd.var("zz")

    def test_duplicate_order_rejected(self):
        with pytest.raises(SolverError):
            Bdd(["x", "x"])

    def test_node_budget(self):
        small = Bdd([f"v{i}" for i in range(10)], max_nodes=8)
        with pytest.raises(SolverError):
            acc = small.var("v0")
            for i in range(1, 10):
                acc = small.apply_xor(acc, small.apply_and(small.var(f"v{i}"), acc))


class TestCanonicity:
    def test_equal_functions_equal_nodes(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        left = bdd.apply_or(a, b)
        right = bdd.negate(bdd.apply_and(bdd.negate(a), bdd.negate(b)))
        assert left == right

    def test_xor_self_is_false(self, bdd):
        f = bdd.apply_and(bdd.var("a"), bdd.var("b"))
        assert bdd.apply_xor(f, f) == FALSE_NODE

    def test_double_negation(self, bdd):
        f = bdd.apply_or(bdd.var("a"), bdd.var("c"))
        assert bdd.negate(bdd.negate(f)) == f


def _eval_bdd(bdd, node, env):
    while node > TRUE_NODE:
        name = bdd.order[bdd._level[node]]
        node = bdd._high[node] if env[name] else bdd._low[node]
    return node == TRUE_NODE


class TestSemantics:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_expr_evaluation(self, seed):
        import random

        rng = random.Random(seed)
        builder = ExprBuilder()
        names = ["a", "b", "c", "d"]
        pool = [builder.var(n) for n in names]
        for _ in range(6):
            op = rng.choice(["and", "or", "xor", "not"])
            if op == "not":
                pool.append(builder.not_(rng.choice(pool)))
            else:
                args = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
                pool.append(getattr(builder, op + "_")(args))
        expr = pool[-1]
        bdd = Bdd(names)
        node = bdd.from_expr(expr)
        for bits in itertools.product([False, True], repeat=4):
            env = dict(zip(names, bits))
            assert _eval_bdd(bdd, node, env) == builder.evaluate(expr, env)

    def test_restrict(self, bdd):
        builder = ExprBuilder()
        expr = builder.xor_(
            [builder.var("a"), builder.and_([builder.var("b"), builder.var("c")])]
        )
        node = bdd.from_expr(expr)
        low = bdd.restrict(node, "a", False)
        expected = bdd.apply_and(bdd.var("b"), bdd.var("c"))
        assert low == expected
        high = bdd.restrict(node, "a", True)
        assert high == bdd.negate(expected)

    def test_restrict_terminal_passthrough(self, bdd):
        assert bdd.restrict(TRUE_NODE, "a", False) == TRUE_NODE

    def test_boolean_derivative_detects_dependence(self, bdd):
        f = bdd.apply_and(bdd.var("a"), bdd.var("b"))
        derivative = bdd.apply_xor(
            bdd.restrict(f, "a", False), bdd.restrict(f, "a", True)
        )
        assert derivative == bdd.var("b")
        independent = bdd.apply_or(bdd.var("c"), bdd.var("d"))
        derivative2 = bdd.apply_xor(
            bdd.restrict(independent, "a", False),
            bdd.restrict(independent, "a", True),
        )
        assert bdd.is_false(derivative2)


class TestQueries:
    def test_any_sat(self, bdd):
        f = bdd.apply_and(bdd.var("a"), bdd.negate(bdd.var("c")))
        model = bdd.any_sat(f)
        assert model["a"] is True and model["c"] is False
        assert bdd.any_sat(FALSE_NODE) is None

    def test_count_sat(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert bdd.count_sat(TRUE_NODE) == 16
        assert bdd.count_sat(FALSE_NODE) == 0
        assert bdd.count_sat(a) == 8
        assert bdd.count_sat(bdd.apply_and(a, b)) == 4
        assert bdd.count_sat(bdd.apply_xor(a, b)) == 8

    def test_size(self, bdd):
        f = bdd.apply_and(bdd.var("a"), bdd.var("b"))
        assert bdd.size(f) == 4  # two internal + two terminals
        assert bdd.size(TRUE_NODE) == 2


class TestScale:
    def test_deep_chain_without_recursion_overflow(self):
        names = [f"v{i}" for i in range(3000)]
        builder = ExprBuilder()
        parity = builder.xor_([builder.var(n) for n in names])
        bdd = Bdd(names)
        acc = bdd.from_expr(parity)
        assert bdd.size(acc) == 2 * 3000 - 1 + 2
        # balanced folding keeps total allocation near n log n
        assert bdd.node_count < 200_000
        low = bdd.restrict(acc, "v1500", False)
        high = bdd.restrict(acc, "v1500", True)
        assert bdd.apply_xor(low, high) == TRUE_NODE

    def test_variable_order_sensitivity(self):
        # The classic (a1 AND b1) OR (a2 AND b2) ... function: linear
        # under interleaved order, exponential under separated order.
        k = 8
        interleaved = [x for i in range(k) for x in (f"a{i}", f"b{i}")]
        separated = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]

        def build(order):
            bdd = Bdd(order)
            acc = FALSE_NODE
            for i in range(k):
                acc = bdd.apply_or(
                    acc, bdd.apply_and(bdd.var(f"a{i}"), bdd.var(f"b{i}"))
                )
            return bdd.size(acc)

        assert build(separated) > 10 * build(interleaved)


class ReferenceBdd(Bdd):
    """A manager whose apply is the textbook recursive algorithm.

    Memoised on ``(op, f, g)``, with no terminal shortcut beyond two
    terminals, it cofactors on the top variable and builds the low
    result before the high one.  Shortcuts only skip subproblems whose
    results already exist, so its node table must equal the kernel's.
    """

    TRUTH = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}

    def __init__(self, order):
        super().__init__(order)
        self._memo = {}

    def _apply(self, op, f, g):
        if f <= TRUE_NODE and g <= TRUE_NODE:
            return self.TRUTH[op](f, g)
        key = (op, f, g)
        if key not in self._memo:
            level = min(self._level[f], self._level[g])
            f_low, f_high = self._cofactors(f, level)
            g_low, g_high = self._cofactors(g, level)
            low = self._apply(op, f_low, g_low)
            high = self._apply(op, f_high, g_high)
            self._memo[key] = self._mk(level, low, high)
        return self._memo[key]

    def _cofactors(self, node, level):
        if self._level[node] == level:
            return self._low[node], self._high[node]
        return node, node


def _node_table(bdd):
    return bdd._level, bdd._low, bdd._high


@st.composite
def expr_dags(draw):
    """Variable names plus a random and/or/xor/not DAG over them."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    builder = ExprBuilder()
    pool = [builder.var(name) for name in names]
    for _ in range(draw(st.integers(1, 24))):
        op = draw(st.sampled_from(["and", "or", "xor", "not"]))
        if op == "not":
            pool.append(builder.not_(draw(st.sampled_from(pool))))
        else:
            args = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
            pool.append(getattr(builder, op + "_")(args))
    return names, pool


class TestReferenceApply:
    @settings(max_examples=150, deadline=None)
    @given(expr_dags())
    def test_node_tables_match_reference(self, dag):
        names, pool = dag
        kernel, reference = Bdd(names), ReferenceBdd(names)
        kernel_cache, reference_cache = {}, {}
        for expr in pool:
            assert kernel.from_expr(expr, kernel_cache) == reference.from_expr(
                expr, reference_cache
            )
        assert _node_table(kernel) == _node_table(reference)

    @pytest.mark.parametrize(
        "family, size, backend, nodes",
        [
            ("mcx", 20, "bdd", 624),
            ("mcx", 20, "bdd-reversed", 1309),
            ("mcx", 60, "bdd", 1944),
            ("mcx", 60, "bdd-reversed", 8789),
            ("mcx", 100, "bdd", 3264),
            ("mcx", 100, "bdd-reversed", 22669),
            ("adder", 14, "bdd", 128),
            ("adder", 14, "bdd-reversed", 338),
        ],
    )
    def test_paper_programs_match_reference(self, family, size, backend, nodes):
        source = {"mcx": mcx_qbr_source, "adder": adder_qbr_source}[family]
        tracked = track_circuit(elaborate(source(size)).circuit)
        checker = make_checker(tracked, backend)
        # The checker compiles a wire on first use; compile them all, in
        # wire order (the final node count does not depend on the order).
        for qubit in range(tracked.circuit.num_qubits):
            checker.root(qubit)
        assert checker.bdd.node_count == nodes
        reference = ReferenceBdd(checker.bdd.order)
        cache = {}
        for qubit, root in checker.compiled.items():
            assert reference.from_expr(tracked.formulas[qubit], cache) == root
        assert _node_table(checker.bdd) == _node_table(reference)
