"""A reduced ordered BDD package with the classic apply/restrict algebra.

Nodes are integers into parallel arrays; 0 and 1 are the terminals.  The
unique table enforces canonicity, so semantic equality of functions is
integer equality of node ids — that is what makes the unsatisfiability
checks O(1) once a formula's BDD is built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolfn.expr import AND, CONST, OR, VAR, XOR, Expr, _topological
from repro.errors import SolverError

FALSE_NODE = 0
TRUE_NODE = 1

_TERMINAL_LEVEL = 1 << 30

#: The terminal rules of each apply operator, as ``(identity, absorbing
#: element, idempotent)``: ``x op identity == x``, ``x op absorbing ==
#: absorbing``, and ``x op x`` is ``x`` when idempotent, else the 0
#: terminal.  XOR has no absorbing element; -1 matches no node.
_OPERATORS: Dict[str, Tuple[int, int, bool]] = {
    "and": (TRUE_NODE, FALSE_NODE, True),
    "or": (FALSE_NODE, TRUE_NODE, True),
    "xor": (FALSE_NODE, -1, False),
}


class Bdd:
    """ROBDD manager over a fixed variable order.

    Parameters
    ----------
    order:
        Variable names from top (tested first) to bottom.  Functions may
        only mention these variables.
    max_nodes:
        Safety valve: exceeding this many nodes raises
        :class:`SolverError` instead of exhausting memory.
    """

    def __init__(self, order: Sequence[str], max_nodes: int = 5_000_000):
        self.order = list(order)
        if len(set(self.order)) != len(self.order):
            raise SolverError("duplicate variable in BDD order")
        self._level_of: Dict[str, int] = {
            name: level for level, name in enumerate(self.order)
        }
        self.max_nodes = max_nodes
        # Parallel arrays; ids 0/1 are the terminals.
        self._level: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # One computed table per operator, keyed by the ordered pair.
        self._computed: Dict[str, Dict[Tuple[int, int], int]] = {
            op: {} for op in _OPERATORS
        }

    # ------------------------------------------------------------------ #
    # Node construction
    # ------------------------------------------------------------------ #

    @property
    def node_count(self) -> int:
        """Total nodes allocated (including the two terminals)."""
        return len(self._level)

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if len(self._level) >= self.max_nodes:
            raise SolverError(f"BDD exceeded {self.max_nodes} nodes")
        node = len(self._level)
        self._level.append(level)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def var(self, name: str) -> int:
        """The BDD of a single variable."""
        level = self._require_level(name)
        return self._mk(level, FALSE_NODE, TRUE_NODE)

    def const(self, value: bool) -> int:
        """The terminal node of a constant function."""
        return TRUE_NODE if value else FALSE_NODE

    def _require_level(self, name: str) -> int:
        level = self._level_of.get(name)
        if level is None:
            raise SolverError(f"variable {name!r} not in the BDD order")
        return level

    # ------------------------------------------------------------------ #
    # Boolean algebra via apply
    # ------------------------------------------------------------------ #

    def apply_and(self, f: int, g: int) -> int:
        """The conjunction ``f AND g``."""
        return self._apply("and", f, g)

    def apply_or(self, f: int, g: int) -> int:
        """The disjunction ``f OR g``."""
        return self._apply("or", f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """The exclusive or ``f XOR g``."""
        return self._apply("xor", f, g)

    def negate(self, f: int) -> int:
        """The complement ``NOT f`` (an XOR with the 1 terminal)."""
        return self.apply_xor(f, TRUE_NODE)

    def _apply(self, op: str, f: int, g: int) -> int:
        """Combine ``f`` and ``g`` under ``op`` in one iterative pass.

        The explicit work stack (so kilo-variable chains fit) holds
        operand pairs and ``(~level, key)`` combine markers.  Each pair
        is popped once: a terminal rule or a computed-table hit pushes
        its node onto the result stack; otherwise it expands into its
        combine marker, high pair and low pair.  Low is expanded before
        high, so nodes are allocated in the post order of the textbook
        recursive apply.  The combine step is :meth:`_mk`, inlined.
        """
        ident, absorb, idempotent = _OPERATORS[op]
        computed = self._computed[op]
        levels, lows, highs = self._level, self._low, self._high
        unique = self._unique
        max_nodes = self.max_nodes
        work = [(f, g)]
        push, pop = work.append, work.pop
        results: List[int] = []
        emit, take = results.append, results.pop
        while work:
            f, g = pop()
            if f < 0:  # combine marker: ~level and the computed-table key
                high = take()
                low = take()
                if low == high:
                    node = low
                else:
                    level = ~f
                    triple = (level, low, high)
                    node = unique.get(triple)
                    if node is None:
                        node = len(levels)
                        if node >= max_nodes:
                            raise SolverError(f"BDD exceeded {max_nodes} nodes")
                        levels.append(level)
                        lows.append(low)
                        highs.append(high)
                        unique[triple] = node
                computed[g] = node
                emit(node)
            elif f == g:
                emit(f if idempotent else FALSE_NODE)
            elif f == ident:
                emit(g)
            elif g == ident:
                emit(f)
            elif f == absorb or g == absorb:
                emit(absorb)
            else:
                key = (f, g) if f < g else (g, f)
                node = computed.get(key)
                if node is not None:
                    emit(node)
                    continue
                f_level = levels[f]
                g_level = levels[g]
                if f_level == g_level:
                    push((~f_level, key))
                    push((highs[f], highs[g]))
                    push((lows[f], lows[g]))
                elif f_level < g_level:
                    push((~f_level, key))
                    push((highs[f], g))
                    push((lows[f], g))
                else:
                    push((~g_level, key))
                    push((f, highs[g]))
                    push((f, lows[g]))
        return results[0]

    # ------------------------------------------------------------------ #
    # Cofactors
    # ------------------------------------------------------------------ #

    def restrict(self, f: int, name: str, value: bool) -> int:
        """The cofactor ``f[value/name]`` — the paper's ``b[0/q]`` at BDD level."""
        target = self._require_level(name)
        cache: Dict[int, int] = {}

        def resolved(node: int) -> Optional[int]:
            if self._level[node] > target:
                return node  # variable below the target, or a terminal
            if self._level[node] == target:
                return self._high[node] if value else self._low[node]
            return cache.get(node)

        top = resolved(f)
        if top is not None:
            return top
        stack = [f]
        while stack:
            node = stack[-1]
            if resolved(node) is not None:
                stack.pop()
                continue
            low = resolved(self._low[node])
            if low is None:
                stack.append(self._low[node])
                continue
            high = resolved(self._high[node])
            if high is None:
                stack.append(self._high[node])
                continue
            cache[node] = self._mk(self._level[node], low, high)
            stack.pop()
        result = resolved(f)
        assert result is not None
        return result

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_false(self, f: int) -> bool:
        """Whether ``f`` is the constant-false function (unsatisfiable)."""
        return f == FALSE_NODE

    def is_true(self, f: int) -> bool:
        """Whether ``f`` is the constant-true function (a tautology)."""
        return f == TRUE_NODE

    def any_sat(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (unmentioned variables omitted)."""
        if f == FALSE_NODE:
            return None
        assignment: Dict[str, bool] = {}
        node = f
        while node != TRUE_NODE:
            name = self.order[self._level[node]]
            if self._low[node] != FALSE_NODE:
                assignment[name] = False
                node = self._low[node]
            else:
                assignment[name] = True
                node = self._high[node]
        return assignment

    def count_sat(self, f: int) -> int:
        """Number of satisfying assignments over the full variable order."""
        total = len(self.order)
        reachable = self._reachable(f)
        # Children sit strictly below their parents in an ordered BDD, so
        # processing by decreasing level is children-first.
        reachable.sort(key=lambda node: -self._level[node])
        base: Dict[int, int] = {TRUE_NODE: 1, FALSE_NODE: 0}

        def level_of(node: int) -> int:
            return self._level[node] if node > TRUE_NODE else total

        for node in reachable:
            here = self._level[node]
            low, high = self._low[node], self._high[node]
            base[node] = (base[low] << (level_of(low) - here - 1)) + (
                base[high] << (level_of(high) - here - 1)
            )
        return base[f] << level_of(f)

    def _reachable(self, f: int) -> List[int]:
        """All internal nodes reachable from ``f`` (terminals excluded)."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE_NODE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return list(seen)

    def size(self, f: int) -> int:
        """Number of distinct nodes in the BDD rooted at ``f`` (plus terminals)."""
        return len(self._reachable(f)) + 2

    # ------------------------------------------------------------------ #
    # Conversion from expression DAGs
    # ------------------------------------------------------------------ #

    def from_expr(self, root: Expr, cache: Optional[Dict[int, int]] = None) -> int:
        """Compile an :class:`~repro.boolfn.expr.Expr` DAG to a BDD node.

        A shared ``cache`` (Expr uid -> node id) lets callers compile the
        many per-qubit formulas of one circuit without recompiling the
        common subcircuits.
        """
        if cache is None:
            cache = {}
        for node in _topological(root):
            if node.uid in cache:
                continue
            if node.kind == CONST:
                cache[node.uid] = self.const(bool(node.value))
            elif node.kind == VAR:
                cache[node.uid] = self.var(node.name)
            else:
                children = [cache[c.uid] for c in node.children]
                op = {AND: "and", OR: "or", XOR: "xor"}.get(node.kind)
                if op is None:  # pragma: no cover - exhaustive over kinds
                    raise SolverError(f"unknown node kind {node.kind!r}")
                cache[node.uid] = self._balanced_fold(op, children)
        return cache[root.uid]

    def _balanced_fold(self, op: str, nodes: List[int]) -> int:
        """Combine wide operators as a balanced tree.

        A left-to-right fold of an n-way XOR allocates Θ(n²) intermediate
        nodes (there is no garbage collection); balancing keeps the total
        near Θ(n log n).
        """
        if not nodes:
            return TRUE_NODE if op == "and" else FALSE_NODE
        layer = list(nodes)
        while len(layer) > 1:
            merged = []
            for i in range(0, len(layer) - 1, 2):
                merged.append(self._apply(op, layer[i], layer[i + 1]))
            if len(layer) % 2:
                merged.append(layer[-1])
            layer = merged
        return layer[0]
