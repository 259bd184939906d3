"""Hash-consed Boolean expression DAGs.

Design notes
------------
* All nodes are created through an :class:`ExprBuilder`, which interns
  structurally identical nodes, so node identity (``is`` / ``uid``) decides
  structural equality in O(1).  This is what makes the paper's
  ``x ⊕ x = 0`` rule cheap: duplicate XOR children are literally the same
  object.
* Negation is canonicalised to ``x ⊕ 1``; implication to ``¬a ∨ b``.  The
  node kinds are therefore just ``const``, ``var``, ``and``, ``xor``,
  ``or``.
* Constructors simplify locally (constant folding, flattening,
  idempotence, XOR-pair cancellation).  The cancellation can be disabled
  (``simplify_xor=False``) — this is ablation A1 (``docs/reproduction.md``)
  and mirrors running the paper's reduction without the Figure 6.1
  simplification.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import BooleanError

CONST = "const"
VAR = "var"
AND = "and"
XOR = "xor"
OR = "or"

#: Sort key of every connective's children: interning order.
_UID = attrgetter("uid")


class Expr:
    """One interned node of a Boolean DAG.  Create via :class:`ExprBuilder`."""

    __slots__ = ("kind", "children", "name", "value", "uid", "builder")

    def __init__(
        self,
        kind: str,
        children: Tuple["Expr", ...],
        name: Optional[str],
        value: Optional[bool],
        uid: int,
        builder: "ExprBuilder",
    ):
        self.kind = kind
        self.children = children
        self.name = name
        self.value = value
        self.uid = uid
        self.builder = builder

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    @property
    def is_true(self) -> bool:
        return self.kind == CONST and self.value is True

    @property
    def is_false(self) -> bool:
        return self.kind == CONST and self.value is False

    def variables(self) -> FrozenSet[str]:
        """All variable names reachable from this node (memoised)."""
        return self.builder.variables_of(self)

    def dag_size(self) -> int:
        """Number of distinct nodes reachable from this one."""
        seen: Set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            stack.extend(node.children)
        return len(seen)

    def __repr__(self) -> str:
        return f"Expr<{self.builder.to_string(self, limit=80)}>"


class ExprBuilder:
    """Factory and intern table for :class:`Expr` nodes.

    One builder per verification run; nodes from different builders must
    not be mixed (enforced on construction).
    """

    def __init__(self, simplify_xor: bool = True):
        self.simplify_xor = simplify_xor
        self._intern: Dict[Tuple, Expr] = {}
        self._uid = 0
        self._vars: Dict[str, Expr] = {}
        self._variables_cache: Dict[int, FrozenSet[str]] = {}
        self.false = self._make(CONST, (), None, False)
        self.true = self._make(CONST, (), None, True)

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #

    def _make(
        self,
        kind: str,
        children: Tuple[Expr, ...],
        name: Optional[str],
        value: Optional[bool],
    ) -> Expr:
        key = (kind, tuple([c.uid for c in children]), name, value)
        node = self._intern.get(key)
        if node is None:
            node = Expr(kind, children, name, value, self._uid, self)
            self._uid += 1
            self._intern[key] = node
        return node

    def _check(self, nodes: Iterable[Expr]) -> None:
        for node in nodes:
            if node.builder is not self:
                raise BooleanError("mixing Expr nodes from different builders")

    @property
    def node_count(self) -> int:
        """Total number of interned nodes (a proxy for formula size)."""
        return self._uid

    # ------------------------------------------------------------------ #
    # Leaf constructors
    # ------------------------------------------------------------------ #

    def const(self, value: bool) -> Expr:
        return self.true if value else self.false

    def var(self, name: str) -> Expr:
        """Return the (unique) variable node called ``name``."""
        node = self._vars.get(name)
        if node is None:
            node = self._make(VAR, (), name, None)
            self._vars[name] = node
        return node

    # ------------------------------------------------------------------ #
    # Connectives
    # ------------------------------------------------------------------ #

    def and_(self, args: Sequence[Expr]) -> Expr:
        """Conjunction with flattening, constant folding and idempotence."""
        self._check(args)
        true, false = self.true, self.false
        flat: List[Expr] = []
        seen: Set[int] = set()
        for arg in _flatten(args, AND):
            if arg is false:
                return false
            if arg is true or arg.uid in seen:
                continue
            seen.add(arg.uid)
            flat.append(arg)
        # x AND (x XOR 1) = 0.  xor_ puts the constant last, so
        # children[-1] is the only place a XOR node can hold it.
        for arg in flat:
            if arg.kind == XOR and arg.children[-1] is true:
                stripped = self.xor_(arg.children[:-1])
                if stripped.uid in seen:
                    return false
        if not flat:
            return true
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=_UID)
        return self._make(AND, tuple(flat), None, None)

    def xor_(self, args: Sequence[Expr]) -> Expr:
        """Exclusive-or with flattening, constant folding and (optionally)
        the paper's pair cancellation ``x ⊕ x = 0``."""
        self._check(args)
        true = self.true
        parity = False
        flat: List[Expr] = []
        for arg in _flatten(args, XOR):
            if arg.kind == CONST:
                parity ^= arg is true
                continue
            flat.append(arg)
        if self.simplify_xor:
            # Keep each node that occurs an odd number of times; the
            # sort below fixes the order.
            odd: Dict[int, Expr] = {}
            for arg in flat:
                if odd.pop(arg.uid, None) is None:
                    odd[arg.uid] = arg
            flat = list(odd.values())
        if not flat:
            return self.const(parity)
        flat.sort(key=_UID)
        if parity:
            flat.append(true)
        if len(flat) == 1:
            return flat[0]
        return self._make(XOR, tuple(flat), None, None)

    def or_(self, args: Sequence[Expr]) -> Expr:
        """Disjunction with flattening, constant folding and idempotence."""
        self._check(args)
        flat: List[Expr] = []
        seen: Set[int] = set()
        for arg in _flatten(args, OR):
            if arg.is_true:
                return self.true
            if arg.is_false or arg.uid in seen:
                continue
            seen.add(arg.uid)
            flat.append(arg)
        if not flat:
            return self.false
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=_UID)
        return self._make(OR, tuple(flat), None, None)

    def not_(self, arg: Expr) -> Expr:
        """Negation, canonicalised to ``arg ⊕ 1``."""
        return self.xor_([arg, self.true])

    def implies(self, premise: Expr, conclusion: Expr) -> Expr:
        """Implication ``premise → conclusion`` as ``¬premise ∨ conclusion``."""
        return self.or_([self.not_(premise), conclusion])

    # ------------------------------------------------------------------ #
    # Semantic operations
    # ------------------------------------------------------------------ #

    def substitute(self, node: Expr, bindings: Dict[str, Expr]) -> Expr:
        """Replace variables by expressions, rebuilding (and simplifying)."""
        self._check([node])
        self._check(bindings.values())
        cache: Dict[int, Expr] = {}

        order = _topological(node)
        for current in order:
            if current.kind == VAR:
                cache[current.uid] = bindings.get(current.name, current)
            elif current.kind == CONST:
                cache[current.uid] = current
            else:
                rebuilt = [cache[c.uid] for c in current.children]
                if current.kind == AND:
                    cache[current.uid] = self.and_(rebuilt)
                elif current.kind == XOR:
                    cache[current.uid] = self.xor_(rebuilt)
                else:
                    cache[current.uid] = self.or_(rebuilt)
        return cache[node.uid]

    def cofactor(self, node: Expr, name: str, value: bool) -> Expr:
        """The paper's ``b[0/q]`` / ``b[1/q]``: fix one variable."""
        return self.substitute(node, {name: self.const(value)})

    def evaluate(self, node: Expr, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment of the node's variables."""
        cache: Dict[int, bool] = {}
        for current in _topological(node):
            if current.kind == CONST:
                cache[current.uid] = bool(current.value)
            elif current.kind == VAR:
                if current.name not in assignment:
                    raise BooleanError(f"unassigned variable {current.name!r}")
                cache[current.uid] = bool(assignment[current.name])
            else:
                values = [cache[c.uid] for c in current.children]
                if current.kind == AND:
                    cache[current.uid] = all(values)
                elif current.kind == OR:
                    cache[current.uid] = any(values)
                else:
                    cache[current.uid] = sum(values) % 2 == 1
        return cache[node.uid]

    def variables_of(self, node: Expr) -> FrozenSet[str]:
        """Memoised reachable-variable set."""
        cached = self._variables_cache.get(node.uid)
        if cached is not None:
            return cached
        for current in _topological(node):
            if current.uid in self._variables_cache:
                continue
            if current.kind == VAR:
                result: FrozenSet[str] = frozenset([current.name])
            else:
                result = frozenset().union(
                    *(self._variables_cache[c.uid] for c in current.children)
                )
            self._variables_cache[current.uid] = result
        return self._variables_cache[node.uid]

    # ------------------------------------------------------------------ #
    # Printing
    # ------------------------------------------------------------------ #

    def to_string(self, node: Expr, limit: int = 2000) -> str:
        """Infix rendering, truncated at ``limit`` characters."""
        text = _render(node)
        if len(text) > limit:
            return text[: limit - 3] + "..."
        return text


def _flatten(args: Sequence[Expr], kind: str) -> Iterable[Expr]:
    for arg in args:
        if arg.kind == kind:
            yield from arg.children
        else:
            yield arg


def _topological(root: Expr) -> List[Expr]:
    """Children-before-parents order of the DAG under ``root``."""
    order: List[Expr] = []
    seen: Set[int] = set()
    stack: List[Tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.uid in seen:
            continue
        seen.add(node.uid)
        stack.append((node, True))
        for child in node.children:
            if child.uid not in seen:
                stack.append((child, False))
    return order


def _render(node: Expr) -> str:
    if node.kind == CONST:
        return "1" if node.value else "0"
    if node.kind == VAR:
        return node.name
    symbol = {AND: "&", XOR: " ^ ", OR: " | "}[node.kind]
    parts = []
    for child in node.children:
        text = _render(child)
        if node.kind == AND and child.kind in (XOR, OR):
            text = f"({text})"
        if node.kind == XOR and child.kind == OR:
            text = f"({text})"
        parts.append(text)
    joiner = symbol if node.kind != AND else symbol
    return joiner.join(parts)
