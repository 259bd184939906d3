"""The dependence sweep: decide formula (6.2) before any engine.

Formula (6.2) is unsatisfiable iff no other wire's final formula
depends on the dirty wire ``q``'s input.  Figure 6.1's ``x ⊕ x = 0``
rule removes syntactic dependence while tracking; this sweep removes
semantic dependence, one tiny cone at a time, in the manner of
FRAIG-style SAT sweeping (each pair it merges is ``v[0/q]`` and
``v[1/q]``, and the proof is exhaustive over the cone).

1. *Wire masks.*  One children-first pass over the DAG under the final
   formulas gives every node the bitmask of the input wires it reaches
   (:func:`wire_masks`, kept on the :class:`TrackedFormulas`).
2. *Roots.*  The other wires' final formulas whose mask has ``q``'s
   bit.  With none, (6.2) holds.
3. *Walk.*  The nodes under those roots that reach ``q``, children
   first.  A node is dependent if any of its children is.  A dependent
   node ``v`` may still be independent of ``q``: its cone is ``v`` and
   the dependent nodes below it, and every other child of a cone node
   (including nodes the walk has already shown independent) is a free
   input.  ``v`` itself is never a free input.  A cone within
   :data:`MAX_FREE_INPUTS` free inputs and :data:`MAX_CONE_NODES` nodes
   is evaluated over every value of its free inputs, once with
   ``q = 0`` and once with ``q = 1``; equal truth-table rows make ``v``
   independent.
4. *Result.*  (6.2) is decided iff no root is still dependent.  "Still
   dependent" is not a verdict: the obligation goes to an engine.

Soundness: every free input is semantically independent of ``q``, so
an identity that holds over all values of the free inputs also holds at
their real values.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set

from repro.boolfn.bitset import variable_row
from repro.boolfn.expr import AND, CONST, OR, VAR, Expr
from repro.verify.tracking import TrackedFormulas

#: Widest cone the sweep evaluates: 2**16 assignments, an 8 KiB row.
MAX_FREE_INPUTS = 16
#: Largest cone, in nodes, the sweep evaluates.
MAX_CONE_NODES = 64


def _below(roots: Iterable[Expr], admit: Callable[[Expr], bool]) -> List[Expr]:
    """``roots`` and the admitted nodes under them, descending only
    through admitted nodes, children first (a builder numbers every node
    after its children, so uid order is children first)."""
    seen: Dict[int, Expr] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen[node.uid] = node
        for child in node.children:
            if child.uid not in seen and admit(child):
                stack.append(child)
    return [seen[uid] for uid in sorted(seen)]


def wire_masks(tracked: TrackedFormulas) -> Dict[int, int]:
    """Node uid -> bitmask of the input wires the node reaches, for every
    node under a final formula (computed once per tracked circuit)."""
    if tracked.masks is None:
        masks = {var.uid: 1 << wire for wire, var in tracked.input_vars.items()}
        for node in _below(tracked.formulas.values(), lambda node: True):
            if node.children:
                mask = 0
                for child in node.children:
                    mask |= masks[child.uid]
                masks[node.uid] = mask
            else:
                masks.setdefault(node.uid, 0)
        tracked.masks = masks
    return tracked.masks


def decides_62(tracked: TrackedFormulas, qubit: int) -> bool:
    """True when the sweep proves formula (6.2) of ``qubit``
    unsatisfiable: no other wire's final formula depends on its input.

    False means only that the sweep could not tell.
    """
    masks = wire_masks(tracked)
    bit = 1 << qubit
    roots = {
        formula.uid: formula
        for wire, formula in tracked.formulas.items()
        if wire != qubit and masks[formula.uid] & bit
    }
    dependent: Set[int] = set()
    for node in _below(roots.values(), lambda node: masks[node.uid] & bit):
        if node.kind == VAR:  # the only variable reaching q is q's input
            dependent.add(node.uid)
        elif not dependent.isdisjoint(child.uid for child in node.children):
            if not _cone_independent(node, dependent):
                dependent.add(node.uid)
    return dependent.isdisjoint(roots)


def _cone_independent(root: Expr, dependent: Set[int]) -> bool:
    """Whether ``root`` provably does not depend on the one variable in
    ``dependent``, with its cone's free inputs left free."""
    cone: Dict[int, Expr] = {root.uid: root}
    free: Dict[int, int] = {}
    stack = [root]
    while stack:
        for child in stack.pop().children:
            uid = child.uid
            if uid in dependent:
                if uid not in cone:
                    if len(cone) == MAX_CONE_NODES:
                        return False
                    cone[uid] = child
                    stack.append(child)
            elif child.kind != CONST and uid not in free:
                if len(free) == MAX_FREE_INPUTS:
                    return False
                free[uid] = len(free)
    width = len(free)
    full = (1 << (1 << width)) - 1
    builder = root.builder
    inputs = {uid: variable_row(k, width) for uid, k in free.items()}
    inputs[builder.true.uid] = full
    inputs[builder.false.uid] = 0
    order = [cone[uid] for uid in sorted(cone)]
    rows = []
    for q_row in (0, full):
        values = dict(inputs)
        for node in order:
            if node.kind == VAR:
                values[node.uid] = q_row
                continue
            children = node.children
            acc = values[children[0].uid]
            if node.kind == AND:
                for child in children[1:]:
                    acc &= values[child.uid]
            elif node.kind == OR:
                for child in children[1:]:
                    acc |= values[child.uid]
            else:
                for child in children[1:]:
                    acc ^= values[child.uid]
            values[node.uid] = acc
        rows.append(values[root.uid])
    return rows[0] == rows[1]


__all__ = ["MAX_CONE_NODES", "MAX_FREE_INPUTS", "decides_62", "wire_masks"]
