"""Formula tracking for the Section 6.1 reduction.

:func:`track_circuit` scans a classical circuit once, maintaining for
every qubit ``q`` the Boolean formula ``b_q`` over the initial-state
variables (X: ``b := ¬b``; multi-controlled NOT: ``b_t := b_t ⊕
(b_{c1} ... b_{cm})``), with the paper's ``x ⊕ x = 0`` simplification
applied through hash-consing.  :func:`formula_61` and :func:`formula_62`
then build the two Theorem 6.4 obligations; deciding their
unsatisfiability is the job of the pluggable checkers in
:mod:`repro.verify.backends`.

The scan is the hot loop of a verification request.  Each gate is one
:meth:`~repro.boolfn.expr.ExprBuilder.and_` over its controls' formulas
(``1`` for a bare X) and one :meth:`~repro.boolfn.expr.ExprBuilder.xor_`
of the target's formula with that product.  Like a BDD package's
computed table, the scan remembers both for the length of the call:
the product keyed by the controls' node uids, the update by the
target's old uid and the product's uid.  The builder's connectives are
deterministic over an append-only intern table, so a repeated call
would return the node its first call made and intern nothing; the
table hands that node back without the call.  Uncompute halves replay
their compute halves, so 62% of ``mcx.qbr``'s calls repeat (31% of
``adder.qbr``'s).
Which nodes the scan interns, and in what order, is pinned by
``tests/verify/test_tracking_interning.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolfn.expr import Expr, ExprBuilder
from repro.circuits.circuit import Circuit
from repro.errors import VerificationError


@dataclass
class TrackedFormulas:
    """Per-qubit Boolean formulas of a classical circuit (Section 6.1)."""

    builder: ExprBuilder
    circuit: Circuit
    names: Dict[int, str]
    input_vars: Dict[int, Expr]
    formulas: Dict[int, Expr]
    #: Node uid -> bitmask of the input wires the node reaches (bit ``q``
    #: for wire ``q``), over the DAG under the final formulas; filled by
    #: :func:`repro.verify.sweep.wire_masks` on first use.
    masks: Optional[Dict[int, int]] = field(default=None, repr=False)

    def formula_of(self, qubit: int) -> Expr:
        return self.formulas[qubit]

    def name_of(self, qubit: int) -> str:
        return self.names[qubit]


def track_circuit(
    circuit: Circuit,
    simplify_xor: bool = True,
    builder: Optional[ExprBuilder] = None,
) -> TrackedFormulas:
    """Scan the circuit once and return every ``b_q`` (linear-time).

    Per gate the scan reads ``gate.qubits`` once and looks the product
    up by the controls' node uids; the factor list for
    :meth:`~repro.boolfn.expr.ExprBuilder.and_` is built only when that
    lookup misses.
    """
    builder = builder or ExprBuilder(simplify_xor=simplify_xor)
    names: Dict[int, str] = {}
    for q in range(circuit.num_qubits):
        names[q] = circuit.label_of(q)
    if len(set(names.values())) != len(names):
        raise VerificationError("circuit labels are not unique")

    input_vars = {q: builder.var(names[q]) for q in range(circuit.num_qubits)}
    formulas = dict(input_vars)
    and_, xor_ = builder.and_, builder.xor_
    # The computed tables: control uids -> product, and (old target
    # uid, product uid) -> updated target.
    products: Dict[Tuple[int, ...], Expr] = {}
    updates: Dict[Tuple[int, int], Expr] = {}
    for gate in circuit.gates:
        if not gate.is_classical:
            raise VerificationError(
                f"gate {gate} is not classical; the Section 6 reduction "
                f"applies to X / multi-controlled-NOT circuits only"
            )
        qubits = gate.qubits
        # A bare X has no controls: its product is and_([]), the
        # constant 1, and its update xor_([b, 1]) is exactly not_(b).
        key = tuple([formulas[c].uid for c in qubits[:-1]])
        product = products.get(key)
        if product is None:
            product = products[key] = and_([formulas[c] for c in qubits[:-1]])
        target = qubits[-1]
        old = formulas[target]
        pair = (old.uid, product.uid)
        new = updates.get(pair)
        if new is None:
            new = updates[pair] = xor_([old, product])
        formulas[target] = new
    return TrackedFormulas(builder, circuit, names, input_vars, formulas)


def formula_61(tracked: TrackedFormulas, qubit: int) -> Expr:
    """Formula (6.1): ``¬(b_q → q)``; unsatisfiable ⇔ |0> is restored."""
    builder = tracked.builder
    b_q = tracked.formulas[qubit]
    q_var = tracked.input_vars[qubit]
    return builder.and_([b_q, builder.not_(q_var)])


def formula_62(
    tracked: TrackedFormulas,
    qubit: int,
    others: Optional[Sequence[int]] = None,
) -> Expr:
    """Formula (6.2): ``∨_{q'≠q} b_{q'}[0/q] ⊕ b_{q'}[1/q]``.

    Unsatisfiable ⇔ every other qubit's final value is independent of the
    dirty qubit's initial value ⇔ |+> is restored.
    """
    builder = tracked.builder
    name = tracked.names[qubit]
    disjuncts: List[Expr] = []
    pool = others if others is not None else [
        q for q in range(tracked.circuit.num_qubits) if q != qubit
    ]
    for other in pool:
        if other == qubit:
            continue
        b_other = tracked.formulas[other]
        low = builder.cofactor(b_other, name, False)
        high = builder.cofactor(b_other, name, True)
        disjuncts.append(builder.xor_([low, high]))
    return builder.or_(disjuncts)
