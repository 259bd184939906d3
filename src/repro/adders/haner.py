"""Häner-style dirty-ancilla carry circuits (Figure 6.2 / Figure 10.1).

:func:`haner_carry_benchmark` is a verbatim translation of the paper's
``adder.qbr`` benchmark program: it XORs ``NOT(carry of s + (11...1))``
— equivalently ``[s == 0]`` — into the top qubit ``q_n``, where ``s`` is
the value on ``q_1..q_{n-1}``, using ``n-1`` *dirty* carry ancillas
``a_1..a_{n-1}`` that are all safely uncomputed.  This is the exact
circuit whose verification Figures 6.3/10.2 time.

:func:`haner_carry_strip` generalises the same strip to an arbitrary
constant ``c`` (X gates appear only where the constant has a 1 bit),
and :func:`haner_ripple_constant_adder` assembles a full *out-of-place*
constant adder ``|x>|y> -> |x>|y XOR (x + c)>`` from it: the harvest
CNOTs target a separate output register, so every control wire keeps its
value and the dirty ancillas still uncompute safely.  (The paper's
1-dirty-qubit in-place Θ(n log n) recursion is not implemented; see the
substitutions in ``docs/reproduction.md``.)
"""

from __future__ import annotations

from typing import List

from repro.adders.layout import AdderLayout
from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, toffoli, x
from repro.errors import CircuitError


def haner_carry_benchmark(n: int) -> AdderLayout:
    """The verbatim ``adder.qbr`` circuit (Figure 6.2) for ``n`` qubits.

    Wire layout (matching the program's 1-based registers): ``q[i]`` on
    wire ``i-1`` for ``i = 1..n``; dirty ancilla ``a[i]`` on wire
    ``n + i - 1`` for ``i = 1..n-1``.
    """
    if n < 3:
        raise CircuitError("the Figure 6.2 benchmark needs n >= 3")

    def q(i: int) -> int:
        return i - 1

    def a(i: int) -> int:
        return n + i - 1

    labels = [f"q{i}" for i in range(1, n + 1)] + [
        f"a{i}" for i in range(1, n)
    ]
    c = Circuit(2 * n - 1, labels=labels)

    c.append(cnot(a(n - 1), q(n)))
    for i in range(n - 1, 1, -1):
        c.append(cnot(q(i), a(i)))
        c.append(x(q(i)))
        c.append(toffoli(a(i - 1), q(i), a(i)))
    c.append(cnot(q(1), a(1)))
    for i in range(2, n):
        c.append(toffoli(a(i - 1), q(i), a(i)))
    c.append(cnot(a(n - 1), q(n)))
    c.append(x(q(n)))

    # Reverse the circuit to uncompute the dirty carries.
    for i in range(n - 1, 1, -1):
        c.append(toffoli(a(i - 1), q(i), a(i)))
    c.append(cnot(q(1), a(1)))
    for i in range(2, n):
        c.append(toffoli(a(i - 1), q(i), a(i)))
        c.append(x(q(i)))
        c.append(cnot(q(i), a(i)))

    return AdderLayout(
        c,
        target=[q(i) for i in range(1, n + 1)],
        dirty_ancillas=[a(i) for i in range(1, n)],
    )


def haner_carry_strip(
    circuit: Circuit,
    xs: List[int],
    ancillas: List[int],
    constant: int,
    forward: bool = True,
) -> None:
    """One directional pass of the Häner carry strip for ``constant``.

    After a forward pass, ancilla wire ``ancillas[i]`` holds
    ``a_i XOR carry_{i+1}`` where ``carry_{i+1}`` is the carry out of bit
    ``i`` of ``xs + constant`` (little-endian, ``carry_1`` = carry out of
    bit 0).  The backward pass is the exact inverse.  ``len(ancillas)``
    must equal ``len(xs)``; X gates appear only where ``constant`` has a
    1 bit, which degenerates to the Figure 6.2 pattern when the constant
    is all ones.
    """
    m = len(xs)
    if len(ancillas) != m:
        raise CircuitError("carry strip needs one ancilla per input bit")
    gates = []
    # Downward prep: pair each x_i (i >= 1) with its ancilla.
    for i in range(m - 1, 0, -1):
        if (constant >> i) & 1:
            gates.append(cnot(xs[i], ancillas[i]))
            gates.append(x(xs[i]))
        gates.append(toffoli(ancillas[i - 1], xs[i], ancillas[i]))
    if constant & 1:
        gates.append(cnot(xs[0], ancillas[0]))
    # Upward completion: ripple the carries up.
    for i in range(1, m):
        gates.append(toffoli(ancillas[i - 1], xs[i], ancillas[i]))
    if not forward:
        gates = [g.dagger() for g in reversed(gates)]
    circuit.extend(gates)


def haner_ripple_constant_adder(n: int, constant: int) -> AdderLayout:
    """Out-of-place constant adder with ``n-1`` dirty ancillas.

    Computes ``y XOR= (x + constant) mod 2**n`` with all controls kept
    intact so the dirty carries uncompute safely.

    Wire layout: input ``x`` on ``0..n-1``, output ``y`` on ``n..2n-1``
    (both little-endian), ``n-1`` dirty ancillas on ``2n..3n-2``.
    """
    if n < 2:
        raise CircuitError("adder width must be at least 2")
    constant %= 2**n
    xs = list(range(n))
    ys = list(range(n, 2 * n))
    ancillas = list(range(2 * n, 3 * n - 1))
    labels = (
        [f"x{i}" for i in range(n)]
        + [f"y{i}" for i in range(n)]
        + [f"g{i}" for i in range(n - 1)]
    )
    circuit = Circuit(3 * n - 1, labels=labels)

    low_xs = xs[: n - 1]
    # Forward pass computes a_i XOR carry_{i+1} on each ancilla.
    haner_carry_strip(circuit, low_xs, ancillas, constant, forward=True)
    # Harvest: y_{i+1} XOR= (a_i XOR carry_{i+1}); targets are never
    # controls, so the strip's uncompute below is undisturbed.
    for i in range(n - 1):
        circuit.append(cnot(ancillas[i], ys[i + 1]))
    haner_carry_strip(circuit, low_xs, ancillas, constant, forward=False)
    # Second harvest cancels the dirty offset: y_{i+1} XOR= a_i.
    for i in range(n - 1):
        circuit.append(cnot(ancillas[i], ys[i + 1]))
    # Sum bits: s_i = x_i XOR c_i XOR carry_i.
    for i in range(n):
        circuit.append(cnot(xs[i], ys[i]))
        if (constant >> i) & 1:
            circuit.append(x(ys[i]))

    return AdderLayout(
        circuit,
        target=ys,
        dirty_ancillas=ancillas,
        operand=xs,
    )
