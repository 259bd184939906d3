"""Constant-adder constructions — system S11 (Figure 1.1's four columns).

All adders act on a little-endian target register (wire list index ``i``
holds bit value ``2**i``) and add a classical constant ``c`` modulo
``2**n``:

* :mod:`repro.adders.cuccaro` — ripple-carry MAJ/UMA adder [Cuccaro et
  al. 2004]; the constant variant loads ``c`` into ``n`` clean qubits and
  uses one more clean carry qubit (``n+1`` clean ancillas).
* :mod:`repro.adders.takahashi` — ancilla-free register adder [Takahashi
  et al. 2010]; the constant variant needs ``n`` clean qubits for ``c``.
* :mod:`repro.adders.draper` — QFT adder [Draper 2000]; ``0`` ancillas,
  ``Θ(n²)`` gates.
* :mod:`repro.adders.haner` — the dirty-ancilla carry-strip circuits of
  Häner et al. 2017, including the exact Figure 6.2 / 10.1 benchmark
  circuit the paper verifies (see the substitutions in
  ``docs/reproduction.md`` for the 1-dirty-qubit recursive variant).
"""

from repro.adders.layout import AdderLayout
from repro.adders.cuccaro import cuccaro_add_registers, cuccaro_constant_adder
from repro.adders.takahashi import (
    takahashi_add_registers,
    takahashi_constant_adder,
)
from repro.adders.draper import draper_constant_adder
from repro.adders.haner import (
    haner_carry_benchmark,
    haner_ripple_constant_adder,
)
from repro.adders.costs import adder_cost_rows

__all__ = [
    "AdderLayout",
    "adder_cost_rows",
    "cuccaro_add_registers",
    "cuccaro_constant_adder",
    "draper_constant_adder",
    "haner_carry_benchmark",
    "haner_ripple_constant_adder",
    "takahashi_add_registers",
    "takahashi_constant_adder",
]
