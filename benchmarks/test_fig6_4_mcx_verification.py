"""Experiment E8 — Figures 6.4 / 10.3: MCX verification time vs qubits.

The paper verifies the single dirty ancilla of ``mcx.qbr`` at 499..3499
control qubits (m = 250..1750).  Both the CDCL and the BDD backend
cover the paper's full range, with the dependence sweep off so each
series measures its engine alone.  Under its first-use variable order the
BDD backend is the faster engine on this family (m = 750: 0.3–0.5 s
against ~1.2 s for CDCL on a 2-vCPU x86 host).
"""

import pytest

from repro.lang.surface import elaborate
from repro.lang.surface.sources import mcx_qbr_source
from repro.verify import verify_circuit

from benchmarks.conftest import run_once

#: (backend, m); the paper's x-axis is n = 2m-1 controls = 499..3499.
CASES = [
    ("cdcl", 250),
    ("cdcl", 500),
    ("cdcl", 750),
    ("cdcl", 1000),
    ("cdcl", 1250),
    ("cdcl", 1500),
    ("cdcl", 1750),
    ("bdd", 250),
    ("bdd", 500),
    ("bdd", 750),
    ("bdd", 1000),
    ("bdd", 1250),
    ("bdd", 1500),
    ("bdd", 1750),
]

_timings = {}


@pytest.mark.parametrize(
    "backend,m", CASES, ids=[f"{b}-q{2 * m - 1}" for b, m in CASES]
)
def test_fig6_4_mcx_verification(benchmark, backend, m):
    program = elaborate(mcx_qbr_source(m))

    def verify():
        return verify_circuit(
            program.circuit, program.dirty_wires, backend=backend, sweep=False
        )

    report = run_once(benchmark, verify)
    assert report.all_safe
    assert len(report.verdicts) == 1  # the single dirty ancilla

    _timings[(backend, m)] = report.total_seconds
    benchmark.extra_info["controls"] = 2 * m - 1
    benchmark.extra_info["total_qubits"] = program.circuit.num_qubits
    benchmark.extra_info["solver_seconds"] = round(report.solver_seconds, 4)


def test_fig6_4_mcx_cheaper_than_adder_for_cdcl():
    """Cross-benchmark shape check: per the paper, the MCX family is far
    cheaper to verify than the adder family at comparable scale for one
    backend (CVC5 there, CDCL here).  A property of the solver, so the
    dependence sweep stays off."""
    import time

    from repro.lang.surface.sources import adder_qbr_source

    adder = elaborate(adder_qbr_source(30))
    start = time.perf_counter()
    verify_circuit(
        adder.circuit, adder.dirty_wires, backend="cdcl", sweep=False
    )
    adder_time = time.perf_counter() - start

    mcx = elaborate(mcx_qbr_source(250))  # 501 qubits vs adder's 59
    start = time.perf_counter()
    verify_circuit(mcx.circuit, mcx.dirty_wires, backend="cdcl", sweep=False)
    mcx_time = time.perf_counter() - start

    assert mcx_time < adder_time, (
        f"expected MCX (501 qubits, {mcx_time:.2f}s) cheaper than adder "
        f"(59 qubits, {adder_time:.2f}s) for CDCL"
    )
