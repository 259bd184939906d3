"""Positive-path tests for scoped ``borrow { within/apply }`` blocks.

Where ``test_borrowck.py`` pins the error corpus, this file pins what a
*valid* block elaborates to — the C; D; reverse(C); D double-conjugation
of the paper's Figure 1.3 — and cross-checks the checker's soundness:
every block the checker proves must also pass the Section 6 solver, and
the dependence sweep must decide (6.2) for every wire it proves.
"""

import pytest

from repro.lang.surface import elaborate, job_from_qbr, verify_qbr
from repro.verify import track_circuit
from repro.verify.sweep import decides_62
from tests.lang.test_borrowck import DIFFERENTIAL_CORPUS

FIG13_CCCNOT = """\
borrow@ q1; borrow@ q2; borrow@ q3; alloc q4;
borrow a {
  within { CCNOT[q1, q2, a]; }
  apply  { CCNOT[a, q3, q4]; }
}
"""


def gate_tuples(program):
    return [(g.name, tuple(g.controls), g.target) for g in program.circuit.gates]


def test_fig13_cccnot_elaborates_to_double_conjugation():
    program = elaborate(FIG13_CCCNOT)
    # C; D; reverse(C); D — the apply-section fires in both phases so the
    # dirty initial value of the borrowed wire cancels out of q4.
    assert gate_tuples(program) == [
        ("CCX", (0, 1), 4),
        ("CCX", (4, 2), 3),
        ("CCX", (0, 1), 4),
        ("CCX", (4, 2), 3),
    ]
    assert program.proven_wires == [4]
    assert program.dirty_wires == [4]
    assert program.summary().endswith("proven=1")


def test_multi_gate_within_section_reverses_in_order():
    program = elaborate(
        "borrow@ x; borrow@ y; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; CNOT[y, b]; }\n"
        "  apply  { CNOT[b, t]; }\n"
        "}"
    )
    names = [(g.name, tuple(g.controls), g.target) for g in program.circuit.gates]
    assert names == [
        ("CX", (0,), 3),   # C: x -> b
        ("CX", (1,), 3),   # C: y -> b
        ("CX", (3,), 2),   # D
        ("CX", (1,), 3),   # reverse(C), reversed order
        ("CX", (0,), 3),
        ("CX", (3,), 2),   # D again
    ]
    assert program.proven_wires == [3]


def test_nested_borrow_blocks_both_prove():
    program = elaborate(
        "borrow@ q1; borrow@ q2; borrow@ q3; alloc out;\n"
        "borrow a {\n"
        "  within {\n"
        "    borrow c {\n"
        "      within { CNOT[q1, c]; }\n"
        "      apply  { CCNOT[c, q2, a]; }\n"
        "    }\n"
        "  }\n"
        "  apply { CCNOT[a, q3, out]; }\n"
        "}"
    )
    assert sorted(program.proven_wires) == sorted(program.dirty_wires)
    assert len(program.proven_wires) == 2
    report = verify_qbr(program)
    assert all(v.safe for v in report.verdicts)


def test_block_without_dirty_reads_outside_still_elaborates():
    # A borrow block plus ordinary statements around it.
    program = elaborate(
        "borrow@ x; alloc t; alloc u;\n"
        "X[u];\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; }\n"
        "  apply  { CNOT[b, t]; }\n"
        "}\n"
        "CNOT[t, u];"
    )
    assert program.proven_wires == program.dirty_wires
    assert len(program.circuit.gates) == 6


def test_lend_windows_record_gate_extents():
    program = elaborate(
        "borrow@ w; borrow@ x; alloc t;\n"
        "lend w { CNOT[x, t]; CNOT[t, x]; }\n"
        "X[t];"
    )
    assert program.lend_windows == {"w": [(0, 2)]}


#: Programs whose every block the checker proves.
PROVEN_BLOCKS = [
    FIG13_CCCNOT,
    # Two independent blocks in sequence, each proving its own wire.
    "borrow@ x; alloc t1; alloc t2;\n"
    "borrow b { within { CNOT[x, b]; } apply { CNOT[b, t1]; } }\n"
    "borrow c { within { CNOT[x, c]; } apply { CNOT[c, t2]; } }",
    # Width-2 borrowed register: each wire offset-reads independently
    # (register indexing is 1-based, artifact §10.3).
    "borrow@ x; alloc t[2];\n"
    "borrow b[2] {\n"
    "  within { CNOT[x, b[1]]; CNOT[x, b[2]]; }\n"
    "  apply  { CNOT[b[1], t[1]]; CNOT[b[2], t[2]]; }\n"
    "}",
]


def fig13_blocks(count):
    """Figure 1.3's CCCNOT as ``count`` scoped blocks in sequence, each
    borrowing its own wire and writing its own target."""
    lines = [f"borrow@ q1; borrow@ q2; borrow@ q3; alloc t[{count}];"]
    lines.extend(
        f"borrow a{i} {{ within {{ CCNOT[q1, q2, a{i}]; }} "
        f"apply {{ CCNOT[a{i}, q3, t[{i}]]; }} }}"
        for i in range(1, count + 1)
    )
    return "\n".join(lines)


@pytest.mark.parametrize("source", PROVEN_BLOCKS)
def test_checker_proven_blocks_are_solver_safe(source):
    # Soundness cross-check: anything the static checker certifies must
    # also be certified by the Section 6 verifier.
    program = elaborate(source)
    assert program.proven_wires, "corpus entry should prove at least one wire"
    report = verify_qbr(program)
    verdicts = {v.qubit: v.safe for v in report.verdicts}
    for wire in program.proven_wires:
        assert verdicts[wire] is True


@pytest.mark.parametrize("simplify_xor", [True, False])
def test_proven_wires_are_swept_safe(simplify_xor):
    # proven_wires ⊆ swept-safe: for every wire the checker proves, the
    # dependence sweep decides (6.2) without an engine, with or without
    # Figure 6.1's x ⊕ x = 0 rule.
    corpus = PROVEN_BLOCKS + DIFFERENTIAL_CORPUS + [fig13_blocks(64)]
    checked = 0
    for source in corpus:
        program = elaborate(source, strict=False)
        tracked = track_circuit(program.circuit, simplify_xor=simplify_xor)
        for wire in program.proven_wires:
            assert decides_62(tracked, wire), (source, wire)
            checked += 1
    assert checked == 76


def test_trust_checker_skips_proven_wires():
    report = verify_qbr(FIG13_CCCNOT, trust_checker=True)
    # The lone dirty wire is checker-proven, so nothing reaches the solver.
    assert report.verdicts == []


def test_job_from_qbr_marks_proven_requests_certified():
    job = job_from_qbr("fig13", FIG13_CCCNOT, trust_checker=True)
    certified = {r.wire: r.certified for r in job.ancilla_requests}
    assert certified == {4: True}


def test_job_from_qbr_defaults_to_uncertified():
    # Certification is opt-in: the conservative default pays the solver
    # even for checker-proven wires, mirroring verify_qbr.
    job = job_from_qbr("fig13", FIG13_CCCNOT)
    certified = {r.wire: r.certified for r in job.ancilla_requests}
    assert certified == {4: False}


def test_job_from_qbr_leaves_unproven_requests_uncertified():
    # Same gates written flat with a plain dirty borrow: nothing proven.
    job = job_from_qbr(
        "flat",
        "borrow@ q1; borrow@ q2; borrow@ q3; alloc q4; borrow a;\n"
        "CCNOT[q1, q2, a]; CCNOT[a, q3, q4];\n"
        "CCNOT[q1, q2, a]; CCNOT[a, q3, q4];\n"
        "release a;",
    )
    certified = {r.wire: r.certified for r in job.ancilla_requests}
    assert certified == {4: False}
