"""Snapshot corpus for the static borrow checker (``repro.lang.borrowck``).

Every ``BQ###`` diagnostic code documented in ``docs/language.md`` is
exercised here with a minimal failing program, and the *full* rendered
diagnostic — caret spans, notes, fix-hints — is snapshot-asserted, so a
wording or span regression fails loudly.  The corpus mirrors Guppy's
``linear_errors`` suite: ``copy_qubit`` (BQ007), ``borrow_leaked``
(BQ009), use-after-move (BQ001/BQ003) and double-borrow (BQ002).
"""

import textwrap

import pytest

from repro.lang import (
    BorrowCheckError,
    check_program,
    check_qbr,
)
from repro.lang.diagnostics import CODES, Diagnostic, DiagnosticReport, Span
from repro.lang.surface import elaborate, verify_qbr
from repro.lang.surface.parser import ParseError


def report_for(source):
    report = check_program(source)
    return report


def snapshot(source):
    return check_program(source).render()


# ---------------------------------------------------------------------------
# One minimal failing program per code, full-text snapshots.
# ---------------------------------------------------------------------------


def test_bq001_use_after_release():
    assert snapshot("borrow q; release q; X[q];") == textwrap.dedent(
        """\
        error[BQ001]: register 'q' used after release
         --> <qbr>:1:24
          |
        1 | borrow q; release q; X[q];
          |                        ^ 'q' is no longer live here
          |
          = note: 'q' was released on line 1
          = help: move this use before the release, or drop the release"""
    )


def test_bq002_double_borrow():
    assert snapshot("borrow q;\nborrow q;") == textwrap.dedent(
        """\
        error[BQ002]: register 'q' is already declared and still live
         --> <qbr>:2:8
          |
        2 | borrow q;
          |        ^ redeclared here
          |
          = note: the first declaration of 'q' is on line 1
          = help: release 'q' before redeclaring it, or pick a fresh name"""
    )


def test_bq003_borrow_escapes_scope():
    source = (
        "borrow@ x;\n"
        "borrow b { within { CNOT[x, b]; } apply { } }\n"
        "X[b];"
    )
    assert snapshot(source) == textwrap.dedent(
        """\
        error[BQ003]: scoped borrow 'b' used after its block ended
         --> <qbr>:3:3
          |
        3 | X[b];
          |   ^ the borrow was already returned
          |
          = note: the borrow block for 'b' opened on line 2
          = help: move this gate inside the borrow block"""
    )


def test_bq004_apply_writes_frozen_wire():
    source = (
        "borrow@ x;\n"
        "borrow b {\n"
        "  within { CNOT[b, x]; }\n"
        "  apply  { X[x]; }\n"
        "}"
    )
    assert snapshot(source) == textwrap.dedent(
        """\
        error[BQ004]: apply-section writes to 'x', which the within-section touched
         --> <qbr>:4:14
          |
        4 |   apply  { X[x]; }
          |              ^ frozen by the borrow block
          |
          = note: every wire the within-section touches (and the borrowed wire itself) is restored when the block ends; an apply-section write would corrupt that restore
          = help: move this gate into the within-section, or target a wire the within-section leaves alone"""
    )


def test_bq005_use_while_lent():
    assert snapshot("borrow@ x;\nlend x { X[x]; }") == textwrap.dedent(
        """\
        error[BQ005]: register 'x' is lent out and cannot be used here
         --> <qbr>:2:12
          |
        2 | lend x { X[x]; }
          |            ^ owner access during a lend
          |
          = note: 'x' was lent on line 2
          = help: move this gate outside the lend block"""
    )


def test_bq006_lend_undeclared():
    assert snapshot("lend zz { }") == textwrap.dedent(
        """\
        error[BQ006]: cannot lend undeclared register 'zz'
         --> <qbr>:1:6
          |
        1 | lend zz { }
          |      ^^ no such register
          |
          = help: declare 'zz' before lending it"""
    )


def test_bq007_copy_qubit():
    # Guppy's ``copy_qubit``: the same qubit twice in one gate.
    assert snapshot("borrow@ x; CNOT[x, x];") == textwrap.dedent(
        """\
        error[BQ007]: gate operands 'x' and 'x' alias the same wire
         --> <qbr>:1:20
          |
        1 | borrow@ x; CNOT[x, x];
          |                    ^ same wire as an earlier operand
          |
          = note: a controlled gate needs pairwise-distinct wires; a qubit cannot be used twice in one gate
          = help: route one of the operands to a different wire"""
    )


def test_bq008_release_undeclared():
    assert snapshot("release zz;") == textwrap.dedent(
        """\
        error[BQ008]: release of undeclared register 'zz'
         --> <qbr>:1:9
          |
        1 | release zz;
          |         ^^ no such register
          |
          = help: declare 'zz' before releasing it"""
    )


def test_bq009_borrow_leaked():
    # Guppy's ``borrow_leaked``: a scoped borrow must be returned by its
    # block, never released by hand.
    source = (
        "borrow@ g;\n"
        "borrow b {\n"
        "  within { CNOT[g, b]; }\n"
        "  apply  { release b; }\n"
        "}"
    )
    assert snapshot(source) == textwrap.dedent(
        """\
        error[BQ009]: cannot release 'b': a scoped borrow must be returned by its block, not released
         --> <qbr>:4:20
          |
        4 |   apply  { release b; }
          |                    ^ borrow leaked here
          |
          = note: the borrow block for 'b' opened on line 2
          = help: remove this release; the block returns 'b' when it closes"""
    )


def test_bq010_dirty_read():
    source = (
        "borrow@ x; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; }\n"
        "  apply  { CCNOT[b, x, t]; }\n"
        "}"
    )
    assert snapshot(source) == textwrap.dedent(
        """\
        error[BQ010]: dirty read in the apply-section: 'b' is read together with 'x', which the within-section changes between the two phases
         --> <qbr>:4:18
          |
        4 |   apply  { CCNOT[b, x, t]; }
          |                  ^ unprovable read
          |
          = note: the apply-section runs before and after the uncompute; only a lone read of the borrowed wire (against otherwise phase-stable controls) makes the two copies cancel the dirty value
          = help: recompute the needed value onto a fresh alloc wire in the within-section, then control on that wire"""
    )


def test_bq011_apply_read_write_overlap():
    source = (
        "borrow@ x; alloc t1; alloc t2;\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; }\n"
        "  apply  { CNOT[b, t1]; CNOT[t1, t2]; }\n"
        "}"
    )
    report = report_for(source)
    # The offset taint smeared onto t1 also makes the second read dirty,
    # so BQ010 accompanies the overlap diagnostic.
    assert report.codes() == ["BQ010", "BQ011"]
    assert report.render().split("\n\n")[1] == textwrap.dedent(
        """\
        error[BQ011]: apply-section reads 't1', a wire it also writes
         --> <qbr>:4:30
          |
        4 |   apply  { CNOT[b, t1]; CNOT[t1, t2]; }
          |                              ^^ read/write overlap in the apply-section
          |
          = note: the apply-section runs twice (before and after the uncompute); a wire it writes has different values in the two runs
          = help: split the computation so no apply-section gate reads a wire another apply-section gate targets"""
    )


def test_bq012_no_net_effect_warning():
    source = (
        "borrow@ x; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; }\n"
        "  apply  { X[t]; }\n"
        "}"
    )
    report = report_for(source)
    assert report.codes() == ["BQ012"]
    # Warnings do not fail the check.
    assert report.ok
    assert report.render() == textwrap.dedent(
        """\
        warning[BQ012]: apply-section gate cancels with its mirror copy and has no net effect
         --> <qbr>:4:12
          |
        4 |   apply  { X[t]; }
          |            ^^^^ fires identically in both phases
          |
          = note: the apply-section is emitted twice; a gate that reads no borrowed or within-touched wire repeats itself and the two copies cancel
          = help: control the gate on the borrowed wire, or move it out of the borrow block"""
    )


# ---------------------------------------------------------------------------
# Further code-level behaviours (no full-text snapshot needed).
# ---------------------------------------------------------------------------


def test_bq001_use_after_move_in_gate_controls():
    report = report_for("borrow a; borrow b; release a; CNOT[a, b];")
    assert report.codes() == ["BQ001"]


def test_bq003_release_after_block():
    source = (
        "borrow@ x;\n"
        "borrow b { within { CNOT[x, b]; } apply { } }\n"
        "release b;"
    )
    assert report_for(source).codes() == ["BQ003"]


def test_bq005_release_while_lent_is_bq009():
    report = report_for("borrow@ x;\nlend x { release x; }")
    assert report.codes() == ["BQ009"]


def test_bq006_lend_released_register():
    report = report_for("borrow q; release q; lend q { }")
    assert report.codes() == ["BQ006"]


def test_bq008_double_release():
    report = report_for("borrow q; release q; release q;")
    assert report.codes() == ["BQ008"]


def test_bq010_two_tainted_controls():
    # Both controls carry the borrowed offset: the product is dirty.
    source = (
        "borrow@ x; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[b, x]; }\n"
        "  apply  { CCNOT[b, x, t]; }\n"
        "}"
    )
    assert "BQ010" in report_for(source).codes()


def test_bq010_offset_non_borrow_wire_read():
    # Reading an offset *within* wire leaks: phase 2 restores it to its
    # own initial value, not the borrowed one, so nothing cancels.
    source = (
        "borrow@ x; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[b, x]; }\n"
        "  apply  { CNOT[x, t]; }\n"
        "}"
    )
    assert "BQ010" in report_for(source).codes()


def test_bq010_names_the_apply_section_for_an_apply_write():
    # The apply-section's own CNOT[b, t1] mixed b into t1; the
    # within-section never touched t1.
    source = (
        "borrow@ x; alloc t1; alloc t2;\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; }\n"
        "  apply  { CNOT[b, t1]; CNOT[t1, t2]; }\n"
        "}"
    )
    report = report_for(source)
    assert report.codes() == ["BQ010", "BQ011"]
    assert report.diagnostics[0].message == (
        "dirty read in the apply-section: the apply-section mixed 'b' "
        "into 't1', which does not restore to the borrowed value"
    )


def test_bq010_names_the_outer_apply_section_in_a_nested_block():
    # The outer block's apply-section wrote t before the inner block
    # opened; the outer within-section never touched t.
    source = (
        "borrow@ x; alloc t; alloc u;\n"
        "borrow a {\n"
        "  within { CNOT[x, a]; }\n"
        "  apply {\n"
        "    CNOT[a, t];\n"
        "    borrow c {\n"
        "      within { CNOT[x, c]; }\n"
        "      apply  { CCNOT[c, t, u]; }\n"
        "    }\n"
        "  }\n"
        "}"
    )
    report = report_for(source)
    assert report.codes() == ["BQ010", "BQ011", "BQ011"]
    assert report.render().split("\n\n")[0] == textwrap.dedent(
        """\
        error[BQ010]: dirty read in the apply-section: the apply-section mixed 'a' into 't', which does not restore to the borrowed value
         --> <qbr>:8:25
          |
        8 |       apply  { CCNOT[c, t, u]; }
          |                         ^ unprovable read
          |
          = note: the apply-section runs before and after the uncompute; only a lone read of the borrowed wire (against otherwise phase-stable controls) makes the two copies cancel the dirty value
          = help: recompute the needed value onto a fresh alloc wire in the within-section, then control on that wire"""
    )


def test_bq010_names_the_within_section_for_a_within_write():
    source = (
        "borrow@ x; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[b, x]; }\n"
        "  apply  { CNOT[x, t]; }\n"
        "}"
    )
    (diagnostic,) = report_for(source).diagnostics
    assert diagnostic.message == (
        "dirty read in the apply-section: the within-section mixed 'b' "
        "into 'x', which does not restore to the borrowed value"
    )


def test_bq010_multi_wire_cross_offset():
    # A width-2 borrow has two independent unknowns: XOR-ing b[1] into
    # b[2] leaves b0_1 xor b0_2 on the wire, and reading it in the
    # apply-section leaks b0_1 into t (net effect t ^= b0_1).  The
    # per-origin taint must reject this — an identical-looking scalar
    # cancellation argument does not apply across origins.
    source = (
        "alloc t;\n"
        "borrow b[2] {\n"
        "  within { CNOT[b[1], b[2]]; }\n"
        "  apply  { CNOT[b[2], t]; }\n"
        "}"
    )
    report = report_for(source)
    assert report.codes() == ["BQ010"]
    assert "contaminated" in report.render()


def test_bq010_scrubbed_borrow_read():
    # The within-section XORs the borrow's own offset back out, leaving
    # the wire clean *after C* — but the mirror-phase firing still reads
    # the dirty initial value b0, with nothing left to cancel it.
    source = (
        "borrow@ o; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[b, t]; CNOT[t, b]; }\n"
        "  apply  { CNOT[b, o]; }\n"
        "}"
    )
    report = report_for(source)
    assert report.codes() == ["BQ010"]
    assert "the within-section rewrote 'b'" in report.render()


def test_bq010_foreign_offset_on_borrowed_wire():
    # Scrub b[2] clean, then mix b[1] into it: the wire now carries the
    # *other* wire's offset, which cannot cancel its own b0_2 in the
    # mirror phase.
    source = (
        "alloc t; alloc u;\n"
        "borrow b[2] {\n"
        "  within { CNOT[b[2], t]; CNOT[t, b[2]]; CNOT[b[1], b[2]]; }\n"
        "  apply  { CNOT[b[2], u]; }\n"
        "}"
    )
    report = report_for(source)
    assert "BQ010" in report.codes()
    assert "rewrote" in report.render()


def test_bq012_judged_against_innermost_block_only():
    # The gate's controls are phase-varying for the *outer* block (t is
    # outer-within-touched) but phase-stable for the inner block that
    # actually duplicates it — so the two inner copies cancel and the
    # warning must fire.
    source = (
        "borrow@ x; alloc t; alloc u;\n"
        "borrow a {\n"
        "  within { CNOT[x, t]; }\n"
        "  apply {\n"
        "    borrow c {\n"
        "      within { CNOT[x, c]; }\n"
        "      apply  { CNOT[t, u]; }\n"
        "    }\n"
        "  }\n"
        "}"
    )
    assert "BQ012" in report_for(source).codes()


# ---------------------------------------------------------------------------
# Collect-mode semantics: multi-error recovery and deduplication.
# ---------------------------------------------------------------------------


def test_collect_mode_accumulates_independent_errors():
    report = report_for("borrow q; release q; X[q];\nrelease zz;")
    assert report.codes() == ["BQ001", "BQ008"]
    assert not report.ok


def test_loop_unrolling_deduplicates_diagnostics():
    # The loop body elaborates four times but the diagnostic location is
    # identical, so the report holds a single entry.
    source = "borrow q; release q;\nfor i = 0 to 3 { X[q]; }"
    report = report_for(source)
    assert report.codes() == ["BQ001"]


def test_parse_errors_surface_as_parse_code():
    report = report_for("borrow q")
    assert report.codes() == ["PARSE"]
    assert not report.ok


def test_clean_program_has_empty_report():
    report = report_for("borrow@ a; borrow@ b; CNOT[a, b];")
    assert report.ok
    assert len(report) == 0
    assert report.render() == ""


def test_check_qbr_accepts_text_and_path(tmp_path):
    path = tmp_path / "prog.qbr"
    path.write_text("borrow q; release q; X[q];\n")
    from_path = check_qbr(str(path))
    from_text = check_qbr("borrow q; release q; X[q];")
    assert from_path.codes() == from_text.codes() == ["BQ001"]
    assert str(path) in from_path.render()


# ---------------------------------------------------------------------------
# Strict mode: elaborate() raises a rendered BorrowCheckError.
# ---------------------------------------------------------------------------


def test_strict_mode_raises_borrow_check_error():
    with pytest.raises(BorrowCheckError) as excinfo:
        elaborate("borrow q; release q; X[q];")
    err = excinfo.value
    assert err.code == "BQ001"
    assert err.line == 1
    assert "error[BQ001]" in str(err)
    assert "^ 'q' is no longer live here" in str(err)


def test_borrow_check_error_is_a_parse_error():
    # Existing callers catch ParseError; the checker must not break them.
    with pytest.raises(ParseError):
        elaborate("borrow@ x; CNOT[x, x];")


def test_warnings_do_not_raise_in_strict_mode():
    program = elaborate(
        "borrow@ x; alloc t;\n"
        "borrow b {\n"
        "  within { CNOT[x, b]; }\n"
        "  apply  { X[t]; }\n"
        "}"
    )
    assert program.diagnostics is not None
    assert program.diagnostics.codes() == ["BQ012"]


# ---------------------------------------------------------------------------
# Differential soundness: everything the checker proves, the Section 6
# solver must also certify.  The corpus deliberately mixes provable
# programs with unsafe ones (multi-wire registers, wire-mixing
# within-sections, scrubbed borrows) — for the unsafe entries the
# subset assertion is what catches a checker that wrongly "proves" a
# wire the solver rejects.
# ---------------------------------------------------------------------------

DIFFERENTIAL_CORPUS = [
    # Figure 1.3 CCCNOT — the canonical provable block.
    "borrow@ q1; borrow@ q2; borrow@ q3; alloc q4;\n"
    "borrow a {\n"
    "  within { CCNOT[q1, q2, a]; }\n"
    "  apply  { CCNOT[a, q3, q4]; }\n"
    "}",
    # Safe width-2 register: each wire offset-reads independently.
    "borrow@ x; alloc t[2];\n"
    "borrow b[2] {\n"
    "  within { CNOT[x, b[1]]; CNOT[x, b[2]]; }\n"
    "  apply  { CNOT[b[1], t[1]]; CNOT[b[2], t[2]]; }\n"
    "}",
    # Wire-mixing within, but the apply reads the *unmixed* wire (safe:
    # the mix restores and b[1] still carries its own offset).
    "alloc t;\n"
    "borrow b[2] {\n"
    "  within { CNOT[b[1], b[2]]; }\n"
    "  apply  { CNOT[b[1], t]; }\n"
    "}",
    # UNSAFE: the mix leaves b0_1 xor b0_2 on b[2]; reading it nets
    # t ^= b0_1.
    "alloc t;\n"
    "borrow b[2] {\n"
    "  within { CNOT[b[1], b[2]]; }\n"
    "  apply  { CNOT[b[2], t]; }\n"
    "}",
    # UNSAFE: scrubbed borrow — clean after C, but the mirror phase
    # reads b0 with nothing to cancel it.
    "borrow@ o; alloc t;\n"
    "borrow b {\n"
    "  within { CNOT[b, t]; CNOT[t, b]; }\n"
    "  apply  { CNOT[b, o]; }\n"
    "}",
    # UNSAFE: borrowed wire rewritten to the *other* wire's offset.
    "alloc t; alloc u;\n"
    "borrow b[2] {\n"
    "  within { CNOT[b[2], t]; CNOT[t, b[2]]; CNOT[b[1], b[2]]; }\n"
    "  apply  { CNOT[b[2], u]; }\n"
    "}",
    # Nested blocks, both provable.
    "borrow@ q1; borrow@ q2; borrow@ q3; alloc out;\n"
    "borrow a {\n"
    "  within {\n"
    "    borrow c {\n"
    "      within { CNOT[q1, c]; }\n"
    "      apply  { CCNOT[c, q2, a]; }\n"
    "    }\n"
    "  }\n"
    "  apply { CCNOT[a, q3, out]; }\n"
    "}",
]


@pytest.mark.parametrize("source", DIFFERENTIAL_CORPUS)
def test_proven_wires_are_solver_safe(source):
    program = elaborate(source, strict=False)
    report = verify_qbr(program, trust_checker=False)
    verdicts = {v.qubit: v.safe for v in report.verdicts}
    for wire in program.proven_wires:
        assert verdicts[wire] is True, (
            f"checker proved wire {wire} but the solver rejects it:\n"
            f"{program.diagnostics.render()}"
        )


def test_unsafe_corpus_entries_prove_nothing():
    # The unsafe differential entries must fail the checker outright —
    # no wire may ride a certification into the solver-skip path.
    for source in DIFFERENTIAL_CORPUS:
        program = elaborate(source, strict=False)
        report = verify_qbr(program, trust_checker=False)
        unsafe = {v.qubit for v in report.verdicts if not v.safe}
        assert not (unsafe & set(program.proven_wires))
        if unsafe:
            assert not program.diagnostics.ok


# ---------------------------------------------------------------------------
# Diagnostics plumbing.
# ---------------------------------------------------------------------------


def test_every_documented_code_is_exercised_here():
    import pathlib

    text = pathlib.Path(__file__).read_text()
    for code in CODES:
        assert code in text, f"{code} has no corpus entry"


def test_diagnostic_render_without_notes_has_no_trailing_bar():
    diag = Diagnostic(
        code="BQ001",
        message="boom",
        span=Span(line=1, column=1, length=2),
        label="here",
    )
    rendered = diag.render("XY q;")
    assert rendered == textwrap.dedent(
        """\
        error[BQ001]: boom
         --> <qbr>:1:1
          |
        1 | XY q;
          | ^^ here"""
    )


def test_report_renders_blocks_separated_by_blank_lines():
    report = DiagnosticReport(source="release a;\nrelease b;")
    report.add(
        Diagnostic(
            code="BQ008",
            message="first",
            span=Span(line=1, column=9, length=1),
        )
    )
    report.add(
        Diagnostic(
            code="BQ008",
            message="second",
            span=Span(line=2, column=9, length=1),
        )
    )
    assert report.render().count("\n\n") == 1
    assert len(report) == 2
