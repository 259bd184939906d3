"""Static borrow checker for the QBorrow surface language.

The checker tracks *register ownership states* — ``owned``, ``lent``,
``borrowed`` (a scoped ``borrow ... { within {...} apply {...} }`` block
is open), ``released``, and ``consumed`` (the block ended and returned
the qubit) — plus a per-block *wire taint lattice*, as the elaborator
walks the program.  It is a purely static, compile-time pass: no solver
runs, no simulation.  Loops are unrolled and registers resolved to
concrete wires first, so ``q[1]`` and ``q[i]`` are compared as wires,
not as names.

Why the taint lattice proves the paper's contract
-------------------------------------------------

A scoped borrow block elaborates to the double conjugation
``C; D; reverse(C); D`` (every surface gate is self-inverse, so
``reverse(C)`` *is* ``C``:sup:`-1`).  Call the borrowed wire's unknown
initial value ``b0``.  The paper's safety contract (Section 6) demands

* (6.1) the borrowed wire ends bit-identical to ``b0`` for all inputs;
* (6.2) every other output is independent of ``b0``.

``reverse(C)`` gives (6.1) as long as the apply-section never writes a
wire the within-section touched (rule **BQ004**).  For (6.2) each
apply-section gate fires twice — once after ``C`` and once after
``reverse(C)`` — so its net effect is ``P1 xor P2``, the XOR of its
control products in the two phases.  The lattice tracks, per open block,
what each wire's value may contain:

* ``clean`` — no ``b0`` dependence (the default);
* ``('offset', w)`` — exactly ``b0_w xor f`` for some ``b0``-free
  ``f``, where ``w`` is the borrowed wire the offset originated from
  (a multi-wire borrow has one unknown per wire, so origins matter:
  ``b0_1 xor b0_2`` cancels nothing and is *dirty*, not clean);
* ``dirty`` — any other ``b0`` dependence.

A gate whose only tainted control is a single borrowed wire still
carrying **its own** offset (``taint[w] == ('offset', w)``), with every
other control untouched by the within-section, has
``P1 xor P2 = (b0_w xor f)·h xor b0_w·h = f·h`` — the ``b0_w`` terms
cancel and the gate contributes a useful, provably-clean effect (this
is exactly the Figure 1.3 CCCNOT construction).  Every other read of a
borrowed or tainted wire leaks some ``b0`` into an output and is
rejected (**BQ010**) — including a borrowed wire the within-section
rewrote to a clean or foreign-offset value, because its mirror-phase
read still sees ``b0_w`` with nothing left to cancel it.  A wire both
read and written by the apply-section breaks the phase pairing
(**BQ011**); and a gate with no phase-varying control at all cancels
with its mirror copy, which is reported as the warning **BQ012**.

Blocks that finish without an error are *proven*: the emitted circuit
satisfies (6.1) and (6.2) for the borrowed wires by construction, and
elaboration records them in ``ElaboratedProgram.proven_wires`` so the
``verified`` allocation strategy and ``MultiProgrammer`` can skip the
solver obligations the checker already discharged.

Entry points
------------

:func:`check_program` / :func:`check_qbr` run in *collect* mode and
return every diagnostic as a :class:`~repro.lang.diagnostics.DiagnosticReport`;
:func:`repro.lang.surface.elaborate.elaborate` runs the same checker in
*strict* mode, raising :class:`~repro.lang.diagnostics.BorrowCheckError`
at the first violation.  :func:`qbr_path` tells a file name from program
text and :func:`read_qbr` reads a file, for every ``.qbr`` reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.errors import ParseError
from repro.lang.diagnostics import (
    BorrowCheckError,
    Diagnostic,
    DiagnosticReport,
    Span,
)

# Register ownership states ------------------------------------------------- #

#: The program owns the register and may use it freely.
OWNED = "owned"
#: A ``lend`` block is open: the owner must stay away from the register.
LENT = "lent"
#: A scoped ``borrow ... { ... }`` block is currently open.
BORROWED = "borrowed"
#: ``release`` ran; the register name may be redeclared but not used.
RELEASED = "released"
#: A scoped borrow block ended; the qubit went back to its owner.
CONSUMED = "consumed"
#: States in which a gate may not name the register (BQ001/BQ003/BQ005).
_UNUSABLE = frozenset({RELEASED, CONSUMED, LENT})

# Wire taint states (per open borrow block) --------------------------------- #
#
# An offset is represented as the tuple ``(_OFFSET, origin_wire)`` so a
# multi-wire borrow keeps its per-wire unknowns apart: XOR-ing offsets
# of *different* origins leaves ``b0_a xor b0_b`` in the value, which is
# dirty, not clean.

_CLEAN = "clean"
_OFFSET = "offset"
_DIRTY = "dirty"


def _offset(wire: int) -> Tuple[str, int]:
    """The taint value ``b0_wire xor f`` (``f`` free of every ``b0``)."""
    return (_OFFSET, wire)


def _is_offset(state: object) -> bool:
    """True when ``state`` is an ``(offset, origin)`` taint value."""
    return isinstance(state, tuple)


class GateOperand(NamedTuple):
    """One resolved gate operand, as diagnostics and apply-phase records
    hold it."""

    reg: str  #: register name as written
    wire: int  #: concrete circuit wire
    span: Span  #: source extent of the operand
    subscript: Optional[int] = None  #: 1-based index; None for bare ``q``

    @property
    def text(self) -> str:
        """Display form, e.g. ``q`` or ``q[2]``; only diagnostics read it."""
        if self.subscript is None:
            return self.reg
        return f"{self.reg}[{self.subscript}]"


def _operands(
    regs: Sequence[str],
    wires: Sequence[int],
    spans: Sequence[Span],
    subscripts: Sequence[Optional[int]],
) -> Tuple[GateOperand, ...]:
    """One gate's operand records, in operand order."""
    return tuple(map(GateOperand, regs, wires, spans, subscripts))


@dataclass
class _RegRecord:
    """Ownership bookkeeping for one declared register."""

    name: str
    wires: Tuple[int, ...]
    kind: str
    state: str = OWNED
    decl_line: int = 0
    event_line: int = 0  # line of the release/lend/borrow that set `state`


@dataclass
class _Frame:
    """One open scoped borrow block."""

    name: str
    wires: frozenset
    span: Span
    in_apply: bool = False
    # The block's own mirror emission (reverse(C); D) is running: taint
    # bookkeeping continues but the apply-phase rules don't re-fire.
    in_mirror: bool = False
    touched: Set[int] = field(default_factory=set)
    frozen: frozenset = frozenset()
    # Wire -> _CLEAN | _DIRTY | (_OFFSET, origin_wire).
    taint: Dict[int, object] = field(default_factory=dict)
    # Apply-section gates: (control operands, target operand).
    records: List[Tuple[Tuple[GateOperand, ...], GateOperand]] = field(
        default_factory=list
    )
    writes: Set[int] = field(default_factory=set)
    failed: bool = False


def _product_state(states: Sequence[object]) -> object:
    """Taint of a gate's control product under one block's lattice."""
    if not states or all(s == _CLEAN for s in states):
        return _CLEAN
    if len(states) == 1 and _is_offset(states[0]):
        return states[0]
    return _DIRTY


def _xor_state(current: object, product: object) -> object:
    """Taint of ``target xor product`` under one block's lattice."""
    if product == _CLEAN:
        return current
    if product == _DIRTY or current == _DIRTY:
        return _DIRTY
    # product is an offset: only the *same-origin* b0 cancels.  An XOR
    # of offsets from different borrowed wires leaves b0_a xor b0_b in
    # the value, which no later cancellation argument can remove.
    if current == _CLEAN:
        return product
    return _CLEAN if current == product else _DIRTY


class BorrowChecker:
    """Elaborator-driven ownership and taint tracker.

    One instance checks one program.  The elaborator calls the lifecycle
    hooks (:meth:`declare`, :meth:`release`, :meth:`enter_borrow`, ...)
    as it walks statements; every violation becomes a
    :class:`~repro.lang.diagnostics.Diagnostic` in :attr:`report`.  In
    strict mode the first error-severity diagnostic raises
    :class:`~repro.lang.diagnostics.BorrowCheckError`.
    """

    def __init__(self, report: DiagnosticReport, strict: bool = True):
        self.report = report
        self.strict = strict
        self.registers: Dict[str, _RegRecord] = {}
        self.frames: List[_Frame] = []
        # Loop bodies elaborate once per iteration and mirrored sections
        # re-run their gates, so the same source span can be checked many
        # times; each (code, position) pair is reported once.
        self._seen: Set[Tuple[str, int, int]] = set()

    # Reporting ---------------------------------------------------------- #

    def emit(
        self,
        code: str,
        message: str,
        span: Span,
        label: str = "",
        notes: Sequence[str] = (),
        hints: Sequence[str] = (),
        severity: str = "error",
    ) -> None:
        """Record one finding (deduplicated by code and position)."""
        key = (code, span.line, span.column)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.add(
            Diagnostic(
                code=code,
                message=message,
                span=span,
                label=label,
                notes=tuple(notes),
                hints=tuple(hints),
                severity=severity,
            )
        )
        if severity == "error":
            for frame in self.frames:
                frame.failed = True
            if self.strict:
                raise BorrowCheckError(self.report)

    # Lifecycle hooks ----------------------------------------------------- #

    def declare(
        self, name: str, wires: Sequence[int], kind: str, span: Span
    ) -> bool:
        """Register a declaration; False means skip it (BQ002)."""
        record = self.registers.get(name)
        if record is not None and record.state in (OWNED, LENT, BORROWED):
            self.emit(
                "BQ002",
                f"register '{name}' is already declared and still live",
                span,
                label="redeclared here",
                notes=(
                    f"the first declaration of '{name}' is on line "
                    f"{record.decl_line}",
                ),
                hints=(
                    f"release '{name}' before redeclaring it, or pick a "
                    f"fresh name",
                ),
            )
            return False
        self.registers[name] = _RegRecord(
            name=name,
            wires=tuple(wires),
            kind=kind,
            decl_line=span.line,
        )
        return True

    def release(self, name: str, span: Span) -> bool:
        """Validate a ``release``; False means skip it."""
        record = self.registers.get(name)
        if record is None:
            self.emit(
                "BQ008",
                f"release of undeclared register '{name}'",
                span,
                label="no such register",
                hints=(f"declare '{name}' before releasing it",),
            )
            return False
        if record.state == RELEASED:
            self.emit(
                "BQ008",
                f"register '{name}' released twice",
                span,
                label="second release",
                notes=(f"'{name}' was first released on line "
                       f"{record.event_line}",),
                hints=("drop one of the releases",),
            )
            return False
        if record.state == CONSUMED:
            self.emit(
                "BQ003",
                f"scoped borrow '{name}' referenced after its block ended",
                span,
                label="the borrow was already returned",
                notes=(f"the borrow block for '{name}' opened on line "
                       f"{record.decl_line}",),
                hints=("a scoped borrow returns itself; no release is "
                       "needed",),
            )
            return False
        if record.state == BORROWED:
            self.emit(
                "BQ009",
                f"cannot release '{name}': a scoped borrow must be "
                f"returned by its block, not released",
                span,
                label="borrow leaked here",
                notes=(f"the borrow block for '{name}' opened on line "
                       f"{record.decl_line}",),
                hints=(f"remove this release; the block returns '{name}' "
                       f"when it closes",),
            )
            return False
        if record.state == LENT:
            self.emit(
                "BQ009",
                f"cannot release '{name}' while it is lent out",
                span,
                label="released during a lend",
                notes=(f"'{name}' was lent on line {record.event_line}",),
                hints=("move the release after the lend block",),
            )
            return False
        record.state = RELEASED
        record.event_line = span.line
        return True

    def enter_borrow(
        self, name: str, wires: Sequence[int], span: Span
    ) -> _Frame:
        """Open a scoped borrow block for an already-declared register."""
        record = self.registers.get(name)
        if record is not None:
            record.state = BORROWED
            record.event_line = span.line
        frame = _Frame(name=name, wires=frozenset(wires), span=span)
        for wire in wires:
            # Each borrowed wire starts as its *own* offset: a width-N
            # borrow has N independent unknowns, and only same-origin
            # XORs cancel.
            frame.taint[wire] = _offset(wire)
        self.frames.append(frame)
        return frame

    def begin_apply(self, frame: _Frame) -> None:
        """Freeze the within-section's touched set and enter the apply phase."""
        frame.in_apply = True
        frame.frozen = frozenset(frame.touched | frame.wires)

    def begin_mirror(self, frame: _Frame) -> None:
        """Enter the block's mirror emission (``reverse(C); D``)."""
        frame.in_mirror = True

    def end_borrow(self, frame: _Frame) -> bool:
        """Close a block; True when its borrowed wires are proven safe."""
        # Post-hoc BQ011: the apply-section may not read a wire it also
        # writes — the written value differs between the two phases, so
        # the second copy of the reader sees a different input and the
        # b0 cancellation argument no longer applies.
        for controls, target in frame.records:
            for control in controls:
                if control.wire in frame.writes:
                    self.emit(
                        "BQ011",
                        f"apply-section reads '{control.text}', a wire "
                        f"it also writes",
                        control.span,
                        label="read/write overlap in the apply-section",
                        notes=(
                            "the apply-section runs twice (before and "
                            "after the uncompute); a wire it writes has "
                            "different values in the two runs",
                        ),
                        hints=(
                            "split the computation so no apply-section "
                            "gate reads a wire another apply-section "
                            "gate targets",
                        ),
                    )
        popped = self.frames.pop()
        assert popped is frame
        record = self.registers.get(frame.name)
        if record is not None and record.state == BORROWED:
            record.state = CONSUMED
        return not frame.failed

    def enter_lend(self, name: str, span: Span) -> bool:
        """Open a ``lend`` block; False means the lend is invalid."""
        record = self.registers.get(name)
        if record is None:
            self.emit(
                "BQ006",
                f"cannot lend undeclared register '{name}'",
                span,
                label="no such register",
                hints=(f"declare '{name}' before lending it",),
            )
            return False
        if record.state != OWNED:
            reason = {
                LENT: "it is already lent out",
                BORROWED: "it is a scoped borrow, not an owned register",
                RELEASED: "it was already released",
                CONSUMED: "its borrow block already ended",
            }[record.state]
            self.emit(
                "BQ006",
                f"cannot lend '{name}': {reason}",
                span,
                label="invalid lend",
                notes=(f"'{name}' changed state on line "
                       f"{record.event_line or record.decl_line}",),
                hints=("only an owned, live register can be lent",),
            )
            return False
        record.state = LENT
        record.event_line = span.line
        return True

    def exit_lend(self, name: str) -> None:
        """Close a ``lend`` block and return the register to its owner."""
        record = self.registers.get(name)
        if record is not None and record.state == LENT:
            record.state = OWNED

    # Gate hook ----------------------------------------------------------- #

    def gate(
        self,
        regs: Sequence[str],
        spans: Sequence[Span],
        wires: Sequence[int],
        subscripts: Sequence[Optional[int]],
        span: Span,
        mirrored_from: Optional[int] = None,
    ) -> bool:
        """Check one gate; False means the elaborator must skip emission.

        A gate arrives as its statement's static part (each operand's
        register name and source span, and the statement's ``span``)
        plus this execution's ``wires`` and ``subscripts`` (the 1-based
        index of each operand, None for a bare register).  The rules run
        on names and wires; :class:`GateOperand` records are built only
        for a diagnostic that quotes an operand, or for a gate that an
        open block's apply phase checks and records.

        ``mirrored_from`` marks a gate re-emitted by a borrow block's
        mirror phases (``reverse(C); D``) and carries the block's line
        number for the note.
        """
        # Ownership of every operand's register.  Mirrored gates are
        # compiler-generated restore machinery: their operands were
        # checked at first emission, and a nested block legitimately
        # replays gates of registers it has since consumed.
        if mirrored_from is None:
            registers = self.registers
            for index, reg in enumerate(regs):
                record = registers.get(reg)
                # Unknown registers fail resolution earlier.
                if record is not None and record.state in _UNUSABLE:
                    self._misuse(
                        record,
                        GateOperand(
                            reg, wires[index], spans[index], subscripts[index]
                        ),
                    )

        # Aliased operands (the Guppy copy_qubit class): a multi-qubit
        # gate needs distinct wires.
        if len(set(wires)) < len(wires):
            self._aliased(_operands(regs, wires, spans, subscripts))
            return False
        frames = self.frames
        if not frames:
            # Every rule below loops over the open borrow blocks only.
            return True

        controls, target = wires[:-1], wires[-1]
        # Apply-phase rules, per open block currently in its apply phase
        # (a block's own mirror emission is exempt: it re-plays gates the
        # phase rules already admitted).
        apply_frames = [f for f in frames if f.in_apply and not f.in_mirror]
        if apply_frames:
            operands = _operands(regs, wires, spans, subscripts)
            control_ops, target_op = operands[:-1], operands[-1]
            mirror_note = (
                f"in the mirrored copy emitted by the borrow block on line "
                f"{mirrored_from}"
                if mirrored_from is not None
                else None
            )
            erred = False
            for frame in apply_frames:
                if self._check_apply_gate(
                    frame, control_ops, target_op, mirror_note
                ):
                    erred = True

            # BQ012 (warning): a gate whose controls are all
            # phase-invariant for its *innermost* apply phase fires
            # identically in both copies of that block and cancels
            # itself out.  Outer frames don't enter into it: the
            # innermost mirror is what duplicates the gate, so the
            # innermost frame decides whether the copies differ.
            innermost = apply_frames[-1]
            if mirrored_from is None and not erred and not any(
                wire in innermost.frozen
                or innermost.taint.get(wire, _CLEAN) != _CLEAN
                for wire in controls
            ):
                self.emit(
                    "BQ012",
                    "apply-section gate cancels with its mirror copy and "
                    "has no net effect",
                    span,
                    label="fires identically in both phases",
                    notes=("the apply-section is emitted twice; a gate "
                           "that reads no borrowed or within-touched "
                           "wire repeats itself and the two copies "
                           "cancel",),
                    hints=("control the gate on the borrowed wire, or "
                           "move it out of the borrow block",),
                    severity="warning",
                )
            for frame in apply_frames:
                frame.records.append((control_ops, target_op))
                frame.writes.add(target)

        # Taint propagation, per open block (any phase).
        for frame in frames:
            taint = frame.taint
            product = _product_state([taint.get(w, _CLEAN) for w in controls])
            if product != _CLEAN:
                new = _xor_state(taint.get(target, _CLEAN), product)
                if new == _CLEAN:
                    taint.pop(target, None)
                else:
                    taint[target] = new
            if not frame.in_apply:
                frame.touched.update(wires)
        return True

    def _misuse(self, record: _RegRecord, op: GateOperand) -> None:
        """BQ001/BQ003/BQ005: a gate names a register it may not use."""
        if record.state == RELEASED:
            self.emit(
                "BQ001",
                f"register '{op.reg}' used after release",
                op.span,
                label=f"'{op.reg}' is no longer live here",
                notes=(f"'{op.reg}' was released on line "
                       f"{record.event_line}",),
                hints=("move this use before the release, or drop "
                       "the release",),
            )
        elif record.state == CONSUMED:
            self.emit(
                "BQ003",
                f"scoped borrow '{op.reg}' used after its block ended",
                op.span,
                label="the borrow was already returned",
                notes=(f"the borrow block for '{op.reg}' opened on "
                       f"line {record.decl_line}",),
                hints=("move this gate inside the borrow block",),
            )
        else:
            self.emit(
                "BQ005",
                f"register '{op.reg}' is lent out and cannot be "
                f"used here",
                op.span,
                label="owner access during a lend",
                notes=(f"'{op.reg}' was lent on line "
                       f"{record.event_line}",),
                hints=("move this gate outside the lend block",),
            )

    def _aliased(self, operands: Tuple[GateOperand, ...]) -> None:
        """BQ007 for every operand that repeats an earlier one's wire."""
        seen_wires: Dict[int, GateOperand] = {}
        for op in operands:
            first = seen_wires.get(op.wire)
            if first is None:
                seen_wires[op.wire] = op
                continue
            self.emit(
                "BQ007",
                f"gate operands '{first.text}' and '{op.text}' alias "
                f"the same wire",
                op.span,
                label="same wire as an earlier operand",
                notes=("a controlled gate needs pairwise-distinct "
                       "wires; a qubit cannot be used twice in one "
                       "gate",),
                hints=("route one of the operands to a different "
                       "wire",),
            )

    def _check_apply_gate(
        self,
        frame: _Frame,
        controls: Tuple[GateOperand, ...],
        target: GateOperand,
        mirror_note: Optional[str],
    ) -> bool:
        """BQ004/BQ010 rules for one gate inside ``frame``'s apply phase.

        Returns True when the gate violated a rule (so the caller skips
        the BQ012 no-effect warning for it).  Diagnostics anchor on
        operand spans.
        """
        if target.wire in frame.frozen:
            what = (
                f"the borrowed wire '{target.text}'"
                if target.wire in frame.wires
                else f"'{target.text}', which the within-section touched"
            )
            self.emit(
                "BQ004",
                f"apply-section writes to {what}",
                target.span,
                label="frozen by the borrow block",
                notes=tuple(
                    n
                    for n in (
                        "every wire the within-section touches (and the "
                        "borrowed wire itself) is restored when the "
                        "block ends; an apply-section write would "
                        "corrupt that restore",
                        mirror_note,
                    )
                    if n
                ),
                hints=("move this gate into the within-section, or "
                       "target a wire the within-section leaves alone",),
            )
            return True

        # A borrowed wire is always phase-sensitive: the mirror-phase
        # firing reads its dirty initial value b0_w no matter what taint
        # the within-section left on it, so it belongs in ``tainted``
        # even when its post-C taint is clean.
        tainted = [
            op
            for op in controls
            if frame.taint.get(op.wire, _CLEAN) != _CLEAN
            or op.wire in frame.wires
        ]
        if not tainted:
            return False
        # The one provable shape: a lone read of a borrowed wire still
        # carrying its *own* offset (so the two phases differ by exactly
        # b0_w and cancel), with every other control phase-stable.
        usable = (
            len(tainted) == 1
            and tainted[0].wire in frame.wires
            and frame.taint.get(tainted[0].wire) == _offset(tainted[0].wire)
            and not any(
                op.wire in frame.frozen
                for op in controls
                if op is not tainted[0]
            )
        )
        if usable:
            return False
        if len(tainted) > 1:
            culprit = tainted[1]
            detail = (
                "a single apply-section gate may read at most one "
                "borrowed wire"
            )
        else:
            culprit = tainted[0]
            state = frame.taint.get(culprit.wire, _CLEAN)
            if state == _DIRTY:
                detail = (
                    f"'{culprit.text}' carries a value contaminated by "
                    f"the dirty initial state of '{frame.name}'"
                )
            elif culprit.wire not in frame.wires:
                # Only the section that wrote the culprit can have
                # mixed the offset into it.
                section = (
                    "apply"
                    if culprit.wire in frame.writes
                    and culprit.wire not in frame.touched
                    else "within"
                )
                detail = (
                    f"the {section}-section mixed '{frame.name}' into "
                    f"'{culprit.text}', which does not restore to the "
                    f"borrowed value"
                )
            elif state != _offset(culprit.wire):
                detail = (
                    f"the within-section rewrote '{culprit.text}', so "
                    f"the mirror-phase read of its dirty initial value "
                    f"has nothing to cancel against"
                )
            else:
                mixed = [
                    op
                    for op in controls
                    if op is not culprit and op.wire in frame.frozen
                ]
                detail = (
                    f"'{culprit.text}' is read together with "
                    f"'{mixed[0].text}', which the within-section "
                    f"changes between the two phases"
                )
        self.emit(
            "BQ010",
            f"dirty read in the apply-section: {detail}",
            culprit.span,
            label="unprovable read",
            notes=tuple(
                n
                for n in (
                    "the apply-section runs before and after the "
                    "uncompute; only a lone read of the borrowed wire "
                    "(against otherwise phase-stable controls) makes "
                    "the two copies cancel the dirty value",
                    mirror_note,
                )
                if n
            ),
            hints=("recompute the needed value onto a fresh alloc wire "
                   "in the within-section, then control on that wire",),
        )
        return True


# Entry points --------------------------------------------------------------- #


def check_program(source: str, filename: str = "<qbr>") -> DiagnosticReport:
    """Borrow-check ``.qbr`` source in collect mode.

    Elaborates the program with the checker attached and accumulates
    every ownership diagnostic instead of stopping at the first one.  A
    grammar-level failure (a true parse error, an out-of-range index)
    still aborts elaboration; it is surfaced as a single ``PARSE``
    diagnostic so callers always get a report back.

    >>> report = check_program("borrow q; release q; X[q];")
    >>> report.codes()
    ['BQ001']
    """
    # Imported here to avoid a cycle: the elaborator imports this module.
    from repro.lang.surface.elaborate import elaborate

    report = DiagnosticReport(source=source, filename=filename)
    try:
        elaborate(source, strict=False, report=report)
    except BorrowCheckError:  # pragma: no cover - collect mode never raises
        pass
    except ParseError as err:
        _add_parse_error(report, err)
    return report


def _add_parse_error(report: DiagnosticReport, err: ParseError) -> None:
    """Record a failure that stopped the program being read as ``PARSE``."""
    report.add(
        Diagnostic(
            code="PARSE",
            message=str(err),
            span=Span(err.line or 1, err.column or 1),
        )
    )


def check_qbr(
    source: Union[str, Path], filename: Optional[str] = None
) -> DiagnosticReport:
    """Borrow-check ``.qbr`` text or a ``.qbr`` file from disk.

    Accepts the same source forms as
    :func:`repro.lang.surface.elaborate.verify_qbr`; :func:`qbr_path`
    tells a file name from program text.  A file that is not UTF-8
    gives a report with one ``PARSE`` diagnostic at the bad byte.
    """
    path = qbr_path(source)
    if path is None:
        return check_program(source, filename or "<qbr>")
    filename = filename or str(path)
    try:
        text = read_qbr(path)
    except ParseError as err:
        lossy = path.read_bytes().decode("utf-8", errors="replace")
        report = DiagnosticReport(source=lossy, filename=filename)
        _add_parse_error(report, err)
        return report
    return check_program(text, filename)


def qbr_path(source: Union[str, Path]) -> Optional[Path]:
    """The file ``source`` names, or None when it is program text.

    A :class:`~pathlib.Path` always names a file.  A string does only
    when it ends in ``.qbr`` and holds no newline and no ``;``, so text
    that merely mentions a file (``borrow a; X[a]; // from adder.qbr``)
    is parsed, never opened.
    """
    if isinstance(source, Path):
        return source
    if "\n" in source or ";" in source or not source.strip().endswith(".qbr"):
        return None
    return Path(source)


def read_qbr(path: Union[str, Path]) -> str:
    """The text of a ``.qbr`` file: UTF-8, with ``\\r\\n`` and ``\\r``
    read as ``\\n``.

    A byte that is not UTF-8 raises :class:`ParseError` at its line and
    column (counted in characters, as the lexer counts them), so a bad
    file fails like bad text does.
    """
    data = Path(path).read_bytes()
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        before = _newlines(data[: err.start].decode("utf-8"))
        raise ParseError(
            f"byte 0x{data[err.start]:02X} is not UTF-8",
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
        ) from None


def _newlines(text: str) -> str:
    """``text`` with every line break as ``\\n`` (universal newlines)."""
    return text.replace("\r\n", "\n").replace("\r", "\n")
