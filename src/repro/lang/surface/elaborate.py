"""Elaboration of ``.qbr`` surface programs to circuits with qubit roles.

Evaluates ``let`` bindings and loop variables, allocates register wires
in declaration order, drives the static borrow checker
(:mod:`repro.lang.borrowck`) over every statement, and produces an
:class:`ElaboratedProgram`.  Expressions compile into ``env -> int``
closures; one affine in at most one variable, as nearly every gate
index is (``2 * i + 1``), is one ``scale * x + offset`` kernel.  A gate
statement compiles into a plan on its first execution: its IR gate
name (``CNOT`` is ``CX``, arity checked once), its span and one tuple
of its operands' register names, spans and compiled indices.  Every
later loop iteration walks that tuple once, hands the checker the
plan's names and spans with this iteration's wires and subscripts, and
emits the elaboration's one ``Gate(plan.name, wires)`` for that name
and those wires, built the first time they occur; nothing is cached
across elaborations.  Wires come only from register declarations, so
the gates join the circuit without a second range check.  The result
holds:

* the flat classical :class:`~repro.circuits.Circuit`;
* ``dirty_wires`` — qubits declared with ``borrow`` (verified) or by a
  scoped ``borrow ... { within {...} apply {...} }`` block;
* ``input_wires`` — qubits declared with ``borrow@`` (assumption-free
  inputs whose verification the paper's benchmarks skip);
* ``clean_wires`` — qubits declared with ``alloc``;
* ``proven_wires`` — the subset of ``dirty_wires`` whose safety the
  borrow checker proved statically (scoped blocks that checked clean);
* ``lend_windows`` — gate-index ranges of each ``lend x {...}`` block.

A scoped borrow block elaborates to the double conjugation
``C; D; reverse(C); D`` (every surface gate is self-inverse, so
``reverse(C)`` is its own inverse emission); see
:mod:`repro.lang.borrowck` for why the checker's rules make that
emission satisfy the paper's (6.1)/(6.2) contract by construction.

``for A to B`` iterates from A to B *inclusive, in either direction* —
the descending loops of ``adder.qbr``/``mcx.qbr`` rely on this.  Loop
iterations run plus gates emitted may not pass
:data:`~repro.circuits.circuit.MAX_GATES`; a loop or borrow block that
would is refused with a :class:`ParseError` at its statement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.circuits.circuit import MAX_GATES, MAX_WIRES, Circuit
from repro.circuits.gates import Gate, gate_from_name
from repro.errors import ParseError
from repro.lang.borrowck import BorrowChecker, qbr_path, read_qbr
from repro.lang.diagnostics import DiagnosticReport, Span
from repro.lang.surface.parser import (
    BinOp,
    BorrowBlock,
    DeclStmt,
    ExprNode,
    ForStmt,
    GateStmt,
    LendBlock,
    LetStmt,
    Name,
    Neg,
    Num,
    Program,
    RegRef,
    ReleaseStmt,
    iter_statements,
)
from repro.verify.batch import BatchVerifier, VerificationJob
from repro.verify.report import VerificationReport

#: A compiled expression: variable bindings in, integer value out.
_Evaluator = Callable[[Dict[str, int]], int]

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}

#: An emitted gate's plan, wires and subscripts (None for a bare
#: register), kept for the borrow-block mirror replay.
_GateMeta = Tuple["_GatePlan", Tuple[int, ...], List[Optional[int]]]


def _undefined(var: Name) -> ParseError:
    """The error for reading ``var`` while it is unbound."""
    return ParseError(f"undefined variable {var.ident!r}", var.line, var.column)


def _shown(value: int) -> str:
    """``value`` for an error message.  A short product chain computes
    an int that ``str`` refuses (past the interpreter's int-string
    limit), and the message must still be built."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit number>"


def _affine(node: ExprNode) -> Optional[Tuple[int, Optional[Name], int]]:
    """``node`` as ``(scale, x, offset)``, the value ``scale * x + offset``.

    ``x`` is the first occurrence, in source order, of the one variable
    the tree names, or None when it names none (then ``scale`` is 0).
    Returns None when the tree names two distinct variables or
    multiplies two terms that both name one.  A folded coefficient may
    be 0 (``0 * k``, ``k - k``): ``x`` stays, so its lookup still runs.
    The left spine is walked in a loop, as in :func:`_compile`.
    """
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    if isinstance(node, Num):
        scale, var, offset = 0, None, node.value
    elif isinstance(node, Name):
        scale, var, offset = 1, node, 0
    elif isinstance(node, Neg):
        form = _affine(node.operand)
        if form is None:
            return None
        scale, var, offset = -form[0], form[1], -form[2]
    else:
        return None
    for binop in reversed(spine):
        form = _affine(binop.right)
        if form is None:
            return None
        right_scale, right_var, right_offset = form
        if binop.op == "*":
            if var is None:  # a constant times the right term
                scale, var, offset = (
                    offset * right_scale, right_var, offset * right_offset
                )
            elif right_var is None:
                scale, offset = scale * right_offset, offset * right_offset
            else:
                return None
            continue
        if right_var is not None:
            if var is None:
                var = right_var
            elif var.ident != right_var.ident:
                return None
        sign = 1 if binop.op == "+" else -1
        scale, offset = scale + sign * right_scale, offset + sign * right_offset
    return scale, var, offset


def _compile(node: ExprNode) -> _Evaluator:
    """Compile a compile-time integer expression into a closure.

    A literal and a variable each become one closure.  A compound tree
    that is affine in at most one variable (:func:`_affine`, the shape
    of nearly every gate index, e.g. ``2 * i + 1``) becomes one kernel:
    one ``env`` lookup, one multiply, one add; one with no variable
    becomes a constant.  Any other tree (``i * j``, ``i * i``) folds its
    operands left to right.  Either way an undefined variable is
    reported at its first use in source order: the kernel looks up its
    variable's first occurrence.  The parser builds a ``+``/``-``/``*``
    chain as a left-leaning spine of :class:`BinOp` nodes as long as the
    chain; the spine is walked and folded in a loop, so only parenthesis
    nesting (capped by the parser) uses stack.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, Name):
        ident = node.ident

        def lookup(env: Dict[str, int]) -> int:
            try:
                return env[ident]
            except KeyError:
                raise _undefined(node) from None

        return lookup
    form = _affine(node)
    if form is not None:
        scale, var, offset = form
        if var is None:
            return lambda env: offset
        ident = var.ident

        def kernel(env: Dict[str, int]) -> int:
            try:
                value = env[ident]
            except KeyError:
                raise _undefined(var) from None
            return scale * value + offset

        return kernel
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, BinOp):
        spine = []
        while isinstance(node, BinOp):
            spine.append((_BINARY[node.op], _compile(node.right)))
            node = node.left
        head = _compile(node)
        spine.reverse()

        def fold(env: Dict[str, int]) -> int:
            value = head(env)
            for op, right in spine:
                value = op(value, right(env))
            return value

        return fold
    raise ParseError(f"unknown expression node {node!r}")


@dataclass(frozen=True)
class _GatePlan:
    """A gate statement's static part, built on its first execution:
    the IR gate name (``CNOT`` becomes ``CX``, arity checked), the
    statement's span and, per operand, the register name, source span
    and compiled index (None for a bare register name), which
    :meth:`_Elaborator.run_gate` walks as one ``operands`` tuple.  The
    names and spans are also kept as the two tuples the borrow checker
    takes with each run's wires.

    Plans are keyed by ``id(stmt)``; holding ``stmt`` keeps that id from
    being reused by another statement while the elaboration runs.
    """

    stmt: GateStmt
    name: str
    span: Span
    regs: Tuple[str, ...]
    spans: Tuple[Span, ...]
    operands: Tuple[Tuple[str, Span, Optional[_Evaluator]], ...]


@dataclass
class _Register:
    """Wire layout of one declared register (ownership lives in the checker)."""

    name: str
    kind: str  # 'borrow' | 'borrow_skip' | 'alloc' | 'borrow_scoped'
    wires: List[int]
    scalar: bool
    released: bool = False


@dataclass
class ElaboratedProgram:
    """A fully elaborated ``.qbr`` program."""

    circuit: Circuit
    dirty_wires: List[int] = field(default_factory=list)
    input_wires: List[int] = field(default_factory=list)
    clean_wires: List[int] = field(default_factory=list)
    registers: Dict[str, "_Register"] = field(default_factory=dict)
    bindings: Dict[str, int] = field(default_factory=dict)
    #: Dirty wires whose (6.1)/(6.2) safety the borrow checker proved.
    proven_wires: List[int] = field(default_factory=list)
    #: Register name -> gate-index ranges of its ``lend`` blocks (first
    #: emission; mirror copies of gates inside a borrow block are not
    #: re-counted).
    lend_windows: Dict[str, List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    #: The borrow-check report this elaboration produced.
    diagnostics: Optional[DiagnosticReport] = None

    def wires_of(self, register: str) -> List[int]:
        """Wire indices of a declared register."""
        if register not in self.registers:
            raise ParseError(f"unknown register {register!r}")
        return list(self.registers[register].wires)

    def summary(self) -> str:
        """One-line census of qubits, gates and roles."""
        return (
            f"{self.circuit.num_qubits} qubits, {len(self.circuit.gates)} "
            f"gates; dirty={len(self.dirty_wires)} "
            f"inputs={len(self.input_wires)} clean={len(self.clean_wires)} "
            f"proven={len(self.proven_wires)}"
        )


class _Elaborator:
    """One elaboration pass; drives ``checker`` over every statement."""

    def __init__(self, checker: BorrowChecker):
        self.checker = checker
        self.env: Dict[str, int] = {}
        self.registers: Dict[str, _Register] = {}
        self.wire_labels: List[str] = []
        self.gates: List[Gate] = []
        # Parallel to `gates`: the plan, wires and subscripts of each
        # emitted gate, so borrow-block mirrors can replay them through
        # the checker.
        self.gate_meta: List[_GateMeta] = []
        self.proven: List[int] = []
        self.lend_windows: Dict[str, List[Tuple[int, int]]] = {}
        # Loop iterations run so far; with len(gates) it is the work
        # MAX_GATES bounds.
        self.iterations = 0
        # Borrow blocks whose mirror is still to come.
        self.open_blocks = 0
        self._plans: Dict[int, _GatePlan] = {}  # by id(stmt)
        # One Gate per distinct (IR name, wires): loops and uncompute
        # halves re-emit the same gate, and `Circuit.fingerprint`
        # formats each distinct gate object once.
        self._distinct: Dict[Tuple[str, Tuple[int, ...]], Gate] = {}

    # Expressions ---------------------------------------------------------- #

    def _eval(self, node: ExprNode) -> int:
        """Evaluate ``node`` in the current bindings."""
        return _compile(node)(self.env)

    # Spans ----------------------------------------------------------------- #

    @staticmethod
    def _ref_span(ref: RegRef) -> Span:
        end = ref.end_column or (ref.column + len(ref.name))
        return Span(ref.line, ref.column, max(1, end - ref.column))

    # Declarations ---------------------------------------------------------- #

    def declare(self, stmt: DeclStmt) -> None:
        """Elaborate a ``borrow``/``borrow@``/``alloc`` declaration."""
        self._declare_register(stmt.reg, stmt.kind)

    def _declare_register(self, ref: RegRef, kind: str) -> Optional[_Register]:
        if ref.name in self.env:
            raise ParseError(
                f"register {ref.name!r} collides with a variable",
                ref.line,
                ref.column,
            )
        if ref.index is None:
            size, scalar = 1, True
        else:
            size = self._eval(ref.index)
            scalar = False
            if size < 1:
                raise ParseError(
                    f"register {ref.name!r} has non-positive size "
                    f"{_shown(size)}",
                    ref.line,
                    ref.column,
                )
        if len(self.wire_labels) + size > MAX_WIRES:
            raise ParseError(
                f"register {ref.name!r} of size {_shown(size)} takes the "
                f"program past {MAX_WIRES} wires",
                ref.line,
                ref.column,
            )
        # The only place wires are allocated: each gets a label below,
        # so every wire a gate names is below the circuit's width and
        # `_finish` need not range-check the gates again.
        first = len(self.wire_labels)
        wires = list(range(first, first + size))
        if not self.checker.declare(ref.name, wires, kind, self._ref_span(ref)):
            return None  # BQ002: keep the original declaration
        for i in range(size):
            label = ref.name if scalar else f"{ref.name}[{i + 1}]"
            self.wire_labels.append(label)
        register = _Register(
            name=ref.name, kind=kind, wires=wires, scalar=scalar
        )
        self.registers[ref.name] = register
        return register

    def release(self, stmt: ReleaseStmt) -> None:
        """Elaborate ``release x;`` (BQ003/BQ008/BQ009 on misuse)."""
        span = Span(
            stmt.line, stmt.column or 1, max(1, len(stmt.name))
        )
        if self.checker.release(stmt.name, span):
            self.registers[stmt.name].released = True

    @staticmethod
    def _past_limit(line: int, column: int) -> ParseError:
        """The error for a statement that would take the elaboration
        past :data:`MAX_GATES`."""
        return ParseError(
            f"program elaborates past {MAX_GATES} gates and loop iterations",
            line,
            column,
        )

    # Statements ------------------------------------------------------------- #

    def run(self, statements) -> None:
        """Elaborate a statement sequence."""
        for stmt in statements:
            # Gates first: they are what loop bodies repeat.
            if isinstance(stmt, GateStmt):
                self.run_gate(stmt)
            elif isinstance(stmt, ForStmt):
                self.run_for(stmt)
            elif isinstance(stmt, LetStmt):
                if stmt.name in self.registers:
                    raise ParseError(
                        f"variable {stmt.name!r} collides with a register",
                        stmt.line,
                        stmt.column,
                    )
                self.env[stmt.name] = self._eval(stmt.value)
            elif isinstance(stmt, DeclStmt):
                self.declare(stmt)
            elif isinstance(stmt, ReleaseStmt):
                self.release(stmt)
            elif isinstance(stmt, BorrowBlock):
                self.run_borrow_block(stmt)
            elif isinstance(stmt, LendBlock):
                self.run_lend_block(stmt)
            else:  # pragma: no cover - exhaustive over statement kinds
                raise ParseError(f"unknown statement {stmt!r}")

    def _plan_gate(self, stmt: GateStmt) -> _GatePlan:
        column = stmt.column or 1
        span = Span(
            stmt.line, column, max(1, (stmt.end_column or column) - column)
        )
        refs = stmt.operands
        regs = tuple(ref.name for ref in refs)
        spans = tuple(self._ref_span(ref) for ref in refs)
        indices = (
            None if ref.index is None else _compile(ref.index) for ref in refs
        )
        return _GatePlan(
            stmt,
            gate_from_name(stmt.gate, range(len(refs))).name,
            span,
            regs,
            spans,
            tuple(zip(regs, spans, indices)),
        )

    def run_gate(self, stmt: GateStmt) -> None:
        """Elaborate one gate application through the borrow checker.

        Shape errors (unknown name, missing/extra index, out-of-range
        index) stay plain :class:`ParseError`; *lifetime* errors are the
        borrow checker's job and are reported when the wire is used.
        """
        plan = self._plans.get(id(stmt))
        if plan is None:
            plan = self._plans[id(stmt)] = self._plan_gate(stmt)
        registers, env = self.registers, self.env
        wires = []
        subscripts = []
        for name, span, index in plan.operands:
            register = registers.get(name)
            if register is None:
                raise ParseError(
                    f"undeclared register {name!r}", span.line, span.column
                )
            if index is None:
                if not register.scalar:
                    raise ParseError(
                        f"array register {name!r} needs an index",
                        span.line,
                        span.column,
                    )
                wires.append(register.wires[0])
                subscripts.append(None)
                continue
            if register.scalar:
                raise ParseError(
                    f"scalar register {name!r} cannot be indexed",
                    span.line,
                    span.column,
                )
            value = index(env)
            register_wires = register.wires
            if not 1 <= value <= len(register_wires):
                raise ParseError(
                    f"{name}[{_shown(value)}] out of range "
                    f"1..{len(register_wires)}",
                    span.line,
                    span.column,
                )
            wires.append(register_wires[value - 1])
            subscripts.append(value)
        wires = tuple(wires)
        if self.checker.gate(plan.regs, plan.spans, wires, subscripts, plan.span):
            key = (plan.name, wires)
            gate = self._distinct.get(key)
            if gate is None:
                gate = self._distinct[key] = Gate(plan.name, wires)
            self.gates.append(gate)
            self.gate_meta.append((plan, wires, subscripts))

    def run_for(self, stmt: ForStmt) -> None:
        """Unroll a ``for`` loop (inclusive bounds, either direction).

        The loop variable is bound before each iteration, and any
        binding it shadowed is restored afterwards.  Each iteration
        counts towards :data:`MAX_GATES`, checked before it runs.
        """
        start = self._eval(stmt.start)
        end = self._eval(stmt.end)
        step = 1 if end >= start else -1
        shadowed = self.env.get(stmt.var)
        had_binding = stmt.var in self.env
        gates = self.gates
        try:
            for value in range(start, end + step, step):
                self.iterations += 1
                if self.iterations + len(gates) > MAX_GATES:
                    raise self._past_limit(stmt.line, stmt.column)
                self.env[stmt.var] = value
                self.run(stmt.body)
        finally:
            if had_binding:
                self.env[stmt.var] = shadowed
            else:
                self.env.pop(stmt.var, None)

    # Ownership blocks -------------------------------------------------------- #

    def run_borrow_block(self, stmt: BorrowBlock) -> None:
        """Elaborate ``borrow b { within { C } apply { D } }``.

        Emits ``C; D; reverse(C); D``.  The mirror phases replay the
        already-emitted gates (never the statements — loop bounds and
        lets must not re-evaluate) and feed them back through the
        checker so taint bookkeeping covers the full emission.

        The mirror doubles the block's gates, and the mirror of each
        enclosing block doubles them again, so before the mirror runs
        the gates this block will end up adding are checked against
        :data:`MAX_GATES`: a deep nest is refused at its innermost
        block, before the doubling starts.
        """
        register = self._declare_register(stmt.reg, "borrow_scoped")
        if register is None:
            return  # BQ002: recovery skips the whole block
        frame = self.checker.enter_borrow(
            register.name, register.wires, self._ref_span(stmt.reg)
        )
        w_start = len(self.gates)
        self.open_blocks += 1
        self.run(stmt.within)
        w_stop = len(self.gates)
        self.checker.begin_apply(frame)
        self.run(stmt.apply)
        self.open_blocks -= 1
        a_stop = len(self.gates)
        copies = (2 << self.open_blocks) - 1
        if self.iterations + a_stop + (a_stop - w_start) * copies > MAX_GATES:
            raise self._past_limit(stmt.line, stmt.column)
        self.checker.begin_mirror(frame)
        self._replay(range(w_stop - 1, w_start - 1, -1), stmt.line)
        self._replay(range(w_stop, a_stop), stmt.line)
        proven = self.checker.end_borrow(frame)
        register.released = True  # consumed: the qubit went back
        if proven:
            self.proven.extend(register.wires)

    def _replay(self, indices, block_line: int) -> None:
        """Re-emit already-emitted gates for a borrow block's mirror."""
        for idx in indices:
            meta = plan, wires, subscripts = self.gate_meta[idx]
            self.checker.gate(
                plan.regs,
                plan.spans,
                wires,
                subscripts,
                plan.span,
                mirrored_from=block_line,
            )
            self.gates.append(self.gates[idx])
            self.gate_meta.append(meta)

    def run_lend_block(self, stmt: LendBlock) -> None:
        """Elaborate ``lend x { ... }`` and record its gate-index window."""
        span = Span(
            stmt.line,
            stmt.name_column or stmt.column or 1,
            max(1, len(stmt.name)),
        )
        ok = self.checker.enter_lend(stmt.name, span)
        start = len(self.gates)
        self.run(stmt.body)
        if ok:
            self.checker.exit_lend(stmt.name)
            self.lend_windows.setdefault(stmt.name, []).append(
                (start, len(self.gates))
            )


def _finish(ela: _Elaborator, report: DiagnosticReport) -> ElaboratedProgram:
    """Assemble the :class:`ElaboratedProgram` once every statement ran."""
    circuit = Circuit(len(ela.wire_labels), labels=ela.wire_labels)
    # In range by allocation (`_declare_register`): no second check.
    circuit.gates.extend(ela.gates)
    result = ElaboratedProgram(
        circuit=circuit,
        registers=ela.registers,
        bindings=dict(ela.env),
        lend_windows={k: list(v) for k, v in ela.lend_windows.items()},
        diagnostics=report,
    )
    for register in ela.registers.values():
        bucket = {
            "borrow": result.dirty_wires,
            "borrow_scoped": result.dirty_wires,
            "borrow_skip": result.input_wires,
            "alloc": result.clean_wires,
        }[register.kind]
        bucket.extend(register.wires)
    dirty = set(result.dirty_wires)
    result.proven_wires = [w for w in ela.proven if w in dirty]
    return result


def elaborate(
    source: Union[str, Program],
    *,
    strict: bool = True,
    report: Optional[DiagnosticReport] = None,
    filename: str = "<qbr>",
) -> ElaboratedProgram:
    """Elaborate ``.qbr`` source (or a parsed :class:`Program`).

    The static borrow checker runs as part of elaboration.  In strict
    mode (the default) the first ownership violation raises
    :class:`~repro.lang.diagnostics.BorrowCheckError` — a
    :class:`ParseError` subclass, so existing error handling keeps
    working.  With ``strict=False`` every violation is collected into
    ``report`` (see :func:`repro.lang.borrowck.check_program`) and
    elaboration recovers and continues.

    Source text is parsed lazily (:func:`iter_statements`): each
    statement is elaborated as soon as it is read, so an ownership
    violation is raised before a lex or parse error later in the text.
    """
    if isinstance(source, str):
        statements = iter_statements(source)
        text = source
    else:
        statements = source.statements
        text = ""
    if report is None:
        report = DiagnosticReport(source=text, filename=filename)
    ela = _Elaborator(BorrowChecker(report, strict=strict))
    ela.run(statements)
    return _finish(ela, report)


def elaborate_file(path: Union[str, Path]) -> ElaboratedProgram:
    """Elaborate a ``.qbr`` file from disk (read by
    :func:`~repro.lang.borrowck.read_qbr`, so a byte that is not UTF-8
    raises :class:`ParseError`)."""
    return elaborate(read_qbr(path))


def _as_program(
    source: Union[str, Path, ElaboratedProgram],
) -> ElaboratedProgram:
    """Resolve text / path / elaborated-program into a program."""
    if isinstance(source, ElaboratedProgram):
        return source
    path = qbr_path(source)
    if path is not None:
        return elaborate_file(path)
    return elaborate(source)


def verify_qbr(
    source: Union[str, Path, ElaboratedProgram],
    backend: str = "cdcl",
    simplify_xor: bool = True,
    include_clean: bool = False,
    trust_checker: bool = False,
) -> VerificationReport:
    """End-to-end: parse, elaborate, and verify every ``borrow`` qubit.

    ``source`` may be ``.qbr`` text, a path to a ``.qbr`` file, or an
    already elaborated program.  ``borrow@`` registers are skipped, as in
    the paper's benchmarks.  With ``include_clean=True``, every ``alloc``
    register is additionally checked against the weaker clean-qubit
    contract (|0> in, |0> out — formula (6.1) only) in the same job, and
    its verdicts follow the ``borrow`` ones.  With ``trust_checker=True``
    the wires the static borrow checker already proved
    (``proven_wires``) are omitted from the solver run — the obligations
    the type system discharged are not re-paid.
    """
    program = _as_program(source)
    to_check = program.dirty_wires
    if trust_checker and program.proven_wires:
        proven = set(program.proven_wires)
        to_check = [w for w in to_check if w not in proven]
    job = VerificationJob(
        program.circuit,
        to_check,
        clean_qubits=program.clean_wires if include_clean else (),
    )
    verifier = BatchVerifier(backend=backend, simplify_xor=simplify_xor)
    return verifier.verify_circuits([job])[0]


def job_from_qbr(
    name: str,
    source: Union[str, Path, ElaboratedProgram],
    trust_checker: bool = False,
) -> "object":
    """Build a :class:`~repro.multiprog.scheduler.QuantumJob` from ``.qbr``.

    Every dirty wire becomes a
    :class:`~repro.multiprog.scheduler.BorrowRequest`.  With
    ``trust_checker=True`` the wires the borrow checker proved safe are
    marked ``certified``, so
    :meth:`~repro.multiprog.scheduler.MultiProgrammer.admit` skips their
    solver obligations and counts them in
    ``stats()['static_discharged']``.  Certification is opt-in —
    mirroring :func:`verify_qbr`'s conservative default — so admission
    pays its solver obligations unless the caller explicitly chooses to
    trust the static proof on this safety-critical path.
    """
    program = _as_program(source)
    # Imported here so the language layer stays importable without the
    # scheduler stack (multiprog imports alloc imports verify).
    from repro.multiprog.scheduler import BorrowRequest, QuantumJob

    proven = set(program.proven_wires) if trust_checker else set()
    requests = [
        BorrowRequest(wire, certified=wire in proven)
        for wire in program.dirty_wires
    ]
    return QuantumJob(
        name=name, circuit=program.circuit, ancilla_requests=requests
    )
