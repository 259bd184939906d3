"""Differential test: the compiled elaborator against a tree-walking one.

:class:`ReferenceElaborator` re-walks every expression's AST on every
use, the way the elaborator did before it compiled expressions and gate
statements, and drives the same borrow checker with the same operands.
Hypothesis generates ``let``/declaration/``for``/gate programs, valid
and not, and every outcome must agree: the same gates, labels and wire
roles, or the same :class:`ParseError` at the same position.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.circuits.gates import gate_from_name
from repro.errors import ParseError
from repro.lang.borrowck import BorrowChecker, GateOperand
from repro.lang.diagnostics import DiagnosticReport, Span
from repro.lang.surface import elaborate, parse
from repro.lang.surface.parser import (
    BinOp,
    DeclStmt,
    ForStmt,
    GateStmt,
    LetStmt,
    Name,
    Neg,
    Num,
    ReleaseStmt,
)
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ROLES = {"borrow": "dirty", "borrow_skip": "inputs", "alloc": "clean"}


def _ref_span(ref) -> Span:
    end = ref.end_column or (ref.column + len(ref.name))
    return Span(ref.line, ref.column, max(1, end - ref.column))


class ReferenceElaborator:
    """Strict elaboration of the let/declaration/release/for/gate subset."""

    def __init__(self, source: str):
        self.checker = BorrowChecker(DiagnosticReport(source=source))
        self.env = {}
        self.registers = {}  # name -> (kind, wires, scalar)
        self.labels = []
        self.gates = []
        self.run(parse(source).statements)

    def roles(self) -> dict:
        roles = {"dirty": [], "inputs": [], "clean": []}
        for kind, wires, _ in self.registers.values():
            roles[_ROLES[kind]].extend(wires)
        return roles

    def eval(self, node) -> int:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Name):
            if node.ident not in self.env:
                raise ParseError(
                    f"undefined variable {node.ident!r}", node.line, node.column
                )
            return self.env[node.ident]
        if isinstance(node, Neg):
            return -self.eval(node.operand)
        assert isinstance(node, BinOp)
        return _OPS[node.op](self.eval(node.left), self.eval(node.right))

    def resolve(self, ref):
        """The wire and display text of one gate operand."""
        if ref.name not in self.registers:
            raise ParseError(
                f"undeclared register {ref.name!r}", ref.line, ref.column
            )
        _, wires, scalar = self.registers[ref.name]
        if ref.index is None:
            if not scalar:
                raise ParseError(
                    f"array register {ref.name!r} needs an index",
                    ref.line,
                    ref.column,
                )
            return wires[0], ref.name
        if scalar:
            raise ParseError(
                f"scalar register {ref.name!r} cannot be indexed",
                ref.line,
                ref.column,
            )
        index = self.eval(ref.index)
        if not 1 <= index <= len(wires):
            raise ParseError(
                f"{ref.name}[{index}] out of range 1..{len(wires)}",
                ref.line,
                ref.column,
            )
        return wires[index - 1], f"{ref.name}[{index}]"

    def run(self, statements) -> None:
        for stmt in statements:
            if isinstance(stmt, LetStmt):
                if stmt.name in self.registers:
                    raise ParseError(
                        f"variable {stmt.name!r} collides with a register",
                        stmt.line,
                        stmt.column,
                    )
                self.env[stmt.name] = self.eval(stmt.value)
            elif isinstance(stmt, DeclStmt):
                self.declare(stmt.reg, stmt.kind)
            elif isinstance(stmt, ReleaseStmt):
                span = Span(stmt.line, stmt.column or 1, max(1, len(stmt.name)))
                self.checker.release(stmt.name, span)
            elif isinstance(stmt, ForStmt):
                self.run_for(stmt)
            else:
                assert isinstance(stmt, GateStmt), stmt
                self.gate(stmt)

    def declare(self, ref, kind: str) -> None:
        if ref.name in self.env:
            raise ParseError(
                f"register {ref.name!r} collides with a variable",
                ref.line,
                ref.column,
            )
        scalar = ref.index is None
        size = 1 if scalar else self.eval(ref.index)
        if size < 1:
            raise ParseError(
                f"register {ref.name!r} has non-positive size {size}",
                ref.line,
                ref.column,
            )
        wires = list(range(len(self.labels), len(self.labels) + size))
        self.checker.declare(ref.name, wires, kind, _ref_span(ref))
        self.labels.extend(
            [ref.name] if scalar else [f"{ref.name}[{i}]" for i in range(1, size + 1)]
        )
        self.registers[ref.name] = (kind, wires, scalar)

    def run_for(self, stmt) -> None:
        start, end = self.eval(stmt.start), self.eval(stmt.end)
        step = 1 if end >= start else -1
        had, shadowed = stmt.var in self.env, self.env.get(stmt.var)
        for value in range(start, end + step, step):
            self.env[stmt.var] = value
            self.run(stmt.body)
        if had:
            self.env[stmt.var] = shadowed
        else:
            self.env.pop(stmt.var, None)

    def gate(self, stmt) -> None:
        operands = []
        for ref in stmt.operands:
            wire, text = self.resolve(ref)
            subscript = None if ref.index is None else self.eval(ref.index)
            operands.append(GateOperand(ref.name, wire, _ref_span(ref), subscript))
        column = stmt.column or 1
        span = Span(stmt.line, column, max(1, (stmt.end_column or column) - column))
        regs, wires, spans, subscripts = zip(*operands)
        self.checker.gate(regs, spans, wires, subscripts, span)
        self.gates.append(gate_from_name(stmt.gate, [op.wire for op in operands]))


def _outcome(read):
    """``read()``'s value, or the ParseError it raised as comparable data.

    Only :class:`ParseError` (which includes ``BorrowCheckError``) is
    caught: any other exception escapes and fails the test.
    """
    try:
        return "ok", read()
    except ParseError as err:
        return "error", (str(err), err.line, err.column)


def _reference(source: str):
    ref = ReferenceElaborator(source)
    circuit = Circuit(len(ref.labels), ref.gates, labels=ref.labels)
    return circuit.gates, circuit.labels, ref.roles(), ref.env


def _compiled(source: str):
    program = elaborate(source)
    roles = {
        "dirty": program.dirty_wires,
        "inputs": program.input_wires,
        "clean": program.clean_wires,
    }
    return program.circuit.gates, program.circuit.labels, roles, program.bindings


def assert_matches_reference(source: str) -> None:
    expected = _outcome(lambda: _reference(source))
    assert _outcome(lambda: _compiled(source)) == expected


# --------------------------------------------------------------------- #
# Program generation
# --------------------------------------------------------------------- #

#: Variables the programs bind and read.  Only ``n`` is bound up front;
#: a loop or ``let`` may bind or shadow any of them, and a read outside
#: its binding is undefined.
VARIABLES = ("n", "i", "j", "m")
KINDS = ("borrow", "borrow@", "alloc")


def expressions(max_leaves: int):
    """Any expression over the variables, bound or not."""
    return st.recursive(
        st.one_of(st.integers(0, 4).map(str), st.sampled_from(VARIABLES)),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
            inner.map("({})".format),
            inner.map("(-{})".format),
        ),
        max_leaves=max_leaves,
    )


EXPRESSIONS = expressions(4)

#: Index shapes that stay in 1..4 while the variable ``v`` does.
IN_RANGE = (
    "{v}", "({v})", "{v} + 0", "2 * {v} - {v}", "-(-{v})", "{v} * 1",
    "5 - {v}", "1 + {v} - 1", "-{v} + 2 * {v}", "(4 - {v}) * 0 + {v}",
)


def _index(draw, scope, clean: bool) -> str:
    """An index expression; in a clean program it is in range by shape."""
    if clean:
        var = draw(st.sampled_from(scope + ("1", "4")))
        return draw(st.sampled_from(IN_RANGE)).format(v=var)
    in_scope = st.sampled_from(scope)
    return draw(
        st.one_of(
            st.integers(1, 3).map(str),
            in_scope,
            st.tuples(in_scope, st.sampled_from("+-*"), st.just("2")).map(
                " ".join
            ),
            EXPRESSIONS,
        )
    )


def _operand(draw, scope, clean: bool, position: int) -> str:
    if clean:  # one register per operand position: never aliased
        return f"{'qrs'[position]}[{_index(draw, scope, clean)}]"
    # 'n' is also a variable, so as a register it is never declared.
    name = draw(st.sampled_from(("q",) * 6 + ("r", "s", "n")))
    if draw(st.integers(0, 5)) == 0:
        return name
    return f"{name}[{_index(draw, scope, clean)}]"


def _statement(draw, scope, depth: int, clean: bool) -> str:
    kinds = ["gate"] * 6 + ["loop"] * 3 * (depth > 0) + ["let"]
    if not clean:
        kinds += ["decl", "release"]
    kind = draw(st.sampled_from(kinds))
    if kind == "gate":
        name, arity = draw(st.sampled_from((("X", 1), ("CNOT", 2), ("CCNOT", 3))))
        operands = [_operand(draw, scope, clean, k) for k in range(arity)]
        return f"{name}[{', '.join(operands)}];"
    if kind == "loop":
        var = draw(st.sampled_from(VARIABLES))
        bound = st.integers(1, 4).map(str)
        if not clean:
            bound = st.one_of(bound, EXPRESSIONS)
        start, end = draw(bound), draw(bound)
        body = [
            _statement(draw, scope + (var,), depth - 1, clean)
            for _ in range(draw(st.integers(1, 3)))
        ]
        return f"for {var} = {start} to {end} {{\n" + "\n".join(body) + "\n}"
    if kind == "let":
        var = draw(st.sampled_from(VARIABLES))
        if clean:
            return f"let {var} = {draw(st.integers(1, 4))};"
        return f"let {var} = {_index(draw, scope, clean)};"
    register = draw(st.sampled_from(("r", "s", "n")))
    if kind == "release":
        return f"release {register};"
    size = draw(st.sampled_from(("", "[2]")))
    return f"{draw(st.sampled_from(KINDS))} {register}{size};"


@st.composite
def programs(draw) -> str:
    """``let n`` and the arrays ``q``/``r``/``s``, then nested loops, gates
    and lets.  Half the programs are well formed by construction; the
    rest also declare and release registers and index them freely, so
    they mostly end in an error."""
    clean = draw(st.booleans())
    lines = [f"let n = {draw(st.integers(1, 4))};"]
    for register in "qrs":
        kind = draw(st.sampled_from(KINDS))
        lines.append(f"{kind} {register}[{draw(st.integers(4, 6))}];")
    lines += [
        _statement(draw, ("n",), 2, clean)
        for _ in range(draw(st.integers(1, 4)))
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #


class TestCompiledMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_generated_programs(self, source):
        assert_matches_reference(source)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fixed_dictionaries(
            {v: st.none() | st.integers(-9, 9) for v in VARIABLES}
        ),
        expressions(10),
    )
    def test_expressions(self, values, expression):
        """Values, and which undefined name is reported first, agree."""
        lets = [f"let {v} = {x};" for v, x in values.items() if x is not None]
        assert_matches_reference(" ".join(lets + [f"let x = {expression};"]))

    @pytest.mark.parametrize(
        "source",
        [
            # A loop variable shadows a let and is restored afterwards.
            "let i = 3; borrow q[4]; for i = 4 to 1 { X[q[i]]; } X[q[i]];",
            # Nested ascending and descending loops over one register.
            "borrow q[6]; for i = 1 to 2 { for j = 3 to 1 {"
            " CNOT[q[i], q[2 * j - (-i) + 0 * i]]; } }",
            "borrow q[3]; for i = 1 to 4 { X[q[i]]; }",  # out of range
            "borrow q[3]; for i = 1 to 2 { X[q[k]]; }",  # undefined
            "borrow q; X[q[1]];",  # indexed scalar
            "borrow q[2]; X[q];",  # bare array
            "borrow q[2]; CNOT[q[1], q[3 - 2]];",  # aliased operands
            "borrow@ q[2]; alloc t; release t; borrow t; CCNOT[q[1], q[2], t];",
            "borrow r[0 - 1];",  # non-positive size
            "let r = 1;\nborrow r;",  # register collides with a variable
            "borrow r;\nlet r = 2;",  # variable collides with a register
            # Affine index kernels: a zero coefficient still looks its
            # variable up, so an undefined one raises at its first use.
            "borrow q[3]; for i = 1 to 2 { X[q[0 * k + 1]]; }",
            "borrow q[3]; X[q[2]]; let x = k - k;",
            "borrow q[3]; for i = 1 to 3 { X[q[i - i + 2]]; }",
            "borrow q[5]; for i = 2 to 3 { X[q[-(2 * i) + 7]]; }",
            "borrow q[10]; for i = 2 to 1 { X[q[2 * i * 3 - i]]; }",
            "borrow q[9]; for i = 1 to 2 { X[q[(i + 1) * (0 - 3) + 12]]; }",
            "borrow q[9]; X[q[(i + 1) * (0 - 3)]];",  # undefined i
            "let i = 1; borrow q[9]; X[q[(i + 1) * (0 - 3)]];",  # out of range
            # Not affine in one variable: the operand fold.
            "borrow q[9]; for i = 1 to 3 { X[q[i * i]]; }",
            "borrow q[9]; for i = 1 to 3 { for j = 3 to 1 {"
            " CNOT[q[i * j], q[10 - i * j]]; } }",
            "borrow q[9]; for i = 1 to 3 { X[q[i + j]]; }",  # undefined j
            "borrow q[9]; for i = 1 to 3 { X[q[0 * j + i * i]]; }",
        ],
    )
    def test_hand_written_programs(self, source):
        assert_matches_reference(source)

    @pytest.mark.parametrize("n", [3, 4, 14, 20])
    def test_adder(self, n):
        assert_matches_reference(adder_qbr_source(n))

    @pytest.mark.parametrize("m", [4, 5, 20, 100])
    def test_mcx(self, m):
        assert_matches_reference(mcx_qbr_source(m))
