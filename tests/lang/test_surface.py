"""Tests for the .qbr lexer, parser, and elaborator."""

import time

import pytest

from repro.circuits.circuit import MAX_GATES, MAX_WIRES
from repro.errors import ParseError
from repro.lang.borrowck import check_program
from repro.lang.diagnostics import BorrowCheckError
from repro.lang.surface import elaborate, iter_statements, parse, tokenize
from repro.lang.surface.parser import (
    MAX_NESTING,
    BinOp,
    DeclStmt,
    ForStmt,
    GateStmt,
    LetStmt,
)
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from tests.lang.test_borrowck import DIFFERENTIAL_CORPUS


class TestLexer:
    def test_keywords_and_ids(self):
        kinds = [t.kind for t in tokenize("let borrow alloc release for to x")]
        assert kinds == [
            "LET", "BORROW", "ALLOC", "RELEASE", "FOR", "TO", "ID", "EOF",
        ]

    def test_borrow_at(self):
        tokens = tokenize("borrow@ q;")
        assert tokens[0].kind == "BORROW_SKIP"

    def test_positions(self):
        tokens = tokenize("let\nn = 5;")
        n_token = tokens[1]
        assert (n_token.line, n_token.column) == (2, 1)

    def test_comments_skipped(self):
        tokens = tokenize("// hello\nX[q]; /* multi\nline */ X[q];")
        assert sum(1 for t in tokens if t.kind == "ID") == 4

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("let n = 5 $")
        assert "line 1" in str(err.value)

    def test_non_decimal_digit_is_a_parse_error(self):
        # '²' is a digit to str.isdigit() but not a number to int().
        for read in (parse, elaborate):
            with pytest.raises(ParseError) as err:
                read("let n = ²;")
            assert (err.value.line, err.value.column) == (1, 9)
            assert "unexpected character '²'" in str(err.value)
        assert check_program("let n = ²;").codes() == ["PARSE"]

    def test_other_decimal_scripts_read_as_numbers(self):
        assert elaborate("let n = ٣;").bindings == {"n": 3}

    def test_overlong_number_is_a_parse_error(self):
        # int() refuses more than 4,300 digits with a ValueError.
        source = f"let n = {'9' * 5000};"
        for read in (parse, elaborate):
            with pytest.raises(ParseError) as err:
                read(source)
            assert "number of 5000 digits is too long" in str(err.value)
            assert (err.value.line, err.value.column) == (1, 9)
        assert check_program(source).codes() == ["PARSE"]


class TestParser:
    def test_let(self):
        program = parse("let n = 5 + 2 * 3;")
        stmt = program.statements[0]
        assert isinstance(stmt, LetStmt)
        assert isinstance(stmt.value, BinOp) and stmt.value.op == "+"

    def test_precedence(self):
        stmt = parse("let n = 2 * 3 + 4;").statements[0]
        assert stmt.value.op == "+"
        assert isinstance(stmt.value.left, BinOp)

    def test_parentheses(self):
        stmt = parse("let n = 2 * (3 + 4);").statements[0]
        assert stmt.value.op == "*"

    def test_unary_minus(self):
        program = parse("let n = -3; borrow q; X[q];")
        assert program.statements[0].value is not None

    def test_gate_arities(self):
        program = parse(
            "borrow a; borrow b; borrow c;"
            "X[a]; CNOT[a, b]; CCNOT[a, b, c];"
        )
        gates = [s for s in program.statements if isinstance(s, GateStmt)]
        assert [g.gate for g in gates] == ["X", "CNOT", "CCNOT"]

    def test_gate_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("borrow a; CNOT[a];")

    def test_for_loop(self):
        program = parse("for i = 1 to 3 { X[q]; }")
        loop = program.statements[0]
        assert isinstance(loop, ForStmt)
        assert len(loop.body) == 1

    def test_unterminated_for(self):
        with pytest.raises(ParseError):
            parse("for i = 1 to 3 { X[q];")

    def test_empty_program(self):
        with pytest.raises(ParseError):
            parse("   // nothing\n")

    def test_decl_kinds(self):
        program = parse("borrow a; borrow@ b; alloc c[3];")
        kinds = [s.kind for s in program.statements if isinstance(s, DeclStmt)]
        assert kinds == ["borrow", "borrow_skip", "alloc"]

    def test_let_column_anchors_the_name(self):
        assert parse("\n  let  b = 2;").statements[0].column == 8


#: Paper templates, loops, a scoped borrow block and a lend block.
STATEMENT_CORPUS = [
    adder_qbr_source(4),
    mcx_qbr_source(5),
    "let n = 3; borrow q[3]; alloc t;\n"
    "for i = 1 to n { CNOT[q[i], t]; }\n"
    "for i = n to 1 { CNOT[q[i], t]; }",
    "borrow@ q1; borrow@ q2; borrow@ q3; alloc q4;\n"
    "borrow a {\n"
    "  within { CCNOT[q1, q2, a]; }\n"
    "  apply  { CCNOT[a, q3, q4]; }\n"
    "}",
    "borrow x; alloc t;\nlend x { X[t]; X[t]; }",
]


class TestLazyReading:
    """``iter_statements`` yields each statement before later source is
    lexed, and ``elaborate`` runs each one as it arrives: an error in a
    statement is raised before a lex or parse error after it.  Text
    reaches the elaborator through that iterator and a parsed
    ``Program`` through its statement tuple; both must come out alike."""

    @pytest.mark.parametrize("index", range(len(STATEMENT_CORPUS)))
    def test_statements_equal_parse(self, index):
        source = STATEMENT_CORPUS[index]
        assert tuple(iter_statements(source)) == parse(source).statements

    @pytest.mark.parametrize("index", range(len(STATEMENT_CORPUS)))
    def test_text_and_parsed_program_elaborate_alike(self, index):
        source = STATEMENT_CORPUS[index]
        lazy, parsed = elaborate(source), elaborate(parse(source))
        assert lazy.circuit.gates == parsed.circuit.gates
        assert lazy.circuit.labels == parsed.circuit.labels
        assert lazy.dirty_wires == parsed.dirty_wires
        assert lazy.input_wires == parsed.input_wires
        assert lazy.clean_wires == parsed.clean_wires
        assert lazy.proven_wires == parsed.proven_wires
        assert lazy.lend_windows == parsed.lend_windows
        assert lazy.bindings == parsed.bindings

    @pytest.mark.parametrize("index", range(len(DIFFERENTIAL_CORPUS)))
    def test_checker_findings_alike_from_text_and_parsed_program(self, index):
        """Collect mode over the borrow-check corpus, unsafe blocks
        included: same gates, same proofs, same findings at the same
        places."""
        source = DIFFERENTIAL_CORPUS[index]
        lazy = elaborate(source, strict=False)
        parsed = elaborate(parse(source), strict=False)
        assert lazy.circuit.fingerprint() == parsed.circuit.fingerprint()
        assert lazy.proven_wires == parsed.proven_wires
        assert lazy.dirty_wires == parsed.dirty_wires
        assert [(d.code, d.span) for d in lazy.diagnostics.diagnostics] == [
            (d.code, d.span) for d in parsed.diagnostics.diagnostics
        ]

    def test_empty_source_raises_on_drain(self):
        stream = iter_statements("  // nothing\n")
        with pytest.raises(ParseError, match="empty program"):
            list(stream)

    def test_statements_arrive_before_later_source_is_lexed(self):
        stream = iter_statements("let n = 1; let m = $")
        assert next(stream).name == "n"
        with pytest.raises(ParseError):
            next(stream)

    def test_lex_error_after_valid_gates(self):
        with pytest.raises(ParseError, match="line 1"):
            elaborate("borrow a; borrow b; CNOT[a, b]; X[a]; $")

    def test_ownership_violation_before_later_lex_error(self):
        with pytest.raises(BorrowCheckError) as err:
            elaborate("borrow@ x; CNOT[x, x]; $")
        assert err.value.code == "BQ007"

    def test_shape_error_before_later_parse_error(self):
        with pytest.raises(ParseError, match="undeclared register 'b'"):
            elaborate("borrow a; X[b]; let = ;")


def _nested(depth: int) -> str:
    return "(" * depth + "1" + ")" * depth


class TestExpressionLimits:
    """Long chains evaluate in a loop; deep nesting is a ParseError."""

    @pytest.mark.parametrize("op, value", [("+", 3000), ("*", 1)])
    def test_long_chains_elaborate(self, op, value):
        chain = f" {op} ".join(["1"] * 3000)
        source = (
            f"let n = {chain}; borrow q[{chain}];"
            f"for i = {chain} to {chain} {{ X[q[{chain} - i + n]]; }}"
        )
        assert len(parse(source).statements) == 3
        prog = elaborate(source)
        assert prog.bindings["n"] == value
        assert prog.circuit.num_qubits == value
        assert [g.qubits for g in prog.circuit.gates] == [(value - 1,)]
        assert check_program(source).codes() == []

    def test_nesting_up_to_the_limit_reads(self):
        assert elaborate(f"let n = {_nested(MAX_NESTING)};").bindings == {
            "n": 1
        }

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400, 5000])
    def test_deeper_nesting_is_a_parse_error(self, depth):
        source = f"let n = {_nested(depth)};"
        column = len("let n = ") + MAX_NESTING + 1
        for read in (parse, elaborate):
            with pytest.raises(ParseError) as err:
                read(source)
            assert "expression nested too deeply" in str(err.value)
            assert (err.value.line, err.value.column) == (1, column)
        report = check_program(source)
        assert report.codes() == ["PARSE"]
        assert "nested too deeply" in report.diagnostics[0].message


def _nested_blocks(depth: int) -> str:
    """Borrow blocks nested ``depth`` deep; each level's mirror doubles
    the gates of the levels inside it (depth 12 emits 12,286 gates)."""
    source = "borrow@ c;\nborrow@ t;\n"
    for k in range(depth):
        source += f"borrow b{k} {{ within {{ CNOT[c, b{k}]; }} apply {{\n"
    return source + "X[t];\n" + "} }\n" * depth


class TestWorkLimit:
    """``MAX_GATES`` bounds loop iterations run plus gates emitted, so
    a short program can neither spin nor emit without end."""

    @pytest.mark.parametrize(
        "source, position",
        [
            ("borrow a; for i = 1 to 1000000000 { X[a]; }", (1, 11)),
            ("for i = 1 to 1000000000000 { let x = i; }", (1, 1)),
            (_nested_blocks(30), (32, 1)),
        ],
        ids=["gate-loop", "gate-free-loop", "nested-blocks"],
    )
    def test_unbounded_work_is_refused_at_its_statement(self, source, position):
        for strict in (True, False):
            start = time.perf_counter()
            with pytest.raises(ParseError, match=f"past {MAX_GATES} gates") as err:
                elaborate(source, strict=strict)
            # About 0.3 s on a 2-vCPU host; unbounded, these run for
            # hours or exhaust memory.
            assert time.perf_counter() - start < 10
            assert (err.value.line, err.value.column) == position

    def test_work_up_to_the_limit_reads(self):
        source = "for i = 1 to {n} {{ let x = i; }}"
        assert elaborate(source.format(n=MAX_GATES)).bindings == {"x": MAX_GATES}
        with pytest.raises(ParseError, match="past"):
            elaborate(source.format(n=MAX_GATES + 1))

    def test_a_nest_is_refused_before_its_mirrors_double_it(self):
        assert len(elaborate(_nested_blocks(12)).circuit.gates) == 12286
        # Depth 17 would emit 393,214 gates: the innermost block's
        # 4 gates, copied 2**17 times, already pass the limit.
        with pytest.raises(ParseError) as err:
            elaborate(_nested_blocks(17))
        assert (err.value.line, err.value.column) == (19, 1)

    def test_paper_programs_at_scale_still_elaborate(self):
        assert len(elaborate(mcx_qbr_source(1750)).circuit.gates) == 27968
        assert len(elaborate(adder_qbr_source(400)).circuit.gates) == 3189


class TestElaborator:
    def test_scalar_and_array_registers(self):
        prog = elaborate("borrow a; borrow q[3]; CNOT[a, q[2]];")
        assert prog.circuit.num_qubits == 4
        assert prog.circuit.labels == ["a", "q[1]", "q[2]", "q[3]"]
        assert prog.circuit.gates[0].qubits == (0, 2)

    def test_roles(self):
        prog = elaborate("borrow d; borrow@ i[2]; alloc c;")
        assert prog.dirty_wires == [0]
        assert prog.input_wires == [1, 2]
        assert prog.clean_wires == [3]

    def test_let_arithmetic(self):
        prog = elaborate("let n = 2 + 3; borrow q[n - 1]; X[q[4]];")
        assert prog.circuit.num_qubits == 4

    def test_for_ascending_and_descending(self):
        up = elaborate("borrow q[3]; for i = 1 to 3 { X[q[i]]; }")
        down = elaborate("borrow q[3]; for i = 3 to 1 { X[q[i]]; }")
        assert [g.qubits[0] for g in up.circuit.gates] == [0, 1, 2]
        assert [g.qubits[0] for g in down.circuit.gates] == [2, 1, 0]

    def test_loop_variable_scoping(self):
        prog = elaborate(
            "let i = 9; borrow q[9]; for i = 1 to 2 { X[q[i]]; } X[q[i]];"
        )
        assert prog.circuit.gates[-1].qubits == (8,)  # i restored to 9

    def test_nested_loops(self):
        prog = elaborate(
            "borrow q[4];"
            "for i = 1 to 2 { for j = 1 to 2 { X[q[2 * (i - 1) + j]]; } }"
        )
        assert [g.qubits[0] for g in prog.circuit.gates] == [0, 1, 2, 3]

    def test_release_lifetime(self):
        with pytest.raises(ParseError):
            elaborate("borrow q; release q; X[q];")

    def test_double_release(self):
        with pytest.raises(ParseError):
            elaborate("borrow q; release q; release q;")

    def test_release_unknown(self):
        with pytest.raises(ParseError):
            elaborate("release zz;")

    def test_index_bounds(self):
        with pytest.raises(ParseError) as err:
            elaborate("borrow q[2]; X[q[3]];")
        assert "out of range" in str(err.value)

    def test_scalar_indexing_rejected(self):
        with pytest.raises(ParseError):
            elaborate("borrow q; X[q[1]];")

    def test_array_needs_index(self):
        with pytest.raises(ParseError):
            elaborate("borrow q[2]; X[q];")

    def test_variable_register_collisions(self):
        with pytest.raises(ParseError):
            elaborate("let q = 3; borrow q;")
        with pytest.raises(ParseError):
            elaborate("borrow q; let q = 3;")

    def test_redeclaration_rejected(self):
        with pytest.raises(ParseError):
            elaborate("borrow q; borrow q;")

    def test_redeclaration_after_release_allowed(self):
        prog = elaborate("borrow q; release q; borrow q; X[q];")
        # the second q is a fresh wire
        assert prog.circuit.num_qubits == 2
        assert prog.circuit.gates[0].qubits == (1,)

    def test_undefined_variable(self):
        with pytest.raises(ParseError):
            elaborate("borrow q[n];")

    @pytest.mark.parametrize(
        "source, message, position",
        [
            ("borrow a[0 - 1];", "register 'a' has non-positive size -1",
             (1, 8)),
            ("let a = 1;\nborrow a;", "register 'a' collides with a variable",
             (2, 8)),
            ("borrow b;\nlet b = 2;", "variable 'b' collides with a register",
             (2, 5)),
        ],
    )
    def test_elaboration_errors_have_positions(self, source, message, position):
        with pytest.raises(ParseError) as err:
            elaborate(source)
        assert message in str(err.value)
        assert (err.value.line, err.value.column) == position

    def test_registers_up_to_the_wire_limit_read(self):
        prog = elaborate(f"borrow a[{MAX_WIRES - 1}]; alloc b; X[b];")
        assert prog.circuit.num_qubits == MAX_WIRES
        assert prog.circuit.labels[-2:] == [f"a[{MAX_WIRES - 1}]", "b"]

    @pytest.mark.parametrize(
        "source, position",
        [
            (f"borrow a[{MAX_WIRES + 1}];", (1, 8)),
            ("borrow a[100000000];", (1, 8)),
            (f"borrow@ q[{MAX_WIRES}];\nalloc t;", (2, 7)),
            (
                f"borrow@ q[{MAX_WIRES}];\n"
                "borrow b { within { X[q[1]]; } apply { X[q[2]]; } }",
                (2, 8),
            ),
        ],
    )
    def test_register_past_the_wire_limit_refused(self, source, position):
        # Refused at the declaration, before its wires and labels exist.
        for strict in (True, False):
            with pytest.raises(ParseError, match="past 65536 wires") as err:
                elaborate(source, strict=strict)
            assert (err.value.line, err.value.column) == position

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("borrow q[{big}];", "register 'q' of size {shown} takes"),
            ("borrow q[0 - {big}];", "register 'q' has non-positive size {shown}"),
            ("borrow q[2]; X[q[{big}]];", "q[{shown}] out of range 1..2"),
        ],
    )
    def test_values_past_str_limit_still_reported(self, statement, message):
        # 500 factors of 10**9 make an int of 4,501 digits, which str()
        # refuses to print.
        big = " * ".join(["a"] * 500)
        shown = f"<{(10 ** 4500).bit_length()}-bit number>"
        source = f"let a = {10**9}; " + statement.format(big=big)
        for strict in (True, False):
            with pytest.raises(ParseError) as err:
                elaborate(source, strict=strict)
            assert message.format(shown=shown) in str(err.value)

    def test_summary(self):
        prog = elaborate("borrow d; borrow@ i; X[d];")
        assert "dirty=1" in prog.summary()

    def test_wires_of(self):
        prog = elaborate("borrow q[2]; borrow a; X[a];")
        assert prog.wires_of("q") == [0, 1]
        with pytest.raises(ParseError):
            prog.wires_of("zz")
