"""Recursive-descent parser for the ``.qbr`` grammar (artifact §10.3).

Grammar (as published, plus the repository's ``MCX`` extension)::

    program   : statement+ EOF
    statement : 'let' ID '=' expr ';'
              | 'borrow' reg ';' | 'borrow@' reg ';' | 'alloc' reg ';'
              | 'borrow' reg '{' 'within' '{' statement* '}'
                              'apply'  '{' statement* '}' '}'
              | 'lend' ID '{' statement* '}'
              | 'release' ID ';'
              | 'X' '[' reg ']' ';'
              | 'CNOT' '[' reg ',' reg ']' ';'
              | 'CCNOT' '[' reg ',' reg ',' reg ']' ';'
              | 'for' ID '=' expr 'to' expr '{' statement* '}'
    reg       : ID '[' expr ']' | ID
    expr      : additive over term/factor with unary +/-, parentheses
                nested at most MAX_NESTING deep

The scoped ``borrow ... { within {...} apply {...} }`` block and the
``lend`` block are this repository's ownership extensions (checked by
:mod:`repro.lang.borrowck`; reference in ``docs/language.md``); the
rest is the artifact grammar plus the ``MCX`` repository extension.
The gate names are ordinary identifiers in the token stream and are
matched by spelling here, exactly as ANTLR's literal tokens would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.lang.surface.lexer import Token, _scan

GATE_NAMES = {"X": 1, "CNOT": 2, "CCNOT": 3}

#: Deepest parenthesis nesting an expression may use.  Each level costs
#: three frames of parser recursion, so a fixed cap turns what would be
#: a ``RecursionError`` into a :class:`ParseError`.
MAX_NESTING = 100


# ---------------------------------------------------------------------- #
# Surface AST
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Num:
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class Name:
    """Reference to a ``let``-bound (or loop) variable."""

    ident: str
    line: int
    column: int


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic over two expressions."""

    op: str  # '+', '-', '*'
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Neg:
    """Unary minus."""

    operand: "ExprNode"


ExprNode = Union[Num, Name, BinOp, Neg]


@dataclass(frozen=True)
class RegRef:
    """``q[expr]`` or bare ``q``.

    ``end_column`` is the column one past the reference's last character
    (0 when unknown), so diagnostics can underline the full extent.
    """

    name: str
    index: Optional[ExprNode]
    line: int
    column: int
    end_column: int = 0


@dataclass(frozen=True)
class LetStmt:
    """``let x = expr;`` classical binding; ``column`` anchors the name."""

    name: str
    value: ExprNode
    line: int
    column: int = 0


@dataclass(frozen=True)
class DeclStmt:
    """``borrow`` / ``borrow@`` / ``alloc`` declaration."""

    kind: str  # 'borrow', 'borrow_skip', 'alloc'
    reg: RegRef
    line: int


@dataclass(frozen=True)
class ReleaseStmt:
    """``release x;`` — ``column``/``end_column`` span the register name."""

    name: str
    line: int
    column: int = 0
    end_column: int = 0


@dataclass(frozen=True)
class GateStmt:
    """A gate application; ``column`` anchors the gate name."""

    gate: str
    operands: Tuple[RegRef, ...]
    line: int
    column: int = 0
    end_column: int = 0


@dataclass(frozen=True)
class ForStmt:
    """``for i = a to b { ... }`` — inclusive, in either direction."""

    var: str
    start: ExprNode
    end: ExprNode
    body: Tuple["StmtNode", ...]
    line: int
    column: int = 0


@dataclass(frozen=True)
class BorrowBlock:
    """Scoped borrow: ``borrow b { within { C } apply { D } }``.

    Elaborates to the double conjugation ``C; D; reverse(C); D`` and is
    what the borrow checker (:mod:`repro.lang.borrowck`) can prove safe
    statically; see ``docs/language.md``.
    """

    reg: RegRef
    within: Tuple["StmtNode", ...]
    apply: Tuple["StmtNode", ...]
    line: int
    column: int = 0


@dataclass(frozen=True)
class LendBlock:
    """``lend x { ... }`` — the owner pledges ``x`` idle for the body."""

    name: str
    body: Tuple["StmtNode", ...]
    line: int
    column: int = 0
    name_column: int = 0


StmtNode = Union[
    LetStmt,
    DeclStmt,
    ReleaseStmt,
    GateStmt,
    ForStmt,
    BorrowBlock,
    LendBlock,
]


@dataclass(frozen=True)
class Program:
    """A parsed ``.qbr`` compilation unit."""

    statements: Tuple[StmtNode, ...]


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #


class _Parser:
    """Recursive descent over a lazily lexed token stream.

    The parser holds a single lookahead token, pulled from the
    :func:`~repro.lang.surface.lexer._scan` generator only when a rule
    first looks at it.  Consuming a statement's last token pulls
    nothing, so when :func:`iter_statements` yields a statement the
    source after it has not been lexed yet.  The ``EOF`` token is never
    consumed, so the generator is never over-drawn.
    """

    def __init__(self, source: str):
        self._tokens = _scan(source)
        self._next: Optional[Token] = None  # the lookahead, once pulled
        self.nesting = 0  # open parentheses around the current factor

    # Token plumbing ---------------------------------------------------- #

    def _pull(self) -> Token:
        token = self._next = next(self._tokens)
        return token

    def peek(self) -> Token:
        return self._next or self._pull()

    def advance(self) -> Token:
        token = self._next or self._pull()
        if token.kind != "EOF":
            self._next = None
        return token

    def expect(self, kind: str, what: str = "") -> Token:
        """Consume a token of ``kind`` (never ``EOF``) or raise."""
        token = self._next or self._pull()
        if token.kind != kind:
            wanted = what or kind
            raise ParseError(
                f"expected {wanted}, found {token.text!r}",
                token.line,
                token.column,
            )
        self._next = None
        return token

    # Grammar ------------------------------------------------------------ #

    def statement(self) -> StmtNode:
        token = self.peek()
        if token.kind == "LET":
            return self.let_statement()
        if token.kind in ("BORROW", "BORROW_SKIP", "ALLOC"):
            return self.decl_statement()
        if token.kind == "LEND":
            return self.lend_statement()
        if token.kind == "RELEASE":
            return self.release_statement()
        if token.kind == "FOR":
            return self.for_statement()
        if token.kind == "ID" and token.text in GATE_NAMES:
            return self.gate_statement()
        raise ParseError(
            f"expected a statement, found {token.text!r}",
            token.line,
            token.column,
        )

    def let_statement(self) -> LetStmt:
        let = self.expect("LET")
        name = self.expect("ID", "a variable name")
        self.expect("EQUALS")
        value = self.expression()
        self.expect("SEMI")
        return LetStmt(name.text, value, let.line, name.column)

    def decl_statement(self) -> Union[DeclStmt, BorrowBlock]:
        token = self.advance()
        kind = {
            "BORROW": "borrow",
            "BORROW_SKIP": "borrow_skip",
            "ALLOC": "alloc",
        }[token.kind]
        reg = self.reg()
        if token.kind == "BORROW" and self.peek().kind == "LBRACE":
            return self.borrow_block(token, reg)
        self.expect("SEMI")
        return DeclStmt(kind, reg, token.line)

    def borrow_block(self, token: Token, reg: RegRef) -> BorrowBlock:
        self.expect("LBRACE")
        self.expect("WITHIN", "'within'")
        self.expect("LBRACE")
        within = self.block_body(token, "within-section")
        self.expect("APPLY", "'apply'")
        self.expect("LBRACE")
        apply = self.block_body(token, "apply-section")
        self.expect("RBRACE")
        return BorrowBlock(reg, within, apply, token.line, token.column)

    def lend_statement(self) -> LendBlock:
        token = self.expect("LEND")
        name = self.expect("ID", "a register name")
        self.expect("LBRACE")
        body = self.block_body(token, "lend block")
        return LendBlock(
            name.text, body, token.line, token.column, name.column
        )

    def block_body(self, opener: Token, what: str) -> Tuple[StmtNode, ...]:
        """Statements up to (and consuming) the closing ``}``."""
        body: List[StmtNode] = []
        while self.peek().kind != "RBRACE":
            if self.peek().kind == "EOF":
                raise ParseError(
                    f"unterminated {what}", opener.line, opener.column
                )
            body.append(self.statement())
        self.expect("RBRACE")
        return tuple(body)

    def release_statement(self) -> ReleaseStmt:
        token = self.expect("RELEASE")
        name = self.expect("ID", "a register name")
        self.expect("SEMI")
        return ReleaseStmt(
            name.text,
            token.line,
            name.column,
            name.column + len(name.text),
        )

    def gate_statement(self) -> GateStmt:
        token = self.expect("ID")
        gate = token.text
        arity = GATE_NAMES[gate]
        self.expect("LBRACKET")
        operands = [self.reg()]
        for _ in range(arity - 1):
            self.expect("COMMA")
            operands.append(self.reg())
        rbracket = self.expect("RBRACKET")
        self.expect("SEMI")
        return GateStmt(
            gate,
            tuple(operands),
            token.line,
            token.column,
            rbracket.column + 1,
        )

    def for_statement(self) -> ForStmt:
        token = self.expect("FOR")
        var = self.expect("ID", "a loop variable")
        self.expect("EQUALS")
        start = self.expression()
        self.expect("TO")
        end = self.expression()
        self.expect("LBRACE")
        body: List[StmtNode] = []
        while self.peek().kind != "RBRACE":
            if self.peek().kind == "EOF":
                raise ParseError(
                    "unterminated for-loop body", token.line, token.column
                )
            body.append(self.statement())
        self.expect("RBRACE")
        return ForStmt(var.text, start, end, tuple(body), token.line, token.column)

    def reg(self) -> RegRef:
        name = self.expect("ID", "a register name")
        index: Optional[ExprNode] = None
        end_column = name.column + len(name.text)
        if self.peek().kind == "LBRACKET":
            self.advance()
            index = self.expression()
            rbracket = self.expect("RBRACKET")
            if rbracket.line == name.line:
                end_column = rbracket.column + 1
        return RegRef(name.text, index, name.line, name.column, end_column)

    # Expressions --------------------------------------------------------- #

    def expression(self) -> ExprNode:
        token = self.peek()
        if token.kind in ("PLUS", "MINUS"):
            self.advance()
            operand = self.term()
            node: ExprNode = Neg(operand) if token.kind == "MINUS" else operand
        else:
            node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            right = self.term()
            node = BinOp("+" if op.kind == "PLUS" else "-", node, right)
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        while self.peek().kind == "STAR":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> ExprNode:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            try:
                return Num(int(token.text))
            except ValueError:  # past the interpreter's int-string limit
                raise ParseError(
                    f"number of {len(token.text)} digits is too long",
                    token.line,
                    token.column,
                ) from None
        if token.kind == "ID":
            self.advance()
            return Name(token.text, token.line, token.column)
        if token.kind == "LPAREN":
            if self.nesting == MAX_NESTING:
                raise ParseError(
                    "expression nested too deeply", token.line, token.column
                )
            self.advance()
            self.nesting += 1
            node = self.expression()
            self.nesting -= 1
            self.expect("RPAREN")
            return node
        raise ParseError(
            f"expected a number, name or '(', found {token.text!r}",
            token.line,
            token.column,
        )


def iter_statements(source: str) -> Iterator[StmtNode]:
    """Yield top-level statements as the source is consumed.

    Lexing and parsing advance together: a statement is yielded as soon
    as its last token has been read, before anything after it has even
    been lexed.  :func:`repro.lang.surface.elaborate.elaborate` runs
    each statement as it arrives, so an ownership violation is reported
    before a lex or parse error later in the source.  Raises the same
    :class:`~repro.errors.ParseError`\\ s as :func:`parse`, including
    ``empty program`` when the source holds no statement at all.
    """
    parser = _Parser(source)
    produced = False
    while parser.peek().kind != "EOF":
        yield parser.statement()
        produced = True
    if not produced:
        token = parser.peek()
        raise ParseError("empty program", token.line, token.column)


def parse(source: str) -> Program:
    """Parse ``.qbr`` source into a surface AST.

    Drains :func:`iter_statements`, so :func:`parse` and
    :func:`~repro.lang.surface.elaborate.elaborate` read the source
    through one code path.
    """
    return Program(tuple(iter_statements(source)))
