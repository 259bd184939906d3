"""A pinned differential corpus for the borrow checker and the elaborator.

Each program in the corpus is digested twice: the collect-mode report
``check_program(source).render()``, and the strict ``elaborate(source)``
outcome -- its gates, labels and wire roles, or the error it raised
(type, message, line and column).  The digests below were recorded
before the checker's gate hook stopped building one ``GateOperand`` per
operand of every gate, so any change to what the checker reports, in
which order, or to what the elaborator emits moves them.

The corpus is :data:`SEEDS` (every program string of
``tests/lang/test_borrowck.py`` and ``tests/lang/test_borrow_blocks.py``,
copied here so later edits to those files do not move the digests, and
one nested block), a generated Figure 1.3 program, the ``adder.qbr`` and
``mcx.qbr`` templates at small sizes, and :data:`MUTANTS` seeded
character mutations of them.
"""

import hashlib
import random
import re

import pytest

from repro.lang import check_program
from repro.lang.surface import elaborate
from repro.lang.surface.lexer import KEYWORDS
from repro.lang.surface.parser import GATE_NAMES
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source

SEEDS = [
    "borrow q; release q; X[q];",
    "borrow q;\nborrow q;",
    "borrow@ x;\nborrow b { within { CNOT[x, b]; } apply { } }\nX[b];",
    "borrow@ x;\nborrow b {\n  within { CNOT[b, x]; }\n  apply  { X[x]; }\n}",
    "borrow@ x;\nlend x { X[x]; }",
    "lend zz { }",
    "borrow@ x; CNOT[x, x];",
    "release zz;",
    "borrow@ g;\nborrow b {\n  within { CNOT[g, b]; }\n  apply  { release b; }\n}",
    "borrow@ x; alloc t;\n"
    "borrow b {\n"
    "  within { CNOT[x, b]; }\n"
    "  apply  { CCNOT[b, x, t]; }\n"
    "}",
    "borrow@ x; alloc t1; alloc t2;\n"
    "borrow b {\n"
    "  within { CNOT[x, b]; }\n"
    "  apply  { CNOT[b, t1]; CNOT[t1, t2]; }\n"
    "}",
    "borrow@ x; alloc t;\nborrow b {\n  within { CNOT[x, b]; }\n  apply  { X[t]; }\n}",
    "borrow a; borrow b; release a; CNOT[a, b];",
    "borrow@ x;\nborrow b { within { CNOT[x, b]; } apply { } }\nrelease b;",
    "borrow@ x;\nlend x { release x; }",
    "borrow q; release q; lend q { }",
    "borrow q; release q; release q;",
    "borrow@ x; alloc t;\n"
    "borrow b {\n"
    "  within { CNOT[b, x]; }\n"
    "  apply  { CCNOT[b, x, t]; }\n"
    "}",
    "borrow@ x; alloc t;\n"
    "borrow b {\n"
    "  within { CNOT[b, x]; }\n"
    "  apply  { CNOT[x, t]; }\n"
    "}",
    "alloc t;\n"
    "borrow b[2] {\n"
    "  within { CNOT[b[1], b[2]]; }\n"
    "  apply  { CNOT[b[2], t]; }\n"
    "}",
    "borrow@ o; alloc t;\n"
    "borrow b {\n"
    "  within { CNOT[b, t]; CNOT[t, b]; }\n"
    "  apply  { CNOT[b, o]; }\n"
    "}",
    "alloc t; alloc u;\n"
    "borrow b[2] {\n"
    "  within { CNOT[b[2], t]; CNOT[t, b[2]]; CNOT[b[1], b[2]]; }\n"
    "  apply  { CNOT[b[2], u]; }\n"
    "}",
    "borrow@ x; alloc t; alloc u;\n"
    "borrow a {\n"
    "  within { CNOT[x, t]; }\n"
    "  apply {\n"
    "    borrow c {\n"
    "      within { CNOT[x, c]; }\n"
    "      apply  { CNOT[t, u]; }\n"
    "    }\n"
    "  }\n"
    "}",
    "borrow q; release q; X[q];\nrelease zz;",
    "borrow q; release q;\nfor i = 0 to 3 { X[q]; }",
    "borrow q",
    "borrow@ a; borrow@ b; CNOT[a, b];",
    "borrow q; release q; X[q];\n",
    "borrow@ q1; borrow@ q2; borrow@ q3; alloc q4;\n"
    "borrow a {\n"
    "  within { CCNOT[q1, q2, a]; }\n"
    "  apply  { CCNOT[a, q3, q4]; }\n"
    "}",
    "borrow@ x; alloc t[2];\n"
    "borrow b[2] {\n"
    "  within { CNOT[x, b[1]]; CNOT[x, b[2]]; }\n"
    "  apply  { CNOT[b[1], t[1]]; CNOT[b[2], t[2]]; }\n"
    "}",
    "alloc t;\n"
    "borrow b[2] {\n"
    "  within { CNOT[b[1], b[2]]; }\n"
    "  apply  { CNOT[b[1], t]; }\n"
    "}",
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
    "XY q;",
    "release a;\nrelease b;",
    "borrow@ q1; borrow@ q2; borrow@ q3; alloc q4;\n"
    "borrow a {\n"
    "  within { CCNOT[q1, q2, a]; }\n"
    "  apply  { CCNOT[a, q3, q4]; }\n"
    "}\n",
    "borrow@ x; borrow@ y; alloc t;\n"
    "borrow b {\n"
    "  within { CNOT[x, b]; CNOT[y, b]; }\n"
    "  apply  { CNOT[b, t]; }\n"
    "}",
    "borrow@ x; alloc t; alloc u;\n"
    "X[u];\n"
    "borrow b {\n"
    "  within { CNOT[x, b]; }\n"
    "  apply  { CNOT[b, t]; }\n"
    "}\n"
    "CNOT[t, u];",
    "borrow@ w; borrow@ x; alloc t;\nlend w { CNOT[x, t]; CNOT[t, x]; }\nX[t];",
    "borrow@ x; alloc t1; alloc t2;\n"
    "borrow b { within { CNOT[x, b]; } apply { CNOT[b, t1]; } }\n"
    "borrow c { within { CNOT[x, c]; } apply { CNOT[c, t2]; } }",
    "borrow@ q1; borrow@ q2; borrow@ q3; alloc q4; borrow a;\n"
    "CCNOT[q1, q2, a]; CCNOT[a, q3, q4];\n"
    "CCNOT[q1, q2, a]; CCNOT[a, q3, q4];\n"
    "release a;",
    # Not from those files: an apply-section gate inside two open
    # apply phases, which both blocks must check and record.
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
    "}",
]

#: Seeded character mutations of the seed programs.
MUTANTS = 3000
#: Characters a mutation inserts or writes, besides the seed's own.
ALPHABET = "abcqtuxXC0123456789[](){};,=+-*@/ \n"
#: The corpus is digested in this many consecutive chunks, so a
#: failure points at a slice of it.
CHUNKS = 8

_WORD = re.compile(r"\w+")
#: Keywords and gate names: overwriting one of their characters only
#: ever makes a syntax error.
_RESERVED = KEYWORDS | set(GATE_NAMES)


def fig13_blocks(count):
    """Figure 1.3's CCCNOT as ``count`` scoped blocks in sequence."""
    lines = [f"borrow@ q1; borrow@ q2; borrow@ q3; alloc t[{count}];"]
    lines.extend(
        f"borrow a{i} {{ within {{ CCNOT[q1, q2, a{i}]; }} "
        f"apply {{ CCNOT[a{i}, q3, t[{i}]]; }} }}"
        for i in range(1, count + 1)
    )
    return "\n".join(lines)


def _mutate(rng, text):
    """One or two character edits.  Most overwrite a character of a
    register name or number with another one of the program's own,
    which keeps the statements and moves operands, registers and
    bounds; the rest delete a character, insert one from
    :data:`ALPHABET` or repeat the text up to the next ``;``.
    """
    chars = list(text)
    own = [c for c in text if c.isalnum()] or list(ALPHABET)
    for _ in range(rng.randint(1, 2)):
        spots = [
            i
            for word in _WORD.finditer("".join(chars))
            if word.group() not in _RESERVED
            for i in range(word.start(), word.end())
        ]
        roll = rng.random()
        if roll < 0.7 and spots:
            chars[rng.choice(spots)] = rng.choice(own)
        elif roll < 0.8 and chars:
            del chars[rng.randrange(len(chars))]
        elif roll < 0.9:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(ALPHABET))
        else:
            start = rng.randrange(len(chars) + 1)
            stop = "".join(chars).find(";", start) + 1
            chars[start:start] = chars[start:stop]
    return "".join(chars)


def corpus():
    """The seeds, then the mutants, in a fixed order."""
    seeds = SEEDS + [
        fig13_blocks(3),
        adder_qbr_source(4),
        adder_qbr_source(6),
        mcx_qbr_source(5),
        mcx_qbr_source(8),
    ]
    rng = random.Random(20261019)
    return seeds + [_mutate(rng, rng.choice(seeds)) for _ in range(MUTANTS)]


CORPUS = corpus()


def _failure(err):
    return (
        type(err).__name__,
        str(err),
        getattr(err, "line", None),
        getattr(err, "column", None),
    )


def _record(source):
    """What the checker reports and what strict elaboration yields."""
    try:
        rendered = check_program(source).render()
    except Exception as err:  # noqa: BLE001 - the failure is the record
        rendered = _failure(err)
    try:
        program = elaborate(source)
    except Exception as err:  # noqa: BLE001 - the failure is the record
        return rendered, ("error", _failure(err))
    circuit = program.circuit
    return rendered, (
        "ok",
        [(gate.name, gate.qubits) for gate in circuit.gates],
        circuit.labels,
        program.dirty_wires,
        program.input_wires,
        program.clean_wires,
        program.proven_wires,
    )


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


def _chunk(index):
    size = -(-len(CORPUS) // CHUNKS)
    return CORPUS[index * size : (index + 1) * size]


#: Digest of the corpus text itself: a failure here means the corpus
#: changed, not the checker.
PINNED_CORPUS = "871592f2c966ee1f"

#: Chunk index -> digest of its programs' records.  Chunks 0, 2, 3, 4,
#: 6 and 7 were re-pinned when BQ010 began to name the apply-section
#: for an offset the apply-section wrote (12 records); with "the
#: apply-section mixed" read back as "the within-section mixed", every
#: record gives the earlier digests.
PINNED = {
    0: "1b463de9e2f1bdba",
    1: "695df210f8626f2c",
    2: "a46f920bf0d02c18",
    3: "e3cfe0e8da0cd1ed",
    4: "7cc8f1e74e5f13b5",
    5: "d07a49be48bbf2f7",
    6: "4f923386ffd20fc6",
    7: "d14befc8dd5a4d43",
}


def test_corpus_is_unchanged():
    assert len(CORPUS) == len(SEEDS) + 5 + MUTANTS
    assert _digest(CORPUS) == PINNED_CORPUS


@pytest.mark.parametrize("index", range(CHUNKS))
def test_checker_and_elaborator_match_the_pinned_records(index):
    assert _digest(_record(source) for source in _chunk(index)) == PINNED[index]
