"""Seeded mutation fuzz of both text readers.

Whatever the text, a reader fails only with its own error type:
``elaborate`` (strict and collect mode) and ``elaborate_file`` with
:class:`~repro.errors.ParseError`, ``from_qasm`` with
:class:`~repro.errors.CircuitError`.  Each case copies a seed text and
applies one to three seeded character inserts, deletes or
replacements.  Inserted characters come from the seed text itself, so
most mutants stay close to the grammar, and from a few characters the
grammar never expects (other scripts' digits, a superscript, a NUL).
A failure names the case seed and the mutant.
"""

import random

import pytest

from repro.circuits import Circuit, Gate, cphase, phase, to_qasm
from repro.circuits.qasm import from_qasm
from repro.errors import CircuitError, ParseError
from repro.lang.surface import elaborate, elaborate_file
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.mcx import gidney_mcx

#: Ownership constructs the paper templates do not use.
OWNERSHIP_PROGRAM = """\
let n = 3;
borrow@ q[n]; alloc t; borrow x;
lend x { CNOT[q[1], t]; X[t]; X[t]; }
borrow a {
  within { CCNOT[q[1], q[2], a]; }
  apply  { CNOT[a, q[3]]; }
}
release x;
for i = n to 1 { X[q[i]]; }
"""

QBR_SEEDS = (adder_qbr_source(6), mcx_qbr_source(5), OWNERSHIP_PROGRAM)

#: Characters no seed text holds.
FOREIGN = "$#^\"'\\\t\r\x00é١٢²"

QBR_CASES = 1500
QASM_CASES = 3000


def _qasm_seed() -> str:
    mcx = gidney_mcx(4).circuit
    circuit = Circuit(mcx.num_qubits, mcx.gates)
    circuit.extend(
        [phase(0.25, 0), cphase(-0.5, 0, 1), Gate("RZ", (2,), (1.5,))]
    )
    return to_qasm(circuit)


def mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three character inserts, deletes or
    replacements."""
    alphabet = sorted(set(text)) + list(FOREIGN)
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        at = rng.randrange(len(chars) + (op == 0))
        if op == 0:
            chars.insert(at, rng.choice(alphabet))
        elif op == 1 and chars:
            del chars[at]
        elif chars:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


def _fail(case: int, text: str, err: Exception) -> None:
    pytest.fail(
        f"case {case}: {type(err).__name__} escaped: {err}\n{text!r}",
        pytrace=False,
    )


def test_seed_texts_read():
    for source in QBR_SEEDS:
        elaborate(source)
    assert from_qasm(_qasm_seed()).num_qubits == 9


@pytest.mark.parametrize("strict", [True, False])
def test_elaborate_raises_only_parse_error(strict):
    for case in range(QBR_CASES):
        rng = random.Random(case)
        text = mutate(QBR_SEEDS[case % len(QBR_SEEDS)], rng)
        try:
            elaborate(text, strict=strict)
        except ParseError:
            pass
        except Exception as err:  # noqa: BLE001 - the property under test
            _fail(case, text, err)


def test_from_qasm_raises_only_circuit_error():
    seed = _qasm_seed()
    for case in range(QASM_CASES):
        text = mutate(seed, random.Random(case))
        try:
            from_qasm(text)
        except CircuitError:
            pass
        except Exception as err:  # noqa: BLE001 - the property under test
            _fail(case, text, err)


def test_elaborate_file_of_non_utf8_bytes_raises_only_parse_error(tmp_path):
    path = tmp_path / "mutant.qbr"
    for case in range(60):
        rng = random.Random(case)
        data = bytearray(QBR_SEEDS[case % len(QBR_SEEDS)].encode())
        for _ in range(rng.randint(1, 4)):
            data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        # 0xFF never occurs in UTF-8, so every mutant is non-UTF-8.
        data.insert(rng.randrange(len(data) + 1), 0xFF)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="is not UTF-8"):
            elaborate_file(path)
