"""The tracker interns exactly the nodes it always has, in the same order.

:func:`track_circuit` builds every ``b_q`` through
:meth:`ExprBuilder.and_` and :meth:`ExprBuilder.xor_`, and those
constructors intern side nodes too (``x AND (x XOR 1)`` interns ``x``'s
XOR without the constant).  The node counts and intern-table digests
below pin that behaviour: any change to which nodes get interned, or in
what order, moves them.
"""

import hashlib

import pytest

from repro.boolfn.expr import ExprBuilder
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.testing.generators import random_job
from repro.verify.tracking import track_circuit

#: (program, size, simplify_xor) -> (node_count, intern-table digest).
PINNED = {
    ("adder", 6, True): (41, "6178e7a245dce492"),
    ("adder", 8, True): (57, "2a492ae26bdffb1a"),
    ("adder", 10, True): (73, "d59a6bc4d1413a1f"),
    ("adder", 12, True): (89, "916e97d02566e9c7"),
    ("adder", 14, True): (105, "a6a30cb346072539"),
    ("mcx", 20, True): (196, "8b46d5c766e5bf3a"),
    ("mcx", 40, True): (396, "ac1932ab05480393"),
    ("mcx", 60, True): (596, "4474c3b4d36c3939"),
    ("mcx", 80, True): (796, "2553540b0b39254f"),
    ("mcx", 100, True): (996, "85a7531a4cf6c52b"),
    ("adder", 6, False): (58, "a939175b452e8c1f"),
    ("adder", 8, False): (82, "1c4a07dd078aed16"),
    ("adder", 10, False): (106, "93af9f850c45d9f4"),
    ("adder", 12, False): (130, "309823e4cb020449"),
    ("adder", 14, False): (154, "3dd4708b8a8b651a"),
    ("mcx", 20, False): (546, "437c126a0ff960c5"),
    ("mcx", 40, False): (1146, "ad4f4b3470180282"),
    ("mcx", 60, False): (1746, "127f61087307ddda"),
    ("mcx", 80, False): (2346, "120160895d929cfd"),
    ("mcx", 100, False): (2946, "86d4df456b86c9b8"),
}

#: ``random_job(seed)`` for seeds 0..63: simplify_xor -> (total node
#: count, digest of the per-job digests).
RANDOM_JOBS = 64
PINNED_RANDOM = {
    True: (838, "6e05fae65c5fe80b"),
    False: (1113, "bca2f25004099646"),
}

_SOURCES = {"adder": adder_qbr_source, "mcx": mcx_qbr_source}


def _digest(builder: ExprBuilder) -> str:
    """Every interned node, in uid order, as (uid, kind, child uids,
    name, value)."""
    digest = hashlib.sha256()
    for node in sorted(builder._intern.values(), key=lambda n: n.uid):
        record = (
            node.uid,
            node.kind,
            [child.uid for child in node.children],
            node.name,
            node.value,
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINNED), ids=str)
def test_paper_programs_intern_the_pinned_nodes(key):
    program, size, simplify = key
    circuit = elaborate(_SOURCES[program](size)).circuit
    builder = track_circuit(circuit, simplify_xor=simplify).builder
    assert (builder.node_count, _digest(builder)) == PINNED[key]


@pytest.mark.parametrize("simplify", [True, False])
def test_random_jobs_intern_the_pinned_nodes(simplify):
    total = 0
    combined = hashlib.sha256()
    for seed in range(RANDOM_JOBS):
        builder = track_circuit(
            random_job(seed).circuit, simplify_xor=simplify
        ).builder
        total += builder.node_count
        combined.update(_digest(builder).encode())
    assert (total, combined.hexdigest()[:16]) == PINNED_RANDOM[simplify]
