"""Shared helpers for the benchmark harness.

Each benchmark file regenerates one paper artefact (see the experiment
map in docs/reproduction.md).
Benchmarks run the measured operation exactly once via
``benchmark.pedantic`` — verification is deterministic, and single runs
keep the full sweep within minutes on a laptop.  Paper-facing numbers
(qubit counts, solver-only seconds, cost rows) are attached as
``extra_info`` so they appear in ``--benchmark-verbose`` output and in
saved JSON.
"""

from __future__ import annotations


def run_once(benchmark, fn):
    """Benchmark ``fn`` with exactly one warm-free invocation."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
