"""Experiment E11 — ablations of the design choices (``docs/reproduction.md``).

A1  hash-consed x⊕x=0 simplification during formula tracking
    (Figure 6.1's rule): turning it off inflates the formulas the
    backends must decide — an order of magnitude at n = 20.
A3  BDD variable order: first-use order vs its reverse on both
    benchmark families, plus the classic interleaved-vs-separated witness where
    order changes the BDD size exponentially.
A4  the dependence sweep (``repro.verify.sweep``) before the engine: on
    or off, every verdict is the same, and on the paper's families the
    sweep decides every (6.2) obligation.

A1 and A3 measure the engines, so they run with the sweep off.
"""

import pytest

from repro.bdd import FALSE_NODE, Bdd
from repro.lang.surface import elaborate
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.verify import track_circuit, verify_circuit

from benchmarks.conftest import run_once


class TestA1Simplification:
    @pytest.mark.parametrize("simplify", [True, False], ids=["on", "off"])
    def test_cdcl_with_and_without_xor_rule(self, benchmark, simplify):
        program = elaborate(adder_qbr_source(14))

        def verify():
            return verify_circuit(
                program.circuit,
                program.dirty_wires,
                backend="cdcl",
                simplify_xor=simplify,
                sweep=False,
            )

        report = run_once(benchmark, verify)
        assert report.all_safe
        tracked = track_circuit(program.circuit, simplify_xor=simplify)
        benchmark.extra_info["formula_nodes"] = tracked.builder.node_count

    def test_simplification_shrinks_formulas(self):
        program = elaborate(adder_qbr_source(20))
        with_rule = track_circuit(program.circuit, simplify_xor=True)
        without = track_circuit(program.circuit, simplify_xor=False)
        # Hash-consing keeps the DAGs shared either way, so total node
        # inflation is moderate (~1.5x at n=20)...
        assert without.builder.node_count > 1.2 * with_rule.builder.node_count
        # ...but the *per-qubit* formulas the solver must decide blow up:
        # without the rule, cancelled history accumulates in every b_q.
        wire = program.dirty_wires[len(program.dirty_wires) // 2]
        assert (
            without.formula_of(wire).dag_size()
            > 2 * with_rule.formula_of(wire).dag_size()
        )


class TestA3VariableOrder:
    @pytest.mark.parametrize("backend", ["bdd", "bdd-reversed"])
    @pytest.mark.parametrize(
        "family,size", [("adder", 100), ("mcx", 250)]
    )
    def test_both_orders_on_both_families(self, benchmark, backend, family, size):
        source = (
            adder_qbr_source(size) if family == "adder" else mcx_qbr_source(size)
        )
        program = elaborate(source)

        def verify():
            return verify_circuit(
                program.circuit, program.dirty_wires, backend=backend, sweep=False
            )

        report = run_once(benchmark, verify)
        assert report.all_safe

    def test_order_can_matter_exponentially(self, benchmark):
        """The textbook witness: OR of a_i AND b_i has a linear BDD under
        the interleaved order and an exponential one when the a's and
        b's are separated."""
        k = 10

        def build(order):
            bdd = Bdd(order)
            acc = FALSE_NODE
            for i in range(k):
                acc = bdd.apply_or(
                    acc, bdd.apply_and(bdd.var(f"a{i}"), bdd.var(f"b{i}"))
                )
            return bdd.size(acc)

        interleaved = [x for i in range(k) for x in (f"a{i}", f"b{i}")]
        separated = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]

        sizes = run_once(
            benchmark, lambda: (build(interleaved), build(separated))
        )
        good, bad = sizes
        benchmark.extra_info["interleaved_nodes"] = good
        benchmark.extra_info["separated_nodes"] = bad
        assert bad > 20 * good


class TestA4Sweep:
    @pytest.mark.parametrize(
        "family,size,backend",
        [
            ("adder", 20, "cdcl"),
            ("adder", 100, "bdd"),
            ("mcx", 250, "cdcl"),
            ("mcx", 250, "bdd"),
        ],
    )
    def test_sweep_changes_no_verdict(self, benchmark, family, size, backend):
        source = (
            adder_qbr_source(size) if family == "adder" else mcx_qbr_source(size)
        )
        program = elaborate(source)

        def verify(sweep):
            return verify_circuit(
                program.circuit, program.dirty_wires, backend=backend, sweep=sweep
            )

        off = verify(False)
        on = run_once(benchmark, lambda: verify(True))
        assert [(v.qubit, v.safe) for v in on.verdicts] == [
            (v.qubit, v.safe) for v in off.verdicts
        ]
        assert on.all_safe
        assert (on.swept, off.swept) == (len(program.dirty_wires), 0)
        benchmark.extra_info["engine_only_seconds"] = round(off.total_seconds, 4)
        benchmark.extra_info["sweep_seconds"] = round(on.sweep_seconds, 4)
