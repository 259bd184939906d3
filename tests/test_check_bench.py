"""The bench-regression gate must catch real regressions and stay
quiet on noise.  Synthetic records keep the tests hermetic; the last
class drives the CLI end to end, including the acceptance case of an
artificially inflated baseline."""

import json
from pathlib import Path

from benchmarks.check_bench import (
    WALL_FLOOR,
    compare_alloc,
    compare_verify,
    main,
    markdown_summary,
)


def verify_record(
    backend_wall=1.0,
    batch_wall=1.0,
    agree=True,
    safe=True,
    fronts=True,
    bitset_speedup=3600.0,
    bitset_agree=True,
    incremental_ratio=0.9,
    process_speedup=2.4,
    cpu_count=8,
    bdd_nodes=128,
):
    bdd_row = {"backend": "bdd", "wall_seconds": backend_wall, "all_safe": safe}
    if bdd_nodes is not None:
        bdd_row["bdd_nodes"] = bdd_nodes
    record = {
        "backends": [bdd_row, {"backend": "dpll", "error": "capped"}],
        "sequential_vs_batch": [
            {
                "backend": "bdd",
                "batch_wall_seconds": batch_wall,
                "verdicts_agree": agree,
            }
        ],
    }
    if fronts:
        record["schema"] = "bench-verify/v2"
        record["fronts"] = [
            {
                "front": "bitset_vs_brute",
                "speedup": bitset_speedup,
                "verdicts_agree": bitset_agree,
            },
            {
                "front": "incremental_vs_fresh",
                "ratio": incremental_ratio,
            },
            {
                "front": "process_vs_thread",
                "speedup": process_speedup,
                "cpu_count": cpu_count,
            },
        ]
    return record


def alloc_record(
    width=8,
    placed=3,
    admitted=40,
    windowed_admitted=44,
    segmented_admitted=45,
    wall=1.0,
    lazy_runs=0,
    stream_speedup=50.0,
    models_agree=True,
    inf_width_match=True,
    inf_plans_match=True,
    segmented_match=True,
    streaming=True,
    fleet=True,
    fleet_admitted=32,
    single_admitted=30,
    frontend=True,
    frontend_staged=1.0,
    frontend_overlapped=1.0,
    lease_granted=True,
    first_lease_wall=0.002,
    staged_parse_wall=0.2,
    adaptive_width=120,
    adaptive_disturbances=8,
    fixed0_disturbances=8,
    restore=True,
    restore_solver_wall=1.0,
    restore_solver_admitted=40,
    restore_solver_leases=20,
):
    record = _alloc_record_base(
        width, placed, admitted, windowed_admitted, segmented_admitted, wall, lazy_runs
    )
    if frontend:
        record["streaming_frontend"] = {
            "workloads": [
                {
                    "workload": "adder32",
                    "gates": 229,
                    "staged_wall_seconds": frontend_staged,
                    "overlapped_wall_seconds": frontend_overlapped,
                }
            ],
            "first_lease": {
                "gates": 4004,
                "prefix_gates": 4,
                "staged_parse_wall_seconds": staged_parse_wall,
                "time_to_first_lease_seconds": first_lease_wall,
                "lease_granted": lease_granted,
            },
            "adaptive": [
                {
                    "policy": "fixed-0",
                    "total_width": 128,
                    "disturbances": fixed0_disturbances,
                },
                {"policy": "fixed-8", "total_width": 120, "disturbances": 8},
                {
                    "policy": "adaptive",
                    "total_width": adaptive_width,
                    "disturbances": adaptive_disturbances,
                },
            ],
        }
    if restore:
        record["restore_check"] = {
            "seed": 2,
            "rows": [
                {
                    "restore_check": "structural",
                    "admitted": 40,
                    "leases_granted": 20,
                    "wall_seconds": wall,
                },
                {
                    "restore_check": "solver",
                    "admitted": restore_solver_admitted,
                    "leases_granted": restore_solver_leases,
                    "wall_seconds": restore_solver_wall,
                },
            ],
            "solver_overhead_fraction": 0.0,
            "segmented_default": "solver",
        }
    if fleet:
        record["fleet"] = {
            "seed": 1,
            "rows": [
                {
                    "label": "single11",
                    "shards": [11],
                    "placement": "least-loaded",
                    "admitted": single_admitted,
                    "migrations": 0,
                    "wall_seconds": wall,
                },
                {
                    "label": "single22",
                    "shards": [22],
                    "placement": "least-loaded",
                    "admitted": single_admitted + 5,
                    "migrations": 0,
                    "wall_seconds": wall,
                },
                {
                    "label": "fleet2x11[least-loaded]",
                    "shards": [11, 11],
                    "placement": "least-loaded",
                    "admitted": fleet_admitted,
                    "migrations": 3,
                    "wall_seconds": wall,
                },
            ],
        }
    if streaming:
        record["streaming"] = {
            "seed": 7,
            "incremental_vs_rescan": [
                {
                    "workload": "generated-216",
                    "speedup": stream_speedup,
                    "models_agree": models_agree,
                }
            ],
            "throughput": {
                "lookahead": 8,
                "gates": 216,
                "gates_per_second": 50000.0,
            },
            "lookahead": [
                {
                    "lookahead": 0,
                    "total_width": 128,
                    "width_matches_offline": False,
                    "plans_match_offline": False,
                },
                {
                    "lookahead": "inf",
                    "total_width": 120,
                    "width_matches_offline": inf_width_match,
                    "plans_match_offline": inf_plans_match,
                },
            ],
            "segmented_parity": {
                "circuits": 12,
                "matches_offline": segmented_match,
            },
        }
    return record


def _alloc_record_base(
    width, placed, admitted, windowed_admitted, segmented_admitted, wall, lazy_runs
):
    return {
        "workloads": {
            "fig31": [
                {
                    "strategy": "greedy",
                    "final_width": width,
                    "placed": placed,
                    "wall_seconds": wall,
                }
            ]
        },
        "lazy_vs_eager_verification": {
            "lazy_solver_runs": lazy_runs,
            "lazy_wall_seconds": wall,
        },
        "online": [{"strategy": "greedy", "wall_seconds": wall}],
        "queueing": {
            "rows": [
                {
                    "policy": "fifo",
                    "admitted": admitted,
                    "wall_seconds": wall,
                }
            ]
        },
        "lending": {
            "rows": [
                {
                    "policy": "fifo",
                    "lending": "whole",
                    "admitted": admitted,
                    "wall_seconds": wall,
                },
                {
                    "policy": "fifo",
                    "lending": "windowed",
                    "admitted": windowed_admitted,
                    "wall_seconds": wall,
                },
                {
                    "policy": "fifo",
                    "lending": "segmented",
                    "admitted": segmented_admitted,
                    "wall_seconds": wall,
                },
            ]
        },
    }


def regressed(comp):
    return [finding.metric for finding in comp.regressions]


class TestCompareVerify:
    def test_identical_records_pass(self):
        comp = compare_verify(verify_record(), verify_record())
        assert comp.findings and not comp.regressions

    def test_wall_regression_over_tolerance_fails(self):
        comp = compare_verify(
            verify_record(), verify_record(backend_wall=1.3)
        )
        assert "verify.backends[bdd].wall_seconds" in regressed(comp)

    def test_wall_growth_within_tolerance_passes(self):
        comp = compare_verify(
            verify_record(), verify_record(backend_wall=1.2)
        )
        assert not comp.regressions

    def test_subfloor_baseline_is_noise_not_signal(self):
        base = verify_record(backend_wall=WALL_FLOOR / 2)
        fresh = verify_record(backend_wall=WALL_FLOOR * 10)
        comp = compare_verify(base, fresh)
        assert not comp.regressions

    def test_vanished_backend_fails(self):
        fresh = verify_record()
        fresh["backends"] = []
        comp = compare_verify(verify_record(), fresh)
        assert "verify.backends[bdd]" in regressed(comp)

    def test_safe_workload_turning_unsafe_fails(self):
        comp = compare_verify(verify_record(), verify_record(safe=False))
        assert "verify.backends[bdd].all_safe" in regressed(comp)

    def test_verdict_disagreement_fails(self):
        comp = compare_verify(verify_record(), verify_record(agree=False))
        assert "verify.sequential_vs_batch[bdd].verdicts_agree" in (
            regressed(comp)
        )

    def test_errored_baseline_row_is_skipped(self):
        comp = compare_verify(verify_record(), verify_record())
        assert not any("dpll" in m for m in regressed(comp))

    def test_bdd_node_rise_fails(self):
        comp = compare_verify(verify_record(), verify_record(bdd_nodes=129))
        assert "verify.backends[bdd].bdd_nodes" in regressed(comp)

    def test_bdd_nodes_missing_from_fresh_row_fails(self):
        comp = compare_verify(verify_record(), verify_record(bdd_nodes=None))
        assert "verify.backends[bdd].bdd_nodes" in regressed(comp)

    def test_baseline_without_bdd_nodes_is_not_gated(self):
        comp = compare_verify(
            verify_record(bdd_nodes=None), verify_record(bdd_nodes=10_000)
        )
        assert not any(f.metric.endswith("bdd_nodes") for f in comp.findings)


class TestSolverSpeedFronts:
    """The schema-v2 ``fronts`` floors lock in the solver-speed wins."""

    def test_bitset_speedup_below_floor_fails(self):
        comp = compare_verify(
            verify_record(), verify_record(bitset_speedup=49.0)
        )
        assert "verify.fronts[bitset_vs_brute].speedup" in regressed(comp)

    def test_bitset_verdict_disagreement_fails(self):
        comp = compare_verify(
            verify_record(), verify_record(bitset_agree=False)
        )
        assert "verify.fronts[bitset_vs_brute].verdicts_agree" in (
            regressed(comp)
        )

    def test_incremental_not_strictly_faster_fails(self):
        comp = compare_verify(
            verify_record(), verify_record(incremental_ratio=1.0)
        )
        assert "verify.fronts[incremental_vs_fresh].ratio" in (
            regressed(comp)
        )

    def test_process_scaling_below_2x_fails_on_big_runner(self):
        comp = compare_verify(
            verify_record(),
            verify_record(process_speedup=1.4, cpu_count=4),
        )
        assert "verify.fronts[process_vs_thread].speedup" in regressed(comp)

    def test_process_scaling_not_enforced_on_small_runner(self):
        """A 1-cpu box cannot show multi-core scaling; the row is
        recorded honestly and the floor is waived, not faked."""
        comp = compare_verify(
            verify_record(),
            verify_record(process_speedup=0.9, cpu_count=1),
        )
        assert not comp.regressions
        waived = [
            f
            for f in comp.findings
            if f.metric == "verify.fronts[process_vs_thread].speedup"
        ]
        assert waived and "not enforced" in waived[0].detail

    def test_vanished_front_fails(self):
        fresh = verify_record()
        fresh["fronts"] = [
            r for r in fresh["fronts"] if r["front"] != "incremental_vs_fresh"
        ]
        comp = compare_verify(verify_record(), fresh)
        assert "verify.fronts[incremental_vs_fresh]" in regressed(comp)

    def test_v1_baseline_without_fronts_still_gates_fresh(self):
        """Fresh fronts are floor-checked even before the committed
        baseline is regenerated with schema v2."""
        comp = compare_verify(
            verify_record(fronts=False), verify_record(bitset_speedup=10.0)
        )
        assert "verify.fronts[bitset_vs_brute].speedup" in regressed(comp)

    def test_fronts_absent_everywhere_is_fine(self):
        comp = compare_verify(
            verify_record(fronts=False), verify_record(fronts=False)
        )
        assert not comp.regressions


class TestCompareAlloc:
    def test_identical_records_pass(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert comp.findings and not comp.regressions

    def test_width_increase_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(width=9))
        assert "alloc.fig31[greedy].final_width" in regressed(comp)

    def test_width_decrease_passes(self):
        comp = compare_alloc(alloc_record(), alloc_record(width=7))
        assert not comp.regressions

    def test_admitted_drop_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(admitted=39))
        metrics = regressed(comp)
        assert "alloc.queueing[fifo].admitted" in metrics
        assert "alloc.lending[fifo,whole].admitted" in metrics

    def test_inflated_baseline_admitted_fails_the_gate(self):
        """The acceptance probe: bump a baseline number the fresh run
        cannot reach and the gate must fail."""
        comp = compare_alloc(alloc_record(admitted=99), alloc_record())
        assert "alloc.queueing[fifo].admitted" in regressed(comp)

    def test_windowed_below_whole_fails_within_fresh(self):
        fresh = alloc_record(admitted=40, windowed_admitted=39)
        comp = compare_alloc(alloc_record(), fresh)
        assert "alloc.lending[fifo].windowed_vs_whole" in regressed(comp)

    def test_segmented_below_windowed_fails_within_fresh(self):
        fresh = alloc_record(windowed_admitted=44, segmented_admitted=43)
        comp = compare_alloc(alloc_record(), fresh)
        metrics = regressed(comp)
        assert "alloc.lending[fifo].segmented_vs_windowed" in metrics

    def test_segmented_without_a_strict_win_fails_within_fresh(self):
        """Satellite acceptance: equal counts everywhere mean the
        restore-point analysis bought nothing — the gate must complain
        even though the non-strict lattice holds."""
        fresh = alloc_record(windowed_admitted=44, segmented_admitted=44)
        comp = compare_alloc(alloc_record(), fresh)
        assert (
            "alloc.lending.segmented_strictly_beats_windowed"
            in regressed(comp)
        )

    def test_segmented_strict_win_on_any_policy_passes(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert not comp.regressions

    def test_lazy_solver_run_growth_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(lazy_runs=3))
        assert "alloc.lazy_vs_eager.lazy_solver_runs" in regressed(comp)

    def test_missing_lending_section_in_baseline_is_fine(self):
        """New sections may appear in fresh records before the baseline
        is regenerated — that must not fail the gate."""
        base = alloc_record()
        del base["lending"]
        comp = compare_alloc(base, alloc_record())
        assert not comp.regressions


class TestFleetGate:
    """The ``fleet`` section: baseline diffs plus the fleet-vs-single
    floor inside the fresh record."""

    def test_identical_fleet_records_pass(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert not comp.regressions

    def test_fleet_admitted_drop_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(fleet_admitted=31))
        assert "alloc.fleet[fleet2x11[least-loaded]].admitted" in (
            regressed(comp)
        )

    def test_fleet_below_single_shard_fails_within_fresh(self):
        """A 2x11 fleet admitting less than one 11-qubit machine alone
        wasted a whole machine — the floor binds even when the baseline
        row agrees."""
        fresh = alloc_record(fleet_admitted=29, single_admitted=30)
        comp = compare_alloc(
            alloc_record(fleet_admitted=29, single_admitted=30), fresh
        )
        assert "alloc.fleet[fleet2x11[least-loaded]]_vs_single11" in (
            regressed(comp)
        )

    def test_vanished_fleet_row_fails(self):
        fresh = alloc_record()
        fresh["fleet"]["rows"] = [
            r for r in fresh["fleet"]["rows"] if "fleet" not in r["label"]
        ]
        comp = compare_alloc(alloc_record(), fresh)
        assert "alloc.fleet[fleet2x11[least-loaded]]" in regressed(comp)

    def test_fleet_absent_everywhere_is_fine(self):
        comp = compare_alloc(alloc_record(fleet=False), alloc_record(fleet=False))
        assert not comp.regressions

    def test_fresh_floor_enforced_without_baseline_section(self):
        """The fleet floor holds even before the committed baseline is
        regenerated with the new section."""
        comp = compare_alloc(
            alloc_record(fleet=False),
            alloc_record(fleet_admitted=20, single_admitted=30),
        )
        assert "alloc.fleet[fleet2x11[least-loaded]]_vs_single11" in (
            regressed(comp)
        )

    def test_committed_fleet_baseline_holds_the_floor(self):
        """The committed record must itself satisfy the fleet floor
        under every placement policy."""
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        rows = {row["label"]: row for row in payload["fleet"]["rows"]}
        single = rows["single11"]["admitted"]
        fleet_rows = [r for label, r in rows.items() if label.startswith("fleet")]
        assert len(fleet_rows) == 3  # one per registered placement
        for row in fleet_rows:
            assert row["admitted"] >= single, row


class TestStreamingGates:
    """The ``streaming`` section floors: the incremental-engine win and
    the lookahead=∞ differential contract are locked in."""

    def test_identical_streaming_records_pass(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert not comp.regressions

    def test_speedup_below_2x_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(stream_speedup=1.9))
        assert (
            "alloc.streaming.incremental_vs_rescan[generated-216].speedup"
            in regressed(comp)
        )

    def test_model_disagreement_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(models_agree=False))
        metric = "alloc.streaming.incremental_vs_rescan[generated-216].models_agree"
        assert metric in regressed(comp)

    def test_inf_width_mismatch_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(inf_width_match=False))
        assert "alloc.streaming.lookahead[inf].width_matches_offline" in regressed(comp)

    def test_inf_plan_mismatch_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(inf_plans_match=False))
        assert "alloc.streaming.lookahead[inf].plans_match_offline" in regressed(comp)

    def test_segmented_parity_break_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(segmented_match=False))
        assert "alloc.streaming.segmented_parity.matches_offline" in regressed(comp)

    def test_vanished_streaming_rows_fail(self):
        fresh = alloc_record()
        del fresh["streaming"]
        comp = compare_alloc(alloc_record(), fresh)
        metrics = regressed(comp)
        assert "alloc.streaming.incremental_vs_rescan[generated-216]" in metrics
        assert "alloc.streaming.lookahead[inf]" in metrics
        assert "alloc.streaming.throughput" in metrics
        assert "alloc.streaming.segmented_parity" in metrics

    def test_streaming_absent_everywhere_is_fine(self):
        """Pre-streaming baselines (and fresh records from older
        branches) must not trip the gate."""
        comp = compare_alloc(
            alloc_record(streaming=False), alloc_record(streaming=False)
        )
        assert not comp.regressions

    def test_fresh_floors_enforced_without_baseline_section(self):
        """Fresh streaming floors hold even before the committed
        baseline is regenerated with the new section."""
        comp = compare_alloc(
            alloc_record(streaming=False), alloc_record(stream_speedup=1.0)
        )
        assert (
            "alloc.streaming.incremental_vs_rescan[generated-216].speedup"
            in regressed(comp)
        )

    def test_committed_streaming_baseline_holds_the_floors(self):
        """The committed record must itself satisfy every floor."""
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        streaming = payload["streaming"]
        for row in streaming["incremental_vs_rescan"]:
            assert row["speedup"] >= 2.0, row
            assert row["models_agree"] is True, row
        inf_rows = [r for r in streaming["lookahead"] if r["lookahead"] == "inf"]
        assert len(inf_rows) == 1
        assert inf_rows[0]["width_matches_offline"] is True
        assert inf_rows[0]["plans_match_offline"] is True
        assert streaming["segmented_parity"]["matches_offline"] is True


class TestStreamingFrontendGates:
    """The ``streaming_frontend`` floors: overlap must stay free, the
    prefix admission must beat a full staged parse, and adaptive
    lookahead must hold its width/disturbance wins."""

    def test_identical_frontend_records_pass(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert not comp.regressions

    def test_overlap_cost_over_tolerance_fails_within_fresh(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(frontend_overlapped=1.3)
        )
        metric = (
            "alloc.streaming_frontend.workloads[adder32].overlapped_vs_staged"
        )
        assert metric in regressed(comp)

    def test_overlap_cost_within_tolerance_passes(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(frontend_overlapped=1.2)
        )
        assert not comp.regressions

    def test_subfloor_overlap_walls_are_noise(self):
        comp = compare_alloc(
            alloc_record(),
            alloc_record(
                frontend_staged=WALL_FLOOR / 5,
                frontend_overlapped=WALL_FLOOR / 2,
            ),
        )
        assert not comp.regressions

    def test_ungranted_lease_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(lease_granted=False))
        assert "alloc.streaming_frontend.first_lease.lease_granted" in (
            regressed(comp)
        )

    def test_first_lease_slower_than_parse_fails(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(first_lease_wall=0.3)
        )
        assert (
            "alloc.streaming_frontend.first_lease.beats_staged_parse"
            in regressed(comp)
        )

    def test_adaptive_wider_than_best_fixed_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(adaptive_width=124))
        assert (
            "alloc.streaming_frontend.adaptive.width_vs_fixed-8"
            in regressed(comp)
        )

    def test_adaptive_more_disturbed_than_fixed0_fails(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(adaptive_disturbances=9)
        )
        assert (
            "alloc.streaming_frontend.adaptive.disturbances_vs_fixed-0"
            in regressed(comp)
        )

    def test_vanished_frontend_rows_fail(self):
        fresh = alloc_record()
        del fresh["streaming_frontend"]
        comp = compare_alloc(alloc_record(), fresh)
        metrics = regressed(comp)
        assert "alloc.streaming_frontend.workloads[adder32]" in metrics
        assert "alloc.streaming_frontend.first_lease" in metrics
        assert "alloc.streaming_frontend.adaptive[adaptive]" in metrics

    def test_frontend_absent_everywhere_is_fine(self):
        comp = compare_alloc(
            alloc_record(frontend=False), alloc_record(frontend=False)
        )
        assert not comp.regressions

    def test_fresh_floors_enforced_without_baseline_section(self):
        comp = compare_alloc(
            alloc_record(frontend=False), alloc_record(lease_granted=False)
        )
        assert "alloc.streaming_frontend.first_lease.lease_granted" in (
            regressed(comp)
        )

    def test_committed_frontend_baseline_holds_the_floors(self):
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        frontend = payload["streaming_frontend"]
        first = frontend["first_lease"]
        assert first["lease_granted"] is True
        assert (
            first["time_to_first_lease_seconds"]
            < first["staged_parse_wall_seconds"]
        )
        rows = {row["policy"]: row for row in frontend["adaptive"]}
        adaptive = rows["adaptive"]
        for policy, row in rows.items():
            if policy.startswith("fixed"):
                assert adaptive["total_width"] <= row["total_width"], policy
        assert (
            adaptive["disturbances"] <= rows["fixed-0"]["disturbances"]
        )


class TestRestoreCheckGates:
    """The ``restore_check`` record: the solver certifier's throughput
    and cost floors behind the segmented-mode default."""

    def test_identical_restore_records_pass(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert not comp.regressions

    def test_solver_admitting_less_fails_within_fresh(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(restore_solver_admitted=39)
        )
        assert "alloc.restore_check.solver_admitted_vs_structural" in (
            regressed(comp)
        )

    def test_solver_leasing_less_fails_within_fresh(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(restore_solver_leases=19)
        )
        assert "alloc.restore_check.solver_leases_vs_structural" in (
            regressed(comp)
        )

    def test_solver_wall_blowup_fails_within_fresh(self):
        comp = compare_alloc(
            alloc_record(), alloc_record(restore_solver_wall=1.3)
        )
        assert "alloc.restore_check.solver_vs_structural_wall" in (
            regressed(comp)
        )

    def test_admitted_drop_vs_baseline_fails(self):
        base = alloc_record()
        base["restore_check"]["rows"][1]["admitted"] = 41
        comp = compare_alloc(base, alloc_record(restore_solver_admitted=40))
        assert "alloc.restore_check[solver].admitted" in regressed(comp)

    def test_vanished_restore_rows_fail(self):
        fresh = alloc_record()
        del fresh["restore_check"]
        comp = compare_alloc(alloc_record(), fresh)
        metrics = regressed(comp)
        assert "alloc.restore_check[structural]" in metrics
        assert "alloc.restore_check[solver]" in metrics

    def test_restore_absent_everywhere_is_fine(self):
        comp = compare_alloc(
            alloc_record(restore=False), alloc_record(restore=False)
        )
        assert not comp.regressions

    def test_committed_restore_baseline_holds_the_floors(self):
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        rows = {
            row["restore_check"]: row
            for row in payload["restore_check"]["rows"]
        }
        assert rows["solver"]["admitted"] >= rows["structural"]["admitted"]
        assert (
            rows["solver"]["leases_granted"]
            >= rows["structural"]["leases_granted"]
        )
        assert payload["restore_check"]["segmented_default"] == "solver"


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def run_gate(self, tmp_path, base_alloc, fresh_alloc, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        code = main(
            [
                "--verify-baseline",
                self.write(tmp_path, "vb.json", verify_record()),
                "--verify-fresh",
                self.write(tmp_path, "vf.json", verify_record()),
                "--alloc-baseline",
                self.write(tmp_path, "ab.json", base_alloc),
                "--alloc-fresh",
                self.write(tmp_path, "af.json", fresh_alloc),
            ]
        )
        return code, summary.read_text()

    def test_clean_run_exits_zero_and_writes_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        code, summary = self.run_gate(
            tmp_path, alloc_record(), alloc_record(), monkeypatch
        )
        assert code == 0
        assert "Bench-regression gate" in summary
        assert "REGRESSION" not in summary
        assert "no bench regressions" in capsys.readouterr().out

    def test_inflated_baseline_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        code, summary = self.run_gate(
            tmp_path,
            alloc_record(admitted=99, windowed_admitted=99),
            alloc_record(),
            monkeypatch,
        )
        assert code == 1
        assert "REGRESSION" in summary
        assert "admitted" in capsys.readouterr().err

    def test_verify_only_skips_alloc_records(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(tmp_path / "s.md"))
        code = main(
            [
                "--verify-only",
                "--verify-baseline",
                self.write(tmp_path, "vb.json", verify_record()),
                "--verify-fresh",
                self.write(tmp_path, "vf.json", verify_record()),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_verify" in out
        assert "BENCH_alloc" not in out

    def test_verify_only_catches_front_regression(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(tmp_path / "s.md"))
        code = main(
            [
                "--verify-only",
                "--verify-baseline",
                self.write(tmp_path, "vb.json", verify_record()),
                "--verify-fresh",
                self.write(
                    tmp_path, "vf.json", verify_record(incremental_ratio=1.2)
                ),
            ]
        )
        assert code == 1
        assert "incremental_vs_fresh" in capsys.readouterr().err

    def test_missing_alloc_fresh_without_verify_only_errors(
        self, tmp_path, monkeypatch
    ):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "--verify-fresh",
                    self.write(tmp_path, "vf.json", verify_record()),
                ]
            )
        assert excinfo.value.code == 2

    def test_summary_lists_every_metric(self, tmp_path, monkeypatch):
        _, summary = self.run_gate(
            tmp_path, alloc_record(), alloc_record(), monkeypatch
        )
        assert "alloc.lending[fifo].windowed_vs_whole" in summary
        assert "verify.backends[bdd].wall_seconds" in summary


class TestMarkdown:
    def test_counts_checks_and_regressions(self):
        comp = compare_alloc(alloc_record(), alloc_record(width=9))
        text = markdown_summary({"BENCH_alloc": comp})
        assert "1 regression(s)" in text
        assert "❌ REGRESSION" in text

    def test_real_committed_baselines_pass_against_themselves(self):
        """The committed records must be self-consistent under the
        gate (fresh == baseline is the identity run CI starts from)."""
        repo = Path(__file__).resolve().parent.parent
        verify = json.loads((repo / "BENCH_verify.json").read_text())
        alloc = json.loads((repo / "BENCH_alloc.json").read_text())
        assert not compare_verify(verify, verify).regressions
        assert not compare_alloc(alloc, alloc).regressions

    def test_committed_lending_rows_show_refinement_wins(self):
        """Acceptance: on the seeded 50-job lending trace the lattice
        ``segmented >= windowed >= whole`` holds under every policy,
        and each refinement wins strictly under at least one
        (gate-guarded via the committed baseline)."""
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        rows = payload["lending"]["rows"]
        by_key = {
            (row["policy"], row["lending"]): row["admitted"]
            for row in rows
        }
        policies = {policy for policy, _ in by_key}
        for finer, coarser in (
            ("windowed", "whole"),
            ("segmented", "windowed"),
        ):
            assert any(
                by_key[(p, finer)] > by_key[(p, coarser)]
                for p in policies
            ), (finer, coarser, by_key)
            assert all(
                by_key[(p, finer)] >= by_key[(p, coarser)]
                for p in policies
            ), (finer, coarser, by_key)
