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
    bdd_nodes=128,
    elaborate_gates=11968,
    swept=24,
    sweep_agree=True,
):
    bdd_row = {"backend": "bdd", "wall_seconds": backend_wall, "all_safe": safe}
    if bdd_nodes is not None:
        bdd_row["bdd_nodes"] = bdd_nodes
    record = {
        "backends": [bdd_row, {"backend": "brute", "error": "capped"}],
        "sequential_vs_batch": [
            {
                "backend": "bdd",
                "batch_wall_seconds": batch_wall,
                "verdicts_agree": agree,
            }
        ],
    }
    if elaborate_gates is not None:
        record["elaborate"] = {
            "wall_seconds": 0.2,
            "track_seconds": 0.15,
            "gates": elaborate_gates,
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
                "front": "sweep_vs_engine",
                "obligations": 24,
                "swept": swept,
                "verdicts_agree": sweep_agree,
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
    online_runs=6,
    queueing_runs=59,
    fleet=True,
    fleet_admitted=32,
    single_admitted=30,
    restore=True,
    restore_solver_wall=1.0,
    restore_solver_admitted=40,
    restore_solver_leases=20,
):
    record = _alloc_record_base(
        width, placed, admitted, windowed_admitted, segmented_admitted, wall, lazy_runs
    )
    record["online"][0]["solver_runs"] = online_runs
    record["queueing"]["rows"][0]["solver_runs"] = queueing_runs
    if restore:
        record["restore_check"] = {
            "seed": 2,
            "rows": [
                {
                    "restore_check": "solver",
                    "admitted": restore_solver_admitted,
                    "leases_granted": restore_solver_leases,
                    "wall_seconds": restore_solver_wall,
                },
            ],
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
                    "wall_seconds": wall,
                },
                {
                    "label": "single22",
                    "shards": [22],
                    "placement": "least-loaded",
                    "admitted": single_admitted + 5,
                    "wall_seconds": wall,
                },
                {
                    "label": "fleet2x11[least-loaded]",
                    "shards": [11, 11],
                    "placement": "least-loaded",
                    "admitted": fleet_admitted,
                    "wall_seconds": wall,
                },
            ],
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
        assert not any("brute" in m for m in regressed(comp))

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

    def test_elaborate_gate_count_change_fails(self):
        comp = compare_verify(
            verify_record(), verify_record(elaborate_gates=11967)
        )
        assert regressed(comp) == ["verify.elaborate.gates"]

    def test_elaborate_row_missing_from_fresh_fails(self):
        comp = compare_verify(
            verify_record(), verify_record(elaborate_gates=None)
        )
        assert regressed(comp) == ["verify.elaborate"]

    def test_baseline_without_elaborate_row_is_not_gated(self):
        comp = compare_verify(
            verify_record(elaborate_gates=None), verify_record()
        )
        assert not comp.regressions
        assert not any(
            f.metric.startswith("verify.elaborate") for f in comp.findings
        )

    def test_elaborate_wall_is_gated(self):
        fresh = verify_record()
        fresh["elaborate"]["wall_seconds"] = 0.3
        comp = compare_verify(verify_record(), fresh)
        assert regressed(comp) == ["verify.elaborate.wall_seconds"]

    def test_elaborate_track_is_gated(self):
        fresh = verify_record()
        fresh["elaborate"]["track_seconds"] = 0.2
        comp = compare_verify(verify_record(), fresh)
        assert regressed(comp) == ["verify.elaborate.track_seconds"]

    def test_elaborate_track_within_tolerance_passes(self):
        fresh = verify_record()
        fresh["elaborate"]["track_seconds"] = 0.18
        comp = compare_verify(verify_record(), fresh)
        assert not comp.regressions
        assert "verify.elaborate.track_seconds" in {f.metric for f in comp.findings}

    def test_elaborate_track_under_noise_floor_is_skipped(self):
        baseline = verify_record()
        baseline["elaborate"]["track_seconds"] = 0.01
        fresh = verify_record()
        fresh["elaborate"]["track_seconds"] = 0.04
        comp = compare_verify(baseline, fresh)
        assert not comp.regressions

    def test_baseline_without_track_seconds_is_not_gated(self):
        baseline = verify_record()
        del baseline["elaborate"]["track_seconds"]
        fresh = verify_record()
        fresh["elaborate"]["track_seconds"] = 10.0
        comp = compare_verify(baseline, fresh)
        assert not comp.regressions
        assert "verify.elaborate.track_seconds" not in {f.metric for f in comp.findings}


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

    def test_sweep_missing_an_obligation_fails(self):
        comp = compare_verify(verify_record(), verify_record(swept=23))
        assert regressed(comp) == ["verify.fronts[sweep_vs_engine].swept"]

    def test_sweep_verdict_disagreement_fails(self):
        comp = compare_verify(verify_record(), verify_record(sweep_agree=False))
        assert regressed(comp) == ["verify.fronts[sweep_vs_engine].verdicts_agree"]

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
        comp = compare_alloc(
            alloc_record(), alloc_record(admitted=39, windowed_admitted=43)
        )
        metrics = regressed(comp)
        assert "alloc.queueing[fifo].admitted" in metrics
        assert "alloc.lending[fifo,windowed].admitted" in metrics

    def test_inflated_baseline_admitted_fails_the_gate(self):
        """The acceptance probe: bump a baseline number the fresh run
        cannot reach and the gate must fail."""
        comp = compare_alloc(alloc_record(admitted=99), alloc_record())
        assert "alloc.queueing[fifo].admitted" in regressed(comp)

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

    def test_online_solver_run_growth_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(online_runs=7))
        assert regressed(comp) == ["alloc.online[greedy].solver_runs"]

    def test_queueing_solver_run_growth_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(queueing_runs=60))
        assert regressed(comp) == ["alloc.queueing[fifo].solver_runs"]

    def test_baseline_without_solver_runs_is_not_gated(self):
        base = alloc_record()
        del base["online"][0]["solver_runs"]
        del base["queueing"]["rows"][0]["solver_runs"]
        comp = compare_alloc(base, alloc_record(online_runs=7, queueing_runs=60))
        assert not comp.regressions

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


class TestRestoreCheckGates:
    """The ``restore_check`` record: segmented lending with the
    solver-backed restore certifier keeps its exact counts at
    tolerable cost."""

    def test_identical_restore_records_pass(self):
        comp = compare_alloc(alloc_record(), alloc_record())
        assert not comp.regressions

    def test_admitted_drop_vs_baseline_fails(self):
        base = alloc_record()
        base["restore_check"]["rows"][0]["admitted"] = 41
        comp = compare_alloc(base, alloc_record(restore_solver_admitted=40))
        assert "alloc.restore_check[solver].admitted" in regressed(comp)

    def test_leases_drop_vs_baseline_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(restore_solver_leases=19))
        assert "alloc.restore_check[solver].leases_granted" in regressed(comp)

    def test_wall_blowup_vs_baseline_fails(self):
        comp = compare_alloc(alloc_record(), alloc_record(restore_solver_wall=1.3))
        assert "alloc.restore_check[solver].wall_seconds" in regressed(comp)

    def test_vanished_restore_rows_fail(self):
        fresh = alloc_record()
        del fresh["restore_check"]
        comp = compare_alloc(alloc_record(), fresh)
        assert "alloc.restore_check[solver]" in regressed(comp)

    def test_restore_absent_everywhere_is_fine(self):
        comp = compare_alloc(
            alloc_record(restore=False), alloc_record(restore=False)
        )
        assert not comp.regressions

    def test_committed_restore_baseline_holds_the_floors(self):
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        (row,) = payload["restore_check"]["rows"]
        assert row["restore_check"] == "solver"
        assert (row["jobs"], row["admitted"], row["leases_granted"]) == (300, 300, 163)


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
        assert "alloc.lending[fifo].segmented_vs_windowed" in summary
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
        """Acceptance: on the seeded 50-job lending trace
        ``segmented >= windowed`` holds under every policy, and
        segmented wins strictly under at least one (gate-guarded via
        the committed baseline)."""
        repo = Path(__file__).resolve().parent.parent
        payload = json.loads((repo / "BENCH_alloc.json").read_text())
        rows = payload["lending"]["rows"]
        by_key = {
            (row["policy"], row["lending"]): row["admitted"]
            for row in rows
        }
        policies = {policy for policy, _ in by_key}
        assert any(
            by_key[(p, "segmented")] > by_key[(p, "windowed")] for p in policies
        ), by_key
        assert all(
            by_key[(p, "segmented")] >= by_key[(p, "windowed")] for p in policies
        ), by_key
