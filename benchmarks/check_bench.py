"""Bench-regression gate: diff fresh perf records against baselines.

CI regenerates ``BENCH_verify.json`` / ``BENCH_alloc.json`` into a
scratch directory and runs this script against the committed copies.
The gate fails (exit 1) on:

* a **wall-time regression** — any tracked timing more than
  ``WALL_TOLERANCE`` (default 25%) over its baseline.  Timings whose
  baseline is under ``WALL_FLOOR`` seconds are skipped: at that scale
  runner jitter dwarfs any real change, and a 0.01s -> 0.02s "2x
  regression" is noise, not signal;
* a **throughput drop** — fewer admitted jobs on the queueing or
  lending trace, fewer placed ancillas or a wider final width on any
  strategy workload, more lazy solver runs, more verifier misses
  (``solver_runs``) on an online or queueing row, more ROBDD nodes
  (``bdd_nodes``) on a verify backend row, a safe verdict flipping
  unsafe, or sequential/batch verdicts disagreeing.  These are exact
  deterministic counts, so no tolerance applies;
* a **vanished row** — a backend/strategy/policy present in the
  baseline but missing from the fresh record (silent coverage loss);
* the **front-end record** — the paper-scale ``elaborate`` row must
  stay present, keep its elaboration (``wall_seconds``) and formula
  tracking (``track_seconds``) times within the wall tolerance, and
  emit exactly the baseline's ``gates`` count (skipped when the
  baseline has no row);
* the **solver-speed floors** — within the fresh verify record itself
  (schema v2 ``fronts`` rows): the bitset kernel must stay at least
  50x over the old per-row brute enumeration, the incremental probe
  path must be strictly faster than fresh-instance solving (the
  median per-pair ratio < 1.0), and the dependence sweep must decide
  every (6.2) obligation of its adder (``swept`` equal to
  ``obligations``) with the engine's verdicts;
* the **lending invariants** — within the fresh record itself:
  segmented lending admitting fewer jobs than windowed under any
  policy, or failing to admit *strictly more* than windowed under at
  least one policy (the restore-point analysis must keep paying for
  itself on the pinned trace);
* the **fleet floor** — within the fresh record's ``fleet`` section:
  under every registered placement policy, the 2x11 fleet must admit
  at least as many jobs from the pinned trace as one 11-qubit machine
  alone (a fleet that loses to one of its own shards wasted a whole
  machine), on top of the usual presence/throughput/wall diffs
  against the baseline rows;
* the **restore-check record** — segmented lending with its
  solver-backed restore certifier must keep admitting and leasing at
  least the baseline's exact counts on the pinned 300-job trace, at a
  wall cost within the usual tolerance.

A markdown summary of every comparison goes to stdout and, when the
``GITHUB_STEP_SUMMARY`` environment variable is set, to that file as
well (the job-summary panel in the Actions UI).

Run:
  python benchmarks/run_paper_tables.py --bench-only \\
      --bench-json fresh/BENCH_verify.json \\
      --alloc-json fresh/BENCH_alloc.json
  python benchmarks/check_bench.py \\
      --verify-baseline BENCH_verify.json \\
      --verify-fresh fresh/BENCH_verify.json \\
      --alloc-baseline BENCH_alloc.json \\
      --alloc-fresh fresh/BENCH_alloc.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Allowed fractional wall-time growth before the gate fails.
WALL_TOLERANCE = float(os.environ.get("BENCH_WALL_TOLERANCE", "0.25"))
#: Baselines under this many seconds are not timing-checked (noise).
WALL_FLOOR = float(os.environ.get("BENCH_WALL_FLOOR", "0.05"))


@dataclass
class Finding:
    """One compared metric: its values and the verdict."""

    metric: str
    baseline: object
    fresh: object
    ok: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "ok" if self.ok else "REGRESSION"


class Comparator:
    """Collects findings over one (baseline, fresh) record pair."""

    def __init__(self):
        self.findings: List[Finding] = []

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if not f.ok]

    def wall(self, metric: str, baseline, fresh) -> None:
        """Wall seconds: fresh may exceed baseline by WALL_TOLERANCE."""
        if baseline is None or fresh is None:
            return
        if baseline < WALL_FLOOR:
            self.findings.append(
                Finding(
                    metric, baseline, fresh, True,
                    f"baseline under the {WALL_FLOOR}s noise floor",
                )
            )
            return
        limit = baseline * (1.0 + WALL_TOLERANCE)
        self.findings.append(
            Finding(
                metric, baseline, fresh, fresh <= limit,
                f"limit {limit:.4f}s (+{WALL_TOLERANCE:.0%})",
            )
        )

    def at_least(self, metric: str, baseline, fresh, detail="") -> None:
        """Exact throughput count: fresh must not drop below baseline."""
        self.findings.append(
            Finding(metric, baseline, fresh, fresh >= baseline, detail)
        )

    def at_most(self, metric: str, baseline, fresh, detail="") -> None:
        """Exact cost count: fresh must not exceed baseline (a missing
        fresh count fails)."""
        ok = fresh is not None and fresh <= baseline
        self.findings.append(Finding(metric, baseline, fresh, ok, detail))

    def present(self, metric: str, row: Optional[dict]) -> bool:
        """A baseline row must still exist in the fresh record."""
        if row is None:
            self.findings.append(
                Finding(
                    metric, "present", "MISSING", False,
                    "row vanished from the fresh record",
                )
            )
            return False
        return True


def _by(rows, *keys) -> Dict[tuple, dict]:
    return {tuple(row.get(k) for k in keys): row for row in rows or ()}


def compare_verify(baseline: dict, fresh: dict) -> Comparator:
    """Gate checks over a BENCH_verify.json pair."""
    comp = Comparator()
    fresh_backends = _by(fresh.get("backends"), "backend")
    for key, base_row in _by(baseline.get("backends"), "backend").items():
        if "error" in base_row:
            continue
        name = f"verify.backends[{key[0]}]"
        fresh_row = fresh_backends.get(key)
        if not comp.present(name, fresh_row):
            continue
        comp.wall(
            f"{name}.wall_seconds",
            base_row.get("wall_seconds"),
            fresh_row.get("wall_seconds"),
        )
        if "bdd_nodes" in base_row:
            comp.at_most(
                f"{name}.bdd_nodes",
                base_row["bdd_nodes"],
                fresh_row.get("bdd_nodes"),
                "the compiled ROBDD must not grow",
            )
        if base_row.get("all_safe") is True:
            comp.findings.append(
                Finding(
                    f"{name}.all_safe", True,
                    fresh_row.get("all_safe"),
                    fresh_row.get("all_safe") is True,
                    "a safe workload must stay safe",
                )
            )
    # Solver-speed fronts (schema v2): presence is locked against the
    # baseline; the wins themselves are locked by absolute floors on
    # the *fresh* record, so they cannot silently erode run over run.
    fresh_fronts = _by(fresh.get("fronts"), "front")
    for key, _ in _by(baseline.get("fronts"), "front").items():
        comp.present(f"verify.fronts[{key[0]}]", fresh_fronts.get(key))
    bitset = fresh_fronts.get(("bitset_vs_brute",))
    if bitset is not None:
        speedup = bitset.get("speedup")
        comp.findings.append(
            Finding(
                "verify.fronts[bitset_vs_brute].speedup",
                ">= 50",
                speedup,
                isinstance(speedup, (int, float)) and speedup >= 50,
                "bitset kernel must stay >= 50x over the old brute wall",
            )
        )
        comp.findings.append(
            Finding(
                "verify.fronts[bitset_vs_brute].verdicts_agree",
                True,
                bitset.get("verdicts_agree"),
                bitset.get("verdicts_agree") is True,
                "kernel and enumeration must agree",
            )
        )
    incremental = fresh_fronts.get(("incremental_vs_fresh",))
    if incremental is not None:
        ratio = incremental.get("ratio")
        comp.findings.append(
            Finding(
                "verify.fronts[incremental_vs_fresh].ratio",
                "< 1.0",
                ratio,
                isinstance(ratio, (int, float)) and ratio < 1.0,
                "incremental probing must beat fresh-instance solving",
            )
        )
    sweep = fresh_fronts.get(("sweep_vs_engine",))
    if sweep is not None:
        comp.findings.append(
            Finding(
                "verify.fronts[sweep_vs_engine].swept",
                sweep.get("obligations"),
                sweep.get("swept"),
                sweep.get("swept") == sweep.get("obligations"),
                "the sweep must decide every (6.2) obligation",
            )
        )
        comp.findings.append(
            Finding(
                "verify.fronts[sweep_vs_engine].verdicts_agree",
                True,
                sweep.get("verdicts_agree"),
                sweep.get("verdicts_agree") is True,
                "sweep and engine-alone verdicts must agree",
            )
        )
    fresh_cmp = _by(fresh.get("sequential_vs_batch"), "backend")
    for key, base_row in _by(
        baseline.get("sequential_vs_batch"), "backend"
    ).items():
        name = f"verify.sequential_vs_batch[{key[0]}]"
        fresh_row = fresh_cmp.get(key)
        if not comp.present(name, fresh_row):
            continue
        comp.wall(
            f"{name}.batch_wall_seconds",
            base_row.get("batch_wall_seconds"),
            fresh_row.get("batch_wall_seconds"),
        )
        comp.findings.append(
            Finding(
                f"{name}.verdicts_agree", True,
                fresh_row.get("verdicts_agree"),
                fresh_row.get("verdicts_agree") is True,
                "sequential and batch engines must agree",
            )
        )
    base_elaborate = baseline.get("elaborate")
    if base_elaborate is not None:
        fresh_elaborate = fresh.get("elaborate")
        if comp.present("verify.elaborate", fresh_elaborate):
            for metric in ("wall_seconds", "track_seconds"):
                comp.wall(
                    f"verify.elaborate.{metric}",
                    base_elaborate.get(metric),
                    fresh_elaborate.get(metric),
                )
            gates = fresh_elaborate.get("gates")
            comp.findings.append(
                Finding(
                    "verify.elaborate.gates",
                    base_elaborate["gates"],
                    gates,
                    gates == base_elaborate["gates"],
                    "elaboration must emit the same gates",
                )
            )
    return comp


def compare_alloc(baseline: dict, fresh: dict) -> Comparator:
    """Gate checks over a BENCH_alloc.json pair."""
    comp = Comparator()
    fresh_workloads = fresh.get("workloads", {})
    for workload, base_rows in baseline.get("workloads", {}).items():
        fresh_rows = _by(fresh_workloads.get(workload), "strategy")
        for key, base_row in _by(base_rows, "strategy").items():
            name = f"alloc.{workload}[{key[0]}]"
            fresh_row = fresh_rows.get(key)
            if not comp.present(name, fresh_row):
                continue
            comp.at_most(
                f"{name}.final_width",
                base_row.get("final_width"),
                fresh_row.get("final_width"),
                "width reduction must not degrade",
            )
            comp.at_least(
                f"{name}.placed",
                base_row.get("placed"),
                fresh_row.get("placed"),
                "placed ancillas must not drop",
            )
            comp.wall(
                f"{name}.wall_seconds",
                base_row.get("wall_seconds"),
                fresh_row.get("wall_seconds"),
            )
    base_lazy = baseline.get("lazy_vs_eager_verification")
    fresh_lazy = fresh.get("lazy_vs_eager_verification")
    if base_lazy and comp.present("alloc.lazy_vs_eager", fresh_lazy):
        comp.at_most(
            "alloc.lazy_vs_eager.lazy_solver_runs",
            base_lazy.get("lazy_solver_runs"),
            fresh_lazy.get("lazy_solver_runs"),
            "lazy verification must not run more solvers",
        )
        comp.wall(
            "alloc.lazy_vs_eager.lazy_wall_seconds",
            base_lazy.get("lazy_wall_seconds"),
            fresh_lazy.get("lazy_wall_seconds"),
        )
    fresh_online = _by(fresh.get("online"), "strategy")
    for key, base_row in _by(baseline.get("online"), "strategy").items():
        name = f"alloc.online[{key[0]}]"
        fresh_row = fresh_online.get(key)
        if not comp.present(name, fresh_row):
            continue
        if "solver_runs" in base_row:
            comp.at_most(
                f"{name}.solver_runs",
                base_row["solver_runs"],
                fresh_row.get("solver_runs"),
                "verifier misses must not grow",
            )
        comp.wall(
            f"{name}.wall_seconds",
            base_row.get("wall_seconds"),
            fresh_row.get("wall_seconds"),
        )
    fresh_queue = _by(
        fresh.get("queueing", {}).get("rows"), "policy"
    )
    for key, base_row in _by(
        baseline.get("queueing", {}).get("rows"), "policy"
    ).items():
        name = f"alloc.queueing[{key[0]}]"
        fresh_row = fresh_queue.get(key)
        if not comp.present(name, fresh_row):
            continue
        comp.at_least(
            f"{name}.admitted",
            base_row.get("admitted"),
            fresh_row.get("admitted"),
            "admitted jobs must not drop",
        )
        if "solver_runs" in base_row:
            comp.at_most(
                f"{name}.solver_runs",
                base_row["solver_runs"],
                fresh_row.get("solver_runs"),
                "verifier misses must not grow",
            )
        comp.wall(
            f"{name}.wall_seconds",
            base_row.get("wall_seconds"),
            fresh_row.get("wall_seconds"),
        )
    fresh_lending = _by(
        fresh.get("lending", {}).get("rows"), "policy", "lending"
    )
    for key, base_row in _by(
        baseline.get("lending", {}).get("rows"), "policy", "lending"
    ).items():
        name = f"alloc.lending[{key[0]},{key[1]}]"
        fresh_row = fresh_lending.get(key)
        if not comp.present(name, fresh_row):
            continue
        comp.at_least(
            f"{name}.admitted",
            base_row.get("admitted"),
            fresh_row.get("admitted"),
            "admitted jobs must not drop",
        )
        comp.wall(
            f"{name}.wall_seconds",
            base_row.get("wall_seconds"),
            fresh_row.get("wall_seconds"),
        )
    # The lending invariants inside the fresh record itself: segmented
    # lending must never admit fewer jobs than the windowed mode it
    # refines, and must beat it outright under at least one policy —
    # otherwise the restore-point analysis stopped paying for itself on
    # the pinned trace.
    strict_pairs = []
    for (policy, lending), fresh_row in sorted(fresh_lending.items()):
        base_row = fresh_lending.get((policy, "windowed"))
        if lending != "segmented" or base_row is None:
            continue
        comp.at_least(
            f"alloc.lending[{policy}].segmented_vs_windowed",
            base_row.get("admitted"),
            fresh_row.get("admitted"),
            "segmented lending must admit >= windowed",
        )
        strict_pairs.append(
            (policy, base_row.get("admitted"), fresh_row.get("admitted"))
        )
    if strict_pairs:
        wins = [p for p, base, seg in strict_pairs if seg > base]
        comp.findings.append(
            Finding(
                "alloc.lending.segmented_strictly_beats_windowed",
                "some policy",
                ", ".join(wins) or "none",
                bool(wins),
                "segmented must out-admit windowed under >= 1 policy",
            )
        )
    fresh_fleet = _by(fresh.get("fleet", {}).get("rows"), "label")
    for key, base_row in _by(baseline.get("fleet", {}).get("rows"), "label").items():
        name = f"alloc.fleet[{key[0]}]"
        fresh_row = fresh_fleet.get(key)
        if not comp.present(name, fresh_row):
            continue
        comp.at_least(
            f"{name}.admitted",
            base_row.get("admitted"),
            fresh_row.get("admitted"),
            "admitted jobs must not drop",
        )
        comp.wall(
            f"{name}.wall_seconds",
            base_row.get("wall_seconds"),
            fresh_row.get("wall_seconds"),
        )
    # The fleet-vs-single invariant inside the fresh record itself:
    # under every placement policy, the fleet must admit at least what
    # one machine of its own shard size does alone (the smallest
    # ``single*`` row, ``single11`` in the shipped record) — anything
    # less means the router wasted a whole machine.
    singles = [
        row
        for (label,), row in sorted(fresh_fleet.items())
        if str(label).startswith("single")
    ]
    single = singles[0] if singles else None
    if single is not None:
        for (label,), fresh_row in sorted(fresh_fleet.items()):
            if not str(label).startswith("fleet"):
                continue
            comp.at_least(
                f"alloc.fleet[{label}]_vs_{single['label']}",
                single.get("admitted"),
                fresh_row.get("admitted"),
                "a fleet must never admit less than one of its "
                "shards alone",
            )
    _compare_restore_check(
        comp,
        baseline.get("restore_check") or {},
        fresh.get("restore_check") or {},
    )
    return comp


def _compare_restore_check(comp: Comparator, baseline: dict, fresh: dict) -> None:
    """The ``restore_check`` section: segmented lending with the
    solver-backed restore certifier must keep its exact admitted and
    leased counts at tolerable cost."""
    fresh_rows = _by(fresh.get("rows"), "restore_check")
    for key, base_row in _by(baseline.get("rows"), "restore_check").items():
        name = f"alloc.restore_check[{key[0]}]"
        fresh_row = fresh_rows.get(key)
        if not comp.present(name, fresh_row):
            continue
        for count in ("admitted", "leases_granted"):
            comp.at_least(
                f"{name}.{count}",
                base_row.get(count),
                fresh_row.get(count),
                "exact count must not drop",
            )
        comp.wall(
            f"{name}.wall_seconds",
            base_row.get("wall_seconds"),
            fresh_row.get("wall_seconds"),
        )


def markdown_summary(comparators: Dict[str, Comparator]) -> str:
    lines = ["# Bench-regression gate", ""]
    total = regressions = 0
    for record, comp in comparators.items():
        lines.append(f"## {record}")
        lines.append("")
        lines.append("| metric | baseline | fresh | status | note |")
        lines.append("| --- | --- | --- | --- | --- |")
        for finding in comp.findings:
            total += 1
            if not finding.ok:
                regressions += 1
            status = "✅" if finding.ok else "❌ REGRESSION"
            lines.append(
                f"| {finding.metric} | {finding.baseline} | "
                f"{finding.fresh} | {status} | {finding.detail} |"
            )
        lines.append("")
    lines.append(
        f"**{total} checks, {regressions} regression(s)** "
        f"(wall tolerance +{WALL_TOLERANCE:.0%}, "
        f"noise floor {WALL_FLOOR}s)"
    )
    return "\n".join(lines)


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on bench regressions vs committed baselines."
    )
    parser.add_argument("--verify-baseline", default="BENCH_verify.json")
    parser.add_argument("--verify-fresh", required=True)
    parser.add_argument("--alloc-baseline", default="BENCH_alloc.json")
    parser.add_argument("--alloc-fresh")
    parser.add_argument(
        "--verify-only",
        action="store_true",
        help="gate only the verify record (solver-speed CI job)",
    )
    args = parser.parse_args(argv)
    if not args.verify_only and not args.alloc_fresh:
        parser.error("--alloc-fresh is required unless --verify-only is set")

    comparators = {
        "BENCH_verify": compare_verify(
            _load(args.verify_baseline), _load(args.verify_fresh)
        ),
    }
    if not args.verify_only:
        comparators["BENCH_alloc"] = compare_alloc(
            _load(args.alloc_baseline), _load(args.alloc_fresh)
        )
    summary = markdown_summary(comparators)
    print(summary)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as handle:
            handle.write(summary + "\n")

    regressions = [
        finding
        for comp in comparators.values()
        for finding in comp.regressions
    ]
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} bench regression(s):",
            file=sys.stderr,
        )
        for finding in regressions:
            print(
                f"  {finding.metric}: baseline={finding.baseline} "
                f"fresh={finding.fresh} ({finding.detail})",
                file=sys.stderr,
            )
        return 1
    print("\nOK: no bench regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
