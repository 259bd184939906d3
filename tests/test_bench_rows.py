"""Every registered lending mode, queue policy, placement policy and
allocation strategy has a committed ``BENCH_alloc.json`` row.

A registry entry stays only while the committed record measures it, so
none can linger registered but unbenchmarked (the verification
backends have the same check in ``tests/verify/test_backends.py``).
Lease packers are exempt: no committed row replays a trace per packer
yet, so none of them can be judged for deletion until one does
(ROADMAP item 6, under "Keep").
"""

import json
from pathlib import Path

import pytest

from repro.alloc import available_strategies
from repro.multiprog import available_placements, available_policies
from repro.multiprog.scheduler import LENDING_MODES

RECORD = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_alloc.json").read_text()
)


@pytest.mark.parametrize("lending", LENDING_MODES)
def test_every_lending_mode_has_a_row_per_policy(lending):
    pairs = {(row["policy"], row["lending"]) for row in RECORD["lending"]["rows"]}
    for policy in available_policies():
        assert (policy, lending) in pairs


@pytest.mark.parametrize("policy", available_policies())
def test_every_queue_policy_has_a_queueing_row(policy):
    assert policy in {row["policy"] for row in RECORD["queueing"]["rows"]}


@pytest.mark.parametrize("placement", available_placements())
def test_every_placement_has_a_fleet_row(placement):
    assert placement in {
        row["placement"]
        for row in RECORD["fleet"]["rows"]
        if row["label"].startswith("fleet")
    }


@pytest.mark.parametrize("strategy", available_strategies())
def test_every_strategy_has_workload_and_online_rows(strategy):
    for rows in RECORD["workloads"].values():
        assert strategy in {row["strategy"] for row in rows}
    assert strategy in {row["strategy"] for row in RECORD["online"]}
