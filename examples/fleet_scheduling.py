"""The fleet tier made executable: routing one job stream over a pool
of machines.

A cloud operator rarely owns one big QPU — it owns several smaller
ones.  :class:`~repro.multiprog.FleetRouter` turns N independent
:class:`~repro.multiprog.MultiProgrammer` shards into one scheduler:
every ``submit()`` is ranked across shards by a pluggable placement
policy, jobs that cannot start anywhere queue on the most promising
shard (or at fleet level), and every release re-drains the whole fleet
— including *migrating* a job queued on one shard to another that just
freed capacity.

This walkthrough:

1. replays one pinned 30-job seeded trace through a single 22-qubit
   machine and through a 2x11 fleet under each registered placement
   policy, comparing admissions and counting migrations;
2. demonstrates a wall-clock deadline expiring a queued job, with an
   injected clock so the run is deterministic.

Run:  python examples/fleet_scheduling.py
"""

from repro.multiprog import FleetRouter, available_placements
from repro.testing import random_fleet_trace, replay_trace


def policy_shootout() -> None:
    print("=== one 22-qubit machine vs a 2x11 fleet ===")
    trace = random_fleet_trace(seed=1, num_jobs=30)
    print(f"pinned trace: seed=1, {len(trace)} events\n")

    single = FleetRouter([22])
    single_log = replay_trace(single, trace)
    base = single_log.stats
    print(
        f"{'single 22':>14}: admitted {base['admitted']:2d}, "
        f"rejected {base['rejected']}"
    )

    for placement in available_placements():
        fleet = FleetRouter([11, 11], placement=placement)
        log = replay_trace(fleet, trace)
        stats = log.stats
        print(
            f"{placement:>14}: admitted {stats['admitted']:2d}, "
            f"rejected {stats['rejected']}, "
            f"migrations {stats['migrations']}, "
            f"backfilled {stats['admitted_from_queue']}"
        )
    print(
        "\nTwo half-size shards give up single-machine packing headroom\n"
        "but gain two independent queues that drain in parallel, and\n"
        "cross-shard migration moves waiting jobs to whichever shard\n"
        "frees capacity first - on this trace the fleet beats even the\n"
        "one big machine, and it never admits less than one 11-qubit\n"
        "machine alone would (the gate the benchmark suite enforces)."
    )


def deadline_demo() -> None:
    print("\n=== wall-clock deadlines (injected clock) ===")
    now = [0.0]
    fleet = FleetRouter([4], clock=lambda: now[0])
    trace = random_fleet_trace(seed=3, num_jobs=4, max_data=4)
    jobs = [e.job for e in trace if e.kind == "submit"]

    fleet.submit(jobs[0])
    outcome = fleet.submit(jobs[1], deadline_s=5.0)
    print(f"{jobs[1].name}: {outcome.status} with a 5s deadline")

    now[0] = 4.0
    fleet.submit(jobs[2])  # deadlines are evaluated lazily, per event
    print(f"t=4.0s: pending {fleet.pending()}")

    now[0] = 6.0
    fleet.submit(jobs[3])
    stats = fleet.fleet_stats()
    print(
        f"t=6.0s: pending {fleet.pending()}, "
        f"deadline_expired={stats['deadline_expired']} "
        f"({', '.join(stats['deadline_expired_names'])})"
    )
    print(
        "The logical clock stays authoritative for replay - wall time\n"
        "only ever withdraws queued jobs, it never reorders them."
    )


def main() -> None:
    policy_shootout()
    deadline_demo()


if __name__ == "__main__":
    main()
