"""The fleet tier made executable: routing one job stream over a pool
of machines.

A cloud operator rarely owns one big QPU — it owns several smaller
ones.  :class:`~repro.multiprog.FleetRouter` turns N independent
:class:`~repro.multiprog.MultiProgrammer` shards into one scheduler:
every ``submit()`` is ranked across shards by a pluggable placement
policy, jobs that cannot start anywhere wait in one fleet-level queue,
and every admission or release drains that queue against the shard
that just changed, earliest deadline first.

This walkthrough replays one pinned 30-job seeded trace through a
single 22-qubit machine and through a 2x11 fleet under each registered
placement policy, comparing admissions.

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
            f"backfilled {stats['admitted_from_queue']}"
        )
    print(
        "\nTwo half-size shards give up single-machine packing headroom,\n"
        "but a waiting job starts on whichever shard frees capacity\n"
        "first - on this trace the fleet beats even the one big machine,\n"
        "and it never admits less than one 11-qubit machine alone would\n"
        "(the gate the benchmark suite enforces)."
    )


def main() -> None:
    policy_shootout()


if __name__ == "__main__":
    main()
