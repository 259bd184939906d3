"""Fleet-tier routing: placement policies, migration, deadlines,
overflow, the service front end, and seeded property traces with the
fleet invariant checker on.

Deterministic classes pin the routing contract shard by shard; the
property classes replay seeded :func:`random_fleet_trace` sequences
through a 2-shard router under every registered placement policy, with
:class:`FleetInvariantChecker` re-deriving both the per-shard occupancy
contract and the fleet bookkeeping after every event, and compare
fleet throughput against a single-shard baseline on the same trace.
"""

import os

import pytest

from repro.circuits import Circuit, cnot, x
from repro.errors import CapacityError, CircuitError, InvariantViolation
from repro.multiprog import (
    BorrowRequest,
    FleetRouter,
    FleetService,
    MultiProgrammer,
    PlacementPolicy,
    QuantumJob,
    ShardSpec,
    available_placements,
    make_placement,
    placement_class,
    register_placement,
)
from repro.multiprog.fleet import (
    BestFitWidthPlacement,
    FamilyAffinityPlacement,
    LeastLoadedPlacement,
)
from repro.testing import (
    FleetInvariantChecker,
    random_fleet_trace,
    replay_trace,
)
from repro.verify import BatchVerifier

SEED_LOG = os.environ.get("PROPERTY_SEED_LOG", "failing-seeds.txt")

#: One memoising verifier across every router in the module — traces
#: re-use circuits heavily (that is the point of the fleet trace).
SHARED_VERIFIER = BatchVerifier(backend="bdd", max_workers=1)


def busy_job(name, width):
    circuit = Circuit(width)
    if width == 1:
        circuit.append(x(0))
    else:
        circuit.extend([cnot(i, i + 1) for i in range(width - 1)])
    return QuantumJob(name, circuit, [])


def hungry_job(name):
    """Reduced width 4: statically eligible for a 4-qubit shard but
    never actually admittable there (no internal host, and lending
    cannot beat the 4-fresh-wires floor on a 4-qubit machine)."""
    circuit = Circuit(5).extend(
        [cnot(0, 4), cnot(1, 2), cnot(2, 3), cnot(0, 4)]
    )
    return QuantumJob(name, circuit, [BorrowRequest(4)])


def make_router(sizes, placement="least-loaded", **options):
    options.setdefault("verifier", SHARED_VERIFIER)
    options.setdefault("check_invariants", True)
    return FleetRouter(list(sizes), placement=placement, **options)


def record_seed(seed, context, error):
    with open(SEED_LOG, "a") as handle:
        handle.write(f"{context} seed={seed}: {error}\n")


class TestPlacementRegistry:
    def test_builtin_placements_registered(self):
        assert available_placements() == (
            "best-fit-width",
            "family-affinity",
            "least-loaded",
        )
        assert placement_class("least-loaded") is LeastLoadedPlacement
        assert isinstance(make_placement("best-fit-width"), BestFitWidthPlacement)

    def test_unknown_placement_rejected(self):
        with pytest.raises(CircuitError, match="registered"):
            make_placement("round-robin")
        with pytest.raises(CircuitError):
            FleetRouter([4, 4], placement="nope")

    def test_custom_placement_pluggable(self):
        @register_placement("reverse-order")
        class ReverseOrder(PlacementPolicy):
            def rank(self, job, shards):
                return list(shards)[::-1]

        try:
            router = make_router([4, 4], placement="reverse-order")
            outcome = router.submit(busy_job("a", 2))
            assert outcome.shard == "shard1"
        finally:
            from repro.multiprog.fleet import _REGISTRY

            _REGISTRY.pop("reverse-order")

    def test_placement_instance_accepted(self):
        router = make_router([4, 4], placement=LeastLoadedPlacement())
        assert router.placement.name == "least-loaded"


class TestFleetConstruction:
    def test_int_spec_and_prebuilt_shards(self):
        prebuilt = MultiProgrammer(5, verifier=SHARED_VERIFIER)
        router = FleetRouter(
            [3, ShardSpec(4, name="tuned", lending="segmented"), prebuilt],
            verifier=SHARED_VERIFIER,
        )
        assert list(router.shards) == ["shard0", "tuned", "shard2"]
        assert router.shards["tuned"].lending == "segmented"
        assert router.shards["shard2"] is prebuilt
        assert router.machine_size == 12
        assert router.free_qubits == 12

    def test_shards_share_one_verifier(self):
        router = make_router([4, 4])
        first, second = router.shards.values()
        assert first.verifier is second.verifier is router.verifier

    def test_empty_fleet_rejected(self):
        with pytest.raises(CircuitError, match="at least one shard"):
            FleetRouter([])

    def test_duplicate_shard_names_rejected(self):
        with pytest.raises(CircuitError, match="duplicate"):
            FleetRouter([ShardSpec(4, name="a"), ShardSpec(4, name="a")])

    def test_occupied_prebuilt_shard_rejected(self):
        occupied = MultiProgrammer(4, verifier=SHARED_VERIFIER)
        occupied.submit(busy_job("x", 2))
        with pytest.raises(CircuitError, match="empty"):
            FleetRouter([occupied])


class TestPlacementPolicies:
    def test_least_loaded_balances(self):
        router = make_router([6, 6])
        assert router.submit(busy_job("a", 4)).shard == "shard0"
        assert router.submit(busy_job("b", 2)).shard == "shard1"
        # shard1 is now the emptier one (2/6 vs 4/6).
        assert router.submit(busy_job("c", 2)).shard == "shard1"

    def test_best_fit_width_picks_tightest(self):
        router = make_router([9, 4], placement="best-fit-width")
        # A width-4 job fits shard1 exactly; least-loaded would have
        # sent it to the emptier-by-fraction shard0.
        assert router.submit(busy_job("a", 4)).shard == "shard1"
        assert router.submit(busy_job("b", 3)).shard == "shard0"

    def test_family_affinity_follows_the_fingerprint(self):
        router = make_router([8, 8], placement="family-affinity")
        template = busy_job("a", 3)
        assert router.submit(template).shard == "shard0"
        router.submit(busy_job("filler", 5))  # tilts load toward shard1
        repeat = QuantumJob("a2", template.circuit, [])
        # Least-loaded would pick shard1 (5/8 vs 3/8 busy — shard0 is
        # emptier; tie-break aside, make the load unequal both ways):
        outcome = router.submit(repeat)
        assert outcome.shard == "shard0"  # the family's home
        affinity = router.placement
        assert isinstance(affinity, FamilyAffinityPlacement)
        fingerprint = template.circuit.fingerprint()
        assert affinity._affinity[
            fingerprint[: affinity.prefix_length]
        ] == "shard0"

    def test_policies_see_only_eligible_shards(self):
        router = make_router([2, 6])
        outcome = router.submit(busy_job("wide", 5))
        assert outcome.shard == "shard1"
        with pytest.raises(CapacityError, match="widest shard"):
            router.submit(busy_job("huge", 7))
        assert router.fleet_stats()["rejected"] == 1


class TestQueueingAndMigration:
    def test_queues_on_best_shard_then_migrates(self):
        router = make_router([4, 6])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 6))
        outcome = router.submit(busy_job("c", 4))
        assert outcome.status == "queued" and outcome.shard == "shard0"
        # b's release frees shard1; c was queued on shard0 but admits
        # on shard1 the moment it frees capacity.
        router.release("b")
        assert router.resident_shards()["c"] == "shard1"
        stats = router.fleet_stats()
        assert stats["migrations"] == 1
        assert stats["admitted_from_queue"] == 1
        assert router.last_backfilled == ("c",)

    def test_local_backfill_preferred_over_migration(self):
        router = make_router([4, 4])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 4))
        router.submit(busy_job("c", 4))  # queued
        router.release("a")
        # c admits on its own shard's drain: a backfill, not a migration.
        assert router.fleet_stats()["migrations"] == 0
        assert router.fleet_stats()["admitted_from_queue"] == 1
        assert "c" in router.residents

    def test_shard_timeouts_stay_authoritative(self):
        """A queued job's logical timeout counts its host shard's own
        events, exactly as on a single machine."""
        router = make_router([2, 2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))
        outcome = router.submit(busy_job("c", 2), timeout=1)
        home = outcome.shard
        # One more event on the host shard expires c.
        victim = "a" if home == router.resident_shards()["a"] else "b"
        router.release(victim)
        assert "c" not in router.pending()
        shard_stats = router.fleet_stats()["shards"][home]
        assert shard_stats["expired"] == 1

    def test_replay_trace_drives_the_router(self):
        trace = random_fleet_trace(7, num_jobs=12)
        router = make_router([6, 6])
        checker = FleetInvariantChecker(router)
        log = replay_trace(router, trace, checker)
        assert checker.checks == len(trace)
        assert log.stats["admitted"] == len(log.admitted)


class TestOverflowQueue:
    def test_unqueueable_job_waits_at_fleet_level(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        outcome = router.submit(hungry_job("g"))
        assert outcome.status == "queued" and outcome.shard is None
        stats = router.fleet_stats()
        assert stats["overflow_queued"] == 1
        assert router.pending() == ("g",)
        assert router.queued_shards() == {"g": None}

    def test_overflow_rejected_on_idle_fleet(self):
        router = make_router([1, 4])
        with pytest.raises(CapacityError, match="idle"):
            router.submit(hungry_job("g"))
        assert router.fleet_stats()["rejected"] == 1

    def test_overflow_dropped_when_fleet_empties(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        router.submit(hungry_job("g"))
        router.release("w")  # empty fleet: the impossibility proof
        stats = router.fleet_stats()
        assert stats["rejected"] == 1
        assert router.pending() == ()

    def test_overflow_logical_timeout_counts_fleet_events(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        router.submit(hungry_job("g"), timeout=2)
        router.submit(busy_job("x", 1))  # fleet event: g still waiting
        assert "g" in router.pending()
        router.submit(busy_job("y", 1))  # second event: g expires
        assert "g" not in router.pending()
        assert router.fleet_stats()["expired"] == 1

    def test_overflow_drain_admits_when_capacity_appears(self):
        """White-box: the overflow drain admits through the same
        placement ranking as a fresh submission (the realistic trigger
        — a future allocator or machine model where lending beats
        empty-machine admission — is not constructible with today's
        merging allocator, so the drain mechanics are pinned directly)."""
        from repro.multiprog.fleet import _OverflowEntry

        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        router._overflow.append(
            _OverflowEntry(
                job=busy_job("late", 3),
                strategy=None,
                priority=0,
                enqueued_event=router.events,
                expires_event=None,
            )
        )
        router.release("w")  # any event drains the overflow queue
        assert "late" in router.residents
        stats = router.fleet_stats()
        assert stats["overflow_admitted"] == 1
        assert stats["admitted_from_queue"] == 1


class TestWallClockDeadlines:
    def make_clocked(self, sizes, **options):
        now = [0.0]
        router = make_router(sizes, clock=lambda: now[0], **options)
        return router, now

    def test_deadline_expires_queued_job(self):
        router, now = self.make_clocked([4])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 3), deadline_s=5.0)
        now[0] = 4.9
        router.submit(busy_job("c", 1))  # evaluated lazily: still alive
        assert "b" in router.pending()
        now[0] = 5.0
        router.submit(busy_job("d", 1))
        assert "b" not in router.pending()
        stats = router.fleet_stats()
        assert stats["deadline_expired"] == 1
        # The shard records the withdrawal as a cancellation.
        assert stats["shards"]["shard0"]["cancelled"] == 1

    def test_deadline_cleared_on_admission(self):
        router, now = self.make_clocked([4])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 3), deadline_s=5.0)
        router.release("a")  # b admitted before its deadline
        now[0] = 100.0
        router.submit(busy_job("c", 1))
        assert "b" in router.residents
        assert router.fleet_stats()["deadline_expired"] == 0
        assert router.fleet_stats()["deadlines_tracked"] == 0

    def test_deadline_on_overflow_entry(self):
        router, now = self.make_clocked([1, 4])
        router.submit(busy_job("w", 1))
        router.submit(hungry_job("g"), deadline_s=2.0)
        now[0] = 3.0
        router.submit(busy_job("x", 1))
        assert "g" not in router.pending()
        assert router.fleet_stats()["deadline_expired"] == 1

    def test_logical_clock_ignores_wall_time(self):
        """The logical tier must replay identically whatever the wall
        clock does — deadlines only ever *remove* queued entries."""
        router, now = self.make_clocked([2, 2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))
        router.submit(busy_job("c", 2), timeout=3)
        now[0] = 1e9  # no deadlines tracked: nothing may change
        router.release("a")
        assert "c" in router.residents

    def test_bad_deadline_rejected(self):
        router, _ = self.make_clocked([4])
        with pytest.raises(CircuitError, match="deadline_s"):
            router.submit(busy_job("a", 2), deadline_s=0.0)


class TestFleetErrors:
    def test_release_of_queued_and_unknown(self):
        router = make_router([2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))
        with pytest.raises(CircuitError, match="queued, not resident"):
            router.release("b")
        with pytest.raises(CircuitError, match="no resident job"):
            router.release("ghost")

    def test_cancel_distinguishes_resident(self):
        router = make_router([2, 2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))
        router.submit(busy_job("c", 2))
        assert router.cancel("c").name == "c"
        with pytest.raises(CircuitError, match="resident on shard"):
            router.cancel("a")
        with pytest.raises(CircuitError, match="no queued job"):
            router.cancel("ghost")

    def test_duplicate_names_rejected_fleet_wide(self):
        router = make_router([2, 2])
        router.submit(busy_job("a", 2))
        with pytest.raises(CircuitError, match="already resident"):
            router.submit(busy_job("a", 1))
        router.submit(busy_job("b", 2))
        router.submit(busy_job("c", 2))
        with pytest.raises(CircuitError, match="already queued"):
            router.submit(busy_job("c", 1))

    def test_checker_catches_planted_desync(self):
        router = make_router([2, 2], check_invariants=False)
        router.submit(busy_job("a", 2))
        checker = FleetInvariantChecker(router)
        checker.check()
        router._resident_on["a"] = "shard1"  # plant a routing lie
        with pytest.raises(InvariantViolation, match="resident map"):
            checker.check()


class TestIntrospection:
    def test_fleet_stats_aggregates(self):
        router = make_router([4, 6])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 3))
        stats = router.fleet_stats()
        assert stats["machine_size"] == 10
        assert stats["occupancy"] == 7
        assert stats["free_qubits"] == 3
        assert stats["placement"] == "least-loaded"
        assert set(stats["shards"]) == {"shard0", "shard1"}
        assert stats["shards"]["shard1"]["residents"] == 1
        assert router.stats() == stats

    def test_shard_tables_mirror_shards(self):
        router = make_router([4, 4])
        router.submit(busy_job("a", 3))
        tables = router.shard_tables()
        assert tables["shard0"]["residents"] == ["a"]
        assert tables["shard0"]["occupancy"] == 3
        assert tables["shard1"]["residents"] == []
        assert set(tables["shard0"]["occupancy_table"]) == {0, 1, 2}

    def test_snapshot_mentions_every_tier(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        router.submit(hungry_job("g"))  # shard1 empty: overflow
        router.submit(busy_job("q", 4))
        router.submit(busy_job("q2", 4))
        text = router.snapshot()
        assert "fleet: 2 shards" in text
        assert "shard0" in text and "shard1" in text
        assert "overflow: g" in text


class TestFleetService:
    def test_flush_routes_in_arrival_order(self):
        service = FleetService(
            shards=[6, 6], verifier=SHARED_VERIFIER
        )
        service.enqueue(busy_job("a", 4))
        service.enqueue(busy_job("b", 4))
        service.enqueue(busy_job("c", 6))
        assert service.buffered == 3
        results = service.flush()
        assert [r.name for r in results] == ["a", "b", "c"]
        assert [r.status for r in results] == [
            "admitted",
            "admitted",
            "queued",
        ]
        assert service.buffered == 0

    def test_rejection_does_not_shed_the_burst(self):
        service = FleetService(shards=[4], verifier=SHARED_VERIFIER)
        service.enqueue(busy_job("a", 2))
        service.enqueue(busy_job("wide", 9))
        service.enqueue(busy_job("b", 2))
        results = service.flush()
        assert [r.status for r in results] == [
            "admitted",
            "rejected",
            "admitted",
        ]
        assert "widest shard" in results[1].error
        assert service.status()["flushed_results"] == {
            "admitted": 2,
            "rejected": 1,
        }

    def test_batch_size_auto_flushes(self):
        service = FleetService(
            shards=[6], batch_size=2, verifier=SHARED_VERIFIER
        )
        service.enqueue(busy_job("a", 2))
        assert service.buffered == 1
        service.enqueue(busy_job("b", 2))
        assert service.buffered == 0
        assert "a" in service.router.residents

    def test_submit_and_release_flush_first(self):
        service = FleetService(shards=[6], verifier=SHARED_VERIFIER)
        service.enqueue(busy_job("a", 3))
        outcome = service.submit(busy_job("b", 3))
        assert outcome.admitted
        assert list(service.router.residents) == ["a", "b"]
        service.enqueue(busy_job("c", 3))
        service.release("a")
        assert "c" in service.router.pending() or "c" in service.router.residents

    def test_cancel_reaches_buffer_and_fleet(self):
        service = FleetService(shards=[2], verifier=SHARED_VERIFIER)
        service.enqueue(busy_job("a", 2))
        assert service.cancel("a").name == "a"
        assert service.buffered == 0
        service.submit(busy_job("b", 2))
        service.submit(busy_job("c", 2))
        assert service.cancel("c").name == "c"

    def test_construction_contract(self):
        with pytest.raises(CircuitError, match="router or shards"):
            FleetService()
        router = make_router([2])
        with pytest.raises(CircuitError, match="not both"):
            FleetService(router, shards=[2])
        with pytest.raises(CircuitError, match="batch_size"):
            FleetService(shards=[2], batch_size=0)
        with pytest.raises(CircuitError, match="buffered"):
            service = FleetService(shards=[4], verifier=SHARED_VERIFIER)
            service.enqueue(busy_job("a", 2))
            service.enqueue(busy_job("a", 2))


class TestFleetProperties:
    """Seeded traces through every placement policy, checker on."""

    def run_seeded(self, seed, placement, sizes=(11, 11)):
        trace = random_fleet_trace(seed, num_jobs=20)
        router = make_router(
            list(sizes), placement=placement, check_invariants=False
        )
        checker = FleetInvariantChecker(router)
        try:
            log = replay_trace(router, trace, checker)
        except Exception as error:  # noqa: BLE001 - reported with seed
            record_seed(seed, f"fleet[{placement}]", error)
            pytest.fail(
                f"seed {seed} ({placement}, {sizes}): {error}\n"
                f"reproduce with replay_trace(FleetRouter({list(sizes)}, "
                f"placement={placement!r}), random_fleet_trace({seed}, "
                f"num_jobs=20), FleetInvariantChecker(router))"
            )
        return router, checker, log, trace

    @pytest.mark.parametrize("seed", range(24))
    def test_invariants_hold_through_fleet_traces(self, seed):
        placement = available_placements()[seed % 3]
        router, checker, log, trace = self.run_seeded(seed, placement)
        assert checker.checks == len(trace)
        stats = log.stats
        assert stats["admitted"] == len(log.admitted)
        # Routing conservation: everything submitted either was
        # admitted, rejected, expired somewhere, or still waits.
        shard_totals = stats["shards"].values()
        expired_everywhere = stats["expired"] + sum(
            s["expired"] for s in shard_totals
        )
        assert (
            stats["admitted"]
            + stats["rejected"]
            + stats["deadline_expired"]
            + expired_everywhere
            + stats["pending"]
            == stats["submitted"]
        ), f"seed {seed}: fleet counters leak jobs"

    @pytest.mark.parametrize("seed", range(0, 24, 2))
    def test_heterogeneous_fleet_invariants(self, seed):
        placement = available_placements()[seed % 3]
        router, checker, _, trace = self.run_seeded(
            seed, placement, sizes=(7, 11, 15)
        )
        assert checker.checks == len(trace)

    def test_shard_admitting_during_queueing_submit_is_tracked(self):
        """The queueing pass calls the shard's submit(), which ticks its
        clock before retrying admit: a lease window shifted by one round
        can then fit, and the fleet must record an admission rather
        than a queue entry it would later forget."""
        trace = random_fleet_trace(
            35,
            num_jobs=117,
            timeout_probability=1.0,
            max_timeout=48,
            release_probability=0.35,
            drain=False,
        )
        router = make_router([11, 11], check_invariants=False)
        checker = FleetInvariantChecker(router)
        log = replay_trace(router, trace, checker)
        assert checker.checks == len(trace)
        assert "submit f116: admitted" in log.events
        assert log.stats["admitted"] == len(log.admitted)

    @pytest.mark.parametrize(
        "placement", ["least-loaded", "best-fit-width", "family-affinity"]
    )
    @pytest.mark.parametrize("seed", range(0, 12, 3))
    def test_two_shards_admit_at_least_the_larger_half(self, seed, placement):
        """On a drained trace, 2x11 shards under any placement policy
        must admit at least what one 11-qubit machine does alone —
        anything less means the router wasted a whole machine."""
        trace = random_fleet_trace(seed, num_jobs=20)
        router = make_router(
            [11, 11], placement=placement, check_invariants=False
        )
        fleet_log = replay_trace(router, trace)
        single = MultiProgrammer(11, verifier=SHARED_VERIFIER)
        single_log = replay_trace(single, trace)
        if fleet_log.stats["admitted"] < single_log.stats["admitted"]:
            record_seed(seed, f"fleet-vs-single[{placement}]", "fleet < single")
            pytest.fail(
                f"seed {seed}: fleet(2x11, {placement}) admitted "
                f"{fleet_log.stats['admitted']} < single(11) "
                f"{single_log.stats['admitted']}"
            )
