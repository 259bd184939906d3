"""Fleet-tier routing: placement policies, the one fleet queue, and
seeded property traces with the fleet invariant checker on.

Deterministic classes pin the routing contract shard by shard, with
:class:`FleetInvariantChecker` run after every submit and release; the
property classes replay seeded :func:`random_fleet_trace` sequences
through a 2-shard router under every registered placement policy, with
the checker re-deriving both the per-shard occupancy contract and the
fleet bookkeeping after every event, check that draining only the
shard whose state changed admits what draining every shard would, and
compare fleet throughput against a single-shard baseline on the same
trace.
"""

import os

import pytest

from repro.circuits import Circuit, cnot, mcx, x
from repro.errors import CapacityError, CircuitError, InvariantViolation
from repro.multiprog import (
    BorrowRequest,
    FleetRouter,
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
SHARED_VERIFIER = BatchVerifier(backend="bdd")


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


class CheckedRouter(FleetRouter):
    """A router that re-derives the fleet contract after every submit
    and release, failed ones included."""

    def __init__(self, *args, **options):
        super().__init__(*args, **options)
        self.checker = FleetInvariantChecker(self)

    def submit(self, *args, **options):
        try:
            return super().submit(*args, **options)
        finally:
            self.checker.check()

    def release(self, name):
        try:
            return super().release(name)
        finally:
            self.checker.check()


class EveryShardDrainRouter(FleetRouter):
    """The differential oracle: every event drains the queue against
    every shard, to a fixpoint, instead of only the shard whose state
    changed."""

    def _drain(self, shard_name):
        admitted = []
        while True:
            admitted_now = [
                name
                for shard in self.shards
                for name in FleetRouter._drain(self, shard)
            ]
            if not admitted_now:
                return tuple(admitted)
            admitted.extend(admitted_now)


def make_router(sizes, placement="least-loaded", checked=True, **options):
    options.setdefault("verifier", SHARED_VERIFIER)
    router_class = CheckedRouter if checked else FleetRouter
    return router_class(list(sizes), placement=placement, **options)


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
        prebuilt = MultiProgrammer(
            5, verifier=SHARED_VERIFIER, lending="segmented"
        )
        router = FleetRouter(
            [3, ShardSpec(4, name="named"), prebuilt],
            verifier=SHARED_VERIFIER,
        )
        assert list(router.shards) == ["shard0", "named", "shard2"]
        assert router.shards["shard2"] is prebuilt
        assert prebuilt.lending == "segmented"
        assert prebuilt.verifier is router.shards["named"].verifier
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


class TestFleetQueue:
    def test_queued_job_admits_where_capacity_frees(self):
        router = make_router([4, 6])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 6))
        outcome = router.submit(busy_job("c", 4))
        # The fleet queue belongs to no shard.
        assert outcome.status == "queued" and outcome.shard is None
        # b's release frees shard1, and the queue drains against it.
        router.release("b")
        assert router.resident_shards()["c"] == "shard1"
        assert router.fleet_stats()["admitted_from_queue"] == 1
        assert router.last_backfilled == ("c",)

    def test_release_drains_the_freed_shard(self):
        router = make_router([4, 4])
        router.submit(busy_job("a", 4))
        router.submit(busy_job("b", 4))
        router.submit(busy_job("c", 4))  # queued
        home = router.shard_of("a")
        router.release("a")
        assert router.resident_shards()["c"] == home
        assert router.fleet_stats()["admitted_from_queue"] == 1

    def test_timeouts_count_fleet_events(self):
        """A queued job's timeout counts every routed event, and lapses
        at the start of an event, before the event admits anything."""
        router = make_router([2, 2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))
        router.submit(busy_job("c", 2), timeout=2)  # event 3
        router.submit(busy_job("d", 2))  # event 4: c still waits
        assert router.pending() == ("c", "d")
        router.release("a")  # event 5: c expires, then d admits
        assert router.pending() == ()
        assert "d" in router.residents
        stats = router.fleet_stats()
        assert stats["expired"] == 1
        assert all(s["expired"] == 0 for s in stats["shards"].values())

    def test_earliest_deadline_drains_first(self):
        router = make_router([2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))  # no deadline
        router.submit(busy_job("c", 2), timeout=5)
        assert router.pending() == ("c", "b")
        router.release("a")
        assert router.residents == ("c",)
        assert router.pending() == ("b",)

    def test_replay_trace_drives_the_router(self):
        trace = random_fleet_trace(7, num_jobs=12)
        router = make_router([6, 6], checked=False)
        checker = FleetInvariantChecker(router)
        log = replay_trace(router, trace, checker)
        assert checker.checks == len(trace)
        assert log.stats["admitted"] == len(log.admitted)


class TestUnhostableJobs:
    """A job no empty shard can host (it needs a co-tenant to lend)
    queues while the fleet is busy and is rejected once it idles."""

    def test_unhostable_job_queues_while_fleet_busy(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        outcome = router.submit(hungry_job("g"))
        assert outcome.status == "queued" and outcome.shard is None
        assert router.fleet_stats()["queued"] == 1
        assert router.pending() == ("g",)

    def test_unhostable_job_rejected_on_idle_fleet(self):
        router = make_router([1, 4])
        with pytest.raises(CapacityError, match="idle"):
            router.submit(hungry_job("g"))
        assert router.fleet_stats()["rejected"] == 1

    def test_unhostable_job_rejected_once_fleet_idles(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        router.submit(hungry_job("g"))
        router.release("w")  # empty fleet: the impossibility proof
        stats = router.fleet_stats()
        assert stats["rejected"] == 1
        assert router.pending() == ()

    def test_unhostable_job_times_out(self):
        router = make_router([1, 4])
        router.submit(busy_job("w", 1))
        router.submit(hungry_job("g"), timeout=2)
        router.submit(busy_job("x", 1))  # fleet event: g still waiting
        assert "g" in router.pending()
        router.submit(busy_job("y", 1))  # second event: g expires
        assert "g" not in router.pending()
        assert router.fleet_stats()["expired"] == 1


class TestFleetErrors:
    def test_release_of_queued_and_unknown(self):
        router = make_router([2])
        router.submit(busy_job("a", 2))
        router.submit(busy_job("b", 2))
        with pytest.raises(CircuitError, match="queued, not resident"):
            router.release("b")
        with pytest.raises(CircuitError, match="no resident job"):
            router.release("ghost")

    def test_failed_release_is_not_a_fleet_event(self):
        """Releasing an unknown or queued name raises before the fleet
        ticks: no event, so no expiry of a timed queued entry."""
        router = make_router([3, 8])
        router.submit(busy_job("res", 2))
        busy = mcx(list(range(7)), 7)  # wires 0..7 active throughout
        wide = Circuit(10).extend(
            [busy, cnot(0, 8), busy, cnot(0, 8), busy]
            + [cnot(0, 9), busy, cnot(0, 9), busy]
        )
        job = QuantumJob("wide", wide, [BorrowRequest(8), BorrowRequest(9)])
        outcome = router.submit(job, timeout=2)
        assert outcome.status == "queued" and outcome.shard is None
        events = router.events
        for name in ("typo", "typo", "wide"):
            with pytest.raises(CircuitError):
                router.release(name)
        assert router.events == events
        assert router.fleet_stats()["expired"] == 0
        assert router.pending() == ("wide",)

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
        router = make_router([2, 2], checked=False)
        router.submit(busy_job("a", 2))
        checker = FleetInvariantChecker(router)
        checker.check()
        router._resident_on["a"] = "shard1"  # plant a routing lie
        with pytest.raises(InvariantViolation, match="resident map"):
            checker.check()

    def test_checker_catches_a_shard_queue(self):
        router = make_router([2], checked=False)
        router.submit(busy_job("a", 2))
        router.shards["shard0"].submit(busy_job("b", 2))  # bypasses the fleet
        with pytest.raises(InvariantViolation, match="only the fleet may queue"):
            FleetInvariantChecker(router).check()


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
        router.submit(hungry_job("g"))  # shard1 is empty yet refuses it
        router.submit(busy_job("q", 4))
        router.submit(busy_job("q2", 4))
        text = router.snapshot()
        assert "fleet: 2 shards" in text
        assert "shard0" in text and "shard1" in text
        assert "queued: g, q2" in text


class TestFleetProperties:
    """Seeded traces through every placement policy, checker on."""

    def run_seeded(self, seed, placement, sizes=(11, 11)):
        trace = random_fleet_trace(seed, num_jobs=20)
        router = make_router(list(sizes), placement=placement, checked=False)
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
        # admitted, rejected, expired, or still waits (no shard queues,
        # so the fleet's counters are the whole story).
        assert (
            stats["admitted"]
            + stats["rejected"]
            + stats["expired"]
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

    @staticmethod
    def assert_drains_agree(trace, sizes, placement):
        """Draining only the shard whose state changed admits the same
        jobs on the same shards, after every event, as draining every
        shard to a fixpoint."""

        def states(router_class):
            router = router_class(
                list(sizes), placement=placement, verifier=SHARED_VERIFIER
            )
            seen = []
            replay_trace(
                router,
                trace,
                lambda: seen.append((router.resident_shards(), router.pending())),
            )
            return seen

        assert states(FleetRouter) == states(EveryShardDrainRouter)

    @pytest.mark.parametrize("sizes", [(11, 11), (7, 11, 15)])
    @pytest.mark.parametrize("placement", available_placements())
    @pytest.mark.parametrize("seed", range(4))
    def test_draining_the_changed_shard_suffices(self, seed, placement, sizes):
        trace = random_fleet_trace(seed, num_jobs=50)
        self.assert_drains_agree(trace, sizes, placement)

    @pytest.mark.parametrize("seed", [1, 1009])
    def test_draining_the_changed_shard_suffices_under_timeouts(self, seed):
        """The 400-job shape the capacity-precheck replays use: every
        job carries a timeout, and the queue never drains at the end."""
        trace = random_fleet_trace(
            seed,
            num_jobs=400,
            timeout_probability=1.0,
            max_timeout=48,
            release_probability=0.35,
            drain=False,
        )
        self.assert_drains_agree(trace, (11, 11), "least-loaded")

    @pytest.mark.parametrize(
        "placement", ["least-loaded", "best-fit-width", "family-affinity"]
    )
    @pytest.mark.parametrize("seed", range(0, 12, 3))
    def test_two_shards_admit_at_least_the_larger_half(self, seed, placement):
        """On a drained trace, 2x11 shards under any placement policy
        must admit at least what one 11-qubit machine does alone —
        anything less means the router wasted a whole machine."""
        trace = random_fleet_trace(seed, num_jobs=20)
        router = make_router([11, 11], placement=placement, checked=False)
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
