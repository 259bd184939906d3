"""The global occupancy safety contract, checkable after every event.

Borrow lifecycles are a state machine where subtle bugs hide —
use-after-release, double-lend, a placement that silently violates the
interval model.  :class:`OccupancyInvariantChecker` re-derives the
whole contract from a live :class:`~repro.multiprog.MultiProgrammer`
through its public introspection surface and raises
:class:`~repro.errors.InvariantViolation` (with a machine snapshot) at
the first inconsistency:

1. every holder recorded on a machine wire is a live resident, and
   every resident holds exactly the wires of its admission — released
   wires really returned to the pool, no phantom occupancy;
2. no machine wire is *owned* (held fresh, not borrowed) by two
   residents, and occupancy never exceeds the machine;
3. every cross-program borrow is verified safe, targets an ancilla the
   internal pass left unplaced, and the guest really holds the lent
   wire; every idle-wire offer comes from a live resident that holds
   the offered wire;
4. every lease belongs to a live resident that holds the leased wire,
   its window is segment-for-segment the ancilla's lending window from
   a freshly rebuilt interval model — re-running the restore-point
   analysis under ``lending="segmented"``, whole-period otherwise —
   shifted by the admission's gate offset, the admission's
   ``cross_hosts`` and ``leases`` agree, and **no two leases on one
   wire overlap** as window sets (under whole-residency lending no
   wire carries more than one lease at all, and outside segmented
   lending every window is a single segment);
5. the wait queue never overlaps the residents and has no duplicates;
6. every resident's internal borrow placement still satisfies
   :func:`repro.alloc.model.validate_placement` against a freshly
   rebuilt interval model, and no unverified ancilla was ever placed;
7. every resident holds at least ``job.reduced_width`` fresh wires —
   the bound that makes :meth:`~repro.multiprog.MultiProgrammer.admit`'s
   capacity precheck exact.

The checker is deliberately *redundant* with the scheduler's own
bookkeeping — it recomputes from first principles precisely so a
bookkeeping bug cannot hide itself.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.alloc import Placement, build_model, validate_placement
from repro.errors import CircuitError, InvariantViolation


class OccupancyInvariantChecker:
    """Assert the scheduler-wide safety contract; cheap enough to run
    after every submit/release event of a property-test trace."""

    def __init__(self, programmer, check_placements: bool = True):
        self.programmer = programmer
        self.check_placements = check_placements
        #: Number of successful :meth:`check` calls (test bookkeeping).
        self.checks = 0

    def __call__(self) -> None:
        self.check()

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"{message}\n--- machine state ---\n{self.programmer.snapshot()}"
        )

    def check(self) -> None:
        mp = self.programmer
        residents = mp.residents
        resident_set = set(residents)
        table = mp.occupancy_table()
        admissions = [mp.admission(name) for name in residents]

        # 1. Holders alive, and held wires == the admissions' wires.
        for wire, holders in table.items():
            if not holders:
                self._fail(f"wire {wire} recorded with no holders")
            for holder in holders:
                if holder not in resident_set:
                    self._fail(
                        f"wire {wire} held by non-resident {holder!r} "
                        f"(use-after-release)"
                    )
        union: Set[int] = set()
        for adm in admissions:
            union.update(adm.wires)
            for wire in adm.wires:
                if adm.name not in table.get(wire, ()):
                    self._fail(
                        f"resident {adm.name!r} missing from holders of "
                        f"its wire {wire}"
                    )
        if set(table) != union:
            self._fail(
                f"held wires {sorted(table)} != union of admissions "
                f"{sorted(union)} (released wire not returned, or "
                f"phantom occupancy)"
            )
        if mp.occupancy != len(table):
            self._fail(
                f"occupancy {mp.occupancy} != {len(table)} held wires"
            )
        if mp.occupancy > mp.machine_size:
            self._fail(
                f"occupancy {mp.occupancy} exceeds machine "
                f"{mp.machine_size}"
            )

        # 2. No wire double-owned.
        owner = {}
        for adm in admissions:
            for wire in adm.fresh_wires:
                if wire in owner:
                    self._fail(
                        f"wire {wire} owned by both {owner[wire]!r} and "
                        f"{adm.name!r} (double-lend)"
                    )
                owner[wire] = adm.name

        # 3. Cross-borrows and idle offers.
        for adm in admissions:
            for ancilla, wire in adm.cross_hosts.items():
                if adm.safety.get(ancilla) is not True:
                    self._fail(
                        f"{adm.name!r} borrowed wire {wire} for ancilla "
                        f"{ancilla} without a safe verdict"
                    )
                if ancilla not in adm.plan.unplaced:
                    self._fail(
                        f"{adm.name!r} cross-borrowed ancilla {ancilla} "
                        f"that its internal pass also placed"
                    )
                if adm.name not in table.get(wire, ()):
                    self._fail(
                        f"{adm.name!r} not recorded on its borrowed "
                        f"wire {wire}"
                    )
        for wire, offering in mp.idle_offers().items():
            if offering not in resident_set:
                self._fail(
                    f"idle wire {wire} offered by non-resident "
                    f"{offering!r} (dangling lender)"
                )
            if offering not in table.get(wire, ()):
                self._fail(
                    f"lender {offering!r} does not hold its offered "
                    f"wire {wire}"
                )

        # 4. Leases: recorded consistently, windows (and their
        # restore-point segmentation, under segmented lending)
        # re-derived from first principles, and pairwise disjoint per
        # wire.  Models are built lazily — only leaseholders need one
        # here, and check 6 (the other consumer) may be switched off.
        models: Dict[str, object] = {}

        def model_of(adm):
            if adm.name not in models:
                # Re-derive with the scheduler's own segment certifier
                # (solver-backed under restore_check="solver"): the
                # lease windows being checked were cut by it, and the
                # structural-only analysis would be stricter.
                models[adm.name] = build_model(
                    adm.job.circuit,
                    adm.job.request_wires,
                    segmented=mp.lending == "segmented",
                    segment_check=getattr(mp, "segment_check", None),
                )
            return models[adm.name]

        by_admission = {adm.name: adm for adm in admissions}
        lease_table = mp.lease_table()
        for wire, leases in lease_table.items():
            for lease in leases:
                adm = by_admission.get(lease.guest)
                if adm is None:
                    self._fail(
                        f"lease {lease} held by non-resident "
                        f"{lease.guest!r} (dangling lease)"
                    )
                if lease.wire != wire:
                    self._fail(
                        f"lease {lease} filed under wire {wire}"
                    )
                if lease.guest not in table.get(wire, ()):
                    self._fail(
                        f"leaseholder {lease.guest!r} does not hold "
                        f"wire {wire}"
                    )
                if adm.cross_hosts.get(lease.ancilla) != wire:
                    self._fail(
                        f"lease {lease} disagrees with cross_hosts "
                        f"{adm.cross_hosts}"
                    )
                expected = model_of(adm).windows[
                    lease.ancilla
                ].shifted(adm.gate_offset)
                if expected.segments != lease.window.segments:
                    self._fail(
                        f"lease {lease} window differs from the "
                        f"re-derived lending window {expected} "
                        f"(offset {adm.gate_offset})"
                    )
                if mp.lending != "segmented" and len(lease.window) != 1:
                    self._fail(
                        f"lease {lease} carries a segmented window "
                        f"under {mp.lending!r} lending"
                    )
            if mp.lending == "whole" and len(leases) > 1:
                self._fail(
                    f"wire {wire} carries {len(leases)} leases under "
                    f"whole-residency lending"
                )
            for i, first in enumerate(leases):
                for second in leases[i + 1 :]:
                    if first.overlaps(second):
                        self._fail(
                            f"overlapping leases on wire {wire}: "
                            f"{first} vs {second} (double-lend in "
                            f"time)"
                        )
        for adm in admissions:
            if set(adm.cross_hosts) != set(adm.leases):
                self._fail(
                    f"{adm.name!r} cross_hosts/leases keys disagree: "
                    f"{sorted(adm.cross_hosts)} vs "
                    f"{sorted(adm.leases)}"
                )
            for lease in adm.leases.values():
                if lease not in lease_table.get(lease.wire, ()):
                    self._fail(
                        f"lease {lease} missing from the lease table"
                    )

        # 5. Queue consistency.
        pending = mp.pending()
        if len(set(pending)) != len(pending):
            self._fail(f"duplicate names in the queue: {pending}")
        overlap = set(pending) & resident_set
        if overlap:
            self._fail(
                f"jobs {sorted(overlap)} are both queued and resident"
            )

        # 6. Placement soundness of every resident.
        if self.check_placements:
            for adm in admissions:
                model = model_of(adm)
                placement = Placement(
                    assignment=dict(adm.plan.assignment),
                    unplaced=list(adm.plan.unplaced),
                )
                try:
                    validate_placement(model, placement)
                except CircuitError as error:
                    self._fail(
                        f"{adm.name!r} placement unsound: {error}"
                    )
                for ancilla in adm.plan.assignment:
                    if adm.safety.get(ancilla) is not True:
                        self._fail(
                            f"{adm.name!r} placed ancilla {ancilla} "
                            f"without a safe verdict"
                        )

        # 7. The capacity precheck's bound.
        for adm in admissions:
            if len(adm.fresh_wires) < adm.job.reduced_width:
                self._fail(
                    f"{adm.name!r} holds {len(adm.fresh_wires)} fresh "
                    f"wires, fewer than its reduced width "
                    f"{adm.job.reduced_width}"
                )
        self.checks += 1


class FleetInvariantChecker:
    """The fleet-tier contract: every shard's occupancy contract plus
    the router's own routing consistency.

    Wraps one :class:`OccupancyInvariantChecker` per shard (the full
    per-machine re-derivation, rule by rule) and then asserts, from the
    router's public surface, that the fleet bookkeeping agrees with
    shard reality:

    1. no job is resident on two shards, and the router's
       ``resident_shards()`` map matches the union of shard residents
       exactly (right jobs, right shards);
    2. every entry of ``queued_shards()`` mapped to a shard really sits
       in that shard's queue — and shard queues hold no job the router
       has forgotten;
    3. residents, shard queues and the overflow queue are pairwise
       disjoint fleet-wide (a job lives in exactly one place);
    4. aggregate occupancy equals the sum over shards.

    Callable, like the per-machine checker, so :func:`replay_trace`
    drives either through the same ``checker=`` hook.
    """

    def __init__(self, router, check_placements: bool = True):
        self.router = router
        self.shard_checkers = {
            name: OccupancyInvariantChecker(shard, check_placements)
            for name, shard in router.shards.items()
        }
        #: Number of successful :meth:`check` calls (test bookkeeping).
        self.checks = 0

    def __call__(self) -> None:
        self.check()

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"fleet invariant violated: {message}\n{self.router.snapshot()}"
        )

    def check(self) -> None:
        for checker in self.shard_checkers.values():
            checker.check()
        router = self.router
        derived: Dict[str, str] = {}
        for shard_name, shard in router.shards.items():
            for resident in shard.residents:
                if resident in derived:
                    self._fail(
                        f"job {resident!r} resident on both "
                        f"{derived[resident]!r} and {shard_name!r}"
                    )
                derived[resident] = shard_name
        recorded = router.resident_shards()
        if recorded != derived:
            self._fail(
                f"resident map {recorded} disagrees with shard "
                f"residents {derived}"
            )
        queued = router.queued_shards()
        for name, shard_name in queued.items():
            if name in derived:
                self._fail(f"job {name!r} both queued and resident")
            if shard_name is not None and name not in router.shards[
                shard_name
            ].pending():
                self._fail(
                    f"job {name!r} recorded queued on {shard_name!r} "
                    f"but absent from its queue"
                )
        for shard_name, shard in router.shards.items():
            for name in shard.pending():
                if queued.get(name) != shard_name:
                    self._fail(
                        f"shard {shard_name!r} queues {name!r} but the "
                        f"router does not know it"
                    )
        total = sum(shard.occupancy for shard in router.shards.values())
        if router.occupancy != total:
            self._fail(
                f"aggregate occupancy {router.occupancy} != shard sum "
                f"{total}"
            )
        self.checks += 1


__all__ = ["FleetInvariantChecker", "OccupancyInvariantChecker"]
