"""Streaming/JIT borrow allocation — commit placements as gates arrive.

The offline pipeline sees a finished circuit; a live service sees a
*gate stream*.  :class:`StreamingAllocator` makes borrow decisions
online: every appended gate updates an
:class:`~repro.alloc.model.IncrementalConflictModel` (per-wire sorted
touch lists, incremental restore-point scans — no rescans of the
prefix), and ancillas are placed in the same (period-start, wire)
order and with the same smallest-index first-fit as the offline
``greedy`` strategy.

Decisions live in two tiers, separated by a bounded lookahead buffer:

* **Tentative** — an ancilla whose activity may still be inside the
  lookahead horizon keeps a provisional placement.  New information (a
  host conflict, another guest) triggers a *rollback* of only this
  buffered suffix: tentative placements are re-planned, nothing
  emitted before the horizon moves.
* **Final** — once ``head_index - last_touch(a) >= lookahead``, the
  ancilla's decision is committed, in period-start order, by the exact
  offline first-fit over the hosts currently idle in its window.
  Finality is behavioural, not clairvoyant: if the ancilla itself
  reappears later and breaks its committed placement, the placement is
  *revoked* to unplaced — always sound, never silently wrong — and
  counted in :class:`StreamingStats`.  (Nothing else can break a final
  placement: a host gate after the window's last index is outside the
  window by construction.)

Differential contract, held by design and enforced by the tests and
the ``streaming`` bench section: with ``lookahead=None`` (∞), every
commit happens at :meth:`StreamingAllocator.close` with full windows,
so the plan equals the offline ``greedy`` plan gate-for-gate; and at
*every* stream point the current placement passes
:func:`~repro.alloc.model.validate_placement` against the current
prefix's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.alloc.api import materialise
from repro.alloc.model import (
    IncrementalConflictModel,
    Placement,
    validate_placement,
)
from repro.circuits.borrowing import BorrowPlan
from repro.circuits.circuit import Circuit
from repro.circuits.intervals import SegmentCheck, WindowSet
from repro.errors import CircuitError


@dataclass
class StreamingStats:
    """Counters describing one stream's allocation behaviour.

    All counters are event counts maintained inline — no clocks in the
    hot loop — so a service tier can report ingestion health from
    :meth:`as_dict` without perturbing the stream it is measuring.
    """

    gates: int = 0
    commits: int = 0
    #: Tentative placements revised while still inside the horizon.
    rollbacks: int = 0
    #: Final placements withdrawn because the ancilla reappeared after
    #: its horizon and broke the committed hosting.
    revocations: int = 0
    #: Re-plan passes over the buffered suffix (each pass may roll back
    #: several tentative placements, or none).
    replans: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "gates": self.gates,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "revocations": self.revocations,
            "replans": self.replans,
        }


class StreamingAllocator:
    """Online first-fit borrow allocation over a gate stream.

    Parameters
    ----------
    num_qubits:
        Register width of the stream.
    ancillas:
        Wire indices to eliminate by borrowing.
    lookahead:
        The horizon ``K`` in gates.  An ancilla's placement stays
        tentative while ``head - last_touch < K`` and is committed
        (final) once the stream has moved ``K`` gates past its last
        activity.  ``None`` (or ``float("inf")``) means ∞: commit only
        at :meth:`close`, which reproduces the offline greedy plan
        exactly.  ``0`` means commit at first sight.
    segmented / segment_check:
        Lending-window refinement, as in
        :func:`~repro.alloc.model.build_model`.
    labels:
        Optional register labels, carried into the final plan.
    """

    def __init__(
        self,
        num_qubits: int,
        ancillas: Sequence[int],
        lookahead: Union[None, int, float] = None,
        segmented: bool = False,
        segment_check: Optional[SegmentCheck] = None,
        labels: Optional[Sequence[str]] = None,
    ):
        if lookahead == float("inf"):
            lookahead = None
        if lookahead is not None and (
            not isinstance(lookahead, int) or lookahead < 0
        ):
            raise CircuitError(
                f"lookahead must be None (∞) or a non-negative gate "
                f"count, got {lookahead!r}"
            )
        #: The commit horizon ``K`` in gates; ``None`` for ∞.
        self.lookahead: Optional[int] = lookahead
        self._ancilla_set = set(ancillas)
        self._engine = IncrementalConflictModel(
            num_qubits,
            ancillas,
            segmented=segmented,
            segment_check=segment_check,
            labels=labels,
        )
        self._committed: Dict[int, Optional[int]] = {}
        self._tentative: Dict[int, Optional[int]] = {}
        self._notes: List[str] = []
        self._closed = False
        self._plan: Optional[BorrowPlan] = None
        self.stats = StreamingStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        horizon = "inf" if self.lookahead is None else self.lookahead
        return f"streaming(lookahead={horizon})"

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def num_gates(self) -> int:
        return self._engine.num_gates

    @property
    def active(self):
        """Ancillas the stream has touched so far (sorted)."""
        return self._engine.active

    def window(self, ancilla: int) -> WindowSet:
        """Current lending window of an active ancilla.

        Grows monotonically as gates arrive; a prefix admission
        (:meth:`repro.multiprog.MultiProgrammer.admit_stream`) rebuilds
        its lease windows from this after every feed.
        """
        window = self._engine.window(ancilla)
        if window is None:
            raise CircuitError(f"ancilla {ancilla} is not active yet")
        return window

    def committed(self) -> Dict[int, Optional[int]]:
        """Final decisions so far: ancilla -> host (or None, unplaced)."""
        return dict(self._committed)

    def tentative(self) -> Dict[int, Optional[int]]:
        """Buffered (re-plannable) decisions: ancilla -> host or None."""
        return dict(self._tentative)

    def placement(self) -> Placement:
        """The current placement (final + tentative) for the prefix.

        Sound at every stream point: passes
        :func:`~repro.alloc.model.validate_placement` against
        :meth:`model` — the invariant the property tests replay.
        """
        assignment: Dict[int, int] = {}
        unplaced: List[int] = []
        for a in self._engine.active:
            host = self._committed.get(a, self._tentative.get(a))
            if host is None:
                unplaced.append(a)
            else:
                assignment[a] = host
        return Placement(
            assignment=assignment,
            unplaced=sorted(unplaced),
            notes=list(self._notes),
        )

    def model(self):
        """A frozen :class:`~repro.alloc.model.ConflictModel` of the
        prefix seen so far (stable copy; feeding more gates later does
        not mutate it)."""
        return self._engine.snapshot()

    # ------------------------------------------------------------------ #
    # The stream
    # ------------------------------------------------------------------ #

    def feed(self, gate) -> int:
        """Append one gate; returns its index in the stream.

        Order of effects: the incremental model advances; committed
        guests the gate reactivates are compatibility-checked (revoked
        to unplaced if broken); ancillas whose activity has fallen a
        full horizon behind the head are committed, earliest period
        first; and the remaining tentative suffix is re-planned.
        """
        if self._closed:
            raise CircuitError("cannot feed a closed stream")
        index = self._engine.append(gate)
        self.stats.gates += 1

        touched = sorted(set(gate.qubits) & self._ancilla_set)
        changed = bool(touched)
        for a in touched:
            if a not in self._committed:
                continue
            host = self._committed[a]
            if host is not None and not self._still_compatible(a, host):
                self._committed[a] = None
                self._notes.append(
                    f"ancilla {a}: committed host {host} revoked at "
                    f"gate {index} (reactivation conflict)"
                )
                self.stats.revocations += 1

        changed |= self._commit_ready() > 0
        if changed:
            self._replan_tentative()
        return index

    def extend(self, gates) -> int:
        """Feed many gates; returns the last index."""
        index = self._engine.num_gates - 1
        for gate in gates:
            index = self.feed(gate)
        return index

    def close(self) -> BorrowPlan:
        """End the stream: commit every open decision and materialise.

        Commits run in period-start order with the offline first-fit,
        so with ``lookahead=None`` this reproduces the offline greedy
        plan exactly.  The final placement is validated against the
        full-stream model before the rewrite.  Idempotent.
        """
        if self._plan is not None:
            return self._plan
        self._closed = True
        self._commit_ready()
        self._tentative.clear()
        model = self._engine.snapshot()
        assignment = {
            a: h for a, h in self._committed.items() if h is not None
        }
        unplaced = sorted(
            a for a, h in self._committed.items() if h is None
        )
        validate_placement(
            model,
            Placement(
                assignment=dict(assignment),
                unplaced=list(unplaced),
                notes=list(self._notes),
            ),
        )
        self._plan = materialise(
            model, assignment, unplaced, list(self._notes), self.name
        )
        return self._plan

    # ------------------------------------------------------------------ #
    # Decision machinery
    # ------------------------------------------------------------------ #

    def _guest_window(self, ancilla: int) -> WindowSet:
        window = self._engine.window(ancilla)
        assert window is not None  # only called for active ancillas
        return window

    def _still_compatible(self, ancilla: int, host: int) -> bool:
        """May the committed ``ancilla -> host`` placement stand, given
        the ancilla's window just grew?"""
        window = self._guest_window(ancilla)
        if not self._engine.host_idle_in(host, window):
            return False
        return all(
            other == ancilla
            or other_host != host
            or not window.overlaps(self._guest_window(other))
            for other, other_host in self._committed.items()
        )

    def _first_fit_committed(self, ancilla: int) -> Optional[int]:
        """Offline greedy's first-fit against the committed guests."""
        window = self._guest_window(ancilla)
        for host in self._engine.candidate_hosts(ancilla):
            if all(
                other_host != host
                or not window.overlaps(self._guest_window(other))
                for other, other_host in self._committed.items()
            ):
                return host
        return None

    def _commit_ready(self) -> int:
        """Commit every ancilla whose activity is a full horizon behind
        the head (all of them once closed), earliest period first.

        The period-start barrier — stop at the first open ancilla that
        is not yet ready — keeps commits in the offline processing
        order, which is what makes the ∞-lookahead plan equal offline
        greedy and keeps finite-K plans deterministic.
        """
        if not self._closed and self.lookahead is None:
            return 0
        head = self._engine.num_gates - 1
        committed = 0
        for a in self._engine.active:
            if a in self._committed:
                continue
            if not self._closed:
                last = self._engine.last_touch(a)
                if head - last < self.lookahead:
                    break
            host = self._first_fit_committed(a)
            self._committed[a] = host
            self._tentative.pop(a, None)
            self.stats.commits += 1
            if host is None:
                self._notes.append(
                    f"ancilla {a}: no idle host for period "
                    f"{self._engine.period(a)}"
                )
            committed += 1
        return committed

    def _replan_tentative(self) -> None:
        """First-fit re-plan of the whole buffered suffix.

        Open ancillas are re-placed in period-start order around the
        committed guests; a previously buffered host that changes (or
        vanishes) counts as a rollback.  Only the suffix moves —
        committed decisions are never touched here.
        """
        self.stats.replans += 1
        planned: Dict[int, List[WindowSet]] = {}
        for other, host in self._committed.items():
            if host is not None:
                planned.setdefault(host, []).append(
                    self._guest_window(other)
                )
        for a in self._engine.active:
            if a in self._committed:
                continue
            window = self._guest_window(a)
            choice: Optional[int] = None
            for host in self._engine.candidate_hosts(a):
                if all(
                    not window.overlaps(g)
                    for g in planned.get(host, ())
                ):
                    choice = host
                    break
            previous = self._tentative.get(a)
            if (
                a in self._tentative
                and previous is not None
                and previous != choice
            ):
                self.stats.rollbacks += 1
            self._tentative[a] = choice
            if choice is not None:
                planned.setdefault(choice, []).append(window)


def stream_allocate(
    circuit: Circuit,
    ancillas: Sequence[int],
    lookahead: Union[None, int, float] = None,
    segmented: bool = False,
    segment_check: Optional[SegmentCheck] = None,
) -> BorrowPlan:
    """Run a finished circuit through the streaming allocator.

    Convenience for benches and differential tests: feeds every gate of
    ``circuit`` in order and closes the stream.  With
    ``lookahead=None`` the result equals
    ``allocate(circuit, ancillas, strategy="greedy", ...)`` gate for
    gate (only the recorded strategy name differs).
    """
    allocator = StreamingAllocator(
        circuit.num_qubits,
        ancillas,
        lookahead=lookahead,
        segmented=segmented,
        segment_check=segment_check,
        labels=circuit.labels,
    )
    for gate in circuit.gates:
        allocator.feed(gate)
    return allocator.close()
