"""The interval-conflict model every allocation strategy plans over.

Borrow placement (Figure 3.1) is an interval problem: each dirty ancilla
is *active* over a closed gate-index period, a working qubit can host it
only if the host has no gate inside that period, and two ancillas can
share a host only if their periods do not overlap.  :func:`build_model`
extracts that structure from a circuit once — periods, per-ancilla host
candidates, and the ancilla conflict graph — so strategies are pure
combinatorial searches that never re-scan the gate list.

Every ancilla additionally carries a **lending window**: a
:class:`~repro.circuits.intervals.WindowSet`, the ordered set of
disjoint gate-index segments in which a guest actually occupies
whatever wire hosts it.  By default the window is the whole activity
period (one segment); with ``segmented=True`` the
:func:`~repro.circuits.intervals.restore_segments` analysis splits it
at valid release points — the gaps where the prefix provably restores
the ancilla — so the host is only needed inside the segments.  Host
sharing is decided by *window-set disjointness* everywhere: inside one
circuit by :meth:`ConflictModel.compatible` /
:func:`validate_placement`, and across programs by the
multi-programmer's lease machinery, which shifts the same window sets
onto the machine timeline.

The model is built from the finished circuit in one pass over its
gates (the per-wire touch lists) plus one binary search per (ancilla,
host, segment) triple, so building it costs
``O(gates + ancillas * hosts * segments * log gates)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.intervals import (
    ActivityInterval,
    SegmentCheck,
    WindowSet,
    _busy_inside,
    restore_segments,
    touch_indices,
)
from repro.errors import CircuitError


@dataclass
class Placement:
    """A strategy's answer: which ancilla lands on which host.

    Purely combinatorial — the circuit rewrite happens later, in
    :func:`repro.alloc.api.allocate`.  ``assignment`` maps ancilla wire
    to host wire; ``unplaced`` lists ancillas the strategy could not
    (or chose not to) place; ``notes`` carries human-readable reasons.
    """

    assignment: Dict[int, int] = field(default_factory=dict)
    unplaced: List[int] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class ConflictModel:
    """Interval structure of one circuit's borrow-placement problem.

    Attributes
    ----------
    circuit:
        The circuit the model was built from.
    ancillas:
        Placement targets with at least one gate, ordered by period
        start (the canonical processing order).
    untouched:
        Requested ancillas with no gates at all — trivially removable,
        no placement needed.
    periods:
        Ancilla wire -> its :class:`ActivityInterval`.
    windows:
        Ancilla wire -> its lending :class:`WindowSet`: the disjoint
        gate-index segments during which a guest occupies its host
        wire.  One whole-period segment by default; the restore-point
        segmentation under ``segmented=True``.  The single source every
        host-sharing decision (in-circuit and cross-program) reasons
        over.
    hosts:
        Non-ancilla wires, ascending — the potential hosts.
    candidates:
        Ancilla wire -> hosts idle throughout every window segment,
        ascending.  (A host busy only inside a window *gap* is a
        candidate under segmentation — the wire is released there.)
    conflicts:
        Ancilla wire -> the other ancillas whose window sets overlap it
        (the edges of the conflict graph).
    segmented:
        Whether the windows carry the restore-point segmentation.
    """

    circuit: Circuit
    ancillas: Tuple[int, ...]
    untouched: Tuple[int, ...]
    periods: Dict[int, ActivityInterval]
    windows: Dict[int, WindowSet]
    hosts: Tuple[int, ...]
    candidates: Dict[int, Tuple[int, ...]]
    conflicts: Dict[int, FrozenSet[int]]
    segmented: bool = False

    @property
    def all_targets(self) -> Tuple[int, ...]:
        """Every requested ancilla, active or untouched."""
        return tuple(sorted((*self.ancillas, *self.untouched)))

    def restrict(self, keep: Sequence[int]) -> "ConflictModel":
        """A sub-problem over ``keep``: excluded ancillas stop being
        placement targets but stay off the host list (they keep their
        wires, e.g. after failing a safety check)."""
        keep_set = set(keep)
        unknown = keep_set - set(self.all_targets)
        if unknown:
            raise CircuitError(
                f"cannot restrict to non-ancilla wires {sorted(unknown)}"
            )
        ancillas = tuple(a for a in self.ancillas if a in keep_set)
        return ConflictModel(
            circuit=self.circuit,
            ancillas=ancillas,
            untouched=tuple(a for a in self.untouched if a in keep_set),
            periods={a: self.periods[a] for a in ancillas},
            windows={a: self.windows[a] for a in ancillas},
            hosts=self.hosts,
            candidates={a: self.candidates[a] for a in ancillas},
            conflicts={
                a: self.conflicts[a] & keep_set for a in ancillas
            },
            segmented=self.segmented,
        )

    def compatible(self, ancilla: int, host: int, taken: Dict[int, int]) -> bool:
        """May ``ancilla`` land on ``host`` given placements ``taken``?

        True when ``host`` is a candidate and no already-placed ancilla
        with an overlapping window set sits on the same host.  The
        conflict graph *is* the window-overlap relation (see
        :func:`build_model`), so the precomputed edge set answers this
        in O(degree) — this sits in the lookahead search's innermost
        loop.
        """
        if host not in self.candidates.get(ancilla, ()):
            return False
        return all(
            taken.get(other) != host for other in self.conflicts[ancilla]
        )


def build_model(
    circuit: Circuit,
    ancillas: Sequence[int],
    segmented: bool = False,
    segment_check: Optional[SegmentCheck] = None,
) -> ConflictModel:
    """Extract the interval-conflict structure for ``ancillas``.

    One pass over the finished circuit builds the per-wire touch lists
    (:func:`~repro.circuits.intervals.touch_indices`); everything else
    reads them.  An ancilla's period runs from its first touch to its
    last, and its lending window is that whole period, or, with
    ``segmented`` on, the restore-point split of
    :func:`~repro.circuits.intervals.restore_segments` (optionally
    solver-backed through ``segment_check``) run on the same touch
    list.  A host is a candidate when a bisect probe per window
    segment finds no touch inside, and two ancillas conflict when
    their windows overlap.  Segmentation is therefore strictly more
    permissive than the whole-period default, never less.
    """
    ancilla_set = set(ancillas)
    for a in ancilla_set:
        if not 0 <= a < circuit.num_qubits:
            raise CircuitError(f"ancilla {a} outside the register")
    touches = touch_indices(circuit)
    # First touch, then wire index: the canonical processing order.
    active = tuple(
        sorted(
            (a for a in ancilla_set if a in touches),
            key=lambda a: (touches[a][0], a),
        )
    )
    periods = {
        a: ActivityInterval(touches[a][0], touches[a][-1]) for a in active
    }
    if segmented:
        windows = {
            a: restore_segments(circuit, a, segment_check, touches[a])
            for a in active
        }
    else:
        windows = {a: WindowSet.whole(periods[a]) for a in active}
    hosts = tuple(
        q for q in range(circuit.num_qubits) if q not in ancilla_set
    )
    candidates = {
        a: tuple(
            h
            for h in hosts
            if h not in touches
            or not _busy_inside(touches[h], windows[a].segments)
        )
        for a in active
    }
    conflicts: Dict[int, FrozenSet[int]] = {
        a: frozenset(
            b for b in active if b != a and windows[a].overlaps(windows[b])
        )
        for a in active
    }
    return ConflictModel(
        circuit=circuit,
        ancillas=active,
        untouched=tuple(sorted(ancilla_set.difference(active))),
        periods=periods,
        windows=windows,
        hosts=hosts,
        candidates=candidates,
        conflicts=conflicts,
        segmented=segmented,
    )


def validate_placement(model: ConflictModel, placement: Placement) -> None:
    """Raise :class:`CircuitError` unless ``placement`` is sound.

    Sound means: every assigned host is a candidate for its guest, the
    lending window *sets* of the guests sharing any one host are
    pairwise disjoint, and every active ancilla is either assigned or
    listed unplaced.  Set disjointness (not whole-circuit exclusivity)
    is the contract — it is what lets several guests multiplex one
    host, interleaving through each other's gaps — and it is exactly
    what the conflict graph encodes, so the check is equivalent to the
    historical no-overlapping-conflict rule while stating the real
    invariant.  Checked by a single sweep over every segment on the
    host (adjacent-pair comparison of whole sets would miss an overlap
    between non-adjacent sets).  Used by the differential tests to hold
    every registered strategy to the same structural contract, and by
    the occupancy invariant checker after every scheduler event.
    """
    seen = set(placement.assignment) | set(placement.unplaced)
    missing = set(model.ancillas) - seen
    if missing:
        raise CircuitError(f"placement ignores ancillas {sorted(missing)}")
    for a, host in placement.assignment.items():
        if host not in model.candidates.get(a, ()):
            raise CircuitError(
                f"ancilla {a} assigned to non-candidate host {host}"
            )
    guests_by_host: Dict[int, List[int]] = {}
    for a, host in placement.assignment.items():
        guests_by_host.setdefault(host, []).append(a)
    for host, guests in guests_by_host.items():
        spans = sorted(
            (seg.first, seg.last, a)
            for a in guests
            for seg in model.windows[a].segments
        )
        for (_, prev_last, prev_a), (nxt_first, _, nxt_a) in zip(
            spans, spans[1:]
        ):
            if nxt_first <= prev_last:
                raise CircuitError(
                    f"overlapping ancillas {min(prev_a, nxt_a)} and "
                    f"{max(prev_a, nxt_a)} share host {host}"
                )
