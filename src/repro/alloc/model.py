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

Candidate computation is a single pass over the gates plus one binary
search per (host, segment) pair, so building the model is
``O(gates + hosts * segments * log gates)`` — noticeably cheaper than
the seed's per-ancilla ``idle_qubits_during`` rescans on wide circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.intervals import (
    ActivityInterval,
    IncrementalTouchIndex,
    RestoreScan,
    SegmentCheck,
    WindowSet,
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


class IncrementalConflictModel:
    """The interval-conflict structure, maintained one gate at a time.

    The engine behind :func:`build_model`: gates arrive through
    :meth:`append`, and after every gate the per-wire touch lists
    (:class:`~repro.circuits.intervals.IncrementalTouchIndex`) and each
    active ancilla's lending window
    (:class:`~repro.circuits.intervals.RestoreScan` under
    ``segmented=True``, the whole activity hull otherwise) are current
    — no structure ever re-walks the gate prefix.  :meth:`snapshot`
    materialises the usual frozen :class:`ConflictModel` for the prefix
    seen so far.

    Per-gate cost is O(wires-per-gate) list appends plus, for touched
    ancillas, one restore-scan step; :meth:`window` and the snapshot's
    candidate scan are bisect probes over the sorted lists.  The rescan
    alternative — rebuilding the model per gate — is O(gates) *per
    gate*; the bench's ``conflict_model.incremental_vs_rescan`` section
    records the gap.
    """

    def __init__(
        self,
        num_qubits: int,
        ancillas: Sequence[int],
        segmented: bool = False,
        segment_check: Optional[SegmentCheck] = None,
        labels: Optional[Sequence[str]] = None,
    ):
        self._ancilla_set = set(ancillas)
        for a in self._ancilla_set:
            if not 0 <= a < num_qubits:
                raise CircuitError(f"ancilla {a} outside the register")
        self._circuit = Circuit(num_qubits, labels=labels)
        self._index = IncrementalTouchIndex(num_qubits)
        self._segmented = segmented
        self._segment_check = segment_check
        self._scans: Dict[int, RestoreScan] = {}
        # Active ancillas in first-touch order, ties broken by wire
        # index — the canonical (period.first, a) processing order, kept
        # sorted for free because first touches only ever move forward.
        self._active: List[int] = []
        self._active_set: set = set()
        self._hosts = tuple(
            q for q in range(num_qubits) if q not in self._ancilla_set
        )

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #

    def append(self, gate) -> int:
        """Feed one gate; returns the gate index it was assigned."""
        self._circuit.append(gate)  # validates wire indices
        index = self._index.append(gate)
        for a in sorted(set(gate.qubits) & self._ancilla_set):
            if a not in self._active_set:
                self._active_set.add(a)
                self._active.append(a)
            if self._segmented:
                scan = self._scans.get(a)
                if scan is None:
                    scan = self._scans[a] = RestoreScan(
                        self._circuit.num_qubits,
                        self._circuit.gates,
                        a,
                        self._segment_check,
                    )
                scan.observe(index)
        return index

    def extend(self, gates) -> None:
        """Feed many gates in order."""
        for gate in gates:
            self.append(gate)

    # ------------------------------------------------------------------ #
    # Queries (current prefix)
    # ------------------------------------------------------------------ #

    def window(self, ancilla: int) -> Optional[WindowSet]:
        """The ancilla's lending window over the prefix seen so far
        (``None`` while untouched)."""
        if ancilla not in self._active_set:
            return None
        if self._segmented:
            return self._scans[ancilla].window()
        return WindowSet.whole(self._index.interval(ancilla))

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    def snapshot(self, circuit: Optional[Circuit] = None) -> ConflictModel:
        """Freeze the current prefix into a :class:`ConflictModel`.

        ``circuit`` lets :func:`build_model` hand back the caller's own
        circuit object (required: :func:`repro.alloc.api.allocate`
        checks model/circuit identity).  Without it, the engine's
        internal gate list is *copied* into a fresh circuit, so the
        snapshot stays stable if more gates are fed afterwards.
        """
        if circuit is None:
            circuit = Circuit(
                self._circuit.num_qubits,
                self._circuit.gates,
                self._circuit.labels,
            )
        active = tuple(self._active)
        untouched = tuple(sorted(self._ancilla_set - self._active_set))
        windows = {a: self.window(a) for a in active}
        periods = {a: self._index.interval(a) for a in active}
        candidates = {
            a: tuple(
                h
                for h in self._hosts
                if not self._index.busy_in(h, windows[a])
            )
            for a in active
        }
        conflicts: Dict[int, FrozenSet[int]] = {
            a: frozenset(
                b
                for b in active
                if b != a and windows[a].overlaps(windows[b])
            )
            for a in active
        }
        return ConflictModel(
            circuit=circuit,
            ancillas=active,
            untouched=untouched,
            periods=periods,
            windows=windows,
            hosts=self._hosts,
            candidates=candidates,
            conflicts=conflicts,
            segmented=self._segmented,
        )


def build_model(
    circuit: Circuit,
    ancillas: Sequence[int],
    segmented: bool = False,
    segment_check: Optional[SegmentCheck] = None,
) -> ConflictModel:
    """Extract the interval-conflict structure for ``ancillas``.

    With ``segmented`` on, each ancilla's lending window is refined by
    the restore-point analysis
    (:func:`~repro.circuits.intervals.restore_segments`, optionally
    solver-backed through ``segment_check``); candidate hosts then only
    need to be idle inside the surviving segments, and conflicts are
    window-*set* overlaps — both strictly more permissive than the
    whole-period default, never less.

    Implemented as "feed every gate through an
    :class:`IncrementalConflictModel`, snapshot once".
    """
    engine = IncrementalConflictModel(
        circuit.num_qubits,
        ancillas,
        segmented=segmented,
        segment_check=segment_check,
        labels=circuit.labels,
    )
    engine.extend(circuit.gates)
    return engine.snapshot(circuit)


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
