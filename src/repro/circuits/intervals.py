"""Per-qubit activity intervals, segmented lending windows and the
restore-point analysis.

Section 3 reuses a working qubit as a dirty ancilla when it is *idle
during the ancilla's period* (the ``<...>`` spans of Figure 3.1).  This
module computes those periods over gate indices — and refines them: an
ancilla shaped ``C;C⁻¹ … C';C'⁻¹`` is *restored* in the gap between its
segments, so the host wire can be released there and re-borrowed later.
:func:`restore_segments` finds those release points and returns the
ancilla's :class:`WindowSet` — the ordered set of disjoint gate-index
segments during which a guest actually occupies its host.

Every analysis here reads a finished :class:`Circuit`.
:func:`touch_indices` builds the per-wire sorted touch lists in one
pass; idle queries binary-search them, and :func:`restore_segments`
walks one wire's list.  :func:`repro.alloc.build_model` reads every
answer it needs off one :func:`touch_indices` call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.errors import CircuitError


@dataclass(frozen=True)
class ActivityInterval:
    """Closed gate-index interval ``[first, last]`` in which a qubit is used."""

    first: int
    last: int

    def overlaps(self, other: "ActivityInterval") -> bool:
        """True when the two closed intervals intersect."""
        return self.first <= other.last and other.first <= self.last

    def contains_index(self, index: int) -> bool:
        """True when gate ``index`` falls inside the interval."""
        return self.first <= index <= self.last

    def shifted(self, delta: int) -> "ActivityInterval":
        """The same span, ``delta`` gate indices later.

        The multi-programmer uses this to map a guest-local lending
        window onto the machine's composite-interleave timeline: a job
        admitted at logical round ``t`` touches a lent wire exactly
        during ``window.shifted(t)``.
        """
        return ActivityInterval(self.first + delta, self.last + delta)

    @property
    def length(self) -> int:
        """Number of gate indices the interval covers."""
        return self.last - self.first + 1

    def __str__(self) -> str:
        return f"[{self.first}, {self.last}]"


@dataclass(frozen=True)
class WindowSet:
    """An ordered set of disjoint gate-index segments — a lending window.

    The refinement of the single-interval lending window: a guest
    ancilla occupies its host wire only during ``segments``, and the
    gaps between them are valid *release points* (the prefix up to each
    gap provably restores the ancilla, so the host can be handed back
    and re-borrowed later).  A whole-period window is the degenerate
    one-segment case, which is why every host-sharing decision — the
    conflict graph, :func:`~repro.alloc.model.validate_placement`, the
    multi-programmer's leases — now reasons over set disjointness.

    Segments must be sorted, pairwise disjoint and separated by real
    gaps (two contiguous segments are one segment); the constructor
    enforces that, so a ``WindowSet`` is always canonical and equality
    is structural.
    """

    segments: Tuple[ActivityInterval, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise CircuitError("a WindowSet needs at least one segment")
        for seg in segments:
            if seg.first > seg.last:
                raise CircuitError(f"empty window segment {seg}")
        for prev, nxt in zip(segments, segments[1:]):
            if nxt.first <= prev.last + 1:
                raise CircuitError(
                    f"window segments {prev} and {nxt} are not separated "
                    f"by a gap"
                )
        object.__setattr__(self, "segments", segments)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def whole(cls, interval: ActivityInterval) -> "WindowSet":
        """The one-segment window covering ``interval``."""
        return cls((interval,))

    @classmethod
    def of(cls, *spans: Tuple[int, int]) -> "WindowSet":
        """Build from ``(first, last)`` pairs (test/doc convenience)."""
        return cls(
            tuple(ActivityInterval(first, last) for first, last in spans)
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def first(self) -> int:
        """First gate index covered (start of the earliest segment)."""
        return self.segments[0].first

    @property
    def last(self) -> int:
        """Last gate index covered (end of the latest segment)."""
        return self.segments[-1].last

    @property
    def hull(self) -> ActivityInterval:
        """The whole-period interval the set refines."""
        return ActivityInterval(self.first, self.last)

    @property
    def length(self) -> int:
        """Total covered gate indices (the hull minus the gaps)."""
        return sum(seg.length for seg in self.segments)

    def gaps(self) -> Tuple[ActivityInterval, ...]:
        """The release spans between consecutive segments."""
        return tuple(
            ActivityInterval(prev.last + 1, nxt.first - 1)
            for prev, nxt in zip(self.segments, self.segments[1:])
        )

    def contains_index(self, index: int) -> bool:
        """True when gate ``index`` falls inside some segment."""
        return any(seg.contains_index(index) for seg in self.segments)

    def overlaps(
        self, other: Union["WindowSet", ActivityInterval]
    ) -> bool:
        """True when any segment of ``self`` intersects ``other``.

        Merge-scan over the two sorted segment lists, so the check is
        linear in the segment counts — this sits under the conflict
        graph, ``validate_placement`` and every lease-feasibility test.
        """
        theirs = (
            (other,) if isinstance(other, ActivityInterval) else other.segments
        )
        i = j = 0
        mine = self.segments
        while i < len(mine) and j < len(theirs):
            if mine[i].overlaps(theirs[j]):
                return True
            if mine[i].last < theirs[j].last:
                i += 1
            else:
                j += 1
        return False

    def shifted(self, delta: int) -> "WindowSet":
        """Every segment ``delta`` gate indices later (see
        :meth:`ActivityInterval.shifted`)."""
        return WindowSet(tuple(seg.shifted(delta) for seg in self.segments))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __str__(self) -> str:
        return "∪".join(str(seg) for seg in self.segments)


def activity_intervals(circuit: Circuit) -> Dict[int, ActivityInterval]:
    """Map each touched qubit to its first/last gate index."""
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for index, gate in enumerate(circuit.gates):
        for q in gate.qubits:
            first.setdefault(q, index)
            last[q] = index
    return {
        q: ActivityInterval(first[q], last[q]) for q in first
    }


def touch_indices(circuit: Circuit) -> Dict[int, List[int]]:
    """Map each touched qubit to its sorted gate-index list.

    One pass over the gates; the per-qubit lists are ascending by
    construction, so idle queries and the restore-point analysis can
    binary-search them instead of re-walking the gate list.
    """
    touches: Dict[int, List[int]] = {}
    for index, gate in enumerate(circuit.gates):
        for q in gate.qubits:
            touches.setdefault(q, []).append(index)
    return touches


def idle_qubits_during(
    circuit: Circuit,
    window: Union[ActivityInterval, WindowSet],
    candidates: Optional[Set[int]] = None,
) -> Set[int]:
    """Qubits with no gate inside ``window``.

    ``candidates`` restricts the search (e.g. to working qubits only);
    by default all register qubits are considered.  A qubit that is never
    touched at all is idle in every window.  ``window`` may be a
    :class:`WindowSet`, in which case only its segments matter — a qubit
    busy purely inside the gaps is still idle.

    One pass builds the per-qubit touch lists; each (qubit, segment)
    query is then a single :func:`bisect_left`, so the whole call is
    ``O(gates + |pool| * segments * log gates)`` instead of the old
    per-candidate rescan of every gate in the window.
    """
    pool = set(range(circuit.num_qubits)) if candidates is None else set(candidates)
    touches = touch_indices(circuit)
    segments = (
        window.segments if isinstance(window, WindowSet) else (window,)
    )
    idle: Set[int] = set()
    for q in pool:
        indices = touches.get(q)
        if not indices or not _busy_inside(indices, segments):
            idle.add(q)
    return idle


def _busy_inside(
    indices: Sequence[int], segments: Sequence[ActivityInterval]
) -> bool:
    """Does the sorted touch list hit any of the segments?"""
    for seg in segments:
        cut = bisect_left(indices, seg.first)
        if cut < len(indices) and indices[cut] <= seg.last:
            return True
    return False


# --------------------------------------------------------------------- #
# Restore-point analysis
# --------------------------------------------------------------------- #

#: Decides whether a candidate segment (a contiguous gate slice, given
#: as its own circuit) provably restores the ancilla for every input
#: and every initial ancilla value — the per-segment Definition 3.1
#: obligation.  Used for slices the structural detector cannot certify.
SegmentCheck = Callable[[Circuit, int], bool]


def _structural_identity(gates: Sequence) -> bool:
    """True when the slice is a ``C;C⁻¹``-shaped classical palindrome.

    Classical gates (X / CX / CCX / MCX) are self-inverse, so a
    palindromic slice of them composes to the identity *operator* —
    regardless of what the surrounding circuit does to the data wires.
    This is exactly the shape :func:`repro.testing.random_reversible_circuit`
    constructively emits, and it is decidable in one linear scan.
    """
    n = len(gates)
    if n == 0 or n % 2:
        return False
    return all(
        gates[i].is_classical and gates[i] == gates[n - 1 - i]
        for i in range(n // 2)
    )


def restore_segments(
    circuit: Circuit,
    ancilla: int,
    segment_check: Optional[SegmentCheck] = None,
    touches: Optional[Sequence[int]] = None,
) -> WindowSet:
    """Split an ancilla's activity period at its valid release points.

    A gap in the ancilla's touch pattern is a valid release point only
    when the activity on each side forms a self-contained *identity
    segment*: the contiguous gate slice from the segment's first touch
    to its last must restore the ancilla for every input and every
    initial ancilla value.  Only then can the host wire be handed back
    in the gap (the borrowed value is intact) and re-borrowed at the
    next segment (which restores whatever value it then finds).

    Segments are certified structurally — a palindrome of self-inverse
    classical gates composes to the identity — with ``segment_check``
    (see :func:`solver_restore_checker`) as the optional semantic
    fallback for slices the syntax cannot decide.  The split is greedy:
    scanning left to right, a gap becomes a release point as soon as
    the slice since the previous release point certifies, and a slice
    that does not certify is merged across the gap and retried at the
    next one — so every *emitted* segment is a certified identity,
    even when it spans several touch-gaps.  If the trailing slice
    never certifies, the whole decomposition is withdrawn and the
    ancilla keeps its whole activity period as a single window:
    releasing at any earlier point would let the host's owner change
    the wire during a gap, and an uncertified tail is not proven to
    restore that new value (in particular, a ``spoiled`` ancilla —
    whose trailing flip can never certify — is never segmented).
    Raises :class:`CircuitError` for an untouched ancilla.

    ``touches`` optionally supplies the ancilla's sorted gate-index
    list (one entry of :func:`touch_indices`), sparing callers that
    already scanned the gate list — :func:`repro.alloc.build_model`
    analyses every ancilla off a single pass.
    """
    if not 0 <= ancilla < circuit.num_qubits:
        raise CircuitError(f"ancilla {ancilla} outside the register")
    if touches is None:
        touches = touch_indices(circuit).get(ancilla, ())
    if not touches:
        raise CircuitError(
            f"ancilla {ancilla} is never touched; no window to segment"
        )
    gates = circuit.gates

    def certifies(first: int, last: int) -> bool:
        piece = gates[first : last + 1]
        if _structural_identity(piece):
            return True
        return segment_check is not None and segment_check(
            Circuit(circuit.num_qubits, piece), ancilla
        )

    closed: List[ActivityInterval] = []
    start = prev = touches[0]
    for index in touches[1:]:
        if index > prev + 1 and certifies(start, prev):
            closed.append(ActivityInterval(start, prev))
            start = index
        prev = index
    if not closed or not certifies(start, prev):
        # No release point, or a tail that does not certify: the
        # ancilla keeps its whole period (see above).
        return WindowSet.whole(ActivityInterval(touches[0], prev))
    return WindowSet((*closed, ActivityInterval(start, prev)))


def solver_restore_checker(
    verifier=None, backend: str = "bdd"
) -> SegmentCheck:
    """A :data:`SegmentCheck` backed by the Section 6 obligations.

    Wraps a :class:`~repro.verify.batch.BatchVerifier` (a private
    memoising one by default): a candidate segment certifies when the
    slice, taken as a circuit of its own, verifies the ancilla
    dirty-safe — restored for every input and every initial ancilla
    value, with no leak into other wires — which is exactly the
    per-segment restore obligation.  Slices outside the classical
    fragment never certify (same boundary as the pipeline itself).
    """
    if verifier is None:
        from repro.verify.batch import BatchVerifier

        verifier = BatchVerifier(backend=backend)

    def check(segment_circuit: Circuit, ancilla: int) -> bool:
        from repro.circuits.classical import is_classical_circuit

        if not is_classical_circuit(segment_circuit):
            return False
        report = verifier.verify_circuit(segment_circuit, [ancilla])
        return all(v.safe for v in report.verdicts)

    return check
