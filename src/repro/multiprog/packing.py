"""Pluggable lease-packing policies for the online multi-programmer.

When a verified-safe guest ancilla needs a cross-program host, the
scheduler first computes the *feasible* offered wires — every offer
whose existing leases are all window-set-disjoint from the new window
— and then asks a :class:`LeasePacker` to pick one.  The packer is therefore
a pure preference policy over already-feasible wires (disjointness is
enforced once, in the scheduler), registered with the same decorator
registry shape as the allocation strategies, verification backends and
queue policies:

* ``first-fit`` — the smallest-index feasible wire: the historical
  behaviour, O(1) per choice, spreads early guests across offers;
* ``best-fit`` — the feasible wire already carrying the most leased
  rounds: concentrates guests on few wires, keeping the others
  lease-free for guests that cannot share;
* ``earliest-gap`` — the feasible wire whose latest lease before the
  new window ends last: packs each new lease tightly against its
  predecessor, leaving the largest contiguous gaps open for later,
  wider windows.

All three are deterministic (ties break to the smallest wire index), so
seeded traces replay identically under any fixed packer.  The policy is
selectable per scheduler (``MultiProgrammer(lease_packer=...)``); a
fleet shard that needs another packer is passed to the fleet prebuilt.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Optional, Sequence

from repro.circuits.intervals import WindowSet
from repro.registry import make_registry


class LeasePacker(ABC):
    """Chooses which feasible offered wire hosts a new lease window."""

    #: Registry name (set by :func:`register_packer`).
    name: str = "?"

    @abstractmethod
    def choose(
        self,
        window: WindowSet,
        offers: Mapping[int, Sequence],
    ) -> Optional[int]:
        """Pick one wire from ``offers`` (wire -> its current leases,
        every entry already feasible for ``window``), or ``None`` when
        there is nothing to pick.  Must be deterministic."""


_REGISTRY = make_registry(LeasePacker, "lease packer")

#: Class decorator: publish a :class:`LeasePacker` under a name.
register_packer = _REGISTRY.register
#: All registered lease-packer names, sorted.
available_packers = _REGISTRY.available
#: Look up a packer class by name (:class:`CircuitError` if absent).
packer_class = _REGISTRY.get
#: Instantiate a registered packer with keyword options.
make_packer = _REGISTRY.make


@register_packer("first-fit")
class FirstFitPacker(LeasePacker):
    """Smallest-index feasible wire — the historical rule."""

    def choose(self, window, offers):
        return min(offers) if offers else None


@register_packer("best-fit")
class BestFitPacker(LeasePacker):
    """Most-loaded feasible wire (by total leased rounds).

    The cross-program analogue of the interval-graph strategy's
    most-loaded-host preference: piling window-disjoint guests onto one
    wire leaves whole wires lease-free for guests that cannot share.
    """

    def choose(self, window, offers):
        if not offers:
            return None
        return min(
            offers,
            key=lambda wire: (
                -sum(lease.window.length for lease in offers[wire]),
                wire,
            ),
        )


@register_packer("earliest-gap")
class EarliestGapPacker(LeasePacker):
    """Feasible wire with the smallest idle gap before the new window.

    Ranks wires by the end of their latest lease segment that still
    precedes ``window`` (later is better — the new lease sits tightly
    after it), so fragmentation concentrates where windows already are
    and the long empty runs stay intact for later, wider windows.  A
    wire with no lease before the window ranks last.
    """

    def choose(self, window, offers):
        if not offers:
            return None

        def gap_rank(wire: int):
            preceding = [
                seg.last
                for lease in offers[wire]
                for seg in lease.window.segments
                if seg.last < window.first
            ]
            return (-(max(preceding) if preceding else -1), wire)

        return min(offers, key=gap_rank)


__all__ = [
    "BestFitPacker",
    "EarliestGapPacker",
    "FirstFitPacker",
    "LeasePacker",
    "available_packers",
    "make_packer",
    "packer_class",
    "register_packer",
]
