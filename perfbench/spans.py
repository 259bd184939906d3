"""In-memory spans for the traced run, and the layer wrappers that make them.

The traced run patches each layer's public functions where their callers
look them up (``repro.verify.batch.make_checker``,
``repro.multiprog.scheduler.allocate``, ``Circuit.fingerprint``, ...).
Every wrapper calls the original unchanged, so the traced run executes
the same program; it only records one span per call (name, start, end,
parent span, request id) and a few counters read at the same boundary.
The wrappers are in place only while the tracer is enabled, so the
traced run can alternate traced and untraced chunks of work.  Spans live
in flat arrays and are written once, when the run ends.

A layer's *self time* is its span's duration minus the duration of its
child spans.  The clock is read after a span's bookkeeping on entry and
before it on exit, so wrapper cost lands in the parent's self time, not
the child's.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

ROOT = "request"


class Tracer:
    """Records spans and counters; patches and restores layer functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        #: Id of the request in flight; spans outside any request get -1
        #: and are left out of every aggregate.
        self.request_id = -1
        self._next_request = 0
        self.counts: Counter = Counter()
        #: Span name -> calls that raised (e.g. refused admissions), in
        #: requests only.
        self.raised: Counter = Counter()
        self._stack = [-1]
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: int) -> None:
        """Bump a counter, if a request is in flight."""
        if self.request_id >= 0:
            self.counts[key] += amount

    def wrap(
        self,
        name,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span.  ``name`` is a string, or a function of
        the call's positional arguments that returns one.  ``before(args)``
        runs ahead of the span and its value reaches
        ``after(args, result, snapshot)``, which runs once ``fn`` returns."""
        fixed = None if callable(name) else self._id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args))
            snapshot = before(args) if before is not None else None
            index = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if self.request_id >= 0:
                    self.raised[self.names[nid]] += 1
                raise
            finally:
                self._close(index)
            if after is not None:
                after(args, result, snapshot)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn: Callable) -> Callable:
        """``fn`` as one request: a new request id and a root span."""
        nid = self._id(ROOT)

        def request(*args, **kwargs):
            self.request_id = self._next_request
            self._next_request += 1
            index = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                self.request_id = -1

        return request

    # -- patching --------------------------------------------------------

    def patch(self, target: str, attr: str, name, before=None, after=None):
        """Register a wrapped ``target.attr`` (a module, or
        ``module:Class``); it replaces the original only between
        :meth:`enable` and :meth:`disable`."""
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        if attr not in vars(owner):
            raise AttributeError(f"{target} defines no {attr!r} to wrap")
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, before, after)
        self._patches.append((owner, attr, original, wrapper))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def aggregate(self) -> "Aggregate":
        """Per-name calls, total and self time, and per-span durations."""
        count = len(self.name)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        agg = Aggregate()
        names = self.names
        for index in range(count):
            if self.request[index] < 0:
                continue
            name = names[self.name[index]]
            duration = end[index] - start[index]
            agg.calls[name] += 1
            agg.total[name] += duration
            agg.self_time[name] += duration - child[index]
            agg.durations[name].append(duration)
            agg.by_request[name][self.request[index]] += 1
        return agg

    def write(self, path: str) -> None:
        """Write every span, columnar, as gzip'd JSON (times in seconds
        from the first span)."""
        origin = self.start[0] if self.start else 0.0
        data = {
            "names": self.names,
            "name": list(self.name),
            "start": [round(t - origin, 7) for t in self.start],
            "end": [round(t - origin, 7) for t in self.end],
            "parent": list(self.parent),
            "request": list(self.request),
            "counts": dict(self.counts),
            "raised": dict(self.raised),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(data, handle, separators=(",", ":"))


class Aggregate:
    """Span totals by name (seconds)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Span name -> request id -> calls.
        self.by_request: Dict[str, Counter] = defaultdict(Counter)


def _checker_span(args) -> str:
    return "bdd.build" if args[1] == "bdd" else "verify.make_checker"


def install_layers(tracer: Tracer) -> None:
    """Register a wrapper at every layer boundary on the measured path."""
    add = tracer.add

    def gates(args, program, _):
        add("lang.gates", len(program.circuit.gates))

    def nodes(args, checker, _):
        if args[1] == "bdd":
            add("bdd.nodes", checker.bdd.node_count)

    def memo_before(args):
        return args[0].cache_hits, args[0].cache_misses

    def memo_after(args, _, snapshot):
        add("verify.memo_hits", args[0].cache_hits - snapshot[0])
        add("verify.memo_misses", args[0].cache_misses - snapshot[1])

    def sat_before(args):
        stats = args[0].stats
        return stats.decisions, stats.conflicts, stats.propagations

    def sat_after(args, _, snapshot):
        stats = args[0].stats
        add("sat.decisions", stats.decisions - snapshot[0])
        add("sat.conflicts", stats.conflicts - snapshot[1])
        add("sat.propagations", stats.propagations - snapshot[2])

    patch = tracer.patch
    patch("repro.lang.surface.elaborate", "elaborate", "lang.elaborate",
          after=gates)
    patch("repro.verify.batch", "track_circuit", "verify.track")
    patch("repro.verify.batch", "make_checker", _checker_span, after=nodes)
    patch("repro.verify.batch", "outcome_to_verdict", "verify.replay")
    patch("repro.verify.batch:BatchVerifier", "verify_circuits",
          "verify.engine", before=memo_before, after=memo_after)
    patch("repro.verify.backends.sat", "formula_61", "verify.formula")
    patch("repro.verify.backends.sat", "formula_62", "verify.formula")
    patch("repro.verify.backends.sat:SatCheckerBackend", "check_qubit",
          "verify.check")
    patch("repro.verify.backends.bdd:BddCheckerBackend", "check_qubit",
          "bdd.check")
    patch("repro.boolfn.cnf:TseitinEncoder", "literal", "boolfn.encode")
    patch("repro.boolfn.cnf:TseitinEncoder", "cone_vars", "boolfn.encode")
    patch("repro.sat.cdcl:CdclSolver", "probe", "sat.probe",
          before=sat_before, after=sat_after)
    patch("repro.circuits.circuit:Circuit", "fingerprint",
          "circuits.fingerprint")
    patch("repro.multiprog.scheduler", "build_model", "alloc.build_model")
    patch("repro.alloc.api", "build_model", "alloc.build_model")
    patch("repro.multiprog.scheduler", "allocate", "alloc.allocate")
    patch("repro.alloc.api", "materialise", "alloc.materialise")
    patch("repro.multiprog.scheduler:MultiProgrammer", "admit",
          "multiprog.admit")
    patch("repro.multiprog.fleet:FleetRouter", "submit", "multiprog.router")
    patch("repro.multiprog.fleet:FleetRouter", "release", "multiprog.router")
