"""Disk-persistent verdict cache for the batch verification engine.

:class:`BatchVerifier` memoises verdicts in-process, keyed by
``(circuit fingerprint, qubit, backend, simplify_xor, clean)``, where
``clean`` marks an ``alloc`` wire's (6.1)-only verdict.  This module
makes that memo survive the process: :class:`DiskVerdictCache` is a
mutable mapping with the same keys, backed by one JSON file, that the
verifier accepts through its ``cache=`` (or the convenience
``cache_path=``) parameter.  Repeated service-style runs — the
multi-programming scheduler, CI — then skip solver work entirely for
circuits they have seen before, across processes.

Design points:

* **write-through** — every stored verdict is flushed with an atomic
  rename (write temp file, ``os.replace``), so a crash never leaves a
  torn file; solver runs dwarf the serialisation cost;
* **concurrent-writer safe** — a flush is a read-merge-write under an
  advisory file lock (a ``.lock`` sidecar, ``fcntl`` where available):
  verdicts another verifier stored since our last read are folded in
  instead of clobbered, so several ``BatchVerifier`` processes sharing
  one ``cache_path`` converge on the union of their verdicts (a
  verdict is immutable for its key, so merge order cannot disagree);
  deletions are tracked as tombstones so a removed key is not
  resurrected from disk by the next merge;
* **corruption-tolerant** — an unreadable or malformed file is treated
  as empty (recorded in :attr:`DiskVerdictCache.load_error`) and
  overwritten on the next store, so a bad cache can never fail a run;
* **versioned** — payloads carry a schema tag (``verdict-cache/v2``
  since the key gained ``clean``); a format bump invalidates old files
  instead of misreading them.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Dict, Iterator, MutableMapping, Optional, Set, Tuple

try:  # POSIX advisory locking; flushes degrade gracefully without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.verify.backends.base import BooleanCheckOutcome

#: The verifier's memo key:
#: (fingerprint, qubit, backend, simplify_xor, clean).
CacheKey = Tuple[str, int, str, bool, bool]

_SCHEMA = "verdict-cache/v2"


def _encode_key(key: CacheKey) -> str:
    fingerprint, qubit, backend, simplify_xor, clean = key
    return f"{fingerprint}:{qubit}:{backend}:{int(simplify_xor)}:{int(clean)}"


def _decode_key(text: str) -> CacheKey:
    fingerprint, qubit, backend, simplify_xor, clean = text.split(":")
    return (
        fingerprint,
        int(qubit),
        backend,
        bool(int(simplify_xor)),
        bool(int(clean)),
    )


def _encode_outcome(outcome: BooleanCheckOutcome) -> dict:
    return {
        "qubit": outcome.qubit,
        "safe": outcome.safe,
        "failed_condition": outcome.failed_condition,
        "counterexample": outcome.counterexample,
        "solve_seconds": outcome.solve_seconds,
        # Details may hold backend-specific objects; keep only the
        # JSON-representable part (they are informational).
        "details": {
            k: v
            for k, v in outcome.details.items()
            if isinstance(v, (str, int, float, bool, type(None)))
        },
    }


def _decode_outcome(payload: dict) -> BooleanCheckOutcome:
    return BooleanCheckOutcome(
        qubit=int(payload["qubit"]),
        safe=bool(payload["safe"]),
        failed_condition=payload.get("failed_condition"),
        counterexample=payload.get("counterexample"),
        solve_seconds=float(payload.get("solve_seconds", 0.0)),
        details=dict(payload.get("details") or {}),
    )


class DiskVerdictCache(MutableMapping):
    """A JSON-file-backed verdict store, drop-in for the in-memory dict.

    Parameters
    ----------
    path:
        The JSON file; created (with parent directories) on first
        store.
    autosave:
        Flush on every store (the default).  Turn off for bulk loads
        and call :meth:`flush` once at the end.
    """

    def __init__(self, path: str, autosave: bool = True):
        self.path = str(path)
        self.autosave = autosave
        #: Why the existing file was discarded, if it was (human-readable).
        self.load_error: Optional[str] = None
        self._data: Dict[CacheKey, BooleanCheckOutcome] = {}
        #: Keys deleted locally since load — flushes must not merge
        #: them back in from disk.
        self._dropped: Set[CacheKey] = set()
        #: A pending clear(): the next flush overwrites the file
        #: outright instead of merging concurrent writers' verdicts.
        self._wipe = False
        self._load()

    # ---------------------------- mapping ----------------------------- #

    def __getitem__(self, key: CacheKey) -> BooleanCheckOutcome:
        return self._data[key]

    def __setitem__(self, key: CacheKey, outcome: BooleanCheckOutcome) -> None:
        self._data[key] = outcome
        self._dropped.discard(key)
        if self.autosave:
            self.flush()

    def __delitem__(self, key: CacheKey) -> None:
        del self._data[key]
        self._dropped.add(key)
        if self.autosave:
            self.flush()

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[CacheKey]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self._dropped.clear()
        self._wipe = True
        if self.autosave:
            self.flush()

    # --------------------------- persistence -------------------------- #

    @contextmanager
    def deferred(self):
        """Suspend autosave across a bulk of stores; flush once at exit.

        The batch engine wraps each solve round in this, so a batch of
        ``n`` fresh verdicts costs one file write instead of ``n``
        rewrites of the whole store (crash-atomicity drops to batch
        granularity — exactly the unit of work being paid for).
        """
        previous = self.autosave
        self.autosave = False
        try:
            yield self
        finally:
            self.autosave = previous
            if previous:
                self.flush()

    @contextmanager
    def _writer_lock(self):
        """Advisory inter-writer lock (a ``.lock`` sidecar, so the lock
        survives the data file's atomic replacement).  Held across the
        read-merge-write of one flush; two writers that race their
        flushes then serialise and each folds the other's verdicts in.
        Degrades to unlocked (still crash-atomic, but a simultaneous
        flush may lose the other writer's latest batch) where ``fcntl``
        is unavailable."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.path + ".lock", "a+") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def flush(self) -> None:
        """Atomically write the store to :attr:`path`.

        A flush merges first: verdicts another writer persisted since
        our last read are read back (under the writer lock) unless we
        deleted them locally, so concurrent verifiers sharing one path
        converge on the union instead of last-writer-wins.  After a
        :meth:`clear` the next flush wipes instead of merging.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with self._writer_lock():
            if self._wipe:
                self._wipe = False
            else:
                disk, _ = self._read_payload()
                for key, outcome in disk.items():
                    if key not in self._data and key not in self._dropped:
                        self._data[key] = outcome
            payload = {
                "schema": _SCHEMA,
                "verdicts": {
                    _encode_key(key): _encode_outcome(outcome)
                    for key, outcome in self._data.items()
                },
            }
            handle, temp_path = tempfile.mkstemp(
                dir=directory, prefix=".verdict-cache-", suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w") as stream:
                    json.dump(payload, stream)
                os.replace(temp_path, self.path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise

    def _read_payload(
        self,
    ) -> Tuple[Dict[CacheKey, BooleanCheckOutcome], Optional[str]]:
        """Decode the on-disk store; a missing/bad file is just empty."""
        try:
            with open(self.path) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            return {}, None
        except (OSError, ValueError) as error:
            return {}, f"unreadable cache file: {error}"
        try:
            if payload.get("schema") != _SCHEMA:
                return {}, f"schema {payload.get('schema')!r} != {_SCHEMA!r}"
            return {
                _decode_key(text): _decode_outcome(entry)
                for text, entry in payload["verdicts"].items()
            }, None
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            return {}, f"malformed cache payload: {error}"

    def _load(self) -> None:
        self._data, self.load_error = self._read_payload()


__all__ = ["CacheKey", "DiskVerdictCache"]
