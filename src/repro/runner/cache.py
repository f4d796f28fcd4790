"""On-disk memoisation of simulation results.

The cache is addressed by key: ``get``, ``put``, ``has`` and
``path_for`` take a job's :meth:`~repro.runner.job.SimJob.key` — a
content hash of the full declarative job spec — so a cached entry is
valid exactly as long as the job it came from is byte-for-byte the
same sweep point.  Callers key each job once and pass the string
along; the cache never hashes a job.  The layout is flat: the entry
for a key lives at ``<dir>/<key>.pkl``.  Every cache directory — a
local sweep's, ``repro report``'s, a distributed sweep's shared
directory (next to its ``queue/``), the service daemon's — is opened
the same way, as ``ResultCache(dir)``.

The store is built for crash-resume and concurrent writers:

* **Entry format** — ``MAGIC + sha256(payload) + payload`` where the
  payload is the pickled result.  The embedded checksum distinguishes
  "this entry is whole" from "a writer died mid-flight / the disk bit-
  flipped": a half-written or tampered entry can never be served, and
  neither can a header-less one (a pre-checksum bare pickle).
* **Quarantine** — an unreadable entry is renamed to ``*.corrupt``
  (keeping the evidence for post-mortems) and reported as a miss, so
  the job re-executes and the next ``put`` heals the slot.  Silently
  treating corruption as a miss *without* moving the file would re-miss
  the same bytes forever.
* **Atomic, last-wins writes** — ``put`` stages the entry in a
  ``mkstemp`` temp file and ``os.replace``\\ s it over the key, so
  readers never observe a partial entry and two processes putting the
  same key race harmlessly (results are deterministic per key, so both
  writers carry identical bytes).  Temp files orphaned by crashed
  writers are swept on init once they are stale, and by :meth:`clear`.

A change to the entry format or the layout must make old entries miss
(a new :data:`MAGIC`, or a new path) and never serve them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Union

#: Leads every entry; an entry without it is never served.
MAGIC = b"repro-result-cache:v1\n"

#: Bytes before the payload: ``MAGIC`` then the payload's sha256.
_HEADER_BYTES = len(MAGIC) + 32

#: A ``.tmp`` older than this is an orphan of a dead writer, not a
#: write in progress (writes take milliseconds), and is swept on init.
STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """A flat directory of checksummed pickled results keyed by job key."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries quarantined to ``*.corrupt`` since construction.
        self.quarantined = 0
        self._sweep_stale_tmp()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def has(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (existence only — the
        entry may still fail checksum validation on :meth:`get`).
        Touches no counters; used for resume previews."""
        return self.path_for(key).exists()

    def get(self, key: str) -> Optional[Any]:
        """The result stored under ``key``, or None on a miss."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        payload = raw[_HEADER_BYTES:]
        if (raw.startswith(MAGIC) and hashlib.sha256(payload).digest()
                == raw[len(MAGIC):_HEADER_BYTES]):
            try:
                result = pickle.loads(payload)
            except Exception:
                # Checksum held but the payload no longer unpickles
                # (class moved/renamed since it was written).
                pass
            else:
                self.hits += 1
                return result
        # Header-less, torn, bit-flipped or no longer unpicklable.
        self._quarantine(path)
        self.misses += 1
        return None

    def put(self, key: str, result: Any) -> None:
        """Atomically publish ``result`` as ``key``'s entry.

        The entry is staged in a ``mkstemp`` temp file in the cache
        directory (the same filesystem, so ``os.replace`` is atomic)
        and swapped in last-wins.
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        blob = MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside so the slot can heal.

        Renaming (not deleting) keeps the corrupt bytes inspectable;
        the rename is atomic, so a concurrent reader either still sees
        the corrupt entry (and loses the rename race harmlessly) or a
        clean miss.
        """
        try:
            os.replace(path, Path(f"{path}.corrupt"))
        except OSError:
            pass  # another reader quarantined it first, or it vanished
        self.quarantined += 1

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by writers that died mid-put.

        Age-gated so a *live* concurrent writer's staging file is never
        yanked out from under its ``os.replace``.
        """
        cutoff = time.time() - STALE_TMP_SECONDS
        for tmp in self.directory.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass

    def clear(self) -> None:
        """Drop every entry, plus orphaned temp and quarantined files."""
        for pattern in ("*.pkl", "*.tmp", "*.corrupt"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))
