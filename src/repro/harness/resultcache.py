"""Persistent, content-addressed cache of simulation results.

:class:`ResultCache` maps a (:class:`~repro.harness.spec.RunSpec`,
:class:`~repro.arch.config.MachineConfig`) pair to a stored result on
disk, so a warm rerun of the full experiment suite performs **zero**
cycle simulations.  The key is a SHA-256 digest over:

* every field of the normalized spec (workload, mode, DRC entries,
  seed, scale, instruction budgets),
* the machine-config fingerprint (any parameter change invalidates), and
* a code-version salt (:data:`CACHE_SALT`) bumped whenever simulator
  semantics change, so stale results from an older simulator can never
  be served.

On-disk layout
--------------

Entries are **sharded by digest prefix into a directory per entry**::

    root/ab/abcd0123.../result.json    (every job kind)
    root/ab/abcd0123.../claim          (multi-host work-queue claim file)

The per-entry directory is what makes the cache a coordination point
for multiple host processes draining one sweep: the
:class:`~repro.harness.workqueue.WorkQueue` claim file lives next to
the result it gates, and "complete" is simply "the result file exists".
Entries in the pre-sharding layouts (flat ``root/<digest>.ext`` and
two-level ``root/ab/<digest>.ext``) are not read: they miss and are
recomputed.  :meth:`~repro.obs.store.RunStore.backfill_cache` still
indexes them, as it walks any layout.

Every job kind — cycle run, emulation, race and fleet point — is one
JSON document holding its ``kind``, the spec, the machine-config
fingerprint and the result's ``as_dict()`` (inspectable, diffable).
:meth:`ResultCache.get` rebuilds the result with its type's
``from_dict`` (an emulation comes back without ``run.state``), and
:meth:`~repro.obs.store.RunStore.backfill_cache` indexes the entry as
a run-store row of its kind.  Nothing is unpickled, so a cache shared
between hosts (``--queue``) carries data, not code, and the
``result.pkl`` of an older build is a miss.  Entries are written
atomically (temp file + rename) so a crashed or parallel writer can
never leave a half-written entry, and unreadable/corrupt entries
degrade to cache misses rather than errors.

Observability settings (event sinks, checkpoint cadence, progress) are
deliberately **not** part of the key: they never change a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

from ..arch.simstats import SimResult
from ..emu import EmulationResult
from ..fleet import FleetResult
from ..security.race import RaceResult
from .spec import RunSpec, config_fingerprint

__all__ = ["ResultCache", "CACHE_SALT"]

#: When this process began (well, when this module was imported — close
#: enough for the stale-temp-file sweep): any ``.tmp-*`` file older than
#: this was left by a *previous* process that died between ``mkstemp``
#: and ``os.replace``, and can never be completed.  Fresh temp files are
#: kept — they may belong to a concurrent writer sharing the cache.
_PROCESS_START = time.time()

#: Bump whenever a change to the simulator alters results for the same
#: spec — old on-disk entries then miss instead of serving stale numbers.
#: (v2: block fast path + flattened stall kernels; cycle counts are
#: unchanged by construction, but the fingerprint schema gained the
#: timing-model version and dropped host-tuning fields.  Moving to the
#: sharded layout, and to JSON entries for every job kind, did not bump
#: the salt: results are unchanged.)
CACHE_SALT = "repro-results-v2"

#: What reading a missing, corrupt or incompatible entry raises.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, AttributeError)

#: The type whose ``from_dict`` rebuilds a stored result, by job kind
#: (a ``run`` in ``emulate`` mode is an emulation).
_RESULT_TYPES = {
    "run": SimResult,
    "emulate": EmulationResult,
    "race": RaceResult,
    "fleet": FleetResult,
}


def _result_type(spec):
    mode = getattr(spec, "mode", None)
    return _RESULT_TYPES["emulate" if mode == "emulate" else spec.kind]


class ResultCache:
    """Content-addressed on-disk store of per-spec results."""

    def __init__(self, root: str, salt: str = CACHE_SALT):
        self.root = root
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: orphaned temp files removed on open (died-mid-write debris).
        self.stale_tmp_removed = 0
        os.makedirs(root, exist_ok=True)
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove ``.tmp-*`` orphans left by writers that died mid-put.

        :meth:`put` is atomic (temp file + rename), so a crash between
        ``mkstemp`` and ``os.replace`` can never corrupt an entry — but
        it does leak the temp file.  Only files older than this process
        are swept: a fresh temp file may be a concurrent writer's
        in-flight put.
        """
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.startswith(".tmp-"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    if os.stat(path).st_mtime < _PROCESS_START:
                        os.unlink(path)
                        self.stale_tmp_removed += 1
                except OSError:
                    continue  # already gone or unreadable: not ours to fix

    # -- keys --------------------------------------------------------------

    def key(self, spec: RunSpec, config) -> str:
        """Hex digest addressing ``spec`` under ``config``."""
        payload = json.dumps(
            {
                "spec": spec.normalized().as_dict(),
                "config": config_fingerprint(config),
                "salt": self.salt,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def entry_dir(self, spec: RunSpec, config) -> str:
        """The sharded per-entry directory (``root/ab/abcd.../``).

        Everything belonging to one entry — the result file and any
        work-queue claim file — lives here, so multi-host coordination
        never contends on a shared directory.
        """
        digest = self.key(spec, config)
        return os.path.join(self.root, digest[:2], digest)

    def path(self, spec: RunSpec, config) -> str:
        """Where ``spec``'s result is (or would be) stored."""
        return os.path.join(self.entry_dir(spec, config), "result.json")

    # -- lookup / store ----------------------------------------------------

    def _load(self, spec, config):
        """Read ``spec``'s entry; raises on missing/corrupt."""
        with open(self.path(spec, config)) as fh:
            entry = json.load(fh)
        return _result_type(spec).from_dict(entry["result"])

    def get(self, spec: RunSpec, config):
        """Stored result for ``spec``, or None (counts a hit/miss)."""
        try:
            result = self._load(spec, config)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _UNREADABLE:
            # Corrupt or incompatible entry: treat as a miss and drop
            # it so the caller's rewrite repairs the cache.
            self._discard(self.path(spec, config))
            self.misses += 1
            return None
        self.hits += 1
        return result

    def peek(self, spec: RunSpec, config):
        """Like :meth:`get` but side-effect free: no hit/miss counting,
        no corrupt-entry removal.  Used by work-queue pollers waiting on
        a peer host's result, where every poll counting a miss would
        make the stats meaningless."""
        try:
            return self._load(spec, config)
        except _UNREADABLE:
            return None

    def put(self, spec: RunSpec, config, result) -> str:
        """Store ``result`` for ``spec`` (atomic); returns the path."""
        path = self.path(spec, config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(
                    {
                        "kind": spec.kind,
                        "spec": spec.normalized().as_dict(),
                        "config": config_fingerprint(config),
                        "result": result.as_dict(),
                    },
                    fh,
                    sort_keys=True,
                )
            os.replace(tmp, path)
        except BaseException:
            self._discard(tmp)
            raise
        self.writes += 1
        return path

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ResultCache(root=%r, hits=%d, misses=%d, writes=%d)" % (
            self.root, self.hits, self.misses, self.writes,
        )
