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

On-disk layout (ISSUE 7)
------------------------

Entries are **sharded by digest prefix into a directory per entry**::

    root/ab/abcd0123.../result.json    (simulation modes)
    root/ab/abcd0123.../result.pkl     (emulate mode, race and fleet jobs)
    root/ab/abcd0123.../claim          (multi-host work-queue claim file)

The per-entry directory is what makes the cache a coordination point
for multiple host processes draining one sweep: the
:class:`~repro.harness.workqueue.WorkQueue` claim file lives next to
the result it gates, and "complete" is simply "the result file exists".
Two legacy layouts are read through transparently — the original flat
``root/<digest>.ext`` and the interim two-level ``root/ab/<digest>.ext``
— and :meth:`migrate` rewrites them in place into the sharded layout.

Cycle-simulation results are stored as JSON
(:meth:`~repro.arch.simstats.SimResult.as_dict` round-trip — human
inspectable, diffable) together with the spec and the machine-config
fingerprint (so :meth:`~repro.obs.store.RunStore.backfill_cache` can
recover the config digest); every other result — emulation (its
payload includes full machine state), race and fleet — is stored as
pickle.  Entries are written
atomically (temp file + rename) so a crashed or parallel writer can
never leave a half-written entry, and unreadable/corrupt entries
degrade to cache misses rather than errors.

Observability settings (event sinks, checkpoint cadence, progress) are
deliberately **not** part of the key: they must never change a result's
architectural numbers.  The one observable consequence is that a cached
result carries the progress checkpoints of the run that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from typing import Optional

from ..arch.simstats import SimResult
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
#: timing-model version and dropped host-tuning fields.  The ISSUE 7
#: sharded layout does not bump the salt: results are unchanged and
#: legacy entries remain readable in place.)
CACHE_SALT = "repro-results-v2"


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
        ext = "json" if spec.is_simulation else "pkl"
        return os.path.join(self.entry_dir(spec, config), "result." + ext)

    def _legacy_paths(self, spec: RunSpec, config):
        """Pre-sharding locations, newest layout first: the interim
        two-level ``root/ab/<digest>.ext`` and the original flat
        ``root/<digest>.ext``."""
        digest = self.key(spec, config)
        ext = "json" if spec.is_simulation else "pkl"
        yield os.path.join(self.root, digest[:2], "%s.%s" % (digest, ext))
        yield os.path.join(self.root, "%s.%s" % (digest, ext))

    # -- lookup / store ----------------------------------------------------

    def _load(self, path: str, simulation: bool):
        """Read one entry file; raises on missing/corrupt."""
        if simulation:
            with open(path) as fh:
                entry = json.load(fh)
            return SimResult.from_dict(entry["result"])
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def get(self, spec: RunSpec, config):
        """Stored result for ``spec``, or None (counts a hit/miss).

        Reads the sharded layout first, then falls back to the legacy
        two-level and flat layouts, so a pre-ISSUE-7 cache keeps
        serving without a migration step.
        """
        for path in (self.path(spec, config),
                     *self._legacy_paths(spec, config)):
            try:
                result = self._load(path, spec.is_simulation)
            except FileNotFoundError:
                continue
            except (OSError, ValueError, KeyError, pickle.UnpicklingError,
                    EOFError, AttributeError):
                # Corrupt or incompatible entry: treat as a miss and
                # drop it so the rewrite below repairs the cache.
                self._discard(path)
                continue
            self.hits += 1
            return result
        self.misses += 1
        return None

    def peek(self, spec: RunSpec, config):
        """Like :meth:`get` but side-effect free: no hit/miss counting,
        no corrupt-entry removal.  Used by work-queue pollers waiting on
        a peer host's result, where every poll counting a miss would
        make the stats meaningless."""
        for path in (self.path(spec, config),
                     *self._legacy_paths(spec, config)):
            try:
                return self._load(path, spec.is_simulation)
            except (OSError, ValueError, KeyError, pickle.UnpicklingError,
                    EOFError, AttributeError):
                continue
        return None

    def put(self, spec: RunSpec, config, result) -> str:
        """Store ``result`` for ``spec`` (atomic); returns the path."""
        path = self.path(spec, config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-"
        )
        try:
            if spec.is_simulation:
                with os.fdopen(fd, "w") as fh:
                    json.dump(
                        {
                            "spec": spec.normalized().as_dict(),
                            "config": config_fingerprint(config),
                            "result": result.as_dict(),
                        },
                        fh,
                        sort_keys=True,
                    )
            else:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            self._discard(tmp)
            raise
        self.writes += 1
        return path

    # -- migration ---------------------------------------------------------

    def migrate(self) -> dict:
        """Move legacy-layout entries into the sharded layout, in place.

        Renames are atomic per entry, so a concurrent reader sees each
        entry at exactly one of its locations at any moment (and
        :meth:`get` checks all of them).  Returns
        ``{"migrated": n, "skipped": n}`` — ``skipped`` counts legacy
        files whose sharded destination already exists (the sharded
        copy, being newer, wins; the legacy file is removed).
        """
        migrated = skipped = 0
        for dirpath, dirnames, filenames in os.walk(self.root):
            rel = os.path.relpath(dirpath, self.root)
            depth = 0 if rel == "." else rel.count(os.sep) + 1
            if depth > 1:
                # Already inside a sharded entry directory.
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                stem, dot, ext = name.rpartition(".")
                if dot != "." or ext not in ("json", "pkl"):
                    continue
                if len(stem) != 64 or not all(
                        c in "0123456789abcdef" for c in stem):
                    continue
                src = os.path.join(dirpath, name)
                dest_dir = os.path.join(self.root, stem[:2], stem)
                dest = os.path.join(dest_dir, "result." + ext)
                if os.path.exists(dest):
                    self._discard(src)
                    skipped += 1
                    continue
                os.makedirs(dest_dir, exist_ok=True)
                try:
                    os.replace(src, dest)
                except OSError:
                    skipped += 1
                    continue
                migrated += 1
        return {"migrated": migrated, "skipped": skipped}

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
