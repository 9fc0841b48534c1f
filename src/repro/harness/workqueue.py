"""Pull-model work queue over the sharded result cache.

Multiple host processes drain the *same* sweep by pointing their
schedulers at one shared :class:`~repro.harness.resultcache.
ResultCache` plus a :class:`WorkQueue`.  The protocol is three files
inside each spec's sharded entry directory, keyed by the spec's content
digest — idempotent by construction:

* **claim** — created with ``O_CREAT | O_EXCL`` (atomic on every
  filesystem that matters), so exactly one host wins the right to
  execute a spec.  The file body records the owner token, pid, and
  wall-clock time, for debugging and stale detection.  A won claim
  still yields when the result is already in the cache: a peer may
  have completed the spec, and removed its claim, since this host
  last looked.
* **complete** — completion *is* the result file: a spec is done when
  ``ResultCache.peek`` finds its result.  :meth:`complete` merely
  removes the claim.
* **stale takeover** — a claim whose mtime is older than
  ``stale_after`` seconds belongs to a host presumed dead; a waiting
  peer atomically replaces it with its own claim and executes the spec
  itself.  Takeover is last-writer-wins with a read-back check, so two
  simultaneous stealers resolve to one owner; the losing host backs
  off.  In the worst interleaving a spec executes more than once —
  results are content-addressed and byte-identical, so duplicated work
  wastes time but never correctness ("at-least-once, merged by
  digest").

No daemon, no lock server, no extra state: ``rm -rf`` of the cache
directory resets everything, and a sweep resumed after ``kill -9``
picks up exactly the unclaimed/unfinished remainder.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from typing import Optional

from .resultcache import ResultCache
from .spec import RunSpec

__all__ = ["WorkQueue", "DEFAULT_STALE_AFTER"]

#: Default seconds after which an untouched claim is presumed orphaned.
#: Generous relative to any single spec's runtime in the suite; hosts
#: sharing very long-running specs should raise it.
DEFAULT_STALE_AFTER = 600.0


class WorkQueue:
    """Claim/complete coordination for one shared sweep.

    ``owner`` is this host process's token (defaults to
    ``hostname:pid``); ``stale_after`` bounds how long a dead host's
    claim can block a spec.
    """

    def __init__(self, cache: ResultCache, owner: Optional[str] = None,
                 stale_after: float = DEFAULT_STALE_AFTER):
        self.cache = cache
        self.owner = owner or "%s:%d" % (socket.gethostname(), os.getpid())
        self.stale_after = stale_after
        self.claimed = 0
        self.yielded = 0
        self.takeovers = 0

    # -- paths -------------------------------------------------------------

    def claim_path(self, spec: RunSpec, config) -> str:
        return os.path.join(self.cache.entry_dir(spec, config), "claim")

    def _token(self) -> dict:
        return {"owner": self.owner, "pid": os.getpid(),
                "time": time.time()}

    # -- protocol ----------------------------------------------------------

    def claim(self, spec: RunSpec, config) -> bool:
        """Try to win the right to execute ``spec``.

        True: this host owns the spec and must execute it.  False: a
        live peer owns it, or has already finished it — poll the cache
        for the result and re-claim if the peer's claim goes stale.
        """
        path = self.claim_path(spec, config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._maybe_take_over(path, spec, config)
        with os.fdopen(fd, "w") as fh:
            json.dump(self._token(), fh)
        return self._keep(path, spec, config)

    def _keep(self, path: str, spec: RunSpec, config) -> bool:
        """The claim at ``path`` is ours: keep it unless the result is
        already in the cache.  A peer that committed and called
        :meth:`complete` after this host's last cache lookup leaves no
        claim file behind, so only this check keeps the spec from
        executing twice."""
        if self.cache.peek(spec, config) is not None:
            self._unlink(path)
            self.yielded += 1
            return False
        self.claimed += 1
        return True

    def _maybe_take_over(self, path: str, spec: RunSpec, config) -> bool:
        """Steal a claim iff it is stale; read-back arbitration."""
        try:
            age = time.time() - os.stat(path).st_mtime
        except OSError:
            # Claim vanished between exists-check and stat (the owner
            # completed or released): treat as not ours this round; the
            # caller's poll loop will re-claim.
            self.yielded += 1
            return False
        if age <= self.stale_after:
            self.yielded += 1
            return False
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-claim-")
        with os.fdopen(fd, "w") as fh:
            json.dump(self._token(), fh)
        try:
            os.replace(tmp, path)
        except OSError:
            self._unlink(tmp)
            self.yielded += 1
            return False
        if self.owner_of(path) != self.owner:
            # A simultaneous stealer replaced our claim after ours
            # landed: last writer wins, we back off.
            self.yielded += 1
            return False
        if not self._keep(path, spec, config):
            return False
        self.takeovers += 1
        return True

    def complete(self, spec: RunSpec, config) -> None:
        """Mark ``spec`` done: the result file already signals
        completion, so this only clears the claim."""
        self._unlink(self.claim_path(spec, config))

    def release(self, spec: RunSpec, config) -> None:
        """Surrender a claim without a result (quarantine/abandon), so
        a peer may claim and try the spec itself."""
        self._unlink(self.claim_path(spec, config))

    # -- introspection -----------------------------------------------------

    def owner_of(self, path: str) -> Optional[str]:
        try:
            with open(path) as fh:
                return json.load(fh).get("owner")
        except (OSError, ValueError):
            return None

    def stats(self) -> dict:
        return {"claimed": self.claimed, "yielded": self.yielded,
                "takeovers": self.takeovers}

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "WorkQueue(owner=%r, claimed=%d, yielded=%d)" % (
            self.owner, self.claimed, self.yielded)
