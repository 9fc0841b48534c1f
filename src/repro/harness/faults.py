"""Deterministic, seed-driven fault injection for the sweep engine.

The fault-tolerance layer in :mod:`repro.harness.sweep` is only
trustworthy if its recovery paths are exercised, and the failures it
guards against (an OOM-killed worker, a wedged simulation, a corrupted
result crossing the process boundary, a full disk under the result
cache) are exactly the ones that never happen on a developer laptop.
:class:`FaultPlan` injects them **on purpose and reproducibly**:

* a *schedule* names exact injection points — ``crash@mcf/baseline#0``
  kills the worker process executing attempt 0 of spec
  ``mcf/baseline``;
* a *rate* draws per ``(kind, label, attempt)`` from a seeded hash —
  ``crash:0.1,seed=7`` crashes a deterministic 10% of attempts, the
  *same* 10% on every run with the same seed (the draw is SHA-256
  based, so it is independent of ``PYTHONHASHSEED`` and identical in
  every worker process).

Fault kinds:

``crash``     the worker process exits hard (``os._exit``), the way an
              OOM kill or a segfault takes a worker down; inline (no
              pool) it raises :class:`InjectedFault` instead.
``raise``     the task raises :class:`InjectedFault` — an in-task
              software failure that leaves the pool healthy.
``hang``      the task sleeps ``hang_seconds`` before executing, long
              enough to trip a configured soft timeout.
``corrupt``   the task's result payload is replaced after its integrity
              digest is taken, so the parent's verification rejects it.
``cachefail`` the parent's commit of this spec's result to the on-disk
              :class:`~repro.harness.resultcache.ResultCache` raises
              ``OSError`` (a full or read-only disk).

Plans are frozen, hashable, and picklable, so one plan object crosses
the pool boundary and every process consults the identical schedule.
Used by ``tests/test_faults.py`` and the ``--inject-faults`` flag on
``python -m repro.harness`` / ``python -m repro.tools.run``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "CRASH_EXIT_CODE",
    "InjectedFault",
    "FaultPlan",
    "apply_worker_fault",
    "apply_inline_fault",
]

#: Every recognized fault kind (``cachefail`` is parent-side only).
FAULT_KINDS: Tuple[str, ...] = (
    "crash", "raise", "hang", "corrupt", "cachefail",
)

#: Exit status of a worker killed by an injected ``crash`` (visible in
#: the BrokenProcessPool diagnostics; arbitrary but distinctive).
CRASH_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """Raised by ``raise`` faults (and by ``crash``/``corrupt`` when the
    execution is inline and a hard process kill would take the whole
    sweep down with it)."""

    def __init__(self, kind: str, label: str, attempt: int):
        super().__init__(
            "injected %s fault (%s, attempt %d)" % (kind, label, attempt)
        )
        self.kind = kind
        self.label = label
        self.attempt = attempt

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__`` and would fail on the worker ->
        # parent hop, which the pool machinery escalates into a
        # BrokenProcessPool — turning every injected software fault
        # into a spurious pool crash.
        return (InjectedFault, (self.kind, self.label, self.attempt))


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of which faults to inject where.

    ``schedule`` entries are ``(kind, label, attempt)`` exact injection
    points (label ``*`` matches every spec); ``rates`` entries are
    ``(kind, probability)`` seeded draws.  A schedule match wins over a
    rate draw, and at most one fault fires per ``(label, attempt)``.
    """

    schedule: Tuple[Tuple[str, str, int], ...] = ()
    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0
    #: how long a ``hang`` fault sleeps (kept finite so tests terminate
    #: even when no timeout is configured).
    hang_seconds: float = 1.0

    # -- queries -----------------------------------------------------------

    def action(self, label: str, attempt: int) -> Optional[str]:
        """The in-task fault to inject for this attempt, or None.

        ``cachefail`` never fires here — it is consulted separately by
        the parent at commit time (:meth:`cache_write_fails`).
        """
        return self._decide(label, attempt, exclude=("cachefail",))

    def cache_write_fails(self, label: str, attempt: int = 0) -> bool:
        """True when committing this spec's result should fail."""
        return self._decide(
            label, attempt,
            exclude=tuple(k for k in FAULT_KINDS if k != "cachefail"),
        ) == "cachefail"

    def _decide(self, label: str, attempt: int,
                exclude: Tuple[str, ...]) -> Optional[str]:
        for kind, flabel, fattempt in self.schedule:
            if kind in exclude:
                continue
            if fattempt == attempt and flabel in ("*", label):
                return kind
        for kind, rate in self.rates:
            if kind in exclude:
                continue
            if self._draw(kind, label, attempt) < rate:
                return kind
        return None

    def _draw(self, kind: str, label: str, attempt: int) -> float:
        """Uniform [0, 1) draw, stable across processes and runs."""
        payload = "%d:%s:%s:%d" % (self.seed, kind, label, attempt)
        digest = hashlib.sha256(payload.encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "FaultPlan":
        """Parse a CLI plan.

        Comma-separated entries::

            crash@mcf/baseline#0      kill attempt 0 of one spec
            corrupt@*#1               corrupt every spec's attempt 1
            hang@gcc/vcfr@128#0       labels may contain '@'
            crash:0.05                seeded 5% crash rate
            seed=7                    seed for rate draws
            hang=0.5                  hang duration in seconds

        ``#ATTEMPT`` defaults to 0 when omitted.
        """
        schedule = []
        rates = []
        seed = 0
        hang_seconds = 1.0
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
                continue
            if entry.startswith("hang="):
                hang_seconds = float(entry[len("hang="):])
                continue
            if "@" in entry:
                kind, _, rest = entry.partition("@")
                label, attempt = rest, 0
                if "#" in rest:
                    label, _, attempt_text = rest.rpartition("#")
                    attempt = int(attempt_text)
                schedule.append((cls._check_kind(kind), label, attempt))
            elif ":" in entry:
                kind, _, rate_text = entry.partition(":")
                rates.append((cls._check_kind(kind), float(rate_text)))
            else:
                raise ValueError(
                    "unparseable fault entry %r (expected KIND@LABEL#N, "
                    "KIND:RATE, seed=N, or hang=SECONDS)" % entry
                )
        return cls(schedule=tuple(schedule), rates=tuple(rates),
                   seed=seed, hang_seconds=hang_seconds)

    @staticmethod
    def _check_kind(kind: str) -> str:
        if kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (expected one of %s)"
                % (kind, ", ".join(FAULT_KINDS))
            )
        return kind


# -- injection points --------------------------------------------------------


def apply_worker_fault(plan: Optional[FaultPlan], label: str,
                       attempt: int) -> Optional[str]:
    """Inject this attempt's fault inside a pool worker.

    Returns the action that fired (callers handle ``corrupt`` *after*
    executing, since it must poison the result payload, not the run).
    """
    if plan is None:
        return None
    action = plan.action(label, attempt)
    if action == "crash":
        # A hard exit, not an exception: the parent must experience the
        # real BrokenProcessPool an OOM-killed worker produces.
        os._exit(CRASH_EXIT_CODE)
    if action == "hang":
        time.sleep(plan.hang_seconds)
    elif action == "raise":
        raise InjectedFault("raise", label, attempt)
    return action


def apply_inline_fault(plan: Optional[FaultPlan], label: str,
                       attempt: int) -> Optional[str]:
    """Inject this attempt's fault for inline (no pool) execution.

    ``crash`` and ``corrupt`` degrade to :class:`InjectedFault` — a
    hard exit would kill the sweep itself, and an inline result never
    crosses a process boundary where corruption could occur.
    """
    if plan is None:
        return None
    action = plan.action(label, attempt)
    if action in ("crash", "raise", "corrupt"):
        raise InjectedFault(action, label, attempt)
    if action == "hang":
        time.sleep(plan.hang_seconds)
    return action
