"""Seed-deterministic JIT-ROP adversary racing re-randomization.

Snow et al.'s just-in-time code reuse defeats *static* fine-grained
randomization by harvesting gadgets from memory disclosures at attack
time; Ahmed et al. quantify how continuous re-randomization shrinks the
window in which such a harvest stays usable.  This module models that
attacker against a VCFR program: between rotations it accumulates
randomization-table mappings from simulated disclosures (and optional
blind probes), checks whether the leaked set covers a full payload's
gadget roles, and loses everything when
:mod:`repro.security.rotation` retires the tables it learned.

The adversary is *seed-deterministic*: every draw comes from the
``random.Random`` instance handed in, every iterated structure is
sorted first, so identical specs produce bit-identical races across
processes (the property the gadget-window experiment family gates on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..ilr.randomizer import RandomizedProgram
from ..isa.registers import EAX, EBX
from .gadgets import Gadget, scan_gadgets
from .payload import classify_roles

__all__ = [
    "AdversarySpec",
    "AdversaryReport",
    "JITROPAdversary",
]


@dataclass(frozen=True)
class AdversarySpec:
    """Attacker capability knobs (all draws happen per execution window).

    ``disclosure_rate`` is the probability that a window contains a
    memory-disclosure event (a JIT-ROP style read primitive firing);
    each disclosure leaks up to ``mappings_per_disclosure`` entries of
    the *current* randomization table.  ``probe_rate`` optionally adds
    blind probing on top: a probe either leaks the mapping it hit or
    crashes detectably — the signal the on-probe rotation policy keys
    on.
    """

    enabled: bool = True
    disclosure_rate: float = 0.25
    mappings_per_disclosure: int = 32
    probe_rate: float = 0.0
    #: fallback goal when the gadget pool cannot express the shell
    #: payload: harvesting this many distinct gadget entry points.
    gadgets_needed: int = 3
    max_gadget_instructions: int = 5


@dataclass
class AdversaryReport:
    """Cumulative attacker-side accounting for one race."""

    disclosures: int = 0
    mappings_leaked: int = 0
    probes_sent: int = 0
    probe_crashes: int = 0
    probe_leaks: int = 0
    harvests_invalidated: int = 0
    gadgets_lost_to_rotation: int = 0


class JITROPAdversary:
    """Harvests gadget mappings from disclosures during execution.

    The attacker owns the *distributed* binary (threat model §II), so
    the gadget catalogue over original addresses is computed once up
    front; what rotations invalidate is the learned original->randomized
    mapping, never the catalogue.
    """

    def __init__(self, program: RandomizedProgram, spec: AdversarySpec,
                 rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.report = AdversaryReport()
        self.gadgets: List[Gadget] = scan_gadgets(
            program.original, spec.max_gadget_instructions
        )
        self._gadget_addrs: Set[int] = {g.addr for g in self.gadgets}
        pool = classify_roles(self.gadgets)
        self._role_addrs: Dict[str, Set[int]] = {
            "pop_eax": {g.addr for g in pool.pop_to_reg.get(EAX, ())},
            "pop_ebx": {g.addr for g in pool.pop_to_reg.get(EBX, ())},
            "syscall": {g.addr for g in pool.syscall},
        }
        #: whether the catalogue can express the shell payload at all —
        #: decides which goal the race measures.
        self.payload_possible: bool = all(self._role_addrs.values())
        #: learned original->randomized mappings, valid for the current
        #: epoch only.
        self.known: Dict[int, int] = {}
        self._known_gadget_addrs: Set[int] = set()
        #: per-epoch sorted table snapshot (rebuilt when the program
        #: object changes — i.e. on rotation).
        self._table_cache_for: Optional[int] = None
        self._table_cache: List = []

    # -- per-window attacker turn ------------------------------------------------

    def observe(self, program: RandomizedProgram) -> int:
        """One attacker turn against the current epoch.

        Returns the number of *detectable crash signals* this window
        produced (failed blind probes) — the input to the on-probe
        rotation policy.
        """
        spec = self.spec
        if not spec.enabled:
            return 0
        crashes = 0
        if spec.disclosure_rate > 0 and self.rng.random() < spec.disclosure_rate:
            self._disclose(program)
        if spec.probe_rate > 0 and self.rng.random() < spec.probe_rate:
            crashes += self._probe(program)
        return crashes

    def _epoch_table(self, program: RandomizedProgram) -> List:
        key = id(program)
        if self._table_cache_for != key:
            self._table_cache = sorted(program.rdr.rand.items())
            self._table_cache_for = key
        return self._table_cache

    def _disclose(self, program: RandomizedProgram) -> None:
        table = self._epoch_table(program)
        if not table:
            return
        count = min(self.spec.mappings_per_disclosure, len(table))
        sample = self.rng.sample(table, count)
        self.report.disclosures += 1
        for original, randomized in sample:
            if original not in self.known:
                self.report.mappings_leaked += 1
            self.known[original] = randomized
            if original in self._gadget_addrs:
                self._known_gadget_addrs.add(original)

    def _probe(self, program: RandomizedProgram) -> int:
        """One blind probe; returns 1 on a detectable crash, else 0."""
        layout = program.layout
        num_slots = layout.region_size // layout.slot_size
        guess = layout.region_base + (
            self.rng.randrange(num_slots) * layout.slot_size
        )
        self.report.probes_sent += 1
        original = program.rdr.derand.get(guess)
        if original is not None:
            # A live slot: the attacker learned one mapping for free.
            self.report.probe_leaks += 1
            self.known[original] = guess
            if original in self._gadget_addrs:
                self._known_gadget_addrs.add(original)
            return 0
        if guess in program.rdr.redirect:
            return 0  # failover entry: resolves, no crash, nothing new
        self.report.probe_crashes += 1
        return 1

    # -- goal / rotation interaction ---------------------------------------------

    def goal_met(self) -> bool:
        """Whether the current harvest suffices to attack *right now*.

        With a payload-capable catalogue the goal is a translated shell
        chain (one known mapping per role); otherwise it degrades to
        holding ``gadgets_needed`` distinct gadget entry points.
        """
        if not self.spec.enabled:
            return False
        if self.payload_possible:
            known = self._known_gadget_addrs
            return all(
                not addrs.isdisjoint(known)
                for addrs in self._role_addrs.values()
            )
        return len(self._known_gadget_addrs) >= self.spec.gadgets_needed

    def invalidate(self) -> None:
        """A rotation retired the tables: the harvest is worthless."""
        if self.known or self._known_gadget_addrs:
            self.report.harvests_invalidated += 1
            self.report.gadgets_lost_to_rotation += len(
                self._known_gadget_addrs
            )
        self.known.clear()
        self._known_gadget_addrs.clear()
