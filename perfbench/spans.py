"""Traced runs: spans around the program's public entry points.

The wrappers live only here, in the benchmark.  While a
:class:`LayerTracer` is active it replaces each entry point, in every
``repro`` module that holds a reference to it, with a version that
records a span (name, start, end, parent, operation id) in a
:class:`repro.obs.trace.Tracer`.  Spans stay in memory and are written
out once, at the end, in the Chrome trace format that tracer emits.

Self time of a span is its duration minus the time its direct child
spans cover; per-layer host time is the sum of self times per layer.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from typing import Dict, Optional

from repro.arch.cpu import CycleCPU
from repro.emu import ILREmulator
from repro.fleet.datacenter import run_fleet
from repro.harness.resultcache import ResultCache
from repro.ilr import randomize
from repro.obs.trace import Tracer
from repro.security.gadgets import scan_gadgets, survey_image
from repro.security.race import run_race
from repro.workloads import build_image

#: Module-level functions wrapped wherever a ``repro`` module imported
#: them: (function, span name).
FUNCTION_SPANS = (
    (build_image, "workloads.build"),
    (randomize, "ilr.randomize"),
    (scan_gadgets, "security.scan"),
    (survey_image, "security.scan"),
    (run_race, "security.race"),
    (run_fleet, "fleet.run"),
)

#: Methods wrapped on their class: (class, attribute, span name).
METHOD_SPANS = (
    (ILREmulator, "run", "emu.emulate"),
    (ResultCache, "get", "harness.cache.get"),
    (ResultCache, "put", "harness.cache.put"),
)

#: Counters summed over every ``CycleCPU.run`` while tracing:
#: counter name -> reader of (SimResult, tier_stats()).
_RUN_COUNTERS = {
    "blocks.builds": lambda r, t: t["blocks"]["builds"],
    "blocks.execs": lambda r, t: t["blocks"]["execs"],
    "blocks.hits": lambda r, t: t["blocks"]["hits"],
    "traces.builds": lambda r, t: t.get("traces", {}).get("builds", 0),
    "traces.entries": lambda r, t: t.get("traces", {}).get("entries", 0),
    "traces.bailouts": lambda r, t: t.get("traces", {}).get("bailouts", 0),
    "traces.compile_failures":
        lambda r, t: t.get("traces", {}).get("compile_failures", 0),
    "il1.misses": lambda r, t: r.il1.get("misses", 0),
    "l2.misses": lambda r, t: r.l2.get("misses", 0),
    "dram.accesses": lambda r, t: r.dram_accesses,
    "drc.lookups": lambda r, t: r.drc_lookups,
    "drc.misses": lambda r, t: r.drc_misses,
    "branch.mispredicts": lambda r, t: (r.cond_mispredicts
                                        + r.ras_mispredicts
                                        + r.indirect_mispredicts),
}


class LayerTracer:
    """Context manager that traces the program's layers.

    ``op`` names the operation in progress; every span records it.
    :attr:`counts` accumulates model and tier counters (plus per-mode
    instructions and cycles) over every ``CycleCPU.run`` traced.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.op: Optional[str] = None
        self.counts: Counter = Counter()
        self._restore = []

    def span(self, name: str, **fields):
        return self.tracer.span(name, op=self.op, **fields)

    # -- wrapping ----------------------------------------------------------

    def _traced(self, original, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)
        traced.__wrapped__ = original
        return traced

    def _traced_cpu_run(self, original):
        def run(cpu, *args, **kwargs):
            mode = cpu.event_fields.get("mode", "unknown")
            with self.span("arch.run", mode=mode):
                result = original(cpu, *args, **kwargs)
            tiers = cpu.tier_stats()
            for counter, read in _RUN_COUNTERS.items():
                self.counts[counter] += read(result, tiers)
            self.counts["arch.%s.instructions" % mode] += result.instructions
            self.counts["arch.%s.cycles" % mode] += result.cycles
            return result
        run.__wrapped__ = original
        return run

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        modules = [module for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "repro" and module is not None]
        for function, name in FUNCTION_SPANS:
            traced = self._traced(function, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is function:
                        self._patch(module, attr, traced)
        for cls, attr, name in METHOD_SPANS:
            self._patch(cls, attr, self._traced(getattr(cls, attr), name))
        self._patch(CycleCPU, "run", self._traced_cpu_run(CycleCPU.run))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- views -------------------------------------------------------------

    def mark(self) -> int:
        """Position to pass as ``since`` to :meth:`layer_seconds`."""
        return len(self.tracer.spans)

    def layer_seconds(self, since: int = 0,
                      until: Optional[int] = None) -> Dict[str, float]:
        """Self host seconds per layer over spans recorded between two
        marks.  ``arch.run`` spans split by mode (``arch.<mode>.run``);
        experiment spans ``harness.<exp>`` are reported inclusive, with
        their self time summed under ``harness.self``."""
        spans = self.tracer.spans[since:until]
        covered: Dict[str, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.seconds
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            own = span.seconds - covered[span.span_id]
            if span.name == "arch.run":
                totals["arch.%s.run" % span.fields["mode"]] += own
            elif span.name == "harness.experiment":
                totals["harness.%s" % span.fields["exp"]] += span.seconds
                totals["harness.self"] += own
            else:
                totals[span.name] += own
        return dict(totals)

    def write_chrome(self, path: str) -> int:
        return self.tracer.to_chrome(path)
