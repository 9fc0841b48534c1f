"""Plain-text report formatting for experiment results."""

from __future__ import annotations

from typing import Dict

from ..arch.simstats import ratio
from ..obs import format_table
from .experiments import ExperimentResult


def format_result(result: ExperimentResult) -> str:
    """Render one experiment: table + paper-vs-measured + shape checks."""
    parts = [
        "=" * 72,
        "%s — %s" % (result.exp_id.upper(), result.title),
        "=" * 72,
        format_table(result.headers, result.rows),
        "",
        "measured: %s" % result.summary,
        "paper:    %s" % result.paper_summary,
    ]
    for desc, ok in result.checks:
        parts.append("  [%s] %s" % ("PASS" if ok else "FAIL", desc))
    return "\n".join(parts)


def format_report(results: Dict[str, ExperimentResult]) -> str:
    """Full report over all experiments plus a pass/fail roll-up."""
    sections = [format_result(res) for res in results.values()]
    total = sum(len(res.checks) for res in results.values())
    passed = sum(
        1 for res in results.values() for _d, ok in res.checks if ok
    )
    failed_ids = [rid for rid, res in results.items() if not res.passed]
    sections.append("=" * 72)
    # ratio(): an empty result set (every experiment skipped, e.g. all
    # of its specs quarantined) must report 0%, not divide by zero.
    sections.append(
        "SHAPE CHECKS: %d/%d passed (%.0f%%)%s"
        % (passed, total, 100.0 * ratio(passed, total),
           "" if not failed_ids else "; failing: " + ", ".join(failed_ids))
    )
    return "\n\n".join(sections)


def results_to_dict(results: Dict[str, ExperimentResult]) -> dict:
    """JSON-serializable form of a result set (for plotting pipelines)."""
    return {
        rid: {
            "title": res.title,
            "headers": list(res.headers),
            "rows": [list(row) for row in res.rows],
            "summary": res.summary,
            "paper_summary": res.paper_summary,
            "checks": [
                {"description": desc, "passed": ok}
                for desc, ok in res.checks
            ],
            "passed": res.passed,
        }
        for rid, res in results.items()
    }


def write_json(results: Dict[str, ExperimentResult], path: str) -> None:
    """Dump the result set as JSON."""
    import json

    with open(path, "w") as fh:
        json.dump(results_to_dict(results), fh, indent=2, sort_keys=True)
