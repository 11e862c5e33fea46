"""Aggregation and rendering for report tables.

The reducers here pool Monte-Carlo replicas and seed repetitions the
only way that is exact: by merging the cells' sufficient statistics
(:class:`~repro.simulator.grid.ShardStats` histograms and
counters) *before* computing any ratio or percentile.  Delivery gets a
Wilson score interval (:func:`~repro.simulator.metrics.wilson_interval`)
over the pooled trials, and latency percentiles come straight off the
merged histogram (:func:`~repro.simulator.metrics.hist_percentile`) —
no multi-million-packet sample is ever materialized.

Rendering is CSV + GitHub-flavored markdown, both derived from the same
:class:`~repro.reports.plan.ReportTable` rows so the two artifacts can
never disagree; :func:`format_table` is the aligned plain-text view the
CLI prints.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from repro.errors import ParameterError
from repro.simulator.metrics import hist_percentile, wilson_interval
from repro.simulator.grid import ExperimentResult, ShardStats

__all__ = [
    "delivery_columns",
    "format_table",
    "pooled_delivery",
    "render_csv",
    "render_markdown",
]

#: The measurement columns :func:`pooled_delivery` produces, in table
#: order — report definitions append these to their coordinate columns.
delivery_columns = (
    "offered",
    "delivered",
    "delivery",
    "ci_lo",
    "ci_hi",
    "mean_latency",
    "p50_latency",
    "p95_latency",
    "p99_latency",
    "mean_hops",
    "lost_to_faults",
    "unreachable_pairs",
)


def pooled_delivery(results: Sequence[ExperimentResult]) -> dict:
    """Reduce closed-loop results (replica/seed repetitions of one
    surface point) to the delivery + latency measurement columns.

    Offered traffic counts everything the workload asked for: injected
    packets plus the pairs a controller refused to admit (the detour
    baseline's unreachable pairs) — a machine cannot improve its
    delivery rate by refusing traffic.
    """
    results = list(results)
    if not results:
        raise ParameterError("pooled_delivery needs at least one result")
    for r in results:
        if not isinstance(r.stats, ShardStats):
            raise ParameterError(
                "pooled_delivery reduces closed-loop cells only"
            )
    merged = results[0].merged_with(results[1:])
    stats = merged.stats
    run_stats = stats.to_run_stats()
    offered = stats.injected + merged.unreachable_pairs
    delivered = stats.delivered
    lo, hi = wilson_interval(delivered, offered)
    return {
        "offered": int(offered),
        "delivered": int(delivered),
        "delivery": round(delivered / offered, 6) if offered else 1.0,
        "ci_lo": round(lo, 6),
        "ci_hi": round(hi, 6),
        "mean_latency": round(run_stats.mean_latency, 4),
        "p50_latency": round(
            hist_percentile(stats.lat_values, stats.lat_counts, 50), 4
        ),
        "p95_latency": round(
            hist_percentile(stats.lat_values, stats.lat_counts, 95), 4
        ),
        "p99_latency": round(
            hist_percentile(stats.lat_values, stats.lat_counts, 99), 4
        ),
        "mean_hops": round(run_stats.mean_hops, 4),
        "lost_to_faults": int(merged.lost_to_faults),
        "unreachable_pairs": int(merged.unreachable_pairs),
    }


def format_table(rows: list[dict]) -> str:
    """Aligned plain-text columns for terminal output."""
    if not rows:
        return "(empty)"
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    head = " | ".join(str(c).ljust(widths[c]) for c in cols)
    sep = "-+-".join("-" * widths[c] for c in cols)
    body = [
        " | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols) for r in rows
    ]
    return "\n".join([head, sep] + body)


def render_csv(table) -> str:
    """The table as CSV: the declared columns plus a final ``cells``
    provenance column (cell ids joined with ``;``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table.columns) + ["cells"])
    for row in table.rows:
        writer.writerow(
            [row[c] for c in table.columns] + [";".join(row["cells"])]
        )
    return buf.getvalue()


def render_markdown(table) -> str:
    """The table as GitHub-flavored markdown with its caption; the
    provenance column links each row to its raw cell artifacts."""
    lines = [f"### {table.name}", "", table.caption, ""]
    header = list(table.columns) + ["cells"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in table.rows:
        cells = ", ".join(
            f"[{cid}](cells/{cid}.json)" for cid in row["cells"]
        )
        values = [str(row[c]) for c in table.columns] + [cells]
        lines.append("| " + " | ".join(values) + " |")
    lines.append("")
    return "\n".join(lines)
