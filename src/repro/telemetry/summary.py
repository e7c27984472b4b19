"""Plain-text telemetry report: top spans by self-time, metric totals.

``repro.telemetry.summarize()`` renders the active hub; the CLI prints
it to stderr under ``-v`` after a ``--telemetry`` run so an operator
sees where the wall-clock went without opening the trace file.
"""

from __future__ import annotations

from repro.telemetry.hub import NullTelemetry, Telemetry
from repro.telemetry.persist import aggregate_spans

__all__ = ["render_summary"]


def _ml_section(aggregates: list[dict], snapshots: list[dict]) -> list[str]:
    """The ML-kernel digest: fit/predict spans and pool-cache hit rate."""
    ml = [a for a in aggregates if a["name"].startswith("ml.")]
    counters = {
        snap["name"]: snap["value"]
        for snap in snapshots
        if snap["name"].startswith("pool_cache.")
    }
    if not ml and not counters:
        return []
    lines = ["", "ml kernels"]
    for agg in sorted(ml, key=lambda a: (-a["total_s"], a["name"])):
        lines.append(
            f"  {agg['name']:30s} count={agg['count']} "
            f"total={agg['total_s']:.3f}s"
        )
    if counters:
        hits = counters.get("pool_cache.hits", 0)
        misses = counters.get("pool_cache.misses", 0)
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append(
            f"  {'pool cache':30s} hits={hits} misses={misses} "
            f"hit_rate={rate:.1%}"
        )
    return lines


def render_summary(
    hub: Telemetry | NullTelemetry, top: int = 15
) -> str:
    """Human-readable summary of one hub's spans and metrics."""
    if not hub.enabled:
        return "telemetry disabled"
    lines = ["telemetry summary", "-----------------"]
    aggregates = aggregate_spans(hub)
    if aggregates:
        lines.append(
            f"{'span':32s} {'count':>7s} {'total s':>10s} {'self s':>10s}"
        )
        for agg in aggregates[:top]:
            lines.append(
                f"{agg['name']:32s} {agg['count']:7d} "
                f"{agg['total_s']:10.3f} {agg['self_s']:10.3f}"
            )
        if len(aggregates) > top:
            lines.append(f"... and {len(aggregates) - top} more span names")
    else:
        lines.append("no spans recorded")
    snapshots = hub.metrics_snapshot()
    lines.extend(_ml_section(aggregates, snapshots))
    if snapshots:
        lines.append("")
        lines.append("metrics")
        for snap in snapshots:
            if snap["kind"] == "histogram":
                mean = snap["total"] / snap["count"] if snap["count"] else 0.0
                lines.append(
                    f"  {snap['name']:30s} count={snap['count']} "
                    f"total={snap['total']:.3f} mean={mean:.4f}"
                )
            else:
                lines.append(f"  {snap['name']:30s} {snap['value']}")
    return "\n".join(lines)
