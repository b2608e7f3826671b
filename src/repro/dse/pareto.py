"""Pareto frontier and ranked reports over sweep results.

Every result row is a flat dict carrying at least the two headline axes
of the paper's trade-off (Table V vs Tables II-IV): ``throughput`` (up)
and ``gate_count`` (down).  Sweeps that enable the chaos / verify scoring
stages add ``resilience`` (up -- recovered fraction of injected faults)
and ``verify_ok`` axes; :func:`axes_for` picks the axis set matching what
the rows actually carry.

The frontier is the classic non-dominated set: a row survives unless some
other row is at least as good on *every* axis and strictly better on at
least one.  Output order is deterministic -- primary axis descending,
then gate count ascending, then the canonical options JSON -- so a
frontier is comparable across runs, ``--jobs`` values, and backends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..obs.ledger import canonical_json

__all__ = [
    "DEFAULT_AXES",
    "axes_for",
    "dominates",
    "pareto_frontier",
    "rank_rows",
    "format_frontier_lines",
    "format_markdown_report",
]

#: (row key, direction) pairs; direction is "max" or "min".
DEFAULT_AXES: Tuple[Tuple[str, str], ...] = (
    ("throughput", "max"),
    ("gate_count", "min"),
)


def axes_for(rows: Sequence[Dict[str, Any]]) -> Tuple[Tuple[str, str], ...]:
    """The axis set for these rows: the default pair plus any scoring axes
    every row carries a value for."""
    axes = list(DEFAULT_AXES)
    if rows and all(row.get("resilience") is not None for row in rows):
        axes.append(("resilience", "max"))
    return tuple(axes)


def dominates(
    a: Dict[str, Any], b: Dict[str, Any], axes: Sequence[Tuple[str, str]]
) -> bool:
    """True when ``a`` is at least as good as ``b`` everywhere and strictly
    better somewhere."""
    strictly_better = False
    for key, direction in axes:
        va, vb = a[key], b[key]
        if direction == "max":
            if va < vb:
                return False
            if va > vb:
                strictly_better = True
        else:
            if va > vb:
                return False
            if va < vb:
                strictly_better = True
    return strictly_better


def _order_key(axes: Sequence[Tuple[str, str]]):
    def key(row: Dict[str, Any]):
        parts = []
        for axis, direction in axes:
            value = row[axis]
            parts.append(-value if direction == "max" else value)
        parts.append(canonical_json(row.get("options", {})))
        return tuple(parts)

    return key


def pareto_frontier(
    rows: Sequence[Dict[str, Any]],
    axes: Sequence[Tuple[str, str]] = DEFAULT_AXES,
) -> List[Dict[str, Any]]:
    """The non-dominated rows, deterministically ordered."""
    survivors = [
        row
        for row in rows
        if not any(other is not row and dominates(other, row, axes) for other in rows)
    ]
    return sorted(survivors, key=_order_key(axes))


def rank_rows(
    rows: Sequence[Dict[str, Any]],
    axes: Sequence[Tuple[str, str]] = DEFAULT_AXES,
) -> List[Dict[str, Any]]:
    """All rows ranked: frontier members first, then by the axis order.

    Each returned row is the input row plus ``rank`` (1-based) and
    ``pareto`` (frontier membership) -- the shape of the ranked report.
    """
    frontier_keys = {id(row) for row in pareto_frontier(rows, axes)}
    ordered = sorted(
        rows,
        key=lambda row: (0 if id(row) in frontier_keys else 1,)
        + _order_key(axes)(row),
    )
    ranked = []
    for position, row in enumerate(ordered, start=1):
        entry = dict(row)
        entry["rank"] = position
        entry["pareto"] = id(row) in frontier_keys
        ranked.append(entry)
    return ranked


def format_frontier_lines(frontier: Sequence[Dict[str, Any]]) -> List[str]:
    """The frontier, one config a line with the ranked table's options (bit-stable)."""
    lines = ["Pareto-efficient configurations (throughput vs bus gates):"]
    for row in frontier:
        options = row.get("options", {})
        lines.append(
            "  %-8s %-5s %2d PEs %3d-bit %-11s  %.4f Mbps at %d gates"
            % (
                options.get("bus", "?"),
                options.get("style") or "-",
                options.get("pes", 0),
                options.get("data_width", 0),
                options.get("arbiter_policy", "?"),
                row["throughput"],
                row["gate_count"],
            )
        )
    return lines


def format_markdown_report(summary: Dict[str, Any], top: int = 20) -> str:
    """A self-contained markdown report for one sweep summary."""
    spec = summary.get("spec", {})
    lines = [
        "# DSE sweep report: %s" % spec.get("name", "sweep"),
        "",
        "- configs swept: %d (expanded %d, deduplicated %d, skipped %d)"
        % (
            summary.get("configs", 0),
            summary.get("expanded", 0),
            summary.get("duplicates", 0),
            sum((summary.get("skipped") or {}).values()),
        ),
        "- kernel backend: `%s`" % summary.get("kernel", "?"),
        "- errors: %d" % summary.get("errors", 0),
        "",
        "## Pareto frontier",
        "",
        "| rank | bus | style | PEs | width | policy | throughput | gates |",
        "|-----:|-----|-------|----:|------:|--------|-----------:|------:|",
    ]
    ranked = summary.get("ranked") or []
    for row in ranked[:top]:
        options = row.get("options", {})
        lines.append(
            "| %d%s | %s | %s | %d | %d | %s | %.4f | %d |"
            % (
                row.get("rank", 0),
                " *" if row.get("pareto") else "",
                options.get("bus", "?"),
                options.get("style") or "-",
                options.get("pes", 0),
                options.get("data_width", 0),
                options.get("arbiter_policy", "?"),
                row.get("throughput", 0.0),
                row.get("gate_count", 0),
            )
        )
    lines.append("")
    lines.append("`*` marks Pareto-frontier members.")
    lines.append("")
    return "\n".join(lines)
