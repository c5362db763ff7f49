"""Plain-text rendering of experiment results in the paper's layouts.

The benchmark harness prints these tables so that the pytest-benchmark
output doubles as the figure reproduction, kept under
``benchmarks/results/`` (see docs/experiments.md).
"""

from repro.datasets import dataset_statistics
from repro.experiments.config import DEFAULTS, RANGES


def format_table(rows, columns, title=None, floatfmt="{:.3f}"):
    """Render ``rows`` (dicts) with the given columns as aligned text."""
    def cell(row, column):
        value = row.get(column, "")
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    header = [str(column) for column in columns]
    body = [[cell(row, column) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body
        else len(header[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)


def pivot_series(rows, x, series="algorithm", y="time_s"):
    """Reshape sweep rows into ``{series: [(x, y), ...]}`` — one line per
    algorithm, the exact content of the paper's line plots."""
    lines = {}
    for row in rows:
        lines.setdefault(row[series], []).append((row[x], row[y]))
    for points in lines.values():
        points.sort()
    return lines


def format_series(rows, x, y="time_s", title=None):
    """Render sweep rows as one text line per algorithm (plot stand-in)."""
    lines = pivot_series(rows, x, y=y)
    out = []
    if title:
        out.append(title)
    for name in sorted(lines):
        points = "  ".join(
            "{}={:.3g}".format(px, py) for px, py in lines[name]
        )
        out.append("{:>10s}: {}".format(name, points))
    return "\n".join(out)


def figure12_table(scale=1.0, seed=0):
    """Fig. 12: dataset statistics — stand-in vs paper original."""
    rows = []
    for entry in dataset_statistics(scale=scale, seed=seed):
        paper = entry.pop("paper")
        rows.append({
            "graph": entry["name"],
            "|V|": entry["vertices"],
            "sum|Ei|": entry["total_edges"],
            "|U Ei|": entry["union_edges"],
            "l": entry["layers"],
            "paper |V|": paper["vertices"],
            "paper sum|Ei|": paper["total_edges"],
            "paper l": paper["layers"],
        })
    return format_table(
        rows,
        ["graph", "|V|", "sum|Ei|", "|U Ei|", "l",
         "paper |V|", "paper sum|Ei|", "paper l"],
        title="Fig. 12 — dataset statistics (stand-in | paper)",
    )


def figure13_table():
    """Fig. 13: the parameter configuration table, verbatim."""
    rows = [
        {"parameter": "k", "range": str(RANGES["k"]),
         "default": DEFAULTS["k"]},
        {"parameter": "d", "range": str(RANGES["d"]),
         "default": DEFAULTS["d"]},
        {"parameter": "s (small)", "range": str(RANGES["s_small"]),
         "default": DEFAULTS["s_small"]},
        {"parameter": "s (large)",
         "range": "l(G)-4 .. l(G)",
         "default": "l(G)-{}".format(DEFAULTS["s_large_offset"])},
        {"parameter": "p", "range": str(RANGES["p"]), "default": DEFAULTS["p"]},
        {"parameter": "q", "range": str(RANGES["q"]), "default": DEFAULTS["q"]},
    ]
    return format_table(
        rows, ["parameter", "range", "default"],
        title="Fig. 13 — parameter configuration",
    )


def figure30_table(payload):
    """Render a :func:`figure30` result in the paper's matrix layout."""
    lines = [
        "Fig. 30 — |Q ∩ Cov(Rc)| distribution on {} (d={})".format(
            payload["dataset"], payload["d"]
        )
    ]
    for size in sorted(payload["distribution"]):
        fractions = payload["distribution"][size]
        cells = "  ".join(
            "{}:{:.4f}".format(overlap, fractions.get(overlap, 0.0))
            for overlap in range(size + 1)
        )
        lines.append("|Q|={}  {}".format(size, cells))
    lines.append(
        "fully contained: {:.4f}".format(payload["fully_contained"])
    )
    return "\n".join(lines)
