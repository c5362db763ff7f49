"""Writers for experiment results: CSV, JSON lines, and Markdown.

Every sweep in :mod:`repro.experiments` returns a list of flat row
dicts; these writers turn those rows into files other tooling can
consume — CSV for spreadsheets, JSONL for pipelines, Markdown for
reports.
"""

import csv
import json

from repro.utils.errors import ParameterError


def columns_of(rows, columns=None):
    """The column list: explicit, or the union of keys in row order."""
    if columns is not None:
        return list(columns)
    seen = []
    for row in rows:
        for key in row:
            if key not in seen:
                seen.append(key)
    return seen


def write_csv(rows, path, columns=None):
    """Write rows to ``path`` as CSV; missing cells become empty."""
    fields = columns_of(rows, columns)
    if not fields:
        raise ParameterError("cannot write a CSV with no columns")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields,
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in fields})
    return path


def read_csv(path):
    """Read back a CSV written by :func:`write_csv` (values as strings)."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_jsonl(rows, path):
    """Write rows to ``path`` as JSON lines."""
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
    return path


def read_jsonl(path):
    """Read back a JSONL file written by :func:`write_jsonl`."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def to_markdown(rows, columns=None, floatfmt="{:.3f}"):
    """Render rows as a GitHub-flavoured Markdown table."""
    fields = columns_of(rows, columns)
    if not fields:
        raise ParameterError("cannot render a table with no columns")

    def cell(row, key):
        value = row.get(key, "")
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    lines = [
        "| " + " | ".join(fields) + " |",
        "| " + " | ".join("---" for _ in fields) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(cell(row, key) for key in fields) + " |"
        )
    return "\n".join(lines)


def write_markdown(rows, path, columns=None, title=None):
    """Write a Markdown table (with optional heading) to ``path``."""
    text = to_markdown(rows, columns)
    with open(path, "w") as handle:
        if title:
            handle.write("## {}\n\n".format(title))
        handle.write(text + "\n")
    return path
