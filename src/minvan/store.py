"""Persistence: the weight-indexed type database, the per-type sorou cache,
and the CSV / LaTeX reports.

Everything is line-oriented text: the database is the scientific result and
must be diffable and reviewable.  Writes are atomic (temp file + rename).
A database row is valid iff it is what `save_db` writes for the record it
parses to, and rows are in `sum_key` order (weight first), each type once;
`load_db` checks both, so the weight, partition and equisigned columns,
which follow from the type and the parities, are checked by re-rendering.
The sorou cache is an output only: `save_cache` merges each weight's class
lists into it, each rendered once (`cache_line`), keeps only the lines of
database types, and no function reads its classes back.
"""

from __future__ import annotations

import heapq
import os
import re
import tempfile
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from minvan.types import (
    TypeRecord,
    parse_type,
    render_type,
    render_type_latex,
    sum_key,
)

DB_FORMAT = "minvan-db v1"
CSV_HEADER = (
    "Weight,\tTop Prime,\tRelative Order,\tWeight Partition,"
    "\tType,\tHeight,\tParities,\tHasEquisigned"
)


@dataclass
class TypeDatabase:
    """All minimal vanishing types with weight <= max_complete_weight, in
    `sum_key` order, which starts with the weight."""

    max_complete_weight: int = 1
    collapse: bool = True
    records: list[TypeRecord] = field(default_factory=list)

    def commit_weight(self, weight: int, records: list[TypeRecord]) -> None:
        if weight != self.max_complete_weight + 1:
            raise ValueError("weights must be committed in order")
        if any(r.weight != weight for r in records):
            raise ValueError(f"records committed at weight {weight} must have that weight")
        self.records += sorted(records, key=lambda r: sum_key(r.type))
        self.max_complete_weight = weight

    def records_for_weight(self, weight: int) -> list[TypeRecord]:
        return [r for r in self.records if r.weight == weight]


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, to a temp file and rename it to path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minvan-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_parities(text: str) -> frozenset[tuple[int, int]]:
    out = [(int(a), int(b)) for a, b in re.findall(r"\((\d+);(\d+)\)", text)]
    if not out:
        raise ValueError(f"unparseable parity list: {text!r}")
    return frozenset(out)


def _row_columns(r: TypeRecord) -> dict[str, str]:
    """The columns of one record's database row, named, in order, as text.
    The CSV report shares all but the rendering, which it writes in LaTeX."""
    return {
        "weight": str(r.weight),
        "rendering": render_type(r.type),
        "relative orders": ";".join(map(str, sorted(r.relative_orders))),
        "partition": "(" + ";".join(map(str, sorted(r.partition, reverse=True))) + ")",
        "parities": ";".join(f"({a};{b})" for a, b in sorted(r.parities)),
        "heights": ";".join(map(str, sorted(r.heights))),
        "equisigned": str(r.equisigned),
    }


def _render_header(db: TypeDatabase) -> str:
    return (
        f"{DB_FORMAT} maxweight={db.max_complete_weight} "
        f"collapse={'on' if db.collapse else 'off'}"
    )


def save_db(db: TypeDatabase, path: str) -> None:
    lines = [_render_header(db), *("\t".join(_row_columns(r).values()) for r in db.records)]
    _atomic_write(path, ("\n".join(lines) + "\n",))


def load_db(path: str) -> TypeDatabase:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty database file")
    header = lines[0]
    m = re.match(
        rf"^{re.escape(DB_FORMAT)} maxweight=(\d+) collapse=(on|off)$", header
    )
    if not m:
        raise ValueError(f"{path}:1: bad header or version: {header!r}")
    db = TypeDatabase(max_complete_weight=int(m.group(1)), collapse=m.group(2) == "on")
    rendered = _render_header(db)
    if header != rendered:
        raise ValueError(f"{path}:1: header is not as save_db writes it: expected {rendered!r}")
    previous = ()  # below every sum_key
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise ValueError(f"{path}:{lineno}: blank line")
        fields = line.split("\t")
        if len(fields) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
        try:
            record = TypeRecord(
                type=parse_type(fields[1]),
                relative_orders=frozenset(int(x) for x in fields[2].split(";")),
                parities=_parse_parities(fields[4]),
                heights=frozenset(int(x) for x in fields[5].split(";")),
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not record.type.is_minimal_claim:
            raise ValueError(f"{path}:{lineno}: database rows must be minimal types")
        row = _row_columns(record)
        for (column, want), got in zip(row.items(), fields):
            if got != want:
                expected = "\t".join(row.values())
                raise ValueError(f"{path}:{lineno}: {column} {got} != type {column} {want}, expected {expected!r}")
        if record.weight > db.max_complete_weight:
            raise ValueError(f"{path}:{lineno}: record beyond max complete weight")
        key = sum_key(record.type)
        if key <= previous:
            what = "duplicate" if key == previous else "out-of-order"
            raise ValueError(f"{path}:{lineno}: {what} row of type {fields[1]!r}")
        db.records.append(record)
        previous = key
    return db


def _cache_lines(path: str) -> Iterator[tuple[str, str]]:
    """(key, line) for each line of the cache file at path, checked only as
    far as a merge relies on it: a line holds a tab and ends with a newline,
    and its key, the text before the tab, sorts after the previous one."""
    previous = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line == "\n":
                raise ValueError(f"{path}:{lineno}: blank line")
            key, sep, _ = line.partition("\t")
            if not sep:
                raise ValueError(f"{path}:{lineno}: missing tab separator")
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: missing newline at end of file")
            if previous is not None and key <= previous:
                what = "duplicate" if key == previous else "out-of-order"
                raise ValueError(f"{path}:{lineno}: {what} cache key {key!r}")
            yield key, line
            previous = key


def cache_line(key: str, classes: Iterable[str]) -> str:
    """The cache file's line for one class list: the key, a tab, and the
    classes, as `render_sorou` renders them, joined by commas."""
    return key + "\t" + ",".join(classes) + "\n"


def save_cache(db: TypeDatabase, lines: Iterable[tuple[str, str]], path: str) -> None:
    """Write db's cache file at path: lines, (key, `cache_line`) pairs in
    key order, merged with the file's lines whose key renders a type of db,
    copied as text, unparsed; a key in both takes the new line.  A line of
    a type outside db is dropped, so the file's keys are types of db."""
    keep = {render_type(r.type) for r in db.records}
    old = _cache_lines(path) if os.path.exists(path) else ()
    # tagged 0 and 1, a key's new line sorts first, and groupby keeps it
    merged = heapq.merge(
        ((k, 0, line) for k, line in lines), ((k, 1, line) for k, line in old if k in keep)
    )
    _atomic_write(path, (next(group)[2] for _, group in groupby(merged, key=itemgetter(0))))


def csv_report_text(db: TypeDatabase) -> str:
    if not db.records:
        raise ValueError("no statistics to report")
    lines = [CSV_HEADER]
    for r in db.records:
        row = _row_columns(r)
        lines.append(
            ",\t".join(
                [
                    row["weight"],
                    str(r.top_prime),
                    row["relative orders"],
                    row["partition"],
                    render_type_latex(r.type),
                    row["heights"],
                    row["parities"],
                    row["equisigned"],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_csv_report(db: TypeDatabase, path: str) -> None:
    _atomic_write(path, (csv_report_text(db),))


def latex_report_text(db: TypeDatabase) -> str:
    if not db.records:
        raise ValueError("no statistics to report")
    lines = [
        r"\begin{longtable}{c|c|c|c|c|l}",
        r"\caption{Minimal vanishing sums of roots of unity and their"
        r" possible parities of orders.} \\",
        r" & Top & Relative & Weight & & Possible\\",
        r"Weight & prime & order & partition & Type & parities \\ \hline\hline",
        r"\endfirsthead",
        r"\hline",
        r"weight & prime & order & partition & type & parities \\ \hline",
        r"\endhead",
        r"\hline",
        r"\endfoot",
    ]
    for i, r in enumerate(db.records):
        partition = ",".join(str(x) for x in r.partition)
        parities = ",\\,".join(f"({a},{b})" for a, b in sorted(r.parities))
        rel = ",".join(str(x) for x in sorted(r.relative_orders))
        sep = r" \\ \hline"
        if i + 1 < len(db.records) and db.records[i + 1].weight != r.weight:
            sep = r" \\ \hline\hline"
        lines.append(
            f"${r.weight}$ & ${r.top_prime}$ & ${rel}$ & $({partition})$ & "
            f"${render_type_latex(r.type)}$ & ${parities}$" + sep
        )
    lines.append(r"\end{longtable}")
    return "\n".join(lines) + "\n"


def write_latex_report(db: TypeDatabase, path: str) -> None:
    _atomic_write(path, (latex_report_text(db),))
