"""Bundled example datasets and CSV item I/O.

Items travel as CSV with the exact header ``id,group,utility``: UTF-8,
one item per row, utilities as decimal literals, group labels arbitrary
strings.  Two fixtures ship with the package in ``fairexposure/data/``:

* ``jobseeker.csv`` — six candidates in two groups of three with utilities
  0.82 down to 0.77; small enough to verify every number by hand.
* ``synthetic_news.csv`` — twenty-five articles in groups of 15 and 10 with
  utilities drawn as ``rating/5`` plus Gaussian noise (sigma 0.05) clipped
  to [0, 1], from ``numpy.random.default_rng(11)``.

``tests/test_datasets.py`` holds each fixture's recipe and checks that
:func:`write_items_csv` of it reproduces the shipped file byte for byte.
"""

from __future__ import annotations

import csv
import io
from importlib import resources
from os import PathLike
from types import SimpleNamespace
from typing import IO, Iterable, Union

from .core import Item

__all__ = [
    "load_jobseeker",
    "load_synthetic_news",
    "read_items_csv",
    "write_items_csv",
]

CSV_HEADER = ("id", "group", "utility")

Source = Union[str, PathLike, IO[str]]


def read_items_csv(source: Source) -> tuple[Item, ...]:
    """Parse items from ``source`` (a path or an open text stream).

    The first row must be exactly ``id,group,utility``, after one leading
    byte-order mark (U+FEFF), if any, is dropped.  Errors carry the
    1-based line number of the offending row.
    """
    try:
        if hasattr(source, "read"):
            rows = list(csv.reader(source))  # type: ignore[arg-type]
        else:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
    except csv.Error as exc:
        raise ValueError(f"not a valid CSV file: {exc}") from None
    if not rows:
        raise ValueError("empty input: expected header 'id,group,utility'")
    if rows[0] and rows[0][0].startswith("\ufeff"):
        rows[0][0] = rows[0][0][1:]  # the byte-order mark of "CSV UTF-8" exports
    if [cell.strip() for cell in rows[0]] != list(CSV_HEADER):
        raise ValueError(
            f"line 1: expected header 'id,group,utility', got {','.join(rows[0])!r}"
        )
    items: list[Item] = []
    seen: set[str] = set()
    for offset, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {offset}: expected 3 fields, got {len(row)}")
        item_id, group, raw_utility = (cell.strip() for cell in row)
        if item_id in seen:
            raise ValueError(f"line {offset}: duplicate item id {item_id!r}")
        try:
            utility = float(raw_utility)
        except ValueError:
            raise ValueError(
                f"line {offset}: utility must be a decimal literal, got {raw_utility!r}"
            ) from None
        try:
            items.append(Item(id=item_id, group=group, utility=utility))
        except ValueError as exc:
            raise ValueError(f"line {offset}: {exc}") from None
        seen.add(item_id)
    if not items:
        raise ValueError("no item rows after the header")
    return tuple(items)


def _csv_writer(handle: IO[str]):
    """A ``csv.writer`` on ``handle`` whose rows end in "\\n" and that quotes
    every field holding a comma, a quote, "\\r" or "\\n"."""
    # csv quotes the characters of its line terminator: it writes "\r\n",
    # and each row's "\r\n" becomes "\n" on the way out
    sink = SimpleNamespace(write=lambda row: handle.write(row[:-2] + "\n"))
    return csv.writer(sink, lineterminator="\r\n")


def write_items_csv(items: Iterable[Item], destination: Source) -> None:
    """Write ``items`` to ``destination`` in the ``id,group,utility`` format.

    Utilities are written with :func:`repr` so they round-trip exactly.
    """

    def _write(handle: IO[str]) -> None:
        writer = _csv_writer(handle)
        writer.writerow(CSV_HEADER)
        for item in items:
            writer.writerow([item.id, item.group, repr(item.utility)])

    if hasattr(destination, "write"):
        _write(destination)  # type: ignore[arg-type]
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            _write(handle)


def _load_bundled(filename: str) -> tuple[Item, ...]:
    text = resources.files("fairexposure").joinpath("data", filename).read_text("utf-8")
    return read_items_csv(io.StringIO(text))


def load_jobseeker() -> tuple[Item, ...]:
    """Read the bundled ``jobseeker.csv`` fixture."""
    return _load_bundled("jobseeker.csv")


def load_synthetic_news() -> tuple[Item, ...]:
    """Read the bundled ``synthetic_news.csv`` fixture."""
    return _load_bundled("synthetic_news.csv")
