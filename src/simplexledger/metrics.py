"""Derived series and the per-year CSV formats.

Coverage denominators are exact binomial counts over the vocabulary used so
far, held as arbitrary-precision integers; division to floating point
happens once, at the end.  Years where a rate is undefined (no new
combinations) carry ``None``, never NaN.

Only this module knows the per-year CSV layouts: it writes the ledger CSV,
and writes and reads the metrics CSV, whose empty cells are ``None`` and
whose floats are ``repr``-exact, so a read gives back the rows written.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import IO, Iterable

from simplexledger.ledger import SERIES_COLUMNS, LedgerSeries

LEDGER_CSV_COLUMNS = [
    "year",
    "k",
    "refinement",
    *SERIES_COLUMNS,
    "cum_simplices",
    "cum_keywords",
    "cum_articles",
]

# The metrics row field behind each X axis of `paired_series`.
_X_AXES = {"articles": "cum_articles", "vocabulary": "cum_mesh", "year": "year"}


class MetricsError(ValueError):
    """Raised on inconsistent inputs (e.g. ledger/vocabulary mismatch)."""


def exact_binomial(n: int, s: int) -> int:
    """Exact C(n, s); zero when s > n.  Never wraps or rounds."""
    if not isinstance(n, int) or not isinstance(s, int):
        raise MetricsError("binomial arguments must be integers")
    if n < 0 or s < 0:
        raise MetricsError(f"binomial arguments must be non-negative: C({n},{s})")
    return math.comb(n, s)


def coverage_fraction(c_t_sk: int, n_t: int, k: int) -> float:
    """Realized combinations over all possible size-(k+1) combinations."""
    s = k + 1
    if n_t < s:
        raise MetricsError(
            f"vocabulary of {n_t} cannot form combinations of size {s}"
        )
    denominator = exact_binomial(n_t, s)
    if c_t_sk > denominator:
        raise MetricsError(
            f"{c_t_sk} realized combinations exceed the {denominator} possible "
            f"for a vocabulary of {n_t}; ledger/vocabulary mismatch"
        )
    if c_t_sk == 0:
        return 0.0
    return float(Fraction(c_t_sk, denominator))


@dataclass(frozen=True)
class MetricsRow:
    year: int
    k: int
    refinement: str
    new_simplices: int
    cum_simplices: int
    new_peripheral: int
    new_mesh: int
    cum_mesh: int
    cum_articles: int
    coverage: float | None
    r_m: float | None
    r_p: float | None
    r_c: float | None


CSV_COLUMNS = [f.name for f in fields(MetricsRow)]


def build_metrics(ledger: LedgerSeries) -> list[MetricsRow]:
    """The full per-year table of one ledger series, in one pass.

    The conceptual rate r_m is the year's new keywords over the vocabulary
    so far; r_p and r_c split the year's new combinations into peripheral
    and core.
    """
    k, refinement = ledger.k, ledger.refinement
    rows = []
    for year, new, cum, peripheral, new_kw, cum_kw, cum_art in zip(
        ledger.years,
        ledger.new_simplices,
        ledger.cum_simplices,
        ledger.new_peripheral,
        ledger.new_keywords,
        ledger.cum_keywords,
        ledger.cum_articles,
    ):
        r_p = peripheral / new if new > 0 else None
        rows.append(
            MetricsRow(
                year=year,
                k=k,
                refinement=refinement,
                new_simplices=new,
                cum_simplices=cum,
                new_peripheral=peripheral,
                new_mesh=new_kw,
                cum_mesh=cum_kw,
                cum_articles=cum_art,
                coverage=(
                    coverage_fraction(cum, cum_kw, k) if cum_kw >= k + 1 else None
                ),
                r_m=new_kw / cum_kw if cum_kw > 0 else None,
                r_p=r_p,
                r_c=None if r_p is None else 1.0 - r_p,
            )
        )
    return rows


def _cell(value: int | float | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_ledger_csv(series: LedgerSeries, out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LEDGER_CSV_COLUMNS)
    # After year, k and refinement, every column is a per-year series.
    per_year = [getattr(series, col) for col in LEDGER_CSV_COLUMNS[3:]]
    for year, *counts in zip(series.years, *per_year):
        writer.writerow([year, series.k, series.refinement, *counts])


def write_metrics_csv(rows: Iterable[MetricsRow], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, col)) for col in CSV_COLUMNS])


# Cell parser per MetricsRow field annotation.
_PARSERS = {"int": int, "str": str, "float | None": lambda c: float(c) if c else None}


def read_metrics_csv(stream: IO[str]) -> list[MetricsRow]:
    """The rows `write_metrics_csv` wrote; an empty cell reads as None.

    A wrong header, a row of the wrong width or a cell of the wrong type
    raises `MetricsError` naming its line.
    """
    types = {f.name: f.type for f in fields(MetricsRow)}
    parsers = [(col, _PARSERS[types[col]]) for col in CSV_COLUMNS]
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise MetricsError(
            f"line 1: expected the header {','.join(CSV_COLUMNS)}, got "
            f"{','.join(header) if header else 'nothing'}"
        )
    rows = []
    for record in reader:
        if len(record) != len(CSV_COLUMNS):
            raise MetricsError(
                f"line {reader.line_num}: expected {len(CSV_COLUMNS)} cells, "
                f"got {len(record)}"
            )
        values = {}
        for (col, parse), cell in zip(parsers, record):
            try:
                values[col] = parse(cell)
            except ValueError:
                raise MetricsError(
                    f"line {reader.line_num}: {col} {cell!r} is not "
                    f"{types[col]}"
                ) from None
        rows.append(MetricsRow(**values))
    return rows


def paired_series(
    rows: list[MetricsRow], x_axis: str, column: str
) -> list[tuple[float, float]]:
    """The (X, Y) points of one column, ordered by year.

    X is cumulative articles, cumulative vocabulary, or the year itself.
    Rows where the column is undefined are skipped.
    """
    if x_axis not in _X_AXES:
        raise MetricsError(f"x_axis must be one of {tuple(_X_AXES)}, got {x_axis!r}")
    x_field = _X_AXES[x_axis]
    points = []
    for row in sorted(rows, key=lambda r: r.year):
        y = getattr(row, column)
        if y is not None:
            points.append((float(getattr(row, x_field)), float(y)))
    return points
