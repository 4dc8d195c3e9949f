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

from simplexledger.ledger import LedgerSeries

LEDGER_CSV_COLUMNS = [
    "year",
    "k",
    "refinement",
    "new_simplices",
    "new_peripheral",
    "new_keywords",
    "articles_processed",
    "cum_simplices",
    "cum_keywords",
    "cum_articles",
]

CSV_COLUMNS = [
    "year",
    "k",
    "refinement",
    "new_simplices",
    "cum_simplices",
    "new_peripheral",
    "new_mesh",
    "cum_mesh",
    "cum_articles",
    "coverage",
    "r_m",
    "r_p",
    "r_c",
]

_X_AXES = ("articles", "vocabulary", "year")


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
class Rates:
    """Innovation rates for one year; None marks an undefined value."""

    r_m: float | None
    r_p: float | None
    r_c: float | None


def innovation_rates(ledger: LedgerSeries) -> dict[int, Rates]:
    """Per-year conceptual rate and the peripheral/core split of novelty."""
    out: dict[int, Rates] = {}
    cum_kw = ledger.cum_keywords
    for i, year in enumerate(ledger.years):
        new_simp = ledger.new_simplices[i]
        if new_simp > 0:
            r_p: float | None = ledger.new_peripheral[i] / new_simp
            r_c: float | None = 1.0 - r_p
        else:
            r_p = r_c = None
        r_m = ledger.new_keywords[i] / cum_kw[i] if cum_kw[i] > 0 else None
        out[year] = Rates(r_m=r_m, r_p=r_p, r_c=r_c)
    return out


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


def build_metrics(ledger: LedgerSeries) -> list[MetricsRow]:
    """Assemble the full per-year table from one ledger series."""
    rates = innovation_rates(ledger)
    cum_simp = ledger.cum_simplices
    cum_kw = ledger.cum_keywords
    cum_art = ledger.cum_articles
    rows = []
    for i, year in enumerate(ledger.years):
        s = ledger.k + 1
        if cum_kw[i] >= s:
            coverage: float | None = coverage_fraction(
                cum_simp[i], cum_kw[i], ledger.k
            )
        else:
            coverage = None
        r = rates[year]
        rows.append(
            MetricsRow(
                year=year,
                k=ledger.k,
                refinement=ledger.refinement,
                new_simplices=ledger.new_simplices[i],
                cum_simplices=cum_simp[i],
                new_peripheral=ledger.new_peripheral[i],
                new_mesh=ledger.new_keywords[i],
                cum_mesh=cum_kw[i],
                cum_articles=cum_art[i],
                coverage=coverage,
                r_m=r.r_m,
                r_p=r.r_p,
                r_c=r.r_c,
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
    rows: list[MetricsRow], x_axis: str
) -> dict[str, list[tuple[float, float]]]:
    """(X, Y) point lists per Y-column, ordered by year.

    X is cumulative articles, cumulative vocabulary, or the year itself.
    Rows with an undefined Y value are skipped for that column.
    """
    if x_axis not in _X_AXES:
        raise MetricsError(f"x_axis must be one of {_X_AXES}, got {x_axis!r}")
    x_field = {"articles": "cum_articles", "vocabulary": "cum_mesh", "year": "year"}[
        x_axis
    ]
    y_columns = [
        "new_simplices",
        "cum_simplices",
        "new_peripheral",
        "new_mesh",
        "cum_mesh",
        "coverage",
        "r_m",
        "r_p",
        "r_c",
    ]
    out: dict[str, list[tuple[float, float]]] = {col: [] for col in y_columns}
    for row in sorted(rows, key=lambda r: r.year):
        x = float(getattr(row, x_field))
        for col in y_columns:
            y = getattr(row, col)
            if y is not None:
                out[col].append((x, float(y)))
    return out
