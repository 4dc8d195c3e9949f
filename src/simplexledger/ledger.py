"""Exact first-occurrence ledger over order-k keyword combinations.

Per year, every article's keyword set is expanded into all combinations of
size k+1; a combination is new in year t iff it appears in some year-t
article and never earlier.  New combinations containing a keyword whose
debut year (under the same refinement) is t are classified peripheral, the
rest core.

The ledger reads the corpus through one `CorpusStore.view` per refinement:
the year index, and the CSR with its keyword ids renumbered in debut order
and ascending within each article, so a new combination is peripheral iff
its largest dense id, its latest keyword, debuted in its first year.  A
combination's first year is the smallest year among its emissions, so all
of its emissions must meet once, in memory: the pass engine,
`simplexledger.passes`, counts them in passes, one per range of largest
dense ids.  When E fits one pass (24 bytes of budget an emission),
``shard_count`` is 1 and every id fits the key, one pass over the full
range counts it and nothing is written.  Otherwise a plan of passes runs.
With a spill directory, the ledger's resume state is one append-only file
there: a header naming the plan, then the running tallies after each pass,
each appended in one write, so that a resume redoes only the pass that a
kill hit.  The series is always built from the last tallies, so nothing
stores it.  The spill directory belongs to the caller, who deletes it; the
ledger reads no environment variable, and without a spill directory it
writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from simplexledger import passes
from simplexledger.corpus import ALL, REFINEMENTS, CorpusStore, replace_on_success
from simplexledger.passes import LedgerError

# A tally file's header: a magic whose last byte is the format version, 12,
# the SHA-256 fingerprint of the corpus, order, refinement and plan, and the
# plan's pass count.
_MAGIC = b"SLTALLY\x0c"
_HEADER = struct.Struct("<8s32sQ")
_MIN_MEMORY_BUDGET = 1 << 16
# Bytes per calendar year of the finished series: its four int64 columns.
_BYTES_PER_YEAR = 32


def keyword_debut_years(corpus: CorpusStore, refinement: str = ALL) -> dict[int, int]:
    """Earliest year each keyword appears in any article, per refinement."""
    if refinement not in REFINEMENTS:
        raise LedgerError(f"unknown refinement {refinement!r}")
    years, _, _, _, keywords, debuts = corpus.view(refinement)
    return dict(zip(keywords.tolist(), years[debuts].tolist()))


@dataclass(frozen=True)
class LedgerConfig:
    k: int = 1
    refinement: str = ALL
    shard_count: int = 1
    memory_budget_bytes: int = 256 << 20
    spill_directory: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        for name in ("k", "shard_count", "memory_budget_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise LedgerError(f"{name} must be an int, got {value!r}")
            object.__setattr__(self, name, int(value))  # JSON takes no np.int64
        if self.k not in (1, 2, 3):
            raise LedgerError(f"order k must be in 1..3, got {self.k}")
        if self.refinement not in REFINEMENTS:
            raise LedgerError(f"unknown refinement {self.refinement!r}")
        if self.shard_count < 1:
            raise LedgerError("shard_count must be >= 1")
        if self.memory_budget_bytes < _MIN_MEMORY_BUDGET:
            raise LedgerError(
                f"memory_budget_bytes={self.memory_budget_bytes} is below the "
                f"minimum; need at least {_MIN_MEMORY_BUDGET} bytes"
            )


@dataclass
class LedgerSeries:
    """Per-year novelty tallies for one (order, refinement) pair.

    Years are contiguous from the first to the last corpus year; empty
    years carry zeros so that deltas and rates stay well defined.
    """

    k: int
    refinement: str
    years: list[int] = field(default_factory=list)
    new_simplices: list[int] = field(default_factory=list)
    new_peripheral: list[int] = field(default_factory=list)
    new_keywords: list[int] = field(default_factory=list)
    articles_processed: list[int] = field(default_factory=list)

    @property
    def cum_simplices(self) -> list[int]:
        return list(itertools.accumulate(self.new_simplices))

    @property
    def cum_keywords(self) -> list[int]:
        return list(itertools.accumulate(self.new_keywords))

    @property
    def cum_articles(self) -> list[int]:
        return list(itertools.accumulate(self.articles_processed))


# The per-year counts of a series: its fields after k, refinement and years.
SERIES_COLUMNS = [f.name for f in fields(LedgerSeries)[3:]]


def _series(
    config: LedgerConfig,
    years: np.ndarray,
    processed: np.ndarray,
    tally: np.ndarray,
    debut_index: np.ndarray,
) -> LedgerSeries:
    """The series of the ``years`` that hold articles, from their new and
    peripheral ``tally``, debuts and ``processed`` articles, spread over
    every calendar year from the first to the last, empty years as zeros."""
    first = int(years[0])
    calendar = np.zeros((len(SERIES_COLUMNS), int(years[-1]) - first + 1), np.int64)
    debuted = np.bincount(debut_index, minlength=years.size)
    calendar[:, years - first] = [*tally, debuted, processed]
    return LedgerSeries(
        k=config.k,
        refinement=config.refinement,
        years=list(range(first, first + calendar.shape[1])),
        **dict(zip(SERIES_COLUMNS, calendar.tolist())),
    )


def _check_span(first: int, last: int, config: LedgerConfig) -> None:
    """Raise unless the series' columns over the calendar years ``first``
    to ``last`` fit a quarter of the budget."""
    limit = config.memory_budget_bytes // 4 // _BYTES_PER_YEAR
    if last - first + 1 > limit:
        raise LedgerError(
            f"years {first} to {last} span {last - first + 1} years, over the "
            f"limit of {limit} years at memory_budget_bytes="
            f"{config.memory_budget_bytes}"
        )


# --- tally file ------------------------------------------------------------


def _header(corpus_digest: str, config: LedgerConfig, plan: passes.Plan) -> bytes:
    """The tally file's header: the magic, the plan's fingerprint and its
    pass count."""
    payload = json.dumps(
        {
            "corpus": corpus_digest,
            "k": config.k,
            "refinement": config.refinement,
            "passes": [(p.holders, p.first, p.last) for p in plan.passes],
        }
    )
    fingerprint = hashlib.sha256(payload.encode()).digest()
    return _HEADER.pack(_MAGIC, fingerprint, len(plan.passes))


def _append(fd: int, values: np.ndarray) -> None:
    """Append ``values`` in one write; only a write past 2 GiB takes more."""
    view = memoryview(values).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _resume(path: Path, header: bytes, tally: np.ndarray) -> int:
    """How many passes the tally file ``path`` has finished, with the last
    one's running tallies read into ``tally``.

    The file is ``header`` and one record per finished pass, the running
    ``tally`` after it.  A torn record is cut, and more records than the
    header's passes raise.  A file with any other header, or none, is
    replaced by ``header`` alone.
    """
    with contextlib.suppress(FileNotFoundError), open(path, "r+b") as f:
        if f.read(len(header)) == header:
            done, torn = divmod(f.seek(0, os.SEEK_END) - len(header), tally.nbytes)
            planned = _HEADER.unpack(header)[2]
            if done > planned:
                raise LedgerError(
                    f"{path} holds {done} records, but its header plans "
                    f"{planned} passes"
                )
            if torn:
                f.truncate(f.seek(-torn, os.SEEK_END))
            if done:
                f.seek(-tally.nbytes, os.SEEK_END)
                f.readinto(memoryview(tally).cast("B"))
            return done
    with replace_on_success(path) as f:
        f.write(header)
    return 0


# --- tabulate --------------------------------------------------------------


def tabulate(corpus: CorpusStore, config: LedgerConfig) -> LedgerSeries:
    """Tally first occurrences exactly, per year.

    One pass over the article offsets, `passes.census`, counts the
    emissions and each year's processed articles.  A ledger that fits one
    pass over the full range of ids is counted from the rows and writes
    nothing, so a killed run counts it again.  Otherwise `passes.plan` cuts
    the passes.  With a spill directory, each pass appends the running
    tallies to ``k<k>_<refinement>.tallies`` there, and a resume of the same
    corpus, order and plan runs only the passes after its last whole record.
    """
    s = config.k + 1
    view = corpus.view(config.refinement)
    years, _, _, _, keywords, debuts = view
    if not years.size:
        return LedgerSeries(k=config.k, refinement=config.refinement)
    _check_span(int(years[0]), int(years[-1]), config)

    layout = passes.Layout.of(debuts.size, s, years.size)
    emissions, processed = passes.census(view, s)
    debut_index = debuts.astype(layout.year_dtype)
    budget = config.memory_budget_bytes
    tally = np.zeros((2, years.size), dtype=np.int64)
    if (
        config.shard_count == 1
        and emissions <= budget // passes.PASS_BYTES_PER_KEY
        and keywords.size <= 1 << layout.id_bits
    ):
        tally += passes.tally_all(view, s, layout, emissions, debut_index, budget)
        return _series(config, years, processed, tally, debut_index)

    plan = passes.plan(view, config.k, layout, budget, config.shard_count)
    done, path = 0, None
    if config.spill_directory is not None:
        spill = Path(config.spill_directory)
        try:
            spill.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise LedgerError(f"spill directory unwritable: {exc}") from exc
        path = spill / f"k{config.k}_{config.refinement}.tallies"
        done = _resume(path, _header(corpus.digest(), config, plan), tally)
    with open(path, "ab", buffering=0) if path else contextlib.nullcontext() as records:
        for passed in passes.tallies(
            view, config.k, layout, plan, done, budget, debut_index
        ):
            tally += passed
            if records:
                _append(records.fileno(), tally)
    return _series(config, years, processed, tally, debut_index)


# --- brute-force oracle ----------------------------------------------------

# The most emissions the oracle holds in its sets.
_ORACLE_GUARD = 10_000_000


def oracle_tabulate(
    corpus: CorpusStore, k: int, refinement: str = ALL
) -> LedgerSeries:
    """Naive in-memory tabulation; the independent check for `tabulate`.

    Refuses corpora whose total emission count exceeds `_ORACLE_GUARD`.
    """
    if k not in (0, 1, 2, 3):
        raise LedgerError(f"order k must be in 0..3, got {k}")
    if refinement not in REFINEMENTS:
        raise LedgerError(f"unknown refinement {refinement!r}")
    s = k + 1
    emissions = sum(
        math.comb(len(r.keywords(refinement)), s) for r in corpus.iter_records()
    )
    if emissions > _ORACLE_GUARD:
        raise LedgerError(
            f"corpus would emit {emissions} combinations, over the oracle "
            f"guard of {_ORACLE_GUARD}"
        )
    series = LedgerSeries(k=k, refinement=refinement)
    years = corpus.years
    if not years:
        return series
    seen: set[tuple[int, ...]] = set()
    seen_kw: set[int] = set()
    for year in range(years[0], years[-1] + 1):
        records = corpus.records_in(year)
        debuts = {kid for r in records for kid in r.keywords(refinement)} - seen_kw
        year_new: set[tuple[int, ...]] = set()
        processed = 0
        for record in records:
            ids = sorted(record.keywords(refinement))
            if len(ids) < s:
                continue
            processed += 1
            for combo in itertools.combinations(ids, s):
                if combo not in seen:
                    year_new.add(combo)
        peripheral = sum(not debuts.isdisjoint(combo) for combo in year_new)
        seen.update(year_new)
        seen_kw.update(debuts)
        series.years.append(year)
        series.new_simplices.append(len(year_new))
        series.new_peripheral.append(peripheral)
        series.new_keywords.append(len(debuts))
        series.articles_processed.append(processed)
    return series
