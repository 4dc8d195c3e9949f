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
With a spill directory, the ledger writes the plan's fingerprint in a
manifest once, and appends its running tallies after each pass in one
write, so that a resume redoes only the pass that a kill hit; the
completing manifest write stores the series.  The spill directory belongs
to the caller, who deletes it; the ledger reads no environment variable,
and without a spill directory it writes nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from simplexledger import passes
from simplexledger.corpus import ALL, REFINEMENTS, CorpusStore, replace_on_success
from simplexledger.passes import LedgerError

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 11
_TALLIES_NAME = "tallies.bin"
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


def _stored_series(
    years: np.ndarray,
    processed: np.ndarray,
    tally: np.ndarray,
    debut_index: np.ndarray,
) -> dict:
    """The series' tallies over the years that hold articles, as lists."""
    new, peripheral = tally
    columns = [new, peripheral, np.bincount(debut_index, minlength=new.size), processed]
    return {
        "years": years.tolist(),
        **{name: c.tolist() for name, c in zip(SERIES_COLUMNS, columns)},
    }


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


# --- manifest --------------------------------------------------------------


def _fingerprint(corpus_digest: str, config: LedgerConfig, plan: passes.Plan) -> str:
    payload = json.dumps(
        {
            "corpus": corpus_digest,
            "k": config.k,
            "refinement": config.refinement,
            "passes": [(p.holders, p.first, p.last) for p in plan.passes],
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_manifest(path: Path, payload: dict) -> None:
    with replace_on_success(path, "w") as f:
        f.write(json.dumps(payload, separators=(",", ":")))


def _load_manifest(path: Path, fingerprint: str) -> dict | None:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("version") != _MANIFEST_VERSION:
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    return payload


def _keep_only(ledger_dir: Path, named: set[str]) -> dict[str, int]:
    """Delete every entry not in ``named``; the sizes of those that are."""
    sizes = {}
    for p in ledger_dir.iterdir():
        if p.name in named:
            sizes[p.name] = p.stat().st_size
        else:
            p.unlink()
    return sizes


def _append(fd: int, values: np.ndarray) -> None:
    """Append ``values`` in one write; only a write past 2 GiB takes more."""
    view = memoryview(values).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _open(ledger_dir: Path, fingerprint: str, passes: int, tally: np.ndarray) -> tuple[dict, int]:
    """The ledger's manifest and how many of its passes are finished.

    ``tallies.bin`` holds one record per finished pass, the running
    ``tally`` after it; a resume cuts a torn record away and reads the last
    whole one into ``tally``; more records than passes raise.  A directory
    without this plan's manifest is emptied for a fresh one, whose manifest
    is written at once.
    """
    manifest = _load_manifest(ledger_dir / _MANIFEST_NAME, fingerprint)
    if manifest is not None and manifest["complete"]:
        return manifest, passes
    if manifest is not None:
        sizes = _keep_only(ledger_dir, {_MANIFEST_NAME, _TALLIES_NAME})
        done, torn = divmod(sizes.get(_TALLIES_NAME, 0), tally.nbytes)
        path = ledger_dir / _TALLIES_NAME
        if done > passes:
            raise LedgerError(
                f"{path} holds {done} records, but its manifest plans {passes} passes"
            )
        if torn:
            os.truncate(path, done * tally.nbytes)
        if done:
            with open(path, "rb") as f:
                f.seek((done - 1) * tally.nbytes)
                f.readinto(memoryview(tally).cast("B"))
        return manifest, done
    shutil.rmtree(ledger_dir)
    ledger_dir.mkdir(parents=True)
    fresh = {
        "version": _MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "passes": passes,
        "complete": False,
    }
    _write_manifest(ledger_dir / _MANIFEST_NAME, fresh)
    return fresh, 0


# --- tabulate --------------------------------------------------------------


def _spread(config: LedgerConfig, stored: dict) -> LedgerSeries:
    """The series of stored tallies over the years that hold articles,
    spread over every calendar year from the first to the last, empty
    years as zeros."""
    years = np.array(stored["years"])
    first = int(years[0])
    calendar = np.zeros((len(SERIES_COLUMNS), int(years[-1]) - first + 1), np.int64)
    calendar[:, years - first] = [stored[name] for name in SERIES_COLUMNS]
    return LedgerSeries(
        k=config.k,
        refinement=config.refinement,
        years=list(range(first, first + calendar.shape[1])),
        **dict(zip(SERIES_COLUMNS, calendar.tolist())),
    )


def tabulate(corpus: CorpusStore, config: LedgerConfig) -> LedgerSeries:
    """Tally first occurrences exactly, per year.

    One pass over the article offsets, `passes.census`, counts the
    emissions and each year's processed articles.  A ledger that fits one
    pass over the full range of ids is counted from the rows and writes
    nothing, so a killed run counts it again.  Otherwise `passes.plan` cuts
    the passes before
    any directory is made.  Without a spill directory they run in memory
    alone.  With one, the ledger resumes after the last whole record of
    running tallies when ``config.spill_directory`` already holds this
    plan's manifest for the same corpus and order; a complete manifest
    gives its stored series back at once.
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
        return _spread(config, _stored_series(years, processed, tally, debut_index))

    plan = passes.plan(view, config.k, layout, budget, config.shard_count)
    if config.spill_directory is None:
        for passed in passes.tallies(view, config.k, layout, plan, 0, budget, debut_index):
            tally += passed
        return _spread(config, _stored_series(years, processed, tally, debut_index))

    ledger_dir = Path(config.spill_directory) / f"k{config.k}" / config.refinement
    try:
        ledger_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LedgerError(f"spill directory unwritable: {exc}") from exc
    fingerprint = _fingerprint(corpus.digest(), config, plan)
    manifest, done = _open(ledger_dir, fingerprint, len(plan.passes), tally)
    if not manifest["complete"]:
        with open(ledger_dir / _TALLIES_NAME, "ab", buffering=0) as records:
            for passed in passes.tallies(
                view, config.k, layout, plan, done, budget, debut_index
            ):
                tally += passed
                _append(records.fileno(), tally)
        manifest["series"] = _stored_series(years, processed, tally, debut_index)
        manifest["complete"] = True
        _write_manifest(ledger_dir / _MANIFEST_NAME, manifest)
    _keep_only(ledger_dir, {_MANIFEST_NAME})
    return _spread(config, manifest["series"])


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
