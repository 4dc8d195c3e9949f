"""Exact first-occurrence ledger over order-k keyword combinations.

Per year, every article's keyword set is expanded into all combinations of
size k+1; a combination is new in year t iff it appears in some year-t
article and never earlier.  New combinations containing a keyword whose
debut year (under the same refinement) is t are classified peripheral, the
rest core.

Keyword ids are renumbered per refinement in debut order, so the keywords
debuting in one year form one contiguous range of dense ids and a new
combination is peripheral iff its largest dense id falls in that range.
Deduplication is external: combinations are packed into 64-bit keys and
hash sharded.  Each shard keeps one sorted history file of every key it has
seen.  At year end a single streaming pass steps the year's sorted unique
keys against that file, counts the keys it lacks, and writes the merged
history as the next file, so tallies are exact at scales far beyond memory
and the result is identical for any shard count.  A manifest written after
each completed year names every shard's history file and allows restart
from the last watermark.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import tempfile
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from simplexledger.corpus import ALL, REFINEMENTS, CorpusStore

SPILL_ENV_VAR = "SLEDGER_TMP"

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 3
_MIN_MEMORY_BUDGET = 1 << 16
_EMIT_CHUNK = 1 << 18  # keys per emission batch

# Bits per keyword id in the packed 64-bit key, by combination size.
_ARITY_BITS = {1: 32, 2: 32, 3: 21, 4: 16}


class LedgerError(ValueError):
    """Raised for invalid configuration or unsupported input scale."""


def enumerate_simplices(keywords: Iterable[int], k: int) -> list[tuple[int, ...]]:
    """All sorted (k+1)-combinations of the keyword set, in ascending order.

    Returns an empty list when the set is too small to form any.
    """
    if k < 0:
        raise LedgerError(f"order must be non-negative, got {k}")
    ids = sorted(set(keywords))
    if len(ids) < k + 1:
        return []
    return list(itertools.combinations(ids, k + 1))


def keyword_debut_years(corpus: CorpusStore, refinement: str = ALL) -> dict[int, int]:
    """Earliest year each keyword appears in any article, per refinement."""
    if refinement not in REFINEMENTS:
        raise LedgerError(f"unknown refinement {refinement!r}")
    keywords, debuts, _ = _debut_order(corpus, refinement)
    return dict(zip(keywords.tolist(), debuts.tolist()))


def _debut_order(
    corpus: CorpusStore, refinement: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The refinement's keywords renumbered in debut order.

    Returns (keywords, debuts, dense): the distinct keyword ids in order of
    first appearance, their debut years (non-decreasing), and the CSR's ids
    replaced by their positions in ``keywords``.
    """
    years, offsets, ids = corpus.csr(refinement)
    # Articles are sorted by year, so a keyword's first position is its debut.
    kids, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(kids.size, dtype=ids.dtype)
    rank[order] = np.arange(kids.size, dtype=ids.dtype)
    article = np.searchsorted(offsets, first[order], side="right") - 1
    return kids[order], years[article], rank[inverse]


@dataclass(frozen=True)
class LedgerConfig:
    k: int = 1
    refinement: str = ALL
    shard_count: int = 1
    memory_budget_bytes: int = 256 << 20
    spill_directory: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if self.k not in (0, 1, 2, 3):
            raise LedgerError(f"order k must be in 0..3, got {self.k}")
        if self.refinement not in REFINEMENTS:
            raise LedgerError(f"unknown refinement {self.refinement!r}")
        if self.shard_count < 1:
            raise LedgerError("shard_count must be >= 1")
        if self.memory_budget_bytes < _MIN_MEMORY_BUDGET:
            raise LedgerError(
                f"memory_budget_bytes={self.memory_budget_bytes} is below the "
                f"minimum merge frame; need at least {_MIN_MEMORY_BUDGET} "
                "bytes (raise the budget or lower shard_count)"
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


# --- packing ---------------------------------------------------------------


def _check_capacity(n_keywords: int, s: int) -> None:
    bits = _ARITY_BITS[s]
    if n_keywords > (1 << bits):
        raise LedgerError(
            f"{n_keywords} distinct keywords exceed the {bits}-bit capacity "
            f"({1 << bits} keywords) for combinations of size {s}"
        )


def _pack(rows: np.ndarray, s: int) -> np.ndarray:
    """Pack (n, s) ascending id rows into sortable uint64 keys."""
    bits = _ARITY_BITS[s]
    keys = rows[:, 0].astype(np.uint64)
    for col in range(1, s):
        keys = (keys << np.uint64(bits)) | rows[:, col].astype(np.uint64)
    return keys


def _mix64(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; balances shard assignment."""
    x = keys.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


# --- emission --------------------------------------------------------------

_comb_index_cache: dict[tuple[int, int], np.ndarray] = {}


def _comb_indices(m: int, s: int) -> np.ndarray:
    cached = _comb_index_cache.get((m, s))
    if cached is not None:
        return cached
    idx = np.array(list(itertools.combinations(range(m), s)), dtype=np.intp)
    idx = idx.reshape(-1, s)
    if m <= 24:
        _comb_index_cache[(m, s)] = idx
    return idx


def _emit_year_keys(
    offsets: np.ndarray, ids: np.ndarray, lo: int, hi: int, s: int
) -> Iterator[np.ndarray]:
    """Packed keys for all size-s combinations of articles lo..hi-1.

    Articles are grouped by keyword count m, so that one gather builds a
    batch's (articles, m) id matrix and, once each row is sorted, another
    its combinations.
    """
    starts = offsets[lo:hi]
    counts = offsets[lo + 1 : hi + 1] - starts
    for m in np.unique(counts[counts >= s]).tolist():
        group = starts[counts == m]
        idx = _comb_indices(m, s)
        batch = max(1, _EMIT_CHUNK // len(idx))
        columns = np.arange(m)
        for start in range(0, group.size, batch):
            rows = ids[group[start : start + batch, None] + columns]
            rows.sort(axis=1)
            yield _pack(rows[:, idx].reshape(-1, s), s)


# --- chunked sorted-stream machinery --------------------------------------


def _iter_file(path: Path, chunk_elems: int) -> Iterator[np.ndarray]:
    with open(path, "rb") as f:
        while True:
            arr = np.fromfile(f, dtype=np.uint64, count=chunk_elems)
            if arr.size == 0:
                return
            yield arr


def _dedup_sorted(keys: np.ndarray) -> np.ndarray:
    if keys.size > 1:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


def _step_streams(sources: list[Iterator[np.ndarray]]) -> Iterator[list[np.ndarray]]:
    """Advance sorted, unique-per-source chunk streams in step.

    Each round yields one slice per source, in source order.  Together the
    slices hold every not-yet-yielded element up to a common boundary, the
    smallest last element among the buffered chunks; any value at or below
    it is already buffered because each source is sorted.  An exhausted
    source contributes empty slices.
    """
    buffers = [np.empty(0, dtype=np.uint64)] * len(sources)
    live = [True] * len(sources)
    while True:
        for i, src in enumerate(sources):
            while live[i] and not buffers[i].size:
                chunk = next(src, None)
                if chunk is None:
                    live[i] = False
                else:
                    buffers[i] = chunk
        tails = [int(b[-1]) for b in buffers if b.size]
        if not tails:
            return
        boundary = np.uint64(min(tails))
        parts = []
        for i, buf in enumerate(buffers):
            cut = int(np.searchsorted(buf, boundary, side="right"))
            parts.append(buf[:cut])
            buffers[i] = buf[cut:]
        yield parts


def _merge_unique(sources: list[Iterator[np.ndarray]]) -> Iterator[np.ndarray]:
    """One sorted, duplicate-free stream from several sorted sources."""
    # A stable sort (timsort) merges already-sorted parts without re-sorting.
    for parts in _step_streams(sources):
        parts = [p for p in parts if p.size]
        if len(parts) == 1:
            yield parts[0]
        else:
            merged = np.concatenate(parts)
            merged.sort(kind="stable")
            yield _dedup_sorted(merged)


# --- shard state -----------------------------------------------------------


class _Shard:
    """One hash partition: a single sorted history file of every key seen."""

    def __init__(self, directory: Path, frame_elems: int) -> None:
        self.directory = directory
        # Shards finish one at a time, so a year-end pass splits the whole
        # frame of frame_elems keys across its open streams.
        self.frame_elems = frame_elems
        self.history: str | None = None
        self.batch: list[np.ndarray] = []
        self.spills: list[Path] = []
        directory.mkdir(parents=True, exist_ok=True)

    def add(self, keys: np.ndarray) -> None:
        if keys.size:
            self.batch.append(keys)

    def _drain_batch(self) -> np.ndarray:
        if not self.batch:
            return np.empty(0, dtype=np.uint64)
        merged = np.concatenate(self.batch) if len(self.batch) > 1 else self.batch[0]
        self.batch = []
        return _dedup_sorted(np.sort(merged))

    def spill(self) -> None:
        arr = self._drain_batch()
        if not arr.size:
            return
        path = self.directory / f"spill{len(self.spills):04d}.tmp"
        arr.tofile(path)
        self.spills.append(path)

    def finish_year(
        self, history_name: str, debut_key: np.uint64 | None, mask: np.uint64
    ) -> tuple[int, int]:
        """Merge the year's unique keys into history, counting the new ones.

        A new key is peripheral iff its low field (its largest dense id,
        selected by ``mask``) is at least ``debut_key``, the year's first
        debuting id; None means no keyword debuts this year.  The merged
        history is written to ``history_name``, which becomes this shard's
        history; the previous file is left for the caller to delete once the
        manifest names the new one.  A shard without new keys keeps its
        history file.  Returns (new_count, new_peripheral).
        """
        tail = self._drain_batch()
        streams = len(self.spills) + (self.history is not None)
        elems = max(1, self.frame_elems // max(streams, 1))
        year_sources = [_iter_file(p, elems) for p in self.spills]
        if tail.size:
            year_sources.append(iter([tail]))
        if not year_sources:
            return 0, 0
        hist_source = (
            _iter_file(self.directory / self.history, elems)
            if self.history is not None
            else iter(())
        )
        new_count = 0
        peripheral = 0
        tmp_path = self.directory / (history_name + ".tmp")
        with open(tmp_path, "wb") as out:
            for year_keys, hist_keys in _step_streams(
                [_merge_unique(year_sources), hist_source]
            ):
                if not hist_keys.size:
                    new = merged = year_keys
                elif not year_keys.size:
                    new, merged = year_keys, hist_keys
                else:
                    pos = np.searchsorted(hist_keys, year_keys)
                    np.minimum(pos, hist_keys.size - 1, out=pos)
                    new = year_keys[hist_keys[pos] != year_keys]
                    merged = np.concatenate([hist_keys, new])
                    merged.sort(kind="stable")
                new_count += new.size
                if debut_key is not None and new.size:
                    peripheral += int(np.count_nonzero((new & mask) >= debut_key))
                merged.tofile(out)
        for p in self.spills:
            p.unlink(missing_ok=True)
        self.spills = []
        if new_count:
            os.replace(tmp_path, self.directory / history_name)
            self.history = history_name
        else:
            tmp_path.unlink()
        return new_count, peripheral


# --- manifest --------------------------------------------------------------


def _fingerprint(corpus_digest: str, config: LedgerConfig) -> str:
    payload = json.dumps(
        {"corpus": corpus_digest, "k": config.k, "refinement": config.refinement}
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_manifest(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, separators=(",", ":")))
    os.replace(tmp, path)


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


# --- tabulate --------------------------------------------------------------


def _workdir(config: LedgerConfig) -> AbstractContextManager:
    """The spill root; a temporary one is removed when the context exits."""
    if config.spill_directory is not None:
        return nullcontext(config.spill_directory)
    env = os.environ.get(SPILL_ENV_VAR)
    if env:
        return nullcontext(env)
    return tempfile.TemporaryDirectory(prefix="sledger-")


def tabulate(
    corpus: CorpusStore,
    config: LedgerConfig,
    progress_callback: Callable[[int], None] | None = None,
) -> LedgerSeries:
    """Sweep years ascending, tallying first occurrences exactly.

    Resumes from the manifest's year watermark when the spill directory
    already holds state for the same corpus and configuration.  The
    optional callback fires after each year is durably committed.
    """
    s = config.k + 1
    series = LedgerSeries(k=config.k, refinement=config.refinement)
    corpus_years = corpus.years
    if not corpus_years:
        return series

    _, debuts, dense = _debut_order(corpus, config.refinement)
    _check_capacity(debuts.size, s)
    _, offsets, _ = corpus.csr(config.refinement)
    mask = np.uint64((1 << _ARITY_BITS[s]) - 1)

    with _workdir(config) as workdir:
        ledger_dir = Path(workdir) / f"k{config.k}" / config.refinement
        try:
            ledger_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise LedgerError(f"spill directory unwritable: {exc}") from exc

        fingerprint = _fingerprint(corpus.digest(), config)
        manifest_path = ledger_dir / _MANIFEST_NAME
        manifest = _load_manifest(manifest_path, fingerprint)
        if manifest is None or manifest.get("shard_count") != config.shard_count:
            # Fresh start: clear any stale state.
            if ledger_dir.exists():
                shutil.rmtree(ledger_dir)
            ledger_dir.mkdir(parents=True)
            manifest = {
                "version": _MANIFEST_VERSION,
                "fingerprint": fingerprint,
                "shard_count": config.shard_count,
                "watermark": None,
                "history": [None] * config.shard_count,
                "rows": [],
            }

        frame_elems = config.memory_budget_bytes // 2 // 8
        shards = [
            _Shard(ledger_dir / f"shard{i:04d}", frame_elems)
            for i in range(config.shard_count)
        ]
        for shard, history in zip(shards, manifest["history"]):
            shard.history = history
            # Drop files not in the committed state (partial year leftovers).
            for p in shard.directory.iterdir():
                if p.name != history:
                    p.unlink()

        rows = list(manifest["rows"])
        watermark = manifest["watermark"]
        all_years = list(range(corpus_years[0], corpus_years[-1] + 1))
        spill_threshold = config.memory_budget_bytes // 2

        for year in all_years:
            if watermark is not None and year <= watermark:
                continue
            lo, hi = corpus.year_range(year)
            processed = corpus.articles_with_at_least(s, config.refinement, year)
            # The year's debuting keywords are the dense ids first..last-1.
            first, last = np.searchsorted(debuts, (year, year + 1)).tolist()
            new_keywords = last - first
            debut_key = np.uint64(first) if new_keywords else None

            buffered = 0
            for keys in _emit_year_keys(offsets, dense, lo, hi, s):
                if config.shard_count == 1:
                    shards[0].add(keys)
                else:
                    sid = _mix64(keys) % np.uint64(config.shard_count)
                    for i in range(config.shard_count):
                        shards[i].add(keys[sid == np.uint64(i)])
                buffered += keys.nbytes
                if buffered > spill_threshold:
                    for shard in shards:
                        shard.spill()
                    buffered = 0

            previous = [shard.history for shard in shards]
            history_name = f"hist{len(rows):04d}.bin"
            results = [
                shard.finish_year(history_name, debut_key, mask)
                for shard in shards
            ]
            rows.append(
                {
                    "year": year,
                    "new_simplices": sum(r[0] for r in results),
                    "new_peripheral": sum(r[1] for r in results),
                    "new_keywords": new_keywords,
                    "articles_processed": processed,
                }
            )
            manifest.update(
                watermark=year, rows=rows, history=[sh.history for sh in shards]
            )
            # Old history files go only once the manifest names their successors.
            _write_manifest(manifest_path, manifest)
            for shard, old in zip(shards, previous):
                if old is not None and old != shard.history:
                    (shard.directory / old).unlink()
            if progress_callback is not None:
                progress_callback(year)

    for row in rows:
        series.years.append(row["year"])
        series.new_simplices.append(row["new_simplices"])
        series.new_peripheral.append(row["new_peripheral"])
        series.new_keywords.append(row["new_keywords"])
        series.articles_processed.append(row["articles_processed"])
    return series


# --- brute-force oracle ----------------------------------------------------


def oracle_tabulate(
    corpus: CorpusStore,
    k: int,
    refinement: str = ALL,
    guard: int = 10_000_000,
) -> LedgerSeries:
    """Naive in-memory tabulation; the independent check for `tabulate`.

    Refuses corpora whose total emission count exceeds the guard.
    """
    if k not in (0, 1, 2, 3):
        raise LedgerError(f"order k must be in 0..3, got {k}")
    if refinement not in REFINEMENTS:
        raise LedgerError(f"unknown refinement {refinement!r}")
    s = k + 1
    emissions = sum(
        math.comb(len(r.keywords(refinement)), s) for r in corpus.iter_records()
    )
    if emissions > guard:
        raise LedgerError(
            f"corpus would emit {emissions} combinations, over the oracle "
            f"guard of {guard}"
        )
    series = LedgerSeries(k=k, refinement=refinement)
    years = corpus.years
    if not years:
        return series
    seen: set[tuple[int, ...]] = set()
    seen_kw: set[int] = set()
    for year in range(years[0], years[-1] + 1):
        records = corpus.records_in(year)
        debuts = {
            kid
            for r in records
            for kid in r.keywords(refinement)
            if kid not in seen_kw
        }
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
        peripheral = sum(
            1 for combo in year_new if any(kid in debuts for kid in combo)
        )
        seen.update(year_new)
        seen_kw.update(debuts)
        series.years.append(year)
        series.new_simplices.append(len(year_new))
        series.new_peripheral.append(peripheral)
        series.new_keywords.append(len(debuts))
        series.articles_processed.append(processed)
    return series
