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
hash sharded.  Each shard keeps the sorted set of every key it has seen, its
history.  At year end a single streaming pass steps the year's sorted unique
keys against that history and counts the keys it lacks, so tallies are exact
at scales far beyond memory and the result is identical for any shard count.
A history that fits the shard's share of the memory budget stays resident
in memory and the pass appends the year's new keys to the shard's log file;
once it outgrows the share, the pass writes it out as a sorted history file
and from then on writes each year's merged history as the next file.  A
manifest written after each completed year names every shard's file and its
committed key count, and allows restart from the last watermark.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import tempfile
from contextlib import AbstractContextManager, ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from simplexledger.corpus import ALL, REFINEMENTS, CorpusStore

SPILL_ENV_VAR = "SLEDGER_TMP"

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 4
_LOG_NAME = "log.bin"
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
    keywords, debuts, _ = corpus.debut_order(refinement)
    return dict(zip(keywords.tolist(), debuts.tolist()))


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
    """One hash partition and the sorted history of every key it has seen.

    The history is resident (a sorted array, persisted as the log of each
    year's new keys) while it fits ``share`` keys, and otherwise one sorted
    history file, rewritten in each year with new keys.  ``file`` names the
    log or the history file and ``keys`` counts the committed keys in it.
    """

    def __init__(
        self, directory: Path, frame_elems: int, share: int, file: str, keys: int
    ) -> None:
        self.directory = directory
        # Shards finish one at a time, so a year-end pass splits the whole
        # frame of frame_elems keys across its open file streams.
        self.frame_elems = frame_elems
        self.share = share
        self.file = file
        self.keys = keys
        self.resident: np.ndarray | None = None
        self.batch: list[np.ndarray] = []
        self.spills: list[Path] = []
        directory.mkdir(parents=True, exist_ok=True)
        # Drop files not in the committed state (partial year leftovers).
        for p in directory.iterdir():
            if p.name != file:
                p.unlink()
        if file == _LOG_NAME:
            # Keys past the committed count are an uncommitted year's.
            log = directory / file
            if log.exists():
                os.truncate(log, 8 * keys)
            # The log holds one sorted run per year; one sort rebuilds the set.
            self.resident = np.empty(0, dtype=np.uint64)
            if keys:
                self.resident = np.sort(np.fromfile(log, dtype=np.uint64))

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
        debuting id; None means no keyword debuts this year.  A resident
        history keeps the merged keys and appends the new ones to the log.
        A history file, or a resident history whose merged keys pass the
        share, is written whole to ``history_name``, which becomes this
        shard's file; the previous file is left for the caller to delete
        once the manifest names the new one.  A history file without new
        keys stays as it is.  Returns (new_count, new_peripheral).
        """
        tail = self._drain_batch()
        if not self.spills and not tail.size:
            return 0, 0
        resident = self.resident
        streams = len(self.spills) + (resident is None)
        elems = max(1, self.frame_elems // max(streams, 1))
        year_sources = [_iter_file(p, elems) for p in self.spills]
        if tail.size:
            year_sources.append(iter([tail]))
        if resident is None:
            hist_source = _iter_file(self.directory / self.file, elems)
        else:
            hist_source = iter([resident])
        new_count = 0
        peripheral = 0
        # A resident pass keeps the merged history and the new keys.
        kept: list[np.ndarray] = []
        fresh: list[np.ndarray] = []
        kept_size = 0
        tmp_path = self.directory / (history_name + ".tmp")
        with ExitStack() as files:
            out = None
            if resident is None:
                out = files.enter_context(open(tmp_path, "wb"))
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
                if out is not None:
                    merged.tofile(out)
                    continue
                kept.append(merged)
                fresh.append(new)
                kept_size += merged.size
                if kept_size > self.share:
                    # Outgrew the share: the history moves to a file for good.
                    out = files.enter_context(open(tmp_path, "wb"))
                    for chunk in kept:
                        chunk.tofile(out)
                    kept, fresh = [], []
        for p in self.spills:
            p.unlink(missing_ok=True)
        self.spills = []
        self.keys += new_count
        if out is None:
            if new_count:
                # The log ends at the committed count whenever a pass starts.
                with open(self.directory / _LOG_NAME, "ab") as log:
                    for chunk in fresh:
                        chunk.tofile(log)
                self.resident = np.concatenate(kept)
        elif new_count:
            os.replace(tmp_path, self.directory / history_name)
            self.file = history_name
            self.resident = None
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


def _committed_state_intact(ledger_dir: Path, manifest: dict) -> bool:
    """Whether every shard file holds at least its committed keys.

    A history file must hold exactly its committed keys; a log may hold
    more, the new keys of a year whose manifest was never written.
    """
    for i, shard in enumerate(manifest["shards"]):
        path = ledger_dir / f"shard{i:04d}" / shard["file"]
        size = path.stat().st_size if path.exists() else 0
        committed = 8 * shard["keys"]
        if size < committed or (shard["file"] != _LOG_NAME and size != committed):
            return False
    return True


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

    _, debuts, dense = corpus.debut_order(config.refinement)
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
        if (
            manifest is None
            or manifest.get("shard_count") != config.shard_count
            or not _committed_state_intact(ledger_dir, manifest)
        ):
            # Fresh start: clear any stale state.
            if ledger_dir.exists():
                shutil.rmtree(ledger_dir)
            ledger_dir.mkdir(parents=True)
            manifest = {
                "version": _MANIFEST_VERSION,
                "fingerprint": fingerprint,
                "shard_count": config.shard_count,
                "watermark": None,
                "shards": [{"file": _LOG_NAME, "keys": 0}] * config.shard_count,
                "rows": [],
            }

        # Half the budget is the year-end frame.  The other half holds the
        # resident histories, at most a quarter of the budget, and buffers
        # the year's keys in what they leave.
        frame_elems = config.memory_budget_bytes // 2 // 8
        share = config.memory_budget_bytes // 4 // 8 // config.shard_count
        shards = [
            _Shard(ledger_dir / f"shard{i:04d}", frame_elems, share, **state)
            for i, state in enumerate(manifest["shards"])
        ]

        rows = list(manifest["rows"])
        watermark = manifest["watermark"]
        all_years = list(range(corpus_years[0], corpus_years[-1] + 1))

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
            spill_threshold = config.memory_budget_bytes // 2 - sum(
                sh.resident.nbytes for sh in shards if sh.resident is not None
            )
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

            previous = [shard.file for shard in shards]
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
                watermark=year,
                rows=rows,
                shards=[{"file": sh.file, "keys": sh.keys} for sh in shards],
            )
            # Old files go only once the manifest names their successors.
            _write_manifest(manifest_path, manifest)
            for shard, old in zip(shards, previous):
                if old != shard.file:
                    (shard.directory / old).unlink(missing_ok=True)
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
