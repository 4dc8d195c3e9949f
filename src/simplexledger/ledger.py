"""Exact first-occurrence ledger over order-k keyword combinations.

Per year, every article's keyword set is expanded into all combinations of
size k+1; a combination is new in year t iff it appears in some year-t
article and never earlier.  New combinations containing a keyword whose
debut year (under the same refinement) is t are classified peripheral, the
rest core.

Keyword ids are renumbered per refinement in debut order, so a new
combination is peripheral iff its largest dense id debuted in its first
year.  Combinations are packed into 64-bit keys.  A combination's first year
is the smallest year among its emissions, so one pass over the emissions is
enough.  The emission pass deduplicates each buffer of keys and appends it,
split by hash, to B bucket files; after each year it records every bucket's
key count in ``ends.bin`` and writes a manifest that allows restart from
that year.  The bucket pass then sorts one bucket at a time and takes each
key's smallest year, which the recorded counts give for every position.  B
is fixed before any work from the exact emission count and the memory
budget, so that every bucket fits in memory; the result is identical for
any B.  Once every bucket is counted, the manifest holds the tallies and the
bucket files are deleted.  A spill directory given in the config belongs
to the caller, who deletes it; the ledger reads no environment variable.
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

from simplexledger.corpus import ALL, REFINEMENTS, CorpusStore, run_heads

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 5
_ENDS_NAME = "ends.bin"
_MIN_MEMORY_BUDGET = 1 << 16
_EMIT_CHUNK = 1 << 18  # keys per emission batch
# Bytes of budget per key in the bucket pass, whose peak is about 24.
_PASS_BYTES_PER_KEY = 32
# Bucket ids are routed as uint16.
_MAX_BUCKETS = 1 << 16
_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT

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
                f"minimum merge frame; need at least {_MIN_MEMORY_BUDGET} bytes"
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
    """splitmix64 finalizer; balances bucket assignment."""
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
    offsets: np.ndarray, ids: np.ndarray, lo: int, hi: int, s: int, batch_keys: int
) -> Iterator[np.ndarray]:
    """Packed keys for all size-s combinations of articles lo..hi-1.

    Articles are grouped by keyword count m, so that one gather builds a
    batch's (articles, m) id matrix and, once each row is sorted, another
    its combinations.  A batch holds at most ``batch_keys`` keys, unless a
    single article has more combinations.
    """
    starts = offsets[lo:hi]
    counts = offsets[lo + 1 : hi + 1] - starts
    for m in (np.flatnonzero(np.bincount(counts)[s:]) + s).tolist():
        group = starts[counts == m]
        idx = _comb_indices(m, s)
        batch = max(1, batch_keys // len(idx))
        columns = np.arange(m)
        for start in range(0, group.size, batch):
            rows = ids[group[start : start + batch, None] + columns]
            rows.sort(axis=1)
            yield _pack(rows[:, idx].reshape(-1, s), s)


# --- bucket files ----------------------------------------------------------


def _bucket_name(i: int) -> str:
    return f"b{i:05d}.bin"


def _bucket_count(offsets: np.ndarray, s: int, config: LedgerConfig) -> int:
    """The run's bucket count: at least ``shard_count``, and enough that the
    bucket pass over one bucket's share of every emission fits the budget."""
    sizes = np.bincount(np.diff(offsets)).tolist()
    emissions = sum(math.comb(m, s) * n for m, n in enumerate(sizes))
    needed = -(-_PASS_BYTES_PER_KEY * emissions // config.memory_budget_bytes)
    buckets = max(config.shard_count, needed)
    if buckets > _MAX_BUCKETS:
        raise LedgerError(
            f"{emissions} combinations need {buckets} buckets at "
            f"memory_budget_bytes={config.memory_budget_bytes}, over the "
            f"limit of {_MAX_BUCKETS}; raise the budget"
        )
    return buckets


def _flush(buffer: list[np.ndarray], directory: str, filled: np.ndarray) -> None:
    """Append the buffered keys, sorted and deduplicated, to their buckets.

    Empties ``buffer``.  Each bucket's slice is one append to a file opened
    for it alone, so no bucket file stays open whatever the bucket count.
    ``filled`` counts the keys in each bucket file and gains the appended
    ones.
    """
    keys = np.concatenate(buffer) if len(buffer) > 1 else buffer[0]
    buffer.clear()
    keys.sort()
    keys = keys[run_heads(keys)]
    route = _mix64(keys)
    route %= np.uint64(filled.size)
    route = route.astype(np.uint16)
    counts = np.bincount(route, minlength=filled.size)
    # numpy sorts 16-bit keys stably by radix sort, in linear time.
    keys = keys[route.argsort(kind="stable")]
    del route
    view = keys.data
    stop = 0
    for i, size in enumerate(counts.tolist()):
        if size:
            start, stop = stop, stop + size
            path = f"{directory}/{_bucket_name(i)}"
            fd = os.open(path, _APPEND, 0o666)
            try:
                # A regular file takes a short write only when it is full.
                if os.write(fd, view[start:stop]) != 8 * size:
                    raise OSError(f"short write to {path}")
            finally:
                os.close(fd)
    filled += counts


def _count_bucket(
    path: Path, lengths: np.ndarray, debut_index: np.ndarray, mask: np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral key counts of one bucket file.

    ``lengths`` holds the bucket's committed keys of each year, and
    ``debut_index`` each dense keyword's debut as a year index.  Sorting
    the keys brings each key's copies together; the smallest year among
    them is its first.  Each array is dropped once used, which holds the
    peak near 24 bytes per key.
    """
    keys = np.fromfile(path, dtype=np.uint64, count=int(lengths.sum()))
    perm = keys.argsort()
    keys = keys[perm]
    index = np.arange(lengths.size, dtype=np.min_scalar_type(lengths.size))
    year = np.repeat(index, lengths)[perm]
    del perm
    heads = run_heads(keys)
    uniq = keys[heads]
    del keys
    year = np.minimum.reduceat(year, np.flatnonzero(heads))
    del heads
    new = np.bincount(year, minlength=lengths.size)
    # The largest dense id of a key debuted last among its keywords.
    uniq &= mask
    peripheral = debut_index[uniq] == year
    del uniq
    return new, np.bincount(year[peripheral], minlength=lengths.size)


# --- manifest --------------------------------------------------------------


def _fingerprint(corpus_digest: str, config: LedgerConfig) -> str:
    payload = json.dumps(
        {"corpus": corpus_digest, "k": config.k, "refinement": config.refinement}
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` in one step: a kill leaves the old file
    or the new one, never a torn one."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_manifest(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, separators=(",", ":")))


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


def _restore(ledger_dir: Path, manifest: dict) -> np.ndarray | None:
    """Cut ``ends.bin`` and the bucket files back to the committed years.

    Returns each bucket's committed key count, or None when a file is
    shorter than its committed state, so that the ledger starts fresh.
    Bytes past the committed state are an uncommitted year's.
    """
    buckets, years = manifest["buckets"], len(manifest["rows"])
    names = [_bucket_name(i) for i in range(buckets)]
    sizes = _keep_only(ledger_dir, {_MANIFEST_NAME, _ENDS_NAME, *names})
    ends_path = ledger_dir / _ENDS_NAME
    committed = 8 * buckets * years
    if sizes.get(_ENDS_NAME, 0) < committed:
        return None
    filled = np.zeros(buckets, dtype=np.int64)
    if years:
        os.truncate(ends_path, committed)
        filled = np.fromfile(
            ends_path, dtype=np.int64, count=buckets, offset=committed - 8 * buckets
        )
    for name, keys in zip(names, filled.tolist()):
        size = sizes.get(name, 0)
        if size < 8 * keys:
            return None
        if size > 8 * keys:
            os.truncate(ledger_dir / name, 8 * keys)
    return filled


# --- tabulate --------------------------------------------------------------


def _workdir(config: LedgerConfig) -> AbstractContextManager:
    """The spill root: the caller's, which it owns and keeps, or else a
    temporary directory under ``$TMPDIR``, removed when the context exits."""
    if config.spill_directory is not None:
        return nullcontext(config.spill_directory)
    return tempfile.TemporaryDirectory(prefix="sledger-")


def tabulate(
    corpus: CorpusStore,
    config: LedgerConfig,
    progress_callback: Callable[[int], None] | None = None,
) -> LedgerSeries:
    """Sweep years ascending, tallying first occurrences exactly.

    Resumes from the manifest's year watermark when
    ``config.spill_directory`` already holds state for the same corpus and
    configuration, and with at least as many buckets as this configuration
    needs.  Without a spill directory it works in a temporary directory
    under ``$TMPDIR`` and removes it.  The optional callback fires after
    each year's keys are durably committed.
    """
    s = config.k + 1
    series = LedgerSeries(k=config.k, refinement=config.refinement)
    corpus_years = corpus.years
    if not corpus_years:
        return series

    _, debuts, dense = corpus.debut_order(config.refinement)
    _check_capacity(debuts.size, s)
    _, offsets, _ = corpus.csr(config.refinement)
    buckets = _bucket_count(offsets, s, config)
    mask = np.uint64((1 << _ARITY_BITS[s]) - 1)
    all_years = list(range(corpus_years[0], corpus_years[-1] + 1))

    with _workdir(config) as workdir:
        ledger_dir = Path(workdir) / f"k{config.k}" / config.refinement
        try:
            ledger_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise LedgerError(f"spill directory unwritable: {exc}") from exc

        fingerprint = _fingerprint(corpus.digest(), config)
        manifest_path = ledger_dir / _MANIFEST_NAME
        ends_path = ledger_dir / _ENDS_NAME
        manifest = _load_manifest(manifest_path, fingerprint)
        filled = None
        if manifest is not None and not manifest["complete"]:
            # More buckets than needed only makes each smaller, so a resume
            # keeps the recorded count unless this budget needs more.
            if manifest["buckets"] >= buckets:
                buckets = manifest["buckets"]
                filled = _restore(ledger_dir, manifest)
            if filled is None:
                manifest = None
        if manifest is None:
            shutil.rmtree(ledger_dir)
            ledger_dir.mkdir(parents=True)
            manifest = {
                "version": _MANIFEST_VERSION,
                "fingerprint": fingerprint,
                "buckets": buckets,
                "watermark": None,
                "rows": [],
                "complete": False,
            }
            filled = np.zeros(buckets, dtype=np.int64)

        rows = manifest["rows"]
        if not manifest["complete"]:
            # A quarter of the budget buffers keys; a flush's copies of them
            # fit in the rest.
            buffer_keys = config.memory_budget_bytes // 4 // 8
            batch_keys = min(_EMIT_CHUNK, buffer_keys)
            directory = str(ledger_dir)
            watermark = manifest["watermark"]
            for year in all_years:
                if watermark is not None and year <= watermark:
                    continue
                lo, hi = corpus.year_range(year)
                buffer: list[np.ndarray] = []
                buffered = 0
                for keys in _emit_year_keys(offsets, dense, lo, hi, s, batch_keys):
                    if buffered + keys.size > buffer_keys and buffer:
                        _flush(buffer, directory, filled)
                        buffered = 0
                    buffer.append(keys)
                    buffered += keys.size
                if buffer:
                    _flush(buffer, directory, filled)
                with open(ends_path, "ab") as f:
                    f.write(filled.data)
                first, last = np.searchsorted(debuts, (year, year + 1)).tolist()
                rows.append(
                    {
                        "year": year,
                        "new_keywords": last - first,
                        "articles_processed": corpus.articles_with_at_least(
                            s, config.refinement, year
                        ),
                    }
                )
                manifest.update(watermark=year, rows=rows)
                _write_manifest(manifest_path, manifest)
                if progress_callback is not None:
                    progress_callback(year)

            # The bucket pass only reads committed files; a resume after a
            # kill inside it runs it again.
            ends = np.fromfile(ends_path, dtype=np.int64, count=len(rows) * buckets)
            ends = ends.reshape(len(rows), buckets)
            lengths = np.diff(ends, axis=0, prepend=0).T.copy()
            debut_index = debuts - all_years[0]
            new = np.zeros(len(rows), dtype=np.int64)
            peripheral = np.zeros(len(rows), dtype=np.int64)
            for i in np.flatnonzero(ends[-1]).tolist():
                n, p = _count_bucket(
                    ledger_dir / _bucket_name(i), lengths[i], debut_index, mask
                )
                new += n
                peripheral += p
            for row, n, p in zip(rows, new.tolist(), peripheral.tolist()):
                row.update(new_simplices=n, new_peripheral=p)
            manifest.update(rows=rows, complete=True)
            _write_manifest(manifest_path, manifest)
        _keep_only(ledger_dir, {_MANIFEST_NAME})

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
