"""Exact first-occurrence ledger over order-k keyword combinations.

Per year, every article's keyword set is expanded into all combinations of
size k+1; a combination is new in year t iff it appears in some year-t
article and never earlier.  New combinations containing a keyword whose
debut year (under the same refinement) is t are classified peripheral, the
rest core.

The ledger reads the corpus through one `CorpusStore.view` per refinement:
the year index, and the CSR with its keyword ids renumbered in debut
order, so a new combination is peripheral iff its largest dense id debuted
in its first year.  A combination packs its dense ids into a key of w
bits, at most 64.  A combination's first year is the smallest year among
its emissions, so one pass over the emissions is enough.  B is fixed
before any work from the exact emission count E and the memory budget;
the result is identical for any B.

One sweep, `_batches`, emits the keys year by year, a range of a year's
articles at a time, and one count, `_count_words`, tallies words that
hold a key, or its hash, above a year index: `keep_first` keeps each
key's word of the smallest year.  When the keys fit one bucket (one
shard, 24 bytes of budget a key, and w + y <= 64 for the y bits of a year
index), the sweep's keys go into one array of E words, counted in memory
with no hash, log, manifest or spill directory, so a killed run counts
such a ledger again.

Otherwise one product with an odd multiplier mod 2^w hashes each key,
and B hash ranges, the buckets, split the keys so that each bucket fits
in memory.  The emission pass tags each hash with its year's index among
the years that hold articles, relative to the buffer's first year, in
the 64 - w bits below it, so one buffer may span several years.  It
flushes the buffer when the next batch would overflow it or would fall
2^(64-w) or more years past the buffer's first: sorted, each hash keeps
its smallest year, and the buffer is appended to one key log,
``keys.bin``, in one write; it is already grouped by bucket, and one row
of ``ends.bin`` records where each bucket's part of it ends.  After each
flush that follows the end of a year's emission, a manifest records the
flushes committed and the last year whose emission had ended, which
allows restart after that year; a resume emits that year's successor
from its start, so a flush inside a year waits for the next commit.  The
manifest holds resume state only, so its size does not grow with the
years.  The count pass then counts each bucket's parts of every flush.
Once every bucket is counted, the completing manifest write stores the
tallies over the years that hold articles while the log and its index
are deleted; the series spreads them over the calendar years, empty
years as zeros.  A spill directory given in the config belongs to the
caller, who deletes it; the ledger reads no environment variable.
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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from simplexledger.corpus import (
    ALL,
    REFINEMENTS,
    CorpusStore,
    replace_on_success,
    run_heads,
)

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 10
_LOG_NAME = "keys.bin"
_ENDS_NAME = "ends.bin"
_MIN_MEMORY_BUDGET = 1 << 16
_EMIT_CHUNK = 1 << 14  # keys per emission batch
_KEEP_CHUNK = 1 << 14  # words per step of `keep_first`'s compaction
_CENSUS_CHUNK = 1 << 12  # articles per step of the emission count
# Bytes of budget per key in the bucket pass, whose peak is about 11.2;
# with the log index block's quarter of the budget, 11.2/24 + 1/4 < 1.
# A ledger of E <= budget / 24 keys, one bucket, is counted in memory
# instead: its E words take 8 of the 24 bytes a key and `keep_first`
# about 11.2, while an emission batch's temporaries, at most about 150
# bytes a key where each article holds just k + 1 keywords, take at most
# 150 / _BATCH_BUDGET_PER_KEY of the budget beside the words.
_PASS_BYTES_PER_KEY = 24
# Bytes of budget per key of an in-memory emission batch.
_BATCH_BUDGET_PER_KEY = 512
# Bytes per calendar year of the finished series: its four int64 columns.
_BYTES_PER_YEAR = 32
# Each flush appends an index row of 8 bytes per bucket, and the bucket
# pass reads one part per bucket and flush.
_MAX_BUCKETS = 1 << 16
# 2^64 / phi rounded down: the top w bits, made odd, are the multiplier of
# Fibonacci hashing on w bits (Knuth, TAOCP vol. 3, 6.4).
_GOLDEN = 0x9E3779B97F4A7C15


class LedgerError(ValueError):
    """Raised for invalid configuration or unsupported input scale."""


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


# --- keys and words --------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """How one ledger's keys become the words of its log.

    A key packs s dense ids of ``bits`` bits each, w = s * bits bits in
    all, its largest id in the low bits, and its hash is its product with
    the odd ``multiplier`` mod 2^w, a bijection on w bits.  Bucket i holds
    the hashes in [ceil(i 2^w / B), ceil((i+1) 2^w / B)).  A key's word is
    its hash shifted left over the y bits of its year index; the shift
    drops the hash's top w + y - 64 bits, if any, so the words of one
    bucket stay distinct only when no range spans more than 2^(64-y)
    hashes.  The low bits of a product depend only on the low bits of its
    factors, so the hash's low ``bits`` bits, times the multiplier's
    inverse mod 2^bits, give back the largest id.  The word keeps them:
    s >= 2 gives bits <= 32, and int32 years give y <= 32, so
    bits <= 64 - y.  A buffered word holds the hash above r = 64 - w bits
    of its year index less the buffer's first, so a buffer spans at most
    2^r years.
    """

    bits: int
    width: int
    year_bits: int
    years: int

    @classmethod
    def of(cls, n_keywords: int, s: int, years: int) -> _Layout:
        """The layout of s dense ids from ``n_keywords``, over ``years``;
        raises unless a key of them fits 64 bits."""
        bits = max(1, (n_keywords - 1).bit_length())
        if s * bits > 64:
            raise LedgerError(
                f"{n_keywords} distinct keywords exceed the {64 // s}-bit "
                f"capacity ({1 << (64 // s)} keywords) for combinations of size {s}"
            )
        return cls(bits, s * bits, (years - 1).bit_length(), years)

    @property
    def span_bits(self) -> int:
        """r, the bits of a buffered word below its hash."""
        return 64 - self.width

    @property
    def year_dtype(self) -> np.dtype:
        """The smallest dtype of a year index, and so of a buffered tag."""
        return np.min_scalar_type(self.years - 1)

    @property
    def multiplier(self) -> int:
        """A_w, the odd number nearest 2^w / phi."""
        return (_GOLDEN >> (64 - self.width)) | 1

    @property
    def min_buckets(self) -> int:
        """The fewest buckets whose ranges each span at most 2^(64-y), so
        that each bucket's words, which keep a hash's low 64 - y bits, are
        as distinct as its hashes."""
        return 1 << max(0, self.width + self.year_bits - 64)

    def starts(self, buckets: int) -> np.ndarray:
        """Each bucket's smallest hash."""
        width = self.width
        return np.array(
            [-(-(i << width) // buckets) for i in range(buckets)], dtype=np.uint64
        )


def keep_first(
    words: np.ndarray, tag_bits: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``words``, each a value above ``tag_bits`` bits of tag, and keep
    each value's first word, whose tag is the smallest: the kept values move
    to the front of ``words``, in order and in place, so that no copy of
    them all is made.  Returns that front and the kept tags, as ``dtype``."""
    words.sort()
    tags = np.empty(words.size, dtype=dtype)
    np.bitwise_and(words, np.uint64((1 << tag_bits) - 1), out=tags, casting="unsafe")
    words >>= np.uint64(tag_bits)
    heads = run_heads(words)
    n = 0
    for start in range(0, words.size, _KEEP_CHUNK):
        kept = words[start : start + _KEEP_CHUNK][heads[start : start + _KEEP_CHUNK]]
        words[n : n + kept.size] = kept
        n += kept.size
    return words[:n], tags[heads]


def _pack(rows: np.ndarray, idx: np.ndarray, bits: int) -> np.ndarray:
    """Pack the combinations ``idx``, (c, s) column indices, of each
    ascending id row of ``rows``, (n, m), into (n, c) keys of ``bits`` bits
    per id.  One column of ids is gathered at a time."""
    keys = rows[:, idx[:, 0]].astype(np.uint64)
    for col in range(1, idx.shape[1]):
        keys <<= np.uint64(bits)
        keys |= rows[:, idx[:, col]]
    return keys


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


def _ranges(
    year_starts: np.ndarray, size: int, done: int = 0
) -> Iterator[tuple[int, int, int]]:
    """Each year index from ``done`` on, with each range lo..hi-1 of at
    most ``size`` of its articles."""
    bounds = year_starts.tolist()
    for tag in range(done, len(bounds) - 1):
        for lo in range(bounds[tag], bounds[tag + 1], size):
            yield tag, lo, min(lo + size, bounds[tag + 1])


def _batches(
    view: tuple[np.ndarray, ...], s: int, bits: int, batch_keys: int, done: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """Packed keys for all size-s combinations of a `CorpusStore.view`'s
    articles, year by year from year index ``done`` on.

    A year's articles are taken ``batch_keys`` at a time, and grouped by
    keyword count m within each range, so that one gather builds a batch's
    (articles, m) id matrix and, once each row is sorted, `_pack` its
    combinations' keys.  Yields each batch's year index and keys.  A batch
    holds at most ``batch_keys`` keys, unless a single article has more
    combinations.
    """
    _, year_starts, offsets, ids, _, _ = view
    for tag, lo, hi in _ranges(year_starts, batch_keys, done):
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
                yield tag, _pack(rows, idx, bits).ravel()


def _census(view: tuple[np.ndarray, ...], s: int) -> tuple[int, np.ndarray]:
    """The exact number of size-s combinations over all articles, and each
    year's count of articles with at least s keywords, from one pass over
    the offsets a range of articles at a time."""
    _, year_starts, offsets, _, _, _ = view
    emissions = 0
    processed = np.zeros(year_starts.size - 1, dtype=np.int64)
    for tag, lo, hi in _ranges(year_starts, _CENSUS_CHUNK):
        sizes = np.bincount(offsets[lo + 1 : hi + 1] - offsets[lo:hi]).tolist()
        emissions += sum(math.comb(m, s) * n for m, n in enumerate(sizes))
        processed[tag] += sum(sizes[s:])
    return emissions, processed


# --- the key log -----------------------------------------------------------


def _bucket_count(emissions: int, layout: _Layout, config: LedgerConfig) -> int:
    """The run's bucket count: at least ``shard_count`` and the layout's
    floor, and enough that the bucket pass over one bucket's share of every
    emission fits the budget."""
    needed = -(-_PASS_BYTES_PER_KEY * emissions // config.memory_budget_bytes)
    buckets = max(config.shard_count, needed, layout.min_buckets)
    if buckets > _MAX_BUCKETS:
        raise LedgerError(
            f"{emissions} combinations over {layout.years} years need "
            f"{buckets} buckets at memory_budget_bytes="
            f"{config.memory_budget_bytes}, over the limit of {_MAX_BUCKETS}"
        )
    return buckets


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


def _check_disk(
    root: str | os.PathLike | None, log_bytes: int, index_bytes: int
) -> None:
    """Raise unless the file system holding ``root``, which need not exist
    yet, or ``$TMPDIR`` when it is None, has room for the log and index
    bounds."""
    path = Path(tempfile.gettempdir() if root is None else root).absolute()
    while not path.exists():
        path = path.parent
    free = shutil.disk_usage(path).free
    if log_bytes + index_bytes > free:
        raise LedgerError(
            f"the ledger may spill {log_bytes + index_bytes} bytes "
            f"({log_bytes} of keys, {index_bytes} of index), but {path} has "
            f"{free} bytes free"
        )


def _append(fd: int, words: np.ndarray) -> None:
    """Append ``words`` in one write; only a write past 2 GiB takes more."""
    view = memoryview(words).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _read_into(fd: int, view: memoryview, offset: int) -> None:
    """Fill the bytes of ``view`` from ``fd`` at byte ``offset``."""
    while view:
        got = os.preadv(fd, [view], offset)
        if not got:
            raise LedgerError("a spill file is shorter than its committed state")
        view, offset = view[got:], offset + got


def _flush(
    buffer: list[np.ndarray],
    log: int,
    index: int,
    layout: _Layout,
    starts: np.ndarray,
    first: int,
    end: int,
) -> int:
    """Append the buffered words to the log as one sorted slice that keeps
    each hash's word of the smallest year, and its bucket ends to the index.

    A buffered word holds a hash above the r bits of its year index less
    ``first``; the written one is tagged with its year index.  Empties
    ``buffer``.  ``end`` is the log's length in words before the append;
    returns its length after.
    """
    words = np.concatenate(buffer) if len(buffer) > 1 else buffer[0]
    buffer.clear()
    keys, year = keep_first(words, layout.span_bits, layout.year_dtype)
    row = np.empty(starts.size, dtype=np.int64)
    row[:-1] = np.searchsorted(keys, starts[1:])
    row[-1] = keys.size
    row += end
    keys <<= np.uint64(layout.year_bits)
    keys |= year
    keys += np.uint64(first)
    _append(log, keys)
    _append(index, row)
    return end + keys.size


def _index_block(
    index: int, flushes: int, buckets: int, first: int, count: int
) -> np.ndarray:
    """Where buckets ``first`` to ``first + count - 1`` lie in each flush.

    Row f holds index entries f * B + first - 1 onwards, so that bucket
    ``first + j``'s part of flush f is log words ``[f, j]:[f, j + 1]``: a
    part starts where the entry before its end says, the log's first at 0.
    """
    block = np.zeros((flushes, count + 1), dtype=np.int64)
    view = memoryview(block).cast("B")
    row = 8 * (count + 1)
    for f in range(flushes):
        at = 8 * (f * buckets + first - 1)
        skip = 8 if at < 0 else 0
        _read_into(index, view[f * row + skip : (f + 1) * row], at + skip)
    return block


def _count_bucket(
    log: int,
    begins: np.ndarray,
    ends: np.ndarray,
    layout: _Layout,
    debut_index: np.ndarray,
    bucket: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral key counts of bucket ``bucket``, whose
    part of flush f is log words ``begins[f]:ends[f]``.  Each array is
    dropped once used, which holds the peak near 11 bytes per word."""
    sizes = ends - begins
    words = np.empty(int(sizes.sum()), dtype=np.uint64)
    view = memoryview(words).cast("B")
    at = 0
    for begin, size in zip((8 * begins).tolist(), (8 * sizes).tolist()):
        if size:
            _read_into(log, view[at : at + size], begin)
            at += size
    mismatch = f"bucket {bucket} of the key log does not match its manifest"
    return _count_words(words, layout, layout.multiplier, debut_index, mismatch)


def _count_words(
    words: np.ndarray,
    layout: _Layout,
    multiplier: int,
    debut_index: np.ndarray,
    mismatch: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral counts of ``words``, each a key's product
    with the odd ``multiplier`` mod 2^w above the y bits of a year index.

    `keep_first` keeps each key's word of its first year.  The product's
    low ``bits`` times the multiplier's inverse are the key's: its largest
    dense id, which debuted last among its keywords.  A key is peripheral
    when that id debuted in its first year; an id past ``debut_index``,
    each id's debut as a year index, raises ``mismatch``.  `np.bincount`
    copies its input as intp, so the keys are counted a chunk at a time.
    """
    keys, year = keep_first(words, layout.year_bits, layout.year_dtype)
    keys *= np.uint64(pow(multiplier, -1, 1 << layout.bits))
    keys &= np.uint64((1 << layout.bits) - 1)
    if keys.max(initial=0) >= debut_index.size:
        raise LedgerError(mismatch)
    new = np.zeros(layout.years, dtype=np.int64)
    peripheral = np.zeros(layout.years, dtype=np.int64)
    for start in range(0, year.size, _KEEP_CHUNK):
        first = year[start : start + _KEEP_CHUNK]
        new += np.bincount(first, minlength=layout.years)
        debuted = debut_index[keys[start : start + _KEEP_CHUNK]] == first
        peripheral += np.bincount(first[debuted], minlength=layout.years)
    return new, peripheral


def _count_log(
    ledger_dir: Path,
    layout: _Layout,
    buckets: int,
    flushes: int,
    debut_index: np.ndarray,
    index_bytes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral key counts of the first ``flushes``
    flushes of the ledger's log, one bucket of ``buckets`` at a time.

    The index is read a block of buckets at a time, one read per flush,
    each block in at most ``index_bytes``.
    """
    new = np.zeros(layout.years, dtype=np.int64)
    peripheral = np.zeros(layout.years, dtype=np.int64)
    # No flush is made when no article has k + 1 keywords.
    if not flushes:
        return new, peripheral
    block = max(1, min(buckets, index_bytes // (8 * flushes) - 1))
    with open(ledger_dir / _LOG_NAME, "rb", buffering=0) as log_file, open(
        ledger_dir / _ENDS_NAME, "rb", buffering=0
    ) as index_file:
        log, index = log_file.fileno(), index_file.fileno()
        for first in range(0, buckets, block):
            count = min(block, buckets - first)
            parts = _index_block(index, flushes, buckets, first, count)
            for j in range(count):
                begins, ends = parts[:, j], parts[:, j + 1]
                if (ends != begins).any():
                    n, p = _count_bucket(
                        log, begins, ends, layout, debut_index, first + j
                    )
                    new += n
                    peripheral += p
    return new, peripheral


# --- one bucket, in memory -------------------------------------------------


def _count_in_memory(
    view: tuple[np.ndarray, ...],
    s: int,
    layout: _Layout,
    emissions: int,
    batch_keys: int,
    debut_index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral key counts of a ledger whose keys fit
    one bucket, counted in memory.

    Every key of the sweep, `_batches`, is written above the y bits of its
    year index into one array of exactly ``emissions`` words; one bucket
    implies w + y <= 64, so no bit is lost.  The keys are not hashed, so
    their multiplier is 1.
    """
    words = np.empty(emissions, dtype=np.uint64)
    y = np.uint64(layout.year_bits)
    end = 0
    for tag, keys in _batches(view, s, layout.bits, batch_keys):
        block = words[end : end + keys.size]
        np.left_shift(keys, y, out=block)
        block |= np.uint64(tag)
        end += keys.size
    mismatch = "an emitted key holds an id past the keywords"
    return _count_words(words, layout, 1, debut_index, mismatch)


def _stored_series(
    years: np.ndarray,
    processed: np.ndarray,
    new: np.ndarray,
    peripheral: np.ndarray,
    debut_index: np.ndarray,
) -> dict:
    """The series' tallies over the years that hold articles, as lists;
    raises unless each year's peripheral count lies in 0..new."""
    bad = np.flatnonzero((peripheral < 0) | (peripheral > new))
    if bad.size:
        i = int(bad[0])
        raise LedgerError(
            f"{peripheral[i]} peripheral of {new[i]} new combinations in {years[i]}"
        )
    tallies = [new, peripheral, np.bincount(debut_index, minlength=new.size), processed]
    return {
        "years": years.tolist(),
        **{name: t.tolist() for name, t in zip(SERIES_COLUMNS, tallies)},
    }


# --- manifest --------------------------------------------------------------


def _fingerprint(corpus_digest: str, config: LedgerConfig) -> str:
    payload = json.dumps(
        {"corpus": corpus_digest, "k": config.k, "refinement": config.refinement}
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


def _restore(ledger_dir: Path, manifest: dict) -> int | None:
    """Cut ``ends.bin`` and ``keys.bin`` back to the committed flushes.

    Returns the log's committed length in words, or None when a file is
    shorter than its committed state, so that the ledger starts fresh.
    Bytes past the committed state are an uncommitted flush's.
    """
    flushes = manifest["flushes"]
    sizes = _keep_only(ledger_dir, {_MANIFEST_NAME, _ENDS_NAME, _LOG_NAME})
    ends_path, log_path = ledger_dir / _ENDS_NAME, ledger_dir / _LOG_NAME
    committed = 8 * manifest["buckets"] * flushes
    if sizes.get(_ENDS_NAME, 0) < committed:
        return None
    if sizes.get(_ENDS_NAME, 0) > committed:
        os.truncate(ends_path, committed)
    end = 0
    if flushes:
        end = int(np.fromfile(ends_path, np.int64, count=1, offset=committed - 8)[0])
    if sizes.get(_LOG_NAME, 0) < 8 * end:
        return None
    if sizes.get(_LOG_NAME, 0) > 8 * end:
        os.truncate(log_path, 8 * end)
    return end


def _open(ledger_dir: Path, fingerprint: str, buckets: int) -> tuple[dict, int]:
    """The ledger's manifest and its log's committed length in words.  An
    incomplete manifest resumes through ``_restore`` if it records at least
    ``buckets``, since more buckets only makes each smaller; otherwise the
    directory is emptied for a fresh one."""
    manifest = _load_manifest(ledger_dir / _MANIFEST_NAME, fingerprint)
    if manifest is not None and manifest["complete"]:
        return manifest, 0
    if manifest is not None and manifest["buckets"] >= buckets:
        end = _restore(ledger_dir, manifest)
        if end is not None:
            return manifest, end
    shutil.rmtree(ledger_dir)
    ledger_dir.mkdir(parents=True)
    fresh = {
        "version": _MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "buckets": buckets,
        "watermark": None,
        "flushes": 0,
        "complete": False,
    }
    return fresh, 0


# --- tabulate --------------------------------------------------------------


def _workdir(config: LedgerConfig) -> AbstractContextManager:
    """The spill root: the caller's, which it owns and keeps, or else a
    temporary directory under ``$TMPDIR``, removed when the context exits."""
    if config.spill_directory is not None:
        return nullcontext(config.spill_directory)
    return tempfile.TemporaryDirectory(prefix="sledger-")


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


def _emission_pass(
    view: tuple[np.ndarray, ...],
    s: int,
    layout: _Layout,
    starts: np.ndarray,
    buffer_keys: int,
    ledger_dir: Path,
    manifest: dict,
    end: int,
) -> None:
    """Flush the keys of the years after the manifest's watermark to the
    log, and commit each year once its emission has ended and a flush, or
    the sweep's end, follows.  The keys of size-``s`` combinations come
    from a `CorpusStore.view`; ``starts`` are the buckets' smallest hashes,
    and ``end`` is the log's committed length."""
    years = view[0]
    # A batch of a quarter of the buffer keeps what a flush holds beside
    # the buffer, the pending batch and its temporaries, small.
    batch_keys = min(_EMIT_CHUNK, buffer_keys // 4)
    multiplier = np.uint64(layout.multiplier)
    span = 1 << layout.span_bits
    # The years up to the watermark are committed.
    watermark = manifest["watermark"]
    done = 0 if watermark is None else int(np.searchsorted(years, watermark, "right"))
    emitted = _batches(view, s, layout.bits, batch_keys, done)
    buffer: list[np.ndarray] = []
    buffered = head = 0
    with open(ledger_dir / _LOG_NAME, "ab", buffering=0) as log_file, open(
        ledger_dir / _ENDS_NAME, "ab", buffering=0
    ) as index_file:
        log, index = log_file.fileno(), index_file.fileno()
        # Each batch with its year index, then the end of the sweep.
        for tag, keys in itertools.chain(emitted, [(len(years), None)]):
            flushing = bool(buffer) and (
                keys is None or buffered + keys.size > buffer_keys or tag - head >= span
            )
            if flushing:
                end = _flush(buffer, log, index, layout, starts, head, end)
                manifest["flushes"] += 1
                buffered = 0
            # A resume emits the year after the watermark from its start,
            # so a flush inside that year waits for the next commit.
            if (flushing or keys is None) and tag > done:
                manifest["watermark"] = int(years[tag - 1])
                _write_manifest(ledger_dir / _MANIFEST_NAME, manifest)
                done = tag
            if keys is None:
                break
            if not buffer:
                head = tag
            # The hash: the product's bits above w shift out.
            keys *= multiplier
            keys <<= np.uint64(layout.span_bits)
            keys |= np.uint64(tag - head)
            buffer.append(keys)
            buffered += keys.size


def tabulate(corpus: CorpusStore, config: LedgerConfig) -> LedgerSeries:
    """Tally first occurrences exactly, per year.

    One pass over the article offsets, `_census`, counts the keys, which
    fix the form, and each year's processed articles.  A ledger whose keys
    fit one bucket is counted in memory and writes nothing: no spill
    directory, log or manifest, so a killed run counts it again.  Otherwise
    the sweep of the years, `_batches`, goes into the key log, which resumes
    after the manifest's year watermark when ``config.spill_directory``
    already holds state for the same corpus and configuration, and with at
    least as many buckets as this configuration needs.  Without a spill
    directory it works in a temporary directory
    under ``$TMPDIR`` and removes it.  The emission pass commits a year's
    keys with the first flush after its last batch, or, for trailing years
    without keys, at the end of the sweep; then the count pass tallies the
    committed log.  If a kill lands while a year is only partly in a
    committed flush, the resume emits that year again; the repeated words
    are harmless, since the bucket pass keeps one word per hash.
    """
    s = config.k + 1
    view = corpus.view(config.refinement)
    years, _, _, _, _, debuts = view
    if not years.size:
        return LedgerSeries(k=config.k, refinement=config.refinement)
    _check_span(int(years[0]), int(years[-1]), config)

    layout = _Layout.of(debuts.size, s, years.size)
    emissions, processed = _census(view, s)
    buckets = _bucket_count(emissions, layout, config)
    debut_index = debuts.astype(layout.year_dtype)
    if buckets == 1:
        batch_keys = config.memory_budget_bytes // _BATCH_BUDGET_PER_KEY
        new, peripheral = _count_in_memory(
            view, s, layout, emissions, min(_EMIT_CHUNK, batch_keys), debut_index
        )
        stored = _stored_series(years, processed, new, peripheral, debut_index)
        return _spread(config, stored)

    # A quarter of the budget buffers keys; a flush's copies of them fit in
    # the rest.  A flush made because the next batch would overflow the
    # buffer holds, with that batch, more than a buffer of keys, so fewer
    # than 2 E / buffer are made so.  One made because the next batch falls
    # 2^r years past the buffer's first starts the next buffer 2^r years on,
    # so these and the sweep's last flush number at most ceil(years / 2^r).
    buffer_keys = config.memory_budget_bytes // 4 // 8
    flush_bound = -(-2 * emissions // buffer_keys) + -(
        -years.size >> layout.span_bits
    )
    _check_disk(config.spill_directory, 8 * emissions, 8 * buckets * flush_bound)

    with _workdir(config) as workdir:
        ledger_dir = Path(workdir) / f"k{config.k}" / config.refinement
        try:
            ledger_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise LedgerError(f"spill directory unwritable: {exc}") from exc

        fingerprint = _fingerprint(corpus.digest(), config)
        manifest, end = _open(ledger_dir, fingerprint, buckets)
        if not manifest["complete"]:
            starts = layout.starts(manifest["buckets"])
            _emission_pass(
                view, s, layout, starts, buffer_keys, ledger_dir, manifest, end
            )
            # The bucket pass only reads committed files; a resume after a
            # kill inside it runs it again.
            new, peripheral = _count_log(
                ledger_dir,
                layout,
                manifest["buckets"],
                manifest["flushes"],
                debut_index,
                # A bucket's pass takes about 11 / 24 of the budget.
                config.memory_budget_bytes // 4,
            )
            manifest["series"] = _stored_series(
                years, processed, new, peripheral, debut_index
            )
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
