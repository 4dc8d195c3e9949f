"""Exact first-occurrence ledger over order-k keyword combinations.

Per year, every article's keyword set is expanded into all combinations of
size k+1; a combination is new in year t iff it appears in some year-t
article and never earlier.  New combinations containing a keyword whose
debut year (under the same refinement) is t are classified peripheral, the
rest core.

Keyword ids are renumbered per refinement in debut order, so a new
combination is peripheral iff its largest dense id debuted in its first
year.  A combination packs its dense ids into a key of w bits, which a
bijection on w bits hashes; B hash ranges, the buckets, split the keys so
that each bucket fits in memory.  A combination's first year is the
smallest year among its emissions, so one pass over the emissions is
enough.  The emission pass tags each hash with its year's index among the
years that hold articles, relative to the buffer's first year, in the
64 - w bits below it, so one buffer may span several years.  It flushes
the buffer when the next batch would overflow it or would fall 2^(64-w)
or more years past the buffer's first: sorted, each hash keeps its
smallest year, and the buffer is appended to one key log, ``keys.bin``,
in one write; it is already grouped by bucket, and one row of
``ends.bin`` records where each bucket's part of it ends.  After each
flush that follows the end of a year's emission, a manifest records the
flushes committed and the last year whose emission had ended, which
allows restart after that year; a resume emits that year's successor from
its start, so a flush inside a year waits for the next commit.  The
manifest holds resume state only, so its size does not grow with the
years.  The count pass then reads each bucket's parts of every flush,
sorts them, and keeps each key's first word, whose year is the smallest.
B is fixed before any work from the exact emission count and the memory
budget; the result is identical for any B.  Once every bucket is counted,
the completing manifest write stores the tallies over the years that
hold articles while the log and its index are deleted; the series spreads
them over the calendar years, empty years as zeros.  A spill directory
given in the config belongs to the caller, who deletes it; the ledger
reads no environment variable.
"""

from __future__ import annotations

import bisect
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
from typing import Iterable, Iterator

import numpy as np

from simplexledger.corpus import ALL, REFINEMENTS, CorpusStore, run_heads

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 9
_LOG_NAME = "keys.bin"
_ENDS_NAME = "ends.bin"
_MIN_MEMORY_BUDGET = 1 << 16
_EMIT_CHUNK = 1 << 18  # keys per emission batch
# Bytes of budget per key in the bucket pass, whose peak is about 11.2;
# with the log index block's quarter of the budget, 11.2/24 + 1/4 < 1.
_PASS_BYTES_PER_KEY = 24
# Bytes per calendar year of the finished series: its four int64 columns.
_BYTES_PER_YEAR = 32
# Each flush appends an index row of 8 bytes per bucket, and the bucket
# pass reads one part per bucket and flush.
_MAX_BUCKETS = 1 << 16
# splitmix64's multipliers (Steele et al., OOPSLA 2014).
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
# Keys per step of the in-place hash and compaction: their scratch stays
# small, and their steps over one chunk run in cache.
_CHUNK = 1 << 14


class LedgerError(ValueError):
    """Raised for invalid configuration or unsupported input scale."""


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


def _check_capacity(n_keywords: int, s: int) -> None:
    # s >= 2 dense ids share a 64-bit key.
    bits = 64 // s
    if n_keywords > (1 << bits):
        raise LedgerError(
            f"{n_keywords} distinct keywords exceed the {bits}-bit capacity "
            f"({1 << bits} keywords) for combinations of size {s}"
        )


@dataclass(frozen=True)
class _Layout:
    """How one ledger's keys become the words of its log.

    A key packs s dense ids of ``bits`` bits each, w = s * bits bits in
    all, and ``_hash`` maps it to a hash below 2^w.  Bucket i holds the
    hashes in [ceil(i 2^w / B), ceil((i+1) 2^w / B)).  A key's word is its
    hash shifted left over the y bits of its year index; the shift drops
    the hash's top w + y - 64 bits, if any, and the bucket's range gives
    them back, which holds when no range spans more than 2^(64-y) hashes.
    A buffered word holds the hash above r = 64 - w bits of its year index
    less the buffer's first, so a buffer spans at most 2^r years.
    """

    bits: int
    width: int
    year_bits: int
    years: int

    @classmethod
    def of(cls, n_keywords: int, s: int, years: int) -> _Layout:
        bits = max(1, (n_keywords - 1).bit_length())
        return cls(bits, s * bits, (years - 1).bit_length(), years)

    @property
    def span_bits(self) -> int:
        """r, the bits of a buffered word below its hash."""
        return 64 - self.width

    @property
    def span_dtype(self) -> np.dtype:
        """The smallest dtype that holds a buffered word's year bits."""
        return np.min_scalar_type(min(1 << self.span_bits, self.years) - 1)

    @property
    def min_buckets(self) -> int:
        """The fewest buckets whose ranges each span at most 2^(64-y)."""
        return 1 << max(0, self.width + self.year_bits - 64)

    def starts(self, buckets: int) -> np.ndarray:
        """Each bucket's smallest hash."""
        width = self.width
        return np.array(
            [-(-(i << width) // buckets) for i in range(buckets)], dtype=np.uint64
        )


def _pack(rows: np.ndarray, bits: int) -> np.ndarray:
    """Pack (n, s) ascending id rows into keys of ``bits`` bits per id."""
    keys = rows[:, 0].astype(np.uint64)
    for col in range(1, rows.shape[1]):
        keys <<= np.uint64(bits)
        keys |= rows[:, col]
    return keys


def _mix(keys: np.ndarray, width: int, multipliers: Iterable[int]) -> None:
    """In place: xorshift, then per multiplier a product mod 2^width and a
    xorshift.  Each shift is at least width / 2, so each xorshift is its
    own inverse, and the inverse multipliers in reverse order undo it."""
    shift = np.uint64((width + 1) // 2)
    mask = np.uint64((1 << width) - 1)
    factors = [np.uint64(m) for m in multipliers]
    scratch = np.empty(min(keys.size, _CHUNK), dtype=np.uint64)
    for start in range(0, keys.size, _CHUNK):
        x = keys[start : start + _CHUNK]
        t = scratch[: x.size]
        np.right_shift(x, shift, out=t)
        x ^= t
        for factor in factors:
            x *= factor
            if width < 64:
                x &= mask
            np.right_shift(x, shift, out=t)
            x ^= t


def _hash(keys: np.ndarray, width: int) -> None:
    """Hash keys below 2^width in place, by a bijection on width bits:
    splitmix64's finalizer with its steps taken mod 2^width."""
    _mix(keys, width, [m % (1 << width) for m in _MULTIPLIERS])


def _unhash(keys: np.ndarray, width: int) -> None:
    """Invert ``_hash`` in place."""
    _mix(keys, width, [pow(m, -1, 1 << width) for m in reversed(_MULTIPLIERS)])


def _first_years(
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
    for start in range(0, words.size, _CHUNK):
        kept = words[start : start + _CHUNK][heads[start : start + _CHUNK]]
        words[n : n + kept.size] = kept
        n += kept.size
    return words[:n], tags[heads]


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
    offsets: np.ndarray,
    ids: np.ndarray,
    lo: int,
    hi: int,
    s: int,
    bits: int,
    batch_keys: int,
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
            yield _pack(rows[:, idx].reshape(-1, s), bits)


# --- the key log -----------------------------------------------------------


def _emissions(offsets: np.ndarray, s: int) -> int:
    """The exact number of size-s combinations over all articles."""
    sizes = np.bincount(np.diff(offsets)).tolist()
    return sum(math.comb(m, s) * n for m, n in enumerate(sizes))


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
    keys, year = _first_years(words, layout.span_bits, layout.span_dtype)
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
    base: int,
    layout: _Layout,
    debut_index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral key counts of one bucket.

    Its part of flush f is log words ``begins[f]:ends[f]``, and its
    smallest hash is ``base``.  ``debut_index`` holds each dense keyword's
    debut as a year index.  Each array is dropped once used, which holds
    the peak near 11 bytes per word.
    """
    sizes = ends - begins
    words = np.empty(int(sizes.sum()), dtype=np.uint64)
    view = memoryview(words).cast("B")
    at = 0
    for begin, size in zip((8 * begins).tolist(), (8 * sizes).tolist()):
        if size:
            _read_into(log, view[at : at + size], begin)
            at += size
    keys, year = _first_years(words, layout.year_bits, debut_index.dtype)
    # The hash's bits above the word's lie in the bucket's range.
    keys -= np.uint64(base)
    keys &= np.uint64((1 << (64 - layout.year_bits)) - 1)
    keys += np.uint64(base)
    _unhash(keys, layout.width)
    # The largest dense id of a key debuted last among its keywords.
    keys &= np.uint64((1 << layout.bits) - 1)
    peripheral = debut_index[keys] == year
    del view, words, keys
    new = np.bincount(year, minlength=layout.years)
    return new, np.bincount(year[peripheral], minlength=layout.years)


def _count_log(
    ledger_dir: Path,
    layout: _Layout,
    starts: np.ndarray,
    flushes: int,
    debut_index: np.ndarray,
    index_bytes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-year new and peripheral key counts of the first ``flushes``
    flushes of the ledger's log, one bucket at a time.

    The index is read a block of buckets at a time, one read per flush,
    each block in at most ``index_bytes``.
    """
    buckets = starts.size
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
            for j, base in enumerate(starts[first : first + count].tolist()):
                begins, ends = parts[:, j], parts[:, j + 1]
                if (ends != begins).any():
                    n, p = _count_bucket(log, begins, ends, base, layout, debut_index)
                    new += n
                    peripheral += p
    return new, peripheral


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
    corpus: CorpusStore,
    s: int,
    layout: _Layout,
    offsets: np.ndarray,
    ids: np.ndarray,
    starts: np.ndarray,
    buffer_keys: int,
    ledger_dir: Path,
    manifest: dict,
    end: int,
) -> None:
    """Flush the keys of the years after the manifest's watermark to the
    log, and commit each year once its emission has ended and a flush, or
    the sweep's end, follows.  The keys of size-``s`` combinations come
    from the CSR ``offsets`` into dense ``ids``; ``starts`` are the buckets'
    smallest hashes, and ``end`` is the log's committed length."""
    years = corpus.years
    batch_keys = min(_EMIT_CHUNK, buffer_keys)
    span = 1 << layout.span_bits
    # The years up to the watermark are committed.
    watermark = manifest["watermark"]
    done = 0 if watermark is None else bisect.bisect_right(years, watermark)
    emitted = (
        (tag, keys)
        for tag in range(done, len(years))
        for keys in _emit_year_keys(
            offsets, ids, *corpus.year_range(years[tag]), s, layout.bits, batch_keys
        )
    )
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
                manifest["watermark"] = years[tag - 1]
                _write_manifest(ledger_dir / _MANIFEST_NAME, manifest)
                done = tag
            if keys is None:
                break
            if not buffer:
                head = tag
            _hash(keys, layout.width)
            keys <<= np.uint64(layout.span_bits)
            keys |= np.uint64(tag - head)
            buffer.append(keys)
            buffered += keys.size


def tabulate(corpus: CorpusStore, config: LedgerConfig) -> LedgerSeries:
    """Sweep years ascending, tallying first occurrences exactly.

    Resumes after the manifest's year watermark when
    ``config.spill_directory`` already holds state for the same corpus and
    configuration, and with at least as many buckets as this configuration
    needs.  Without a spill directory it works in a temporary directory
    under ``$TMPDIR`` and removes it.  The emission pass commits a year's
    keys with the first flush after its last batch, or, for trailing years
    without keys, at the end of the sweep; then the count pass tallies the
    committed log.  If a kill lands while a year is only partly in a
    committed flush, the resume emits that year again; the repeated words
    are harmless, since the bucket pass keeps one word per hash.
    """
    s = config.k + 1
    corpus_years = corpus.years
    if not corpus_years:
        return LedgerSeries(k=config.k, refinement=config.refinement)
    _check_span(corpus_years[0], corpus_years[-1], config)

    _, debuts, ids = corpus.debut_order(config.refinement)
    _check_capacity(debuts.size, s)
    article_years, offsets, _ = corpus.csr(config.refinement)
    layout = _Layout.of(debuts.size, s, len(corpus_years))
    emissions = _emissions(offsets, s)
    buckets = _bucket_count(emissions, layout, config)
    # A quarter of the budget buffers keys; a flush's copies of them fit in
    # the rest.  A flush made because the next batch would overflow the
    # buffer holds, with that batch, more than a buffer of keys, so fewer
    # than 2 E / buffer are made so.  One made because the next batch falls
    # 2^r years past the buffer's first starts the next buffer 2^r years on,
    # so these and the sweep's last flush number at most ceil(years / 2^r).
    buffer_keys = config.memory_budget_bytes // 4 // 8
    flush_bound = -(-2 * emissions // buffer_keys) + -(
        -len(corpus_years) >> layout.span_bits
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
                corpus, s, layout, offsets, ids, starts, buffer_keys,
                ledger_dir, manifest, end
            )
            # The bucket pass only reads committed files; a resume after a
            # kill inside it runs it again.
            years = np.array(corpus_years)
            debut_index = np.searchsorted(years, debuts).astype(
                np.min_scalar_type(years.size - 1)
            )
            new, peripheral = _count_log(
                ledger_dir,
                layout,
                starts,
                manifest["flushes"],
                debut_index,
                # A bucket's pass takes about 11 / 32 of the budget.
                config.memory_budget_bytes // 4,
            )
            bad = np.flatnonzero((peripheral < 0) | (peripheral > new))
            if bad.size:
                i = int(bad[0])
                raise LedgerError(
                    f"{peripheral[i]} peripheral of {new[i]} new combinations "
                    f"in {corpus_years[i]}"
                )
            processed = np.searchsorted(years, article_years[np.diff(offsets) >= s])
            tallies = [
                new,
                peripheral,
                np.bincount(debut_index, minlength=years.size),
                np.bincount(processed, minlength=years.size),
            ]
            manifest["series"] = {
                "years": corpus_years,
                **{name: t.tolist() for name, t in zip(SERIES_COLUMNS, tallies)},
            }
            manifest["complete"] = True
            _write_manifest(ledger_dir / _MANIFEST_NAME, manifest)
        _keep_only(ledger_dir, {_MANIFEST_NAME})

    return _spread(config, manifest["series"])


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
