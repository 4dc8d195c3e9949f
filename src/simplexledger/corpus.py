"""Article storage: the columnar corpus store, its file format and the
one writer of every file written whole.

The store holds every article in one CSR (compressed sparse row) layout,
the same in memory and on disk, sorted by (year, article id) so that each
year of the ledger's ascending sweep is one contiguous slice:

- ``years`` (int32), one per article;
- ``offsets`` (int64, articles + 1): article ``i`` owns
  ``ids[offsets[i]:offsets[i+1]]``;
- ``ids`` (uint32), ascending within each article;
- ``major``, one Major-topic flag per id;
- the article ids, UTF-8, each followed by a NUL byte.

``add`` and the readers' admission step (`simplexledger.ingest`) stage
articles through one writer, a block at a time (``add``'s holds one
article), in the same layout, as column tails in add order.  ``add``
refuses an article the layout cannot hold before staging any of it, and
both readers count an article id with a NUL or over 64 bytes, by
`_id_fault`, as malformed.  The next read folds the tails into the
columns: a stable sort of the article ids, laid out at a fixed width, and
one of the years order the articles, and their ids, Major flags and
article ids are gathered a chunk of articles at a time into columns
allocated once.  With no columns yet, as in ingest, the tails are used in
place.  The last copy of each article id wins, even across
years, and the dropped copies count as duplicates.

The store caches one view at a time, built in one step for one
refinement: the year index (the distinct years and where each year's
articles start) and the refinement's CSR with its keywords renumbered
densely in debut order.  Asking for the other refinement drops it first.
The Major CSR gathers the ids at the Major flags, and only its renumbered
ids are kept.  The debut order is a table, indexed by keyword id, of each
keyword's first position, filled a chunk of ids at a time by one
scatter-min (``np.minimum.at``); the keywords rank by that position.
Ids sparser than the refinement's id count are first ranked by one sort,
so the table never has more entries than there are ids.  The view also
holds the CSR's transpose, each dense id's places in the ids and their row
positions, about 5 bytes an id, so that the ledger reads a keyword's
occurrences as one slice.  A refinement holds at most 2^32 ids, refused
before any pass over them.

A store file (format version 2) is a 40-byte header (magic ``SLEDGER1``,
version, article count, id count, article-id bytes), the raw little-endian
``offsets``, ``years`` and ``ids`` arrays, the ``major`` flags packed eight
to a byte, the article ids, and a SHA-256 trailer over everything before
it.  Loading reads each column into its own array, hashing it as it
arrives, and runs the structural checks first, a chunk at a time, so that
each error names its cause, and then the checksum, which catches
corruption that leaves the structure valid; the checksum doubles as the
store's digest.  A version-1
file (varint-encoded year blocks) is refused: re-run ingest.
`replace_on_success` writes the store file, and every other file that
simplexledger writes whole, through a temporary file renamed over it.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import os
import struct
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from pathlib import Path

ALL = "all"
MAJOR = "major"
REFINEMENTS = (ALL, MAJOR)

# The years the int32 year column holds.
_INT32 = range(-(1 << 31), 1 << 31)
# The longest article id, in UTF-8 bytes.  A fold lays every id out at the
# longest one's width, so one long id would widen them all.
_MAX_ID_BYTES = 64
# Ids per step of the chunked passes over the columns: one step stays in
# cache.
_CHUNK = 1 << 14
# The fewest words per step of `keep_first`, whose temporaries are a
# step's, at most 1/64 of the words beyond this, and a byte a kept word.
_KEEP_STEP = 1 << 12

_MAGIC = b"SLEDGER1"
_STORE_VERSION = 2
# Magic, version, article count, keyword id count, article-id bytes.
_HEADER = struct.Struct("<8sB7xQQQ")
_TRAILER_SIZE = 32  # SHA-256 of everything before it


class CorpusError(ValueError):
    """Raised for unrecoverable ingestion or store-format problems."""


@dataclass(frozen=True, slots=True)
class ArticleRecord:
    """One filtered publication: year plus its eligible keyword sets."""

    article_id: str
    year: int
    all_keywords: frozenset[int]
    major_keywords: frozenset[int]

    def keywords(self, refinement: str) -> frozenset[int]:
        if refinement == ALL:
            return self.all_keywords
        if refinement == MAJOR:
            return self.major_keywords
        raise CorpusError(f"unknown refinement {refinement!r}")


@dataclass
class IngestStats:
    """Rejection and warning counters; their sum plus accepted equals input."""

    accepted: int = 0
    rejected_pub_type: int = 0
    rejected_too_few_keywords: int = 0
    rejected_year: int = 0
    rejected_malformed: int = 0
    duplicate_article_ids: int = 0
    unknown_keyword_codes: int = 0
    malformed_lines: list[int] = field(default_factory=list)


def run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values.

    Applied to a sorted array it selects the distinct values, without the
    ``numpy.ma`` import that ``np.unique`` costs on its first call.
    """
    heads = np.empty(values.size, dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def keep_first(
    words: np.ndarray, tag_bits: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``words`` (uint64), each a value above ``tag_bits`` bits of tag,
    and keep each value's first word, whose tag is the smallest: the kept
    words move to the front of ``words`` in order, a step at a time, so
    that no copy or mask of them all is made.  Returns that front, shifted
    to its values, and the kept tags, as ``dtype``."""
    words.sort()
    shift = np.uint64(tag_bits)
    n, step = 0, max(_KEEP_STEP, words.size >> 6)
    for start in range(0, words.size, step):
        part = words[start : start + step]
        values = part >> shift
        heads = run_heads(values)
        if start:
            heads[0] = values[0] != last
        last = values[-1]
        kept = part[heads]
        words[n : n + kept.size] = kept
        n += kept.size
    kept = words[:n]
    tags = np.empty(n, dtype=dtype)
    np.bitwise_and(kept, np.uint64((1 << tag_bits) - 1), out=tags, casting="unsafe")
    kept >>= shift
    return kept, tags


def _major_columns(
    offsets: np.ndarray, ids: np.ndarray, major: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The offsets and ids of the Major keywords alone, gathered a chunk of
    ids at a time, so that no index over all of them is made."""
    major_offsets = np.empty_like(offsets)
    major_ids = np.empty(np.count_nonzero(major), dtype=ids.dtype)
    done = 0
    for lo in range(0, ids.size, _CHUNK):
        hi = min(lo + _CHUNK, ids.size)
        at = np.flatnonzero(major[lo:hi])
        # The articles that start in the chunk.
        a, b = np.searchsorted(offsets, (lo, hi)).tolist()
        major_offsets[a:b] = np.searchsorted(at, offsets[a:b] - lo) + done
        major_ids[done : done + at.size] = ids[lo:hi][at]
        done += at.size
    # Articles that start at the end: trailing empty ones and the sentinel.
    major_offsets[np.searchsorted(offsets, ids.size) :] = done
    return major_offsets, major_ids


def _joined(column: np.ndarray, tail, dtype) -> np.ndarray:
    """A column with a tail's values after it; with an empty column, the
    tail itself, viewed in place."""
    tail = np.frombuffer(tail, dtype)
    return np.concatenate((column, tail)) if column.size else tail


def _article_chunks(
    offsets: np.ndarray, size: int = _CHUNK
) -> Iterator[tuple[int, int]]:
    """Ranges [a, b) of the articles, each of at most ``size`` ids or of
    one article."""
    a, n = 0, offsets.size - 1
    while a < n:
        b = int(np.searchsorted(offsets, offsets[a] + size, "right")) - 1
        b = max(b, a + 1)
        yield a, b
        a = b


def _transpose(
    offsets: np.ndarray, ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR of articles ``offsets`` and dense ``ids`` 0..n-1 transposed:
    id ``d`` lies at the places ``places[heads[d]:heads[d+1]]`` in the ids,
    ascending, at the row positions of the same slice of ``positions``, of
    the smallest type that holds the widest row's last.

    One pass counts each id's places and the widest row; a second sorts
    each chunk's (id, place) words and scatters them to a cursor per id.  A
    chunk of articles holds 1/128 of the ids, from 8,192 to 131,072, so no
    array of the ids' length is made beside the three kept, and each id's
    places are written in runs as long as a chunk in cache allows."""
    size = max(_CHUNK // 2, min(_CHUNK << 3, ids.size >> 7))
    heads = np.zeros(n + 1, dtype=np.int64)
    widest = 0
    for a, b in _article_chunks(offsets, size):
        heads[1:] += np.bincount(ids[offsets[a] : offsets[b]], minlength=n)
        widest = max(widest, int(np.diff(offsets[a : b + 1]).max()))
    np.cumsum(heads, out=heads)
    cursor = heads[:-1].copy()
    places = np.empty(ids.size, dtype=np.uint32)
    positions = np.empty(ids.size, dtype=np.min_scalar_type(widest - 1))
    for a, b in _article_chunks(offsets, size):
        lo, hi = int(offsets[a]), int(offsets[b])
        at = np.arange(lo, hi, dtype=np.uint64)
        counts = np.diff(offsets[a : b + 1])
        position = at - np.repeat(offsets[a:b].view(np.uint64), counts)
        words = ids[lo:hi].astype(np.uint64) << np.uint64(32)
        words |= at
        words.sort()
        keys = words >> np.uint64(32)
        starts = np.flatnonzero(run_heads(keys))
        first = keys[starts].astype(np.intp)
        runs = np.diff(starts, append=words.size)
        to = np.repeat(cursor[first] - starts, runs)
        to += np.arange(words.size)
        cursor[first] += runs
        at = words.astype(np.uint32)
        places[to] = at
        positions[to] = position[at - np.uint32(lo)]
    return heads, places, positions


class CorpusStore:
    """Articles in one CSR layout, sorted by (year, article id).

    Article ``i`` appeared in ``years[i]`` and carries the keyword ids
    ``ids[offsets[i]:offsets[i+1]]``, ascending, with ``major`` flagging its
    Major keywords.  Added articles wait in column tails until the next
    read folds them in, keeping the last copy of each article id.
    """

    def __init__(self) -> None:
        self._stats = IngestStats()
        self._clear_tails()
        self._set_columns(
            np.empty(0, np.int32),
            np.zeros(1, np.int64),
            np.empty(0, np.uint32),
            np.empty(0, bool),
            b"",
        )

    def _clear_tails(self) -> None:
        # The articles added since the last fold, in the columns' layout.
        self._tail_years = array("i")
        self._tail_counts = array("I")
        self._tail_ids = array("I")
        self._tail_major = bytearray()
        self._tail_names = bytearray()

    def _set_columns(self, years, offsets, ids, major, article_ids, digest=None):
        self._years = years
        self._offsets = offsets
        self._ids = ids
        self._major = major
        # UTF-8 article ids, each followed by a NUL byte.
        self._article_ids = article_ids
        # Values derived from the columns, dropped whenever they change.
        self._cache: dict = {} if digest is None else {"digest": digest}

    @property
    def stats(self) -> IngestStats:
        """Ingest counters; reading them folds, so duplicates are counted."""
        self._fold()
        return self._stats

    def add(self, record: ArticleRecord) -> None:
        """Stage one article, or raise before staging anything."""
        # ``in _INT32`` would scan the range for anything but an int.
        article_id, year = record.article_id, operator.index(record.year)
        ids = sorted(record.all_keywords)
        if not record.major_keywords <= record.all_keywords:
            raise CorpusError(
                f"article {article_id!r} has Major keywords outside its keyword set"
            )
        fault = _id_fault(article_id)
        if fault:
            raise CorpusError(f"article id {article_id[:16]!r} {fault}")
        if year not in _INT32:
            raise CorpusError(f"year {year} out of the int32 range")
        if ids and (ids[0] < 0 or ids[-1] >= 1 << 32):
            raise CorpusError(
                f"keyword ids {ids[0]}..{ids[-1]} out of the uint32 range"
            )
        major = record.major_keywords
        self._stage(
            [article_id],
            array("i", [year]),
            array("I", [len(ids)]),
            array("I", ids),
            bytes(map(major.__contains__, ids)),
        )

    def _stage(self, names: list[str], years, counts, ids, major) -> None:
        """Append a block of articles to the column tails, which nothing
        else but `_clear_tails` writes.  ``years`` (int32), ``counts`` and
        ``ids`` (uint32) are arrays whose ``tobytes`` gives the tail's
        layout, and ``major`` is a buffer of one byte per id.  The caller has
        checked the article ids, the years and the keyword ids; an article
        id that is not UTF-8 raises before any append."""
        text = "\0".join([*names, ""])
        try:
            blob = text.encode("utf-8")
        except UnicodeEncodeError as exc:
            name = text.split("\0")[text.count("\0", 0, exc.start)]
            raise CorpusError(f"article id {name!r} is not UTF-8") from exc
        self._tail_years.frombytes(years.tobytes())
        self._tail_counts.frombytes(counts.tobytes())
        self._tail_ids.frombytes(ids.tobytes())
        self._tail_major.extend(major)
        self._tail_names += blob

    def _fold(self) -> None:
        """Merge the column tails, if any, into the columns; these are just
        the first chunk, so an add after a read needs no other path.  With
        no columns yet, as in ingest, the tails are used in place, and the
        merged columns are gathered a chunk of articles at a time."""
        if not self._tail_years:
            return
        years = _joined(self._years, self._tail_years, np.int32)
        counts = _joined(np.diff(self._offsets), self._tail_counts, np.uint32)
        ids = _joined(self._ids, self._tail_ids, np.uint32)
        major = _joined(self._major, self._tail_major, bool)
        names = self._tail_names
        if self._article_ids:
            names = self._article_ids + names
        self._clear_tails()
        grid = _fixed_width(names)
        # A stable sort puts each id's copies in add order, so the last of
        # each run is the one that wins, whatever its year.
        by_name = grid.argsort(kind="stable")
        last = run_heads(grid[by_name][::-1])[::-1]
        keep, dropped = by_name[last], grid[by_name[~last]]
        self._stats.duplicate_article_ids += dropped.size
        # ``keep`` is in id order; a stable sort by year gives (year, id).
        order = keep[years[keep].argsort(kind="stable")]
        starts = np.cumsum(counts, dtype=np.int64)
        starts -= counts
        counts = counts[order]
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        folded_ids = np.empty(offsets[-1], np.uint32)
        folded_major = np.empty(offsets[-1], bool)
        # The kept article ids' bytes: all but the dropped copies' and NULs.
        article_ids = bytearray(
            len(names) - dropped.size - np.count_nonzero(dropped.view(np.uint8))
        )
        text = np.frombuffer(article_ids, np.uint8)
        done = 0
        for a, b in _article_chunks(offsets):
            rows, lo, hi = order[a:b], offsets[a], offsets[b]
            gather = np.arange(lo, hi)
            gather += np.repeat(starts[rows] - offsets[a:b], counts[a:b])
            np.take(ids, gather, out=folded_ids[lo:hi])
            np.take(major, gather, out=folded_major[lo:hi])
            joined = _nul_joined(grid[rows])
            text[done : done + joined.size] = joined
            done += joined.size
        self._set_columns(years[order], offsets, folded_ids, folded_major, article_ids)

    def _cached(self, key: str, compute: Callable[[], object]):
        self._fold()
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def __len__(self) -> int:
        self._fold()
        return len(self._years)

    @property
    def years(self) -> list[int]:
        """The distinct publication years, ascending."""
        return self._cached(
            "years", lambda: self._years[run_heads(self._years)].tolist()
        )

    def view(self, refinement: str) -> tuple[np.ndarray, ...]:
        """The refinement's articles, with its keywords renumbered in debut
        order: (years, starts, offsets, ids, keywords, debuts, heads,
        places, positions).

        ``years`` are the distinct years (int32), and year ``t`` holds the
        articles ``starts[t]:starts[t+1]``.  Article ``i`` carries the dense
        ids ``ids[offsets[i]:offsets[i+1]]``; dense id ``d`` is the keyword
        ``keywords[d]``, which debuted in ``years[debuts[d]]``, and lies at
        the places ``places[heads[d]:heads[d+1]]`` in the ids, ascending, at
        the row positions of the same slice of ``positions``.  One view is
        cached at a time, until the columns change: asking for the other
        refinement drops it before building that one.
        """
        if refinement not in REFINEMENTS:
            raise CorpusError(f"unknown refinement {refinement!r}")
        for other in REFINEMENTS:
            if other != refinement:
                self._cache.pop(f"view_{other}", None)
        return self._cached(f"view_{refinement}", lambda: self._view(refinement))

    def _view(self, refinement: str) -> tuple[np.ndarray, ...]:
        heads = run_heads(self._years)
        years, starts = self._years[heads], np.append(np.flatnonzero(heads), heads.size)
        offsets, ids = self._offsets, self._ids
        if refinement == MAJOR:
            offsets, ids = _major_columns(offsets, ids, self._major)
        n = ids.size
        if n > 1 << 32:
            raise CorpusError(f"{n} keyword ids, over the limit of {1 << 32}")
        size, values = self.max_keyword_id() + 1, None
        if size > n:
            # A table over sparse ids would outgrow the ids: rank them first.
            values = np.sort(ids)
            values = values[run_heads(values)]
            ids, size = np.searchsorted(values, ids).astype(np.uint32), values.size
        # Articles are sorted by year, so a keyword's first position is its
        # debut; ``n`` marks a keyword the refinement does not hold.
        first = np.full(size, n, dtype=np.int64)
        for a in range(0, n, _CHUNK):
            np.minimum.at(first, ids[a : a + _CHUNK], np.arange(a, min(a + _CHUNK, n)))
        kids = np.flatnonzero(first < n)
        kids = kids[first[kids].argsort()]
        rank = np.empty(size, dtype=np.uint32)
        rank[kids] = np.arange(kids.size, dtype=np.uint32)
        # The year whose ids hold a keyword's first position is its debut.
        debuts = np.searchsorted(offsets[starts], first[kids], side="right") - 1
        keywords = kids.astype(np.uint32) if values is None else values[kids]
        # The store's ids stay as they are; a copy is renumbered in place.
        # Each article's dense ids are sorted as (article, id) words, half a
        # chunk of ids at a time, so that the words stay small beside the
        # ids.  The words are 64-bit, as the ledger's are, so that both
        # sorts run the same code.
        dense = np.empty_like(ids) if ids is self._ids else ids
        for a, b in _article_chunks(offsets, _CHUNK // 2):
            lo, hi = offsets[a], offsets[b]
            np.take(rank, ids[lo:hi], out=dense[lo:hi])
            words = np.arange(b - a, dtype=np.uint64) << np.uint64(32)
            words = np.repeat(words, np.diff(offsets[a : b + 1]))
            words |= dense[lo:hi]
            words.sort()
            np.copyto(dense[lo:hi], words, casting="unsafe")
        transpose = _transpose(offsets, dense, kids.size)
        return years, starts, offsets, dense, keywords, debuts, *transpose

    def records_in(self, year: int) -> list[ArticleRecord]:
        """The year's articles as records, in article-id order."""
        names = self._cached(
            "article_ids", lambda: self._article_ids.decode("utf-8").split("\0")
        )
        lo, hi = np.searchsorted(self._years, (year, year + 1)).tolist()
        base, top = self._offsets[lo], self._offsets[hi]
        ids = self._ids[base:top].tolist()
        major = self._major[base:top].tolist()
        bounds = (self._offsets[lo : hi + 1] - base).tolist()
        return [
            ArticleRecord(
                names[i],
                year,
                frozenset(ids[a:b]),
                frozenset(itertools.compress(ids[a:b], major[a:b])),
            )
            for i, a, b in zip(range(lo, hi), bounds, bounds[1:])
        ]

    def iter_records(self) -> Iterator[ArticleRecord]:
        for year in self.years:
            yield from self.records_in(year)

    def max_keyword_id(self) -> int:
        return self._cached(
            "max_id", lambda: int(self._ids.max()) if self._ids.size else -1
        )

    def digest(self) -> str:
        """SHA-256 of the store file's contents, its checksum trailer."""
        return self._cached("digest", lambda: _sha256(self._file_chunks()).hex())

    def file_sha256(self) -> str:
        """SHA-256 of the whole store file, its trailer included; a loaded
        store keeps the one `load_store` took of the bytes it read."""
        return self._cached(
            "file_sha256",
            lambda: _sha256([*self._file_chunks(), bytes.fromhex(self.digest())]).hex(),
        )

    def _file_chunks(self) -> Iterator[bytes | memoryview]:
        """The store file's contents up to the checksum trailer."""
        self._fold()
        years, offsets, ids = self._years, self._offsets, self._ids
        yield _HEADER.pack(
            _MAGIC, _STORE_VERSION, len(years), len(ids), len(self._article_ids)
        )
        for column, dtype in ((offsets, "<i8"), (years, "<i4"), (ids, "<u4")):
            yield memoryview(np.ascontiguousarray(column, dtype=dtype))
        yield memoryview(np.packbits(self._major, bitorder="little"))
        yield self._article_ids


def _sha256(chunks: Iterable[bytes | memoryview]) -> bytes:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()


def _id_fault(article_id: str) -> str | None:
    """Why the store cannot hold ``article_id``, a NUL or over 64 bytes of
    UTF-8, or None.  An id of at most 16 characters is not encoded: a
    character takes at most 4 bytes, and a lone surrogate, which `_stage`
    refuses anyway, counts 3."""
    if "\0" in article_id:
        return "contains NUL"
    if len(article_id) > _MAX_ID_BYTES // 4:
        size = len(article_id.encode("utf-8", "surrogatepass"))
        if size > _MAX_ID_BYTES:
            return f"over {_MAX_ID_BYTES} bytes ({size} bytes)"
    return None


# --- binary store serialization -------------------------------------------


def _id_spans(names: bytes | bytearray) -> Iterator[tuple[int, int]]:
    """Spans [lo, hi) of whole article ids in ``names``, which ends with a
    NUL: each of at most `_CHUNK` bytes, or of one longer id."""
    lo = 0
    while lo < len(names):
        hi = names.rfind(b"\0", lo, lo + _CHUNK) + 1
        hi = hi or names.find(b"\0", lo + _CHUNK) + 1
        yield lo, hi
        lo = hi


def _id_ends(names: bytes | bytearray, lo: int, hi: int) -> np.ndarray:
    """Where the NULs of ``names[lo:hi]`` lie, counted from ``lo``."""
    return np.flatnonzero(np.frombuffer(names, np.uint8, hi - lo, lo) == 0)


def _fixed_width(names: bytes | bytearray) -> np.ndarray:
    """The NUL-terminated article ids as one fixed-width bytes array, laid
    out a span of ids at a time.

    Each id is padded with at least one NUL, which no id contains, so the
    array orders the ids as bytes do; UTF-8 bytes sort as their code points.
    An id over 64 bytes is refused before the array is laid out at its
    width; only a store file that `add` and the readers did not write can
    hold one.  Each span's NULs are found once: the ids' lengths with their
    NULs, at most 65, wait in a byte each for the layout.
    """
    sizes = np.empty(names.count(b"\0"), np.uint8)
    counts, a = [], 0
    for lo, hi in _id_spans(names):
        # An id and its NUL span the distance from the NUL before it.
        span = np.diff(_id_ends(names, lo, hi), prepend=-1)
        if span.max() > _MAX_ID_BYTES + 1:
            raise CorpusError(f"an article id is over {_MAX_ID_BYTES} bytes")
        sizes[a : a + span.size] = span
        counts.append(span.size)
        a += span.size
    width = int(sizes.max(initial=1))
    grid = np.empty(sizes.size, f"S{width}")
    rows = grid.view(np.uint8).reshape(grid.size, width)
    a = 0
    for (lo, hi), count in zip(_id_spans(names), counts):
        lengths = sizes[a : a + count].astype(np.int64)
        starts = np.cumsum(lengths) - lengths
        lengths -= 1
        padded = np.zeros(hi - lo + width, np.uint8)
        padded[: hi - lo] = np.frombuffer(names, np.uint8, hi - lo, lo)
        windows = np.lib.stride_tricks.sliding_window_view(padded, width)
        windows = windows[starts]
        windows[np.arange(width) >= lengths[:, None]] = 0
        rows[a : a + count] = windows
        a += count
    return grid


def _nul_joined(grid: np.ndarray) -> np.ndarray:
    """The bytes of the fixed-width ids ``grid``, each up to and with its
    first NUL, as the store lays them out."""
    text = grid.view(np.uint8).reshape(grid.size, grid.itemsize)
    upto = np.ones(text.shape, bool)
    np.not_equal(text[:, :-1], 0, out=upto[:, 1:])
    return text[upto]


def _anywhere(pairs: int, test: Callable[[slice, slice], np.ndarray]) -> bool:
    """Whether ``test(first, second)`` holds for any of ``pairs`` adjacent
    pairs (i, i + 1), asked a chunk of pairs at a time: ``first`` slices
    the chunk's i and ``second`` its i + 1."""
    for lo in range(0, pairs, _CHUNK):
        hi = min(lo + _CHUNK, pairs)
        if test(slice(lo, hi), slice(lo + 1, hi + 1)).any():
            return True
    return False


@contextmanager
def replace_on_success(path: Path, mode: str = "wb") -> Iterator[IO]:
    """Write ``path`` whole: the one writer of every file simplexledger
    writes at once.

    ``.<name>.<pid>.tmp`` beside ``path`` is opened before the body runs, so
    that a path that cannot be written fails before any work.  Once the
    body returns, the file is closed and renamed over ``path``; if the body
    raises anything, it is removed.  So a failure, or a kill, leaves the
    old file whole or the new one, never a torn one.  Text is UTF-8 and
    its newlines are written as they are.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    f = open(tmp, mode, **text)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_store(store: CorpusStore, out: BinaryIO) -> None:
    """Write the store file: header and columns, then their SHA-256, hashed
    as they are written and cached as the store's digest."""
    digest = hashlib.sha256()
    for chunk in store._file_chunks():
        out.write(chunk)
        digest.update(chunk)
    out.write(digest.digest())
    store._cache["digest"] = digest.hexdigest()


def _check_article_ids(names: bytearray, years: np.ndarray) -> None:
    """`load_store`'s checks of the NUL-terminated article ids, in order:
    one per article, UTF-8, at most 64 bytes, ascending within a year and
    not repeated in another.  Only the fixed-width ids outlive a span of
    ids, and only until this returns."""
    n = years.size
    if names.count(b"\0") != n or (names and not names.endswith(b"\0")):
        raise CorpusError(f"article id count does not match the {n} articles")
    view = memoryview(names)
    try:
        for lo, hi in _id_spans(names):
            try:
                str(view[lo:hi], "utf-8")
            except UnicodeDecodeError:
                # Again from the first id, so that the error gives its
                # position among all of them.
                str(view[:hi], "utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"article id is not UTF-8: {exc}") from exc
    article_ids = _fixed_width(names)
    if _anywhere(
        n - 1,
        lambda i, j: (years[j] == years[i]) & (article_ids[j] <= article_ids[i]),
    ):
        raise CorpusError("article ids are not strictly ascending within a year")
    article_ids.sort()
    if _anywhere(n - 1, lambda i, j: article_ids[j] == article_ids[i]):
        raise CorpusError("an article id repeats in another year")


def load_store(src: BinaryIO) -> CorpusStore:
    """Read a store file, checking its structure and then its checksum.

    ``src`` must be seekable, and the store starts at its position: the
    file's size is checked against the header before any column is read.
    Each column is read into its own array and hashed as it arrives, and
    the Major flags are unpacked once every check has passed, so that the
    load holds about one copy of the store.  The hash, updated with the
    trailer read, is the store's `CorpusStore.file_sha256`, so that a
    caller that records the file's SHA-256 need not read the file again.
    """
    if not src.seekable():
        raise CorpusError("a store file must be seekable; a pipe is not")
    start = src.tell()
    header = src.read(_HEADER.size)
    magic = header[: len(_MAGIC)]
    if magic != _MAGIC:
        raise CorpusError(f"bad magic {magic!r}; not a store file")
    if len(header) == len(_MAGIC):
        raise CorpusError("truncated store file")
    version = header[len(_MAGIC)]
    if version != _STORE_VERSION:
        raise CorpusError(f"unsupported store version {version}; re-run ingest")
    if len(header) < _HEADER.size:
        raise CorpusError("truncated store file")
    _, _, n, n_ids, n_names = _HEADER.unpack(header)
    expected = _HEADER.size + 8 * (n + 1) + 4 * n + 4 * n_ids + (n_ids + 7) // 8
    expected += n_names + _TRAILER_SIZE
    size = src.seek(0, os.SEEK_END) - start
    if size < expected:
        raise CorpusError("truncated store file")
    if size > expected:
        raise CorpusError("trailing bytes after the checksum")
    src.seek(start + _HEADER.size)
    digest = hashlib.sha256(header)

    def column(values):
        if src.readinto(values) != memoryview(values).nbytes:
            raise CorpusError("truncated store file")
        digest.update(values)
        return values

    offsets = column(np.empty(n + 1, "<i8"))
    years = column(np.empty(n, "<i4"))
    ids = column(np.empty(n_ids, "<u4"))
    packed = column(np.empty((n_ids + 7) // 8, np.uint8))
    names = column(bytearray(n_names))

    if offsets[0] != 0 or offsets[-1] != n_ids or _anywhere(
        n, lambda i, j: offsets[j] < offsets[i]
    ):
        raise CorpusError("keyword offsets do not rise monotonically to the id count")
    if _anywhere(n - 1, lambda i, j: years[j] < years[i]):
        raise CorpusError("article years decrease")

    def falls(i: slice, j: slice) -> np.ndarray:
        # A fall onto the first id of an article is no fall.
        fall = ids[j] <= ids[i]
        a, b = np.searchsorted(offsets, (j.start, j.stop)).tolist()
        fall[offsets[a:b] - j.start] = False
        return fall

    if _anywhere(n_ids - 1, falls):
        raise CorpusError("keyword ids are not strictly ascending within an article")
    _check_article_ids(names, years)
    trailer = src.read(_TRAILER_SIZE)
    if digest.digest() != trailer:
        raise CorpusError("store checksum mismatch; the file is corrupt")

    store = CorpusStore()
    major = np.unpackbits(packed, count=n_ids, bitorder="little").view(bool)
    store._set_columns(years, offsets, ids, major, names, digest.hexdigest())
    digest.update(trailer)
    store._cache["file_sha256"] = digest.hexdigest()
    return store
