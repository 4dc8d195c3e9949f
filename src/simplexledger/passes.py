"""The pass engine of the ledger: how one ledger's combinations become
words, the plan of its passes, the index they read their cells from, and
their counts.

A pass takes the combinations whose largest dense id lies in a contiguous
range, so that every emission of a combination falls in one pass, and
writes them into one array of words, each a key above the y bits of its
year index: the combination's smaller ids, above its largest id less the
pass's base, the range's first id or its first holder.  `keep_first`, the
corpus step that merges ingest's keywords too, keeps each key's word of the
smallest year, and one count, `_count_words`, tallies the new and
peripheral keys by year.  Every pass emits by one rule, `_emit_pass`: an id
at row position j emits the C(j, k) combinations of it with the ids before
it, from cells, each a row position j and the ascending places in the ids
of the pass's ids at j.

`census` counts the emissions E and each year's processed articles, and
`tally_all` counts a ledger that fits one pass over the full range, whose
cells `_row_cells` reads off the rows themselves.  Otherwise `plan` counts
each id's emissions and index entries and cuts the ranges at a pass's
capacity, at the key's width and into at least ``shard_count`` passes.  An
id whose own emissions exceed a pass becomes a holder: its combinations are
cut again, one order lower, by the next id below it, down to k holders.  A
pass under r holders takes the combinations that hold them all, and emits,
for an id at row position j before them, the C(j, k - r) combinations of
it with the ids before it and the holders.  An id that still outnumbers a
pass under k holders is one whole combination, new in the year of the
first article that holds it.  `tallies` runs the passes: each reads its
cells from its own per-position index, built in the words array that the
pass then uses.

Every read is a step of slices of the view's transpose, each dense id's
places in the ids and their row positions: the plan sums each id's own, a
plain pass reads its ids', and under holders only the rows before the last
holder of the articles that hold them all are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from simplexledger.corpus import keep_first, run_heads

_EMIT_CHUNK = 1 << 14  # words per emission batch
_COUNT_CHUNK = 1 << 14  # words per step of `_count_words`' bincounts
_CENSUS_CHUNK = 1 << 12  # articles per step of the emission count
_READ_CHUNK = 1 << 16  # places per step of the plan and of an index build
# Bytes of budget per emission of a pass.  Its word takes 8, and
# `keep_first` about 1 more; beside it the pass's index takes 4 bytes an
# entry, at most one an emission, and an emission batch's temporaries at
# most 1/4 of the budget.
PASS_BYTES_PER_KEY = 24
# An emission batch's temporaries: bytes per word, and per id of its rows.
_BATCH_BYTES_PER_WORD = 8
_BATCH_BYTES_PER_ID = 48
# Bytes of budget per article of an emission range.
_RANGE_BYTES_PER_ARTICLE = 512
# Bytes of budget per place of a read step, and per word of a count step.
_READ_BYTES_PER_PLACE = 256
_COUNT_BYTES_PER_WORD = 128


class LedgerError(ValueError):
    """Raised for invalid configuration or unsupported input scale."""


# --- keys and words --------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    """How one ledger's combinations become words.

    A key packs a combination's s - 1 smaller dense ids, ``bits`` bits
    each, above its largest id less its pass's first id, in ``id_bits``
    bits; a word holds the key above the ``year_bits`` bits of a year
    index, so (s - 1) * bits + id_bits + year_bits <= 64, and a pass spans
    at most 2^id_bits ids.
    """

    bits: int
    id_bits: int
    year_bits: int
    years: int

    @classmethod
    def of(cls, n_keywords: int, s: int, years: int) -> Layout:
        """The layout of s dense ids from ``n_keywords``, over ``years``;
        raises unless s ids fit 64 bits, and the smaller ones beside a year
        index."""
        bits = max(1, (n_keywords - 1).bit_length())
        if s * bits > 64:
            raise LedgerError(
                f"{n_keywords} distinct keywords exceed the {64 // s}-bit "
                f"capacity ({1 << (64 // s)} keywords) for combinations of size {s}"
            )
        year_bits = (years - 1).bit_length()
        id_bits = min(bits, 64 - year_bits - (s - 1) * bits)
        if id_bits < 0:
            raise LedgerError(
                f"combinations of size {s} of {n_keywords} keywords over "
                f"{years} years exceed a 64-bit word"
            )
        return cls(bits, id_bits, year_bits, years)

    @property
    def year_dtype(self) -> np.dtype:
        """The smallest dtype of a year index."""
        return np.min_scalar_type(self.years - 1)


def _step(budget: int, per_item: int, most: int) -> int:
    """Items per step when each item's temporaries take ``per_item`` bytes
    of ``budget``: at least 1 and at most ``most``."""
    return max(1, min(most, budget // per_item))


# --- emission --------------------------------------------------------------

def _comb_indices(m: int, s: int, tail: int, cache: dict) -> np.ndarray:
    """(c, s) column indices of the size-s combinations of m + ``tail``
    columns, each ascending, that end in the last ``tail`` columns; kept in
    ``cache``, the ledger's own, up to m = 24."""
    idx = cache.get((m, s, tail))
    if idx is None:
        ends = tuple(range(m, m + tail))
        combos = [c + ends for c in itertools.combinations(range(m), s - tail)]
        idx = np.array(combos, dtype=np.intp).reshape(len(combos), s)
        if m <= 24:
            cache[(m, s, tail)] = idx
    return idx


def _emit(
    words: np.ndarray,
    end: int,
    rows: np.ndarray,
    idx: np.ndarray,
    tags: np.ndarray,
    first: int,
    layout: Layout,
) -> int:
    """Write the words of the combinations ``idx``, (c, s) ascending row
    indices that each end in the last row, of each column of ``rows``, (m,
    n) uint64 ids ascending down each of the n columns, into ``words`` from
    ``end``; returns the end of what was written.  A word holds the smaller
    ids above the largest less ``first``, above the year index ``tags``, one
    per column.  Each of the s - 1 smaller ids of a word is shifted into
    place in ``rows`` first, so that the words are ORs of whole rows taken
    by ``idx``."""
    s = idx.shape[1]
    block = words[end : end + idx.shape[0] * rows.shape[1]].reshape(idx.shape[0], -1)
    shift = layout.year_bits + layout.id_bits + layout.bits * (s - 2)
    np.take(rows << np.uint64(shift), idx[:, 0], axis=0, out=block, mode="clip")
    for col in range(1, s - 1):
        shift -= layout.bits
        block |= np.take(rows << np.uint64(shift), idx[:, col], axis=0, mode="clip")
    block |= ((rows[-1] - np.uint64(first)) << np.uint64(layout.year_bits)) | tags
    return end + block.size


def _filled(words: np.ndarray, end: int) -> None:
    """Raise unless exactly the words the plan counted were written."""
    if end != words.size:
        raise LedgerError(f"{end} words were written where the plan counted {words.size}")


def _ranges(
    year_starts: np.ndarray, size: int
) -> Iterator[tuple[int, int, int]]:
    """Each year index, with each range lo..hi-1 of at most ``size`` of its
    articles."""
    bounds = year_starts.tolist()
    for tag in range(len(bounds) - 1):
        for lo in range(bounds[tag], bounds[tag + 1], size):
            yield tag, lo, min(lo + size, bounds[tag + 1])


def _batch_rows(combos: int, width: int, budget: int) -> int:
    """Rows per emission batch when each row of ``width`` ids emits
    ``combos`` words: at most `_EMIT_CHUNK` words and ids gathered, whose
    temporaries take at most a quarter of ``budget``, unless one row alone
    takes more."""
    row = _BATCH_BYTES_PER_WORD * combos + _BATCH_BYTES_PER_ID * width
    return max(1, min(_EMIT_CHUNK // (combos + width), budget // 4 // row))


def census(view: tuple[np.ndarray, ...], s: int) -> tuple[int, np.ndarray]:
    """The exact number of size-s combinations over all articles, and each
    year's count of articles with at least s keywords, from one pass over
    the offsets a range of articles at a time."""
    _, year_starts, offsets = view[:3]
    emissions = 0
    processed = np.zeros(year_starts.size - 1, dtype=np.int64)
    for tag, lo, hi in _ranges(year_starts, _CENSUS_CHUNK):
        sizes = np.bincount(offsets[lo + 1 : hi + 1] - offsets[lo:hi]).tolist()
        emissions += sum(math.comb(m, s) * n for m, n in enumerate(sizes))
        processed[tag] += sum(sizes[s:])
    return emissions, processed


# --- the plan and its passes -----------------------------------------------


@dataclass(frozen=True)
class _Pass:
    """One pass: the ``size`` combinations that hold every id of
    ``holders`` as their largest, and whose next largest dense id lies in
    ``first:last``, from ``entries`` index entries, each an article holding
    the holders and a row position j >= k - len(holders), before the last
    holder, whose id lies there.

    A plain pass has no holders.  A ``whole`` pass is one combination, the
    holders and id ``first``, whose ``size`` articles outnumber a pass; it
    has no entries.
    """

    holders: tuple[int, ...]
    first: int
    last: int
    size: int
    entries: int
    whole: bool = False

    @property
    def base(self) -> int:
        """The largest dense id of the pass's keys, less which their low
        bits hold their largest id."""
        return self.holders[0] if self.holders else self.first


@dataclass(frozen=True)
class Plan:
    """The passes in order of largest ids, and the row positions an index
    cell of a pass spans: from k - len(holders) to the widest row's last
    before its holders."""

    passes: list[_Pass]
    positions: int


def _common(
    view: tuple[np.ndarray, ...], ids: tuple[int, ...], step: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The places and row positions, ``step`` at a time, of the last of
    dense ``ids`` in the articles that hold them all.  An id lies at most
    once in an article, so an article holds one when that id's first place
    at or after the article's start lies in it."""
    heads, places, positions = view[6:9]
    at, position = (x[heads[ids[-1]] : heads[ids[-1] + 1]] for x in (places, positions))
    for lo in range(0, at.size, step):
        hits, j = at[lo : lo + step], position[lo : lo + step]
        for d in ids[:-1]:
            there, starts = places[heads[d] : heads[d + 1]], hits - j
            i = np.minimum(np.searchsorted(there, starts), there.size - 1)
            keep = there[i] - positions[heads[d] + i] == starts
            hits, j = hits[keep], j[keep]
        yield hits, j


def _reads(
    view: tuple[np.ndarray, ...], step: int, holders: tuple[int, ...], first: int,
    last: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The places in the ids, the ids and the row positions of a pass's
    candidate entries, about ``step`` at a time: the slices of ids
    first..last-1 in the view's transpose, or under ``holders`` the ids
    before the last holder in the articles that hold them all."""
    ids, heads, places, positions = view[3], view[6], view[7], view[8]
    if not holders:
        end = int(heads[last])
        for lo in range(int(heads[first]), end, step):
            hi = min(lo + step, end)
            d = int(np.searchsorted(heads, lo, "right")) - 1
            runs = np.diff(np.clip(heads[d : np.searchsorted(heads, hi) + 1], lo, hi))
            row = np.repeat(np.arange(d, d + runs.size, dtype=np.uint32), runs)
            yield places[lo:hi], row, positions[lo:hi]
        return
    for hits, j in _common(view, holders, step):
        starts, j = hits - j, j.astype(np.int64)
        cuts = _cut(j, step, j.size)
        for a, b in zip(cuts, cuts[1:]):
            runs = j[a:b]
            position = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
            at = np.repeat(starts[a:b], runs)
            np.add(at, position, out=at, casting="unsafe")
            yield at, ids[at], position


def _weigh(
    view: tuple[np.ndarray, ...],
    r: int,
    widest: int,
    step: int,
    holders: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Per dense id, the sum of C(j, r) over the row positions j where it
    lies, and how many of those are r or more, for rows of at most
    ``widest`` ids.

    Without holders each id's own places are summed, a run of them at a
    time.  With ``holders``, only the ids below the last in the articles
    holding them all count, each the next largest id of C(j, r)
    combinations ending in it and the holders.
    """
    n = holders[-1] if holders else view[4].size
    sums = np.zeros(n, dtype=np.int64)
    entries = np.zeros(n, dtype=np.int64)
    weights = np.array([math.comb(j, r) for j in range(widest)], np.int64)
    for _, row, position in _reads(view, step, holders, 0, n):
        if holders:
            np.add.at(sums, row, weights[position])
            entries += np.bincount(row[position >= r], minlength=n)
        else:
            cuts = np.flatnonzero(run_heads(row))
            sums[row[cuts]] += np.add.reduceat(weights[position], cuts)
            entries[row[cuts]] += np.add.reduceat(position >= r, cuts, dtype=np.int64)
    return sums, entries


def _cut(counts: np.ndarray, target: int, most: int) -> list[int]:
    """Cuts of ids 0..n into ranges of at most ``most`` ids whose
    ``counts`` sum to at most ``target``, unless one id alone holds more."""
    ends = np.cumsum(counts)
    cuts = [0]
    while cuts[-1] < counts.size:
        a = cuts[-1]
        b = int(np.searchsorted(ends, (ends[a - 1] if a else 0) + target, "right"))
        cuts.append(min(max(b, a + 1), a + most))
    return cuts


def plan(
    view: tuple[np.ndarray, ...], k: int, layout: Layout, budget: int, shard_count: int
) -> Plan:
    """The exact plan of a ledger's passes.

    Each dense id's emissions, the C(j, k) combinations it ends at each row
    position j, and its index entries are summed over its slice of the
    transpose.  Ranges of ids are cut at a pass's capacity of budget / 24
    emissions, at most 2^id_bits ids, and at E / shard_count emissions,
    unless one id alone holds more.  An id whose own emissions exceed a
    pass becomes a holder: the rows of the articles holding it and the
    holders above it count its combinations by their next largest id,
    C(j, k - r) at row position j under r holders, and the same cuts divide
    them into passes, down to k holders.  An id that still outnumbers a
    pass under k holders is a whole pass, one combination.
    """
    step = _step(budget, _READ_BYTES_PER_PLACE, _READ_CHUNK)
    positions = view[8]
    widest = int(positions.max()) + 1 if positions.size else 0
    emissions, entries = _weigh(view, k, widest, step)
    cap = budget // PASS_BYTES_PER_KEY
    target = min(cap, max(1, int(emissions.sum()) // shard_count))
    passes = []

    def cut(
        holders: tuple[int, ...], emissions: np.ndarray, entries: np.ndarray, most: int
    ) -> None:
        cuts = _cut(emissions, target, most)
        for a, b in zip(cuts, cuts[1:]):
            size = int(emissions[a:b].sum())
            if emissions[a] <= cap:
                # Under a holder an empty range has nothing to count.
                if size or not holders:
                    passes.append(_Pass(holders, a, b, size, int(entries[a:b].sum())))
            elif len(holders) < k:
                # A range whose first id alone exceeds a pass is that id alone.
                below = holders + (a,)
                cut(below, *_weigh(view, k - len(below), widest, step, below), a)
            else:
                passes.append(_Pass(holders, a, b, size, 0, whole=True))

    cut((), emissions, entries, 1 << layout.id_bits)
    # `cut` calls itself: its closure would keep the view until a collection.
    del cut
    return Plan(passes, max(1, widest - k))


def _index(
    view: tuple[np.ndarray, ...], k: int, part: _Pass, positions: int, step: int,
    words: np.ndarray, places: np.ndarray,
) -> np.ndarray:
    """The index of pass ``part``: in the front of ``places``, the place in
    the ids of each of its entries' ids, ordered by row position; returns
    where the cell of each position from k - len(holders) on ends, with a 0
    before the first.

    `_reads` finds the entries: the slices of the pass's ids, or under
    holders the rows before the last holder in the articles holding them
    all.  Each entry becomes one word in the front of ``words``, its cell
    above its place, and one sort orders them.
    """
    least = k - len(part.holders)
    words = words[: part.entries]
    end = 0
    for at, row, position in _reads(view, step, part.holders, part.first, part.last):
        rel = row - np.uint32(part.first)
        # One nonzero search and two integer takes beat two boolean masks.
        chosen = np.flatnonzero((rel < part.last - part.first) & (position >= least))
        word = words[end : end + chosen.size]
        np.subtract(position[chosen], least, out=word, casting="unsafe")
        word <<= np.uint64(32)
        word |= at[chosen]
        end += chosen.size
    _filled(words, end)
    words.sort()
    cells = np.arange(positions + 1, dtype=np.uint64)
    ends = np.searchsorted(words, cells << np.uint64(32))
    np.bitwise_and(words, np.uint64(0xFFFFFFFF), out=places[: words.size], casting="unsafe")
    return ends


def _emit_pass(
    view: tuple[np.ndarray, ...],
    k: int,
    layout: Layout,
    cells: Iterator[tuple[int, np.ndarray]],
    first: int,
    words: np.ndarray,
    budget: int,
    indices: dict,
    holders: tuple[int, ...] = (),
) -> None:
    """Fill ``words`` with the combinations of one pass over the ids from
    ``first``, a batch at a time: for each of its ``cells``, a row position
    j and the ascending places in the ids of its ids at j, the C(j, k - r)
    combinations of each with the ids before it and the r ``holders``, by
    the ledger's combination ``indices``.

    Under holders, ``first`` is the first holder, the largest id of every
    combination.
    """
    _, year_starts, offsets, ids = view[:4]
    year_places = offsets[year_starts]
    tail = 1 + len(holders)
    # The holders, ascending, as rows under each batch's rows.
    stack = np.array(holders[::-1], dtype=np.uint64)[:, None]
    end = 0
    for j, at in cells:
        idx = _comb_indices(j, k + 1, tail, indices)
        batch = _batch_rows(len(idx), j + tail, budget)
        columns = np.arange(-j, 1)[:, None]
        for start in range(0, at.size, batch):
            chosen = at[start : start + batch]
            # The places ascend, so each year's are one run of them.
            runs = np.diff(np.searchsorted(chosen, year_places))
            tags = np.repeat(np.arange(runs.size, dtype=np.uint64), runs)
            rows = ids[chosen + columns].astype(np.uint64)
            if holders:
                rows = np.vstack((rows, np.repeat(stack, chosen.size, axis=1)))
            end = _emit(words, end, rows, idx, tags, first, layout)
    _filled(words, end)


def _row_cells(
    view: tuple[np.ndarray, ...], k: int, budget: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The cells of the pass over the full range of ids, read off the rows:
    a range of articles at a time, grouped by keyword count m, each row
    position j = k..m-1 with the places of those articles' ids at j."""
    offsets = view[2]
    n = offsets.size - 1
    size = _step(budget, _RANGE_BYTES_PER_ARTICLE, _EMIT_CHUNK)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        starts = offsets[lo:hi]
        counts = offsets[lo + 1 : hi + 1] - starts
        for m in (np.flatnonzero(np.bincount(counts)[k + 1 :]) + k + 1).tolist():
            group = starts[counts == m]
            for j in range(k, m):
                yield j, group + j


def _count_words(
    words: np.ndarray,
    layout: Layout,
    first: int,
    debut_index: np.ndarray,
    step: int,
) -> np.ndarray:
    """Per-year new and peripheral counts, as two rows, of one pass's
    ``words``, its keys over the ids from ``first`` above a year index.

    `keep_first` keeps each key's word of its first year.  The key's low
    ``id_bits`` bits, plus ``first``, are its largest dense id, which
    debuted last among its keywords; a key is peripheral when that id
    debuted in its first year, by ``debut_index``, each id's debut as a
    year index.  `np.bincount` copies its input as intp, so the keys are
    counted ``step`` at a time.
    """
    keys, year = keep_first(words, layout.year_bits, layout.year_dtype)
    keys &= np.uint64((1 << layout.id_bits) - 1)
    # As int64 the keys index without a converted copy.
    keys = keys.view(np.int64)
    debuts = debut_index[first:]
    tally = np.zeros((2, layout.years), dtype=np.int64)
    for start in range(0, year.size, step):
        first_year = year[start : start + step]
        tally[0] += np.bincount(first_year, minlength=layout.years)
        debuted = debuts[keys[start : start + step]] == first_year
        tally[1] += np.bincount(first_year[debuted], minlength=layout.years)
    return tally


def _checked(p: int, years: np.ndarray, tally: np.ndarray) -> np.ndarray:
    """``tally``, pass p's new and peripheral counts, once each year's
    peripheral count lies in 0..new."""
    new, peripheral = tally
    bad = np.flatnonzero((peripheral < 0) | (peripheral > new))
    if bad.size:
        i = int(bad[0])
        raise LedgerError(
            f"pass {p}: {peripheral[i]} peripheral of {new[i]} new combinations "
            f"in {years[i]}"
        )
    return tally


def _tally_pass(
    view: tuple[np.ndarray, ...],
    k: int,
    layout: Layout,
    places: np.ndarray,
    ends: np.ndarray,
    part: _Pass,
    words: np.ndarray,
    debut_index: np.ndarray,
    budget: int,
    indices: dict,
) -> np.ndarray:
    """The new and peripheral counts of pass ``part``, emitted into
    ``words`` from its index: ``places[ends[c]:ends[c + 1]]`` are its ids'
    places at row position k - r + c under r holders."""
    bounds = ends.tolist()
    least = k - len(part.holders)
    cells = (
        (c + least, places[a:b])
        for c, (a, b) in enumerate(zip(bounds, bounds[1:]))
        if a < b
    )
    _emit_pass(view, k, layout, cells, part.base, words, budget, indices, part.holders)
    count = _step(budget, _COUNT_BYTES_PER_WORD, _COUNT_CHUNK)
    return _count_words(words, layout, part.base, debut_index, count)


def _tally_whole(
    view: tuple[np.ndarray, ...],
    layout: Layout,
    part: _Pass,
    debut_index: np.ndarray,
    step: int,
) -> np.ndarray:
    """The new and peripheral counts of whole pass ``part``: its one
    combination is new in the year of the first article that holds it, the
    first that holds its holders and id ``first``, read ``step`` places of
    that id at a time, and peripheral when its largest id, the first
    holder, debuted then."""
    _, year_starts, offsets = view[:3]
    tally = np.zeros((2, layout.years), dtype=np.int64)
    for at, _ in _common(view, (*part.holders, part.first), step):
        if at.size:
            year = int(np.searchsorted(offsets[year_starts], at[0], "right")) - 1
            tally[:, year] = 1, debut_index[part.base] == year
            break
    return tally


def tally_all(
    view: tuple[np.ndarray, ...],
    s: int,
    layout: Layout,
    emissions: int,
    debut_index: np.ndarray,
    budget: int,
) -> np.ndarray:
    """The checked new and peripheral counts of the one pass over the full
    range of ids, which holds all ``emissions``: its cells are read off the
    rows, so it needs no plan or index, and writes nothing."""
    words = np.empty(emissions, dtype=np.uint64)
    cells = _row_cells(view, s - 1, budget)
    _emit_pass(view, s - 1, layout, cells, 0, words, budget, {})
    count = _step(budget, _COUNT_BYTES_PER_WORD, _COUNT_CHUNK)
    return _checked(0, view[0], _count_words(words, layout, 0, debut_index, count))


def tallies(
    view: tuple[np.ndarray, ...],
    k: int,
    layout: Layout,
    plan: Plan,
    done: int,
    budget: int,
    debut_index: np.ndarray,
) -> Iterator[np.ndarray]:
    """Each pass's checked tally from pass ``done`` on.

    Each pass builds its own index, which reads only its own entries; a
    whole pass needs none.  Every index and pass is built in the same two
    arrays, allocated once, so that no pass allocates anew beside the last
    one's pages: an index is sorted as (cell, place) words in the front of
    ``words`` and kept as places, and the pass then takes the front of
    ``words`` for its own words; it has at most one entry an emission.  The
    passes share one cache of combination indices, dropped when the last
    pass is done.
    """
    passes = plan.passes[done:]
    sizes = [part.size for part in passes if not part.whole]
    words = np.empty(max(sizes, default=0), dtype=np.uint64)
    entries = [part.entries for part in passes]
    places = np.empty(max(entries, default=0), dtype=np.uint32)
    step = _step(budget, _READ_BYTES_PER_PLACE, _READ_CHUNK)
    indices: dict = {}
    for p, part in enumerate(passes, done):
        if part.whole:
            tally = _tally_whole(view, layout, part, debut_index, step)
        else:
            ends = _index(view, k, part, plan.positions, step, words, places)
            tally = _tally_pass(
                view, k, layout, places, ends, part, words[: part.size], debut_index,
                budget, indices,
            )
        yield _checked(p, view[0], tally)
