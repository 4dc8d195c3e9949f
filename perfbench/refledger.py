"""Independent reference ledger for the benchmark's generated corpora.

It shares no code with ``simplexledger``: every (k+1)-combination of every
article is packed into one 64-bit word together with its year, all words are
sorted in memory, and the first word of each combination gives its debut year.
Peripheral counts come from the keywords' own debut years.  The result is the
exact text ``simplexledger run`` must write to ``ledger_k{k}_{refinement}.csv``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from workloads import Corpus

LEDGER_HEADER = (
    "year,k,refinement,new_simplices,new_peripheral,new_keywords,"
    "articles_processed,cum_simplices,cum_keywords,cum_articles\n"
)
_BATCH_KEYS = 1 << 20
_SCAN_KEYS = 1 << 21


def _refined(corpus: Corpus, refinement: str) -> tuple[np.ndarray, np.ndarray]:
    """Keyword ids and per-article offsets under the refinement."""
    if refinement == "all":
        return corpus.ids, corpus.offsets
    counts = corpus.counts(refinement)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return corpus.ids[corpus.major], offsets


def reference_csv(corpus: Corpus, k: int, refinement: str) -> str:
    s = k + 1
    first_year = int(corpus.years[0])
    span = int(corpus.years[-1]) - first_year + 1
    year_bits = max(1, span.bit_length())
    id_bits = max(1, (corpus.vocab - 1).bit_length())
    if id_bits * s + year_bits > 63:
        raise ValueError("vocabulary too large to pack for the reference")
    ids, offsets = _refined(corpus, refinement)
    counts = np.diff(offsets)
    year_off = corpus.years - first_year

    # Debut year of each keyword: articles are in year order, so the first
    # occurrence in the flat id array is the earliest.
    kw, first_pos = np.unique(ids, return_index=True)
    owner = np.searchsorted(offsets, first_pos, side="right") - 1
    debut = np.full(corpus.vocab, -1, dtype=np.int64)
    debut[kw] = year_off[owner]

    words = np.empty(corpus.emissions(k, refinement), dtype=np.uint64)
    filled = 0
    for m in np.unique(counts[counts >= s]):
        arts = np.flatnonzero(counts == m)
        idx = np.array(list(combinations(range(m), s)), dtype=np.intp).reshape(-1, s)
        batch = max(1, _BATCH_KEYS // len(idx))
        for lo in range(0, arts.size, batch):
            a = arts[lo : lo + batch]
            rows = ids[offsets[a][:, None] + np.arange(m)].astype(np.uint64)
            combos = rows[:, idx]  # (articles, C(m, s), s)
            word = np.zeros(combos.shape[:2], dtype=np.uint64)
            for j in range(s):
                word = (word << np.uint64(id_bits)) | combos[:, :, j]
            word = (word << np.uint64(year_bits)) | year_off[a].astype(np.uint64)[:, None]
            words[filled : filled + word.size] = word.ravel()
            filled += word.size
    words.sort()

    new = np.zeros(span, dtype=np.int64)
    peripheral = np.zeros(span, dtype=np.int64)
    year_mask = np.uint64((1 << year_bits) - 1)
    id_mask = np.uint64((1 << id_bits) - 1)
    prev = None
    for lo in range(0, words.size, _SCAN_KEYS):
        block = words[lo : lo + _SCAN_KEYS]
        key = block >> np.uint64(year_bits)
        first = np.empty(key.size, dtype=bool)
        first[0] = prev is None or key[0] != prev
        np.not_equal(key[1:], key[:-1], out=first[1:])
        prev = key[-1]
        key = key[first]
        year = (block[first] & year_mask).astype(np.int64)
        new += np.bincount(year, minlength=span)
        is_peripheral = np.zeros(key.size, dtype=bool)
        for j in range(s):
            member = ((key >> np.uint64(id_bits * j)) & id_mask).astype(np.int64)
            is_peripheral |= debut[member] == year
        peripheral += np.bincount(year[is_peripheral], minlength=span)

    new_keywords = np.bincount(debut[debut >= 0], minlength=span)
    processed = np.bincount(year_off[counts >= s], minlength=span)
    lines = [LEDGER_HEADER]
    cum = np.cumsum([new, new_keywords, processed], axis=1)
    for i in range(span):
        lines.append(
            f"{first_year + i},{k},{refinement},{new[i]},{peripheral[i]},"
            f"{new_keywords[i]},{processed[i]},{cum[0, i]},{cum[1, i]},{cum[2, i]}\n"
        )
    return "".join(lines)

