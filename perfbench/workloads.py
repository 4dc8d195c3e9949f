"""Benchmark workloads and their seeded input generator.

The generator is the benchmark's own: it does not use ``simplexledger.synth``,
so a change to the program cannot change the inputs it is measured on.  A
corpus is held in memory as CSR arrays (articles sorted by year, keyword ids
ascending within an article) and written out as the two TSV files a user hands
to ``simplexledger ingest``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tree-number branch letters that the default branch filter accepts.
_BRANCHES = "ABCDEFGJLN"
PUB_TYPE = "Journal Article"
# Share of keyword mentions marked major.
MAJOR_P = 0.5


FIRST_YEAR = 1990


@dataclass(frozen=True)
class Shape:
    """Corpus shape: each year the same number of articles, each with the same
    number of keywords drawn uniformly from the keywords entered so far, and
    ``per_year_vocab`` new keywords entering."""

    years: int
    articles_per_year: int
    per_year_vocab: int
    keywords: int

    @property
    def vocab(self) -> int:
        return self.years * self.per_year_vocab


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    ks: tuple[int, ...]
    refinements: tuple[str, ...]
    run_options: tuple[str, ...] = ()
    # Sum of C(m, k+1) over articles and (k, refinement) pairs, where the
    # shape fixes it whatever the seed.
    expected_emissions: int | None = None

    def run_args(self) -> list[str]:
        return [
            "--k", ",".join(map(str, self.ks)),
            "--refinement", ",".join(self.refinements),
            *self.run_options,
        ]

    def pairs(self) -> list[tuple[int, str]]:
        return [(k, r) for k in self.ks for r in self.refinements]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quartet-spill",
            Shape(years=20, articles_per_year=250, per_year_vocab=100, keywords=10),
            ks=(3,),
            refinements=("all",),
            # Each year's 420 KB of keys passes the spill threshold, half of
            # the 512 KiB budget, so every year spills.
            run_options=("--shard-count", "4", "--memory-budget", "524288"),
            expected_emissions=5_000 * math.comb(10, 4),
        ),
        Workload(
            "all-orders",
            Shape(years=20, articles_per_year=500, per_year_vocab=75, keywords=6),
            ks=(1, 2, 3),
            refinements=("all", "major"),
        ),
    )
}


@dataclass
class Corpus:
    """Generated articles in year order, keyword ids ascending per article."""

    years: np.ndarray  # (n,) int64
    offsets: np.ndarray  # (n + 1,) int64 into ids / major
    ids: np.ndarray  # (total,) int64
    major: np.ndarray  # (total,) bool
    vocab: int

    def counts(self, refinement: str) -> np.ndarray:
        """Keywords per article under the refinement."""
        if refinement == "all":
            return np.diff(self.offsets)
        owner = np.repeat(np.arange(len(self.years)), np.diff(self.offsets))
        return np.bincount(owner[self.major], minlength=len(self.years))

    def emissions(self, k: int, refinement: str) -> int:
        """Sum over articles of C(m, k+1): the keys the ledger must emit."""
        m = np.bincount(self.counts(refinement))
        return sum(int(c) * math.comb(size, k + 1) for size, c in enumerate(m))


def _distinct_rows(rng: np.random.Generator, n: int, m: int, pool: int) -> np.ndarray:
    """(n, m) ascending rows of distinct ids drawn uniformly from [0, pool).

    Duplicates are redrawn until none remain, so every row is a set.
    """
    rows = rng.integers(0, pool, size=(n, m))
    while True:
        rows.sort(axis=1)
        dup = np.zeros(rows.shape, dtype=bool)
        dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
        count = int(dup.sum())
        if not count:
            return rows
        rows[dup] = rng.integers(0, pool, size=count)


def generate(shape: Shape, seed: int, salt: str = "") -> Corpus:
    """The corpus for ``shape``; the same seed and salt give the same corpus."""
    if shape.per_year_vocab < shape.keywords:
        raise ValueError("first year's vocabulary is smaller than an article")
    rng = np.random.default_rng([seed, zlib.crc32(salt.encode())])
    ids = np.concatenate(
        [
            _distinct_rows(
                rng, shape.articles_per_year, shape.keywords, shape.per_year_vocab * (i + 1)
            ).ravel()
            for i in range(shape.years)
        ]
    ).astype(np.int64)
    years = np.repeat(
        np.arange(FIRST_YEAR, FIRST_YEAR + shape.years, dtype=np.int64),
        shape.articles_per_year,
    )
    offsets = np.arange(years.size + 1, dtype=np.int64) * shape.keywords
    major = rng.random(ids.size) < MAJOR_P
    return Corpus(years, offsets, ids, major, shape.vocab)


def code(keyword_id: int) -> str:
    return f"D{keyword_id:06d}"


def write_ontology(vocab: int, path: Path) -> None:
    """Descriptor TSV; ids are assigned in file order, so row i is id i."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("external_code\tname\ttree_numbers\n")
        for i in range(vocab):
            branch = _BRANCHES[i % len(_BRANCHES)]
            f.write(f"{code(i)}\tTerm {i}\t{branch}{i % 100:02d}.{i:06d}\n")


def write_corpus(corpus: Corpus, path: Path) -> None:
    plain = [code(i) for i in range(corpus.vocab)]
    starred = ["*" + c for c in plain]
    ids = corpus.ids.tolist()
    major = corpus.major.tolist()
    offsets = corpus.offsets.tolist()
    with open(path, "w", encoding="utf-8") as f:
        for a, year in enumerate(corpus.years.tolist()):
            lo, hi = offsets[a], offsets[a + 1]
            kws = ";".join(
                starred[ids[j]] if major[j] else plain[ids[j]] for j in range(lo, hi)
            )
            f.write(f"PB{a:07d}\t{year}\t{PUB_TYPE}\t{kws}\n")
