import io
import itertools
import json
import math
import os
import random
import shutil
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simplexledger.corpus as corpus_mod
import simplexledger.ledger as ledger_mod
import simplexledger.passes as passes_mod
from simplexledger.corpus import (
    ArticleRecord,
    CorpusError,
    CorpusStore,
    load_store,
    save_store,
)
from simplexledger.ledger import (
    LedgerConfig,
    LedgerError,
    keyword_debut_years,
    oracle_tabulate,
    tabulate,
)
from simplexledger.synth import SynthParams, generate_synthetic


def _random_corpus(seed, n_articles=None, vocab=None, years=None):
    rng = random.Random(seed)
    vocab = vocab or rng.randint(20, 120)
    span = (years or rng.randint(4, 15)) + 1
    # Keep the entry schedule feasible: total debuts must fit the vocabulary
    # and the opening year needs at least two keywords to sample from.
    front = vocab // 2 + 1
    trickle = (vocab - front) // max(1, span - 1)
    staged = {1990 + i: front if i == 0 else trickle for i in range(span)}
    entry = rng.choice([None, staged])
    return generate_synthetic(
        SynthParams(
            n_articles=n_articles or rng.randint(50, 500),
            vocab_size=vocab,
            year_start=1990,
            year_end=1990 + span - 1,
            keywords_per_article=(2, 8),
            major_fraction=rng.uniform(0.2, 0.9),
            new_keywords_per_year=entry,
            seed=seed,
        )
    )


# --- enumeration -----------------------------------------------------------


def test_four_keywords_give_six_four_one(engine_simplices):
    kws = {3, 9, 1, 7}
    assert len(engine_simplices(kws, 1)) == 6
    assert len(engine_simplices(kws, 2)) == 4
    assert len(engine_simplices(kws, 3)) == 1


def test_twelve_keywords_give_495_quartets(engine_simplices):
    assert len(engine_simplices(range(12), 3)) == 495


def test_insufficient_arity_gives_empty(engine_simplices):
    assert engine_simplices({1, 2}, 2) == []


def test_combinations_are_sorted_and_distinct(engine_simplices):
    out = engine_simplices({5, 2, 9, 1}, 1)
    assert all(a < b for a, b in out)
    assert len(set(out)) == len(out)


def test_counts_match_binomial_for_random_sets(engine_simplices):
    rng = random.Random(0)
    for _ in range(30):
        size = rng.randint(2, 15)
        kws = set(rng.sample(range(1000), size))
        for k in (1, 2, 3):
            assert len(engine_simplices(kws, k)) == math.comb(size, k + 1)


def test_negative_order_rejected():
    with pytest.raises(LedgerError):
        LedgerConfig(k=-1)
    with pytest.raises(LedgerError):
        oracle_tabulate(CorpusStore(), -1)


# --- debut years -----------------------------------------------------------


def test_debut_is_minimum_year():
    store = CorpusStore()
    store.add(ArticleRecord("a", 1995, frozenset({7, 8}), frozenset()))
    store.add(ArticleRecord("b", 1990, frozenset({7, 9}), frozenset()))
    assert keyword_debut_years(store, "all")[7] == 1990


def test_debut_differs_by_refinement():
    store = CorpusStore()
    store.add(ArticleRecord("a", 1990, frozenset({1, 2}), frozenset()))
    store.add(ArticleRecord("b", 2001, frozenset({1, 2}), frozenset({1})))
    assert keyword_debut_years(store, "all")[1] == 1990
    assert keyword_debut_years(store, "major")[1] == 2001


def test_empty_corpus_debuts():
    assert keyword_debut_years(CorpusStore(), "all") == {}


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda store: store.view("partial"), CorpusError, id="view"),
        pytest.param(
            lambda store: next(store.iter_records()).keywords("partial"),
            CorpusError,
            id="keywords",
        ),
        pytest.param(
            lambda store: keyword_debut_years(store, "partial"),
            LedgerError,
            id="debut-years",
        ),
        pytest.param(
            lambda store: oracle_tabulate(store, 1, "partial"), LedgerError, id="oracle"
        ),
    ],
)
def test_unknown_refinement_raises_a_named_error(two_article_corpus, call, error):
    with pytest.raises(error, match="unknown refinement 'partial'"):
        call(two_article_corpus)


# --- tabulate vs worked examples ------------------------------------------


def test_two_article_corpus_pairs(two_article_corpus, tmp_path):
    series = tabulate(
        two_article_corpus,
        LedgerConfig(k=1, refinement="all", spill_directory=tmp_path),
    )
    assert series.years == [2000, 2001]
    assert series.new_simplices == [3, 2]
    assert series.cum_simplices == [3, 5]
    assert series.new_peripheral == [3, 2]
    assert series.new_keywords == [3, 1]


def test_two_article_corpus_triads(two_article_corpus, tmp_path):
    series = tabulate(
        two_article_corpus,
        LedgerConfig(k=2, refinement="all", spill_directory=tmp_path),
    )
    assert series.new_simplices == [1, 1]
    assert series.new_peripheral == [1, 1]


def test_single_article_oracle():
    store = CorpusStore()
    store.add(ArticleRecord("a", 1999, frozenset(range(6)), frozenset(range(6))))
    for k in (1, 2, 3):
        series = oracle_tabulate(store, k, "all")
        assert series.new_simplices == [math.comb(6, k + 1)]
        assert series.new_peripheral == series.new_simplices


def test_duplicate_article_in_later_year_adds_nothing():
    store = CorpusStore()
    store.add(ArticleRecord("a", 1999, frozenset({1, 2, 3}), frozenset()))
    store.add(ArticleRecord("b", 2001, frozenset({1, 2, 3}), frozenset()))
    series = oracle_tabulate(store, 1, "all")
    assert series.new_simplices == [3, 0, 0]


def test_oracle_guard(monkeypatch):
    monkeypatch.setattr(ledger_mod, "_ORACLE_GUARD", 1000)
    store = CorpusStore()
    store.add(ArticleRecord("a", 1999, frozenset(range(40)), frozenset()))
    with pytest.raises(LedgerError, match="guard of 1000"):
        oracle_tabulate(store, 3, "all")


# --- pipeline equivalence and invariants ----------------------------------


# At 1 MiB the ledgers here take at least shard_count passes; at the
# smallest budget some need more than one pass of their own.
_MIN_BUDGET = ledger_mod._MIN_MEMORY_BUDGET
_BUDGETS = [pytest.param(1 << 20, id="1MiB"), pytest.param(_MIN_BUDGET, id="min")]


def _manifest(ledger_dir):
    return json.loads((ledger_dir / "manifest.json").read_text())


class Interrupt(Exception):
    pass


def _commits(corpus, config, until=None, observe=None):
    """Run ``tabulate`` with ``_append`` wrapped, and only then; the series,
    None if interrupted, and the finished passes at each commit.

    A commit is one record of running tallies appended after a pass.  After
    each, ``observe(finished)`` runs, if given; with ``until``, Interrupt is
    raised right after the first commit that finishes at least ``until``
    passes.
    """
    append = ledger_mod._append
    commits = []

    def recording(fd, values):
        append(fd, values)
        commits.append(os.fstat(fd).st_size // values.nbytes)
        if observe is not None:
            observe(commits[-1])
        if until is not None and commits[-1] >= until:
            raise Interrupt

    series = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger_mod, "_append", recording)
        if until is None:
            series = tabulate(corpus, config)
        else:
            with pytest.raises(Interrupt):
                tabulate(corpus, config)
    return series, commits


def _recorded(monkeypatch, name, arg):
    """A list that gains argument ``arg`` of each call of pass engine
    function ``name``."""
    calls = []
    fn = getattr(passes_mod, name)

    def recording(*args):
        calls.append(args[arg])
        return fn(*args)

    monkeypatch.setattr(passes_mod, name, recording)
    return calls


@pytest.mark.parametrize(
    "seed, budget",
    [pytest.param(seed, 1 << 20, id=str(seed)) for seed in range(8)]
    + [pytest.param(seed, _MIN_BUDGET, id=f"{seed}-min") for seed in range(8)],
)
def test_tabulate_matches_oracle(seed, budget, tmp_path):
    corpus = _random_corpus(seed)
    # At the smallest budget one pass is the floor, so that the budget alone
    # sets the pass count.
    shard_count = 3 if budget > _MIN_BUDGET else 1
    passes = []
    for k in (1, 2, 3):
        for refinement in ("all", "major"):
            oracle = oracle_tabulate(corpus, k, refinement)
            exact = tabulate(
                corpus,
                LedgerConfig(
                    k=k,
                    refinement=refinement,
                    spill_directory=tmp_path / f"s{seed}",
                    shard_count=shard_count,
                    memory_budget_bytes=budget,
                ),
            )
            assert exact == oracle
            ledger_dir = tmp_path / f"s{seed}" / f"k{k}" / refinement
            if not ledger_dir.exists():
                # One pass over the full range writes nothing.
                passes.append(1)
                continue
            passes.append(_manifest(ledger_dir)["passes"])
            # A complete ledger keeps only its manifest.
            assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]
    if budget == _MIN_BUDGET:
        assert max(passes) > 1
    else:
        # Every ledger has a plan, and one with emissions to spare takes
        # at least shard_count passes.
        assert len(passes) == 6 and max(passes) >= shard_count


def test_shard_count_does_not_change_result(tmp_path):
    corpus = _random_corpus(99, n_articles=600)
    results = []
    for shards in (1, 4, 16):
        results.append(
            tabulate(
                corpus,
                LedgerConfig(
                    k=2,
                    refinement="all",
                    spill_directory=tmp_path / f"sh{shards}",
                    shard_count=shards,
                ),
            )
        )
    assert results[0] == results[1] == results[2]


def test_within_year_article_order_is_irrelevant(tmp_path):
    base = CorpusStore()
    shuffled = CorpusStore()
    rng = random.Random(4)
    records = []
    for i in range(60):
        kws = frozenset(rng.sample(range(30), rng.randint(2, 6)))
        records.append((1995 + i % 3, kws))
    for i, (year, kws) in enumerate(records):
        base.add(ArticleRecord(f"a{i:03d}", year, kws, kws))
        # Reversed naming permutes the processing order inside each year.
        shuffled.add(ArticleRecord(f"a{len(records) - i:03d}", year, kws, kws))
    for k in (1, 2):
        assert oracle_tabulate(base, k, "all") == oracle_tabulate(
            shuffled, k, "all"
        )
        assert tabulate(
            base, LedgerConfig(k=k, spill_directory=tmp_path / f"b{k}")
        ) == tabulate(
            shuffled, LedgerConfig(k=k, spill_directory=tmp_path / f"s{k}")
        )


def test_refinement_monotonicity(tmp_path):
    corpus = _random_corpus(55)
    for k in (1, 2, 3):
        major = oracle_tabulate(corpus, k, "major")
        everything = oracle_tabulate(corpus, k, "all")
        for cm, ca in zip(major.cum_simplices, everything.cum_simplices):
            assert cm <= ca


def test_peripheral_bounds(tmp_path):
    for seed in range(5):
        corpus = _random_corpus(seed + 30)
        for k in (1, 2):
            series = oracle_tabulate(corpus, k, "all")
            for i in range(len(series.years)):
                assert 0 <= series.new_peripheral[i] <= series.new_simplices[i]
                if series.new_keywords[i] == 0:
                    assert series.new_peripheral[i] == 0


def test_per_article_emission_count_is_binomial(engine_simplices):
    corpus = _random_corpus(77, n_articles=100)
    for record in corpus.iter_records():
        for k in (1, 2, 3):
            n = len(engine_simplices(record.all_keywords, k))
            assert n == math.comb(len(record.all_keywords), k + 1)


def test_loaded_store_tabulates_from_columns(tmp_path, monkeypatch):
    buf = io.BytesIO()
    save_store(_random_corpus(91, n_articles=300), buf)
    hashed = []
    sha256 = corpus_mod._sha256
    monkeypatch.setattr(
        corpus_mod, "_sha256", lambda chunks: hashed.append(1) or sha256(chunks)
    )
    store = load_store(io.BytesIO(buf.getvalue()))
    pairs = [(k, r) for k in (1, 2, 3) for r in ("all", "major")]
    expected = {pair: oracle_tabulate(store, *pair) for pair in pairs}

    def no_records(self, year):
        raise AssertionError("tabulate read per-article records")

    monkeypatch.setattr(CorpusStore, "records_in", no_records)
    for k, refinement in pairs:
        config = LedgerConfig(
            k=k, refinement=refinement, spill_directory=tmp_path / f"{k}{refinement}"
        )
        assert tabulate(store, config) == expected[k, refinement]
    assert len(hashed) <= 1


def test_debut_order_is_computed_once_per_refinement(tmp_path, monkeypatch):
    store = _random_corpus(93, n_articles=300)
    computed = []
    view = CorpusStore._view

    def counting(self, refinement):
        computed.append(refinement)
        return view(self, refinement)

    monkeypatch.setattr(CorpusStore, "_view", counting)
    # `run`'s order: each refinement's ledgers together.
    for refinement in ("all", "major"):
        for k in (1, 2, 3):
            config = LedgerConfig(
                k=k, refinement=refinement, spill_directory=tmp_path / "a"
            )
            tabulate(store, config)
    assert computed == ["all", "major"]
    # One view is held at a time, so `all` after `major` is built again.
    store.view("all")
    assert computed == ["all", "major", "all"]
    # An added article debuts keywords, so a stale renumbering would show.
    late = store.years[-1] + 1
    store.add(ArticleRecord("z", late, frozenset({1, 500, 501}), frozenset({500})))
    for refinement in ("all", "major"):
        config = LedgerConfig(
            k=1, refinement=refinement, spill_directory=tmp_path / "b"
        )
        assert tabulate(store, config) == oracle_tabulate(store, 1, refinement)
    assert computed[3:] == ["all", "major"]


# --- configuration and failure modes --------------------------------------


def test_invalid_configs_rejected():
    with pytest.raises(LedgerError):
        LedgerConfig(k=4)
    with pytest.raises(LedgerError):
        LedgerConfig(k=0)
    with pytest.raises(LedgerError):
        LedgerConfig(refinement="partial")
    with pytest.raises(LedgerError):
        LedgerConfig(shard_count=0)
    for field, value in [
        ("k", 1.0),
        ("k", True),
        ("shard_count", 2.5),
        ("memory_budget_bytes", 1e6),
        ("memory_budget_bytes", "1048576"),
        ("k", np.bool_(True)),
        ("shard_count", np.float64(2.0)),
    ]:
        with pytest.raises(LedgerError, match=field):
            LedgerConfig(**{field: value})


def test_numpy_integer_configs_are_kept_as_int(two_article_corpus, tmp_path):
    # The fingerprint's JSON encodes k, so each field is stored as an int.
    config = LedgerConfig(
        k=np.int64(2),
        shard_count=np.int32(2),
        memory_budget_bytes=np.uint64(1 << 20),
        spill_directory=tmp_path,
    )
    values = [config.k, config.shard_count, config.memory_budget_bytes]
    assert values == [2, 2, 1 << 20]
    assert {type(v) for v in values} == {int}
    expected = oracle_tabulate(two_article_corpus, 2, "all")
    assert tabulate(two_article_corpus, config) == expected


def test_ledgers_without_emissions_tally_zero(tmp_path, monkeypatch):
    # No article has 4 keywords or 2 Major ones: k = 3, and every order
    # under major, emit no key.  At one shard each such ledger is one pass
    # over the full range; at two, a plan of one pass; each counts no word.
    store = CorpusStore()
    for i in range(50):
        kws = frozenset({i, i + 1, i + 2})
        store.add(ArticleRecord(f"a{i:02d}", 2000 + i % 5, kws, frozenset({i})))
    counted = _recorded(monkeypatch, "_count_words", 0)
    for shard_count in (1, 2):
        for k in (1, 2, 3):
            for refinement in ("all", "major"):
                config = LedgerConfig(
                    k=k,
                    refinement=refinement,
                    shard_count=shard_count,
                    spill_directory=tmp_path,
                )
                assert tabulate(store, config) == oracle_tabulate(store, k, refinement)
    assert [words.size for words in counted].count(0) == 8
    # Without a Major flag the major view holds no keyword at all: a plan
    # of no pass.
    bare = CorpusStore()
    for i in range(20):
        bare.add(ArticleRecord(f"b{i:02d}", 2000 + i % 3, frozenset({i, i + 1}), frozenset()))
    for k in (1, 2):
        config = LedgerConfig(
            k=k, refinement="major", shard_count=2, spill_directory=tmp_path / "bare"
        )
        assert tabulate(bare, config) == oracle_tabulate(bare, k, "major")


def test_memory_budget_too_small_aborts_with_hint():
    with pytest.raises(LedgerError, match="need at least 65536 bytes"):
        LedgerConfig(memory_budget_bytes=1024)


def test_unwritable_spill_directory_aborts(two_article_corpus, tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    os.chmod(locked, stat.S_IRUSR | stat.S_IXUSR)
    try:
        if os.access(locked, os.W_OK):
            pytest.skip("running with privileges that ignore file modes")
        with pytest.raises((LedgerError, OSError)):
            tabulate(
                two_article_corpus,
                LedgerConfig(k=1, spill_directory=locked / "sub"),
            )
    finally:
        os.chmod(locked, stat.S_IRWXU)


def test_keyword_capacity_counts_distinct_used_keywords(tmp_path):
    # 65,536 keywords in quartets fill the 16-bit per-id capacity exactly,
    # although their even ids run up to 131,070.  Over three years a word
    # keeps 14 bits of a key's largest id, so four passes split them.
    quartets = [frozenset(range(8 * i, 8 * i + 8, 2)) for i in range(1 << 14)]
    store = CorpusStore()
    for i, kws in enumerate(quartets):
        store.add(ArticleRecord(f"a{i:05d}", 2000 + i % 3, kws, frozenset()))
    config = LedgerConfig(k=3, spill_directory=tmp_path / "fits")
    assert tabulate(store, config) == oracle_tabulate(store, 3, "all")
    # Over five years a word keeps 13 bits of a key's largest id.  The last
    # 16 quartets' keywords wait for 2004.  Before that, 2003 repeats old
    # quartets, which are not new, and mixes old keywords into new quartets,
    # which are core; two of these keys' largest ids differ by 2^13 alone,
    # so they fall in different passes.  In 2004, the waiting quartets and
    # an article that mixes old and new keywords.
    store = CorpusStore()
    for i, kws in enumerate(quartets[:-16]):
        store.add(ArticleRecord(f"a{i:05d}", 2000 + i % 3, kws, frozenset()))
    late = [
        *quartets[:3],
        {0, 16, 18, 20},
        {49152, 16, 18, 20},
        {0, 2, 8, 49152},
        *quartets[-16:],
        {0, 2, 16, 49152, 8 * 16380, 8 * 16381},
    ]
    for i, kws in enumerate(late):
        year = 2003 if i < 6 else 2004
        store.add(ArticleRecord(f"b{i:02d}", year, frozenset(kws), frozenset()))
    _, _, _, _, keywords, _ = store.view("all")
    dense = {kw: d for d, kw in enumerate(keywords.tolist())}
    assert dense[49152] - dense[0] == 1 << 13 < dense[16]
    oracle = oracle_tabulate(store, 3, "all")
    assert oracle.new_simplices[3:] == [3, 31]
    assert oracle.new_peripheral[3:] == [0, 30]
    config = LedgerConfig(k=3, spill_directory=tmp_path / "late")
    assert tabulate(store, config) == oracle
    # One more keyword, even in an article too small for a quartet.
    store.add(ArticleRecord("b", 2001, frozenset({1}), frozenset()))
    with pytest.raises(LedgerError, match="capacity"):
        tabulate(store, LedgerConfig(k=3, spill_directory=tmp_path / "over"))
    assert not (tmp_path / "over").exists()


@pytest.mark.parametrize("k", [2, 3])
def test_sparse_keyword_ids_fit_packed_keys(tmp_path, k):
    # Ids far over the 16-bit (quartet) and 21-bit (triad) fields.
    big = [1 << 17, 1 << 21, 1 << 30, (1 << 32) - 1]
    store = CorpusStore()
    store.add(ArticleRecord("a", 2000, frozenset({1, 2, 3, big[0]}), frozenset()))
    store.add(
        ArticleRecord("b", 2001, frozenset({2, 3, *big}), frozenset({2, *big[1:]}))
    )
    store.add(
        ArticleRecord("c", 2003, frozenset({1, 5, *big}), frozenset({1, 5, *big[:3]}))
    )
    for refinement in ("all", "major"):
        config = LedgerConfig(
            k=k, refinement=refinement, spill_directory=tmp_path, shard_count=2
        )
        assert tabulate(store, config) == oracle_tabulate(store, k, refinement)


def test_buffer_spans_at_most_two_to_the_r_years(tmp_path, monkeypatch):
    # 16,400 keywords in quartets take 15 bits an id, and the 6 bits of a
    # year index leave a word 64 - 6 - 45 = 13 bits of a key's largest id:
    # a pass spans at most 8,192 ids, so the plan takes at least three
    # passes however small the corpus's emissions are.
    rng = random.Random(23)
    store = CorpusStore()
    for i in range(4100):
        kws = frozenset(range(4 * i, 4 * i + 4))
        store.add(ArticleRecord(f"a{i:04d}", 1980 + i % 40, kws, frozenset()))
    for i in range(600):
        kws = frozenset(rng.sample(range(40), 6))
        store.add(ArticleRecord(f"b{i:03d}", 1980 + rng.randrange(40), kws, kws))
    layout = passes_mod.Layout.of(16_400, 4, 40)
    assert (layout.bits, layout.id_bits, layout.year_bits) == (15, 13, 6)
    oracle = oracle_tabulate(store, 3, "all")
    for shard_count in (1, 7):
        with monkeypatch.context() as patch:
            plans = []
            make_plan = passes_mod.plan
            patch.setattr(
                passes_mod, "plan", lambda *a: plans.append(make_plan(*a)) or plans[-1]
            )
            config = LedgerConfig(
                k=3, shard_count=shard_count, spill_directory=tmp_path / str(shard_count)
            )
            assert tabulate(store, config) == oracle
        passes = plans[0].passes
        assert len(passes) >= max(3, shard_count)
        assert max(p.last - p.first for p in passes) <= 1 << 13
# --- key layout ------------------------------------------------------------

# (distinct keywords, combination size, years, a pass's first id): 64-bit
# keys (65,536 keywords in quartets), whose words keep 9 bits of the
# largest id over 117 years; the paper's shape, which keeps 12; a one-year
# corpus, whose words carry no year bits; a small width; and three ids of
# 3 bits each.
_LAYOUTS = [
    pytest.param(65_536, 4, 117, 65_536 - 512, id="w64"),
    pytest.param(27_875, 4, 117, 13_000, id="paper-B13"),
    pytest.param(65_536, 4, 1, 3, id="y0-B3"),
    pytest.param(5, 2, 3, 2, id="w6"),
    pytest.param(8, 3, 5, 1, id="w9"),
]


@pytest.mark.parametrize("n_keywords, s, years, first", _LAYOUTS)
def test_bucket_pass_recovers_first_years_and_largest_ids(n_keywords, s, years, first):
    # One pass's words over random combinations whose largest id lies in
    # its range, repeated across years and within a year: each word unpacks
    # to its ids and year, and each combination's first year, and whether
    # its largest id debuted then, come out of the count as they went in.
    layout = passes_mod.Layout.of(n_keywords, s, years)
    bits, id_bits, y = layout.bits, layout.id_bits, layout.year_bits
    assert (s - 1) * bits + id_bits + y <= 64
    last = min(n_keywords, first + (1 << id_bits))
    rng = np.random.default_rng(n_keywords + years)
    pool = []
    for largest in rng.integers(max(first, s - 1), last, size=3000).tolist():
        smaller = rng.choice(largest, size=s - 1, replace=False)
        pool.append(sorted(smaller.tolist()) + [largest])
    pool = np.array(pool, dtype=np.uint64)
    debut_index = rng.integers(0, years, size=n_keywords).astype(np.uint8)
    words = np.empty(2 * 800 * years, dtype=np.uint64)
    idx = np.arange(s)[None, :]
    first_year, end = {}, 0
    for year in range(years):
        for _ in range(2):
            rows = pool[rng.integers(0, len(pool), size=800)]
            for row in map(tuple, rows.tolist()):
                first_year.setdefault(row, year)
            tags = np.full(800, year, dtype=np.uint64)
            end = passes_mod._emit(words, end, rows.T.copy(), idx, tags, first, layout)
    assert end == words.size
    # Each word round-trips: its ids above the largest less ``first``, above
    # its year index.
    fields = [int(w) for w in words[:50]]
    unpacked = [
        (
            tuple(w >> (y + id_bits + bits * (s - 2 - i)) & ((1 << bits) - 1) for i in range(s - 1))
            + ((w >> y & ((1 << id_bits) - 1)) + first,),
            w & ((1 << y) - 1),
        )
        for w in fields
    ]
    assert all(ids in first_year for ids, _ in unpacked)
    expected = np.zeros((2, years), dtype=np.int64)
    for ids, year in first_year.items():
        expected[0, year] += 1
        expected[1, year] += debut_index[ids[-1]] == year
    for step in (1, 7, 1 << 14):
        tally = passes_mod._count_words(words.copy(), layout, first, debut_index, step)
        assert tally.tolist() == expected.tolist()


def test_spill_directory_holds_one_log_with_one_append_per_flush(
    tmp_path, monkeypatch
):
    # Each pass appends its running tallies, 16 bytes a year that holds
    # articles, to tallies.bin in one write; the directory holds that file
    # and the manifest alone until the completing manifest write.
    corpus = _random_corpus(17, n_articles=1500, years=4)
    config = LedgerConfig(
        k=2, spill_directory=tmp_path, memory_budget_bytes=_MIN_BUDGET
    )
    ledger_dir = tmp_path / "k2" / "all"
    writes = []
    write = os.write

    def recording_write(fd, data):
        writes.append((os.fstat(fd).st_ino, len(data)))
        return write(fd, data)

    def check_directory(finished):
        names = sorted(p.name for p in ledger_dir.iterdir())
        assert names == ["manifest.json", "tallies.bin"]
        inode = (ledger_dir / "tallies.bin").stat().st_ino
        assert writes == [(inode, 16 * len(corpus.years))] * finished

    monkeypatch.setattr(os, "write", recording_write)
    series, commits = _commits(corpus, config, observe=check_directory)
    monkeypatch.undo()
    assert series == oracle_tabulate(corpus, 2, "all")
    passes = _manifest(ledger_dir)["passes"]
    assert passes > 1 and commits == list(range(1, passes + 1))
    assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]


def test_corpus_within_one_buffer_commits_once(tmp_path, monkeypatch):
    # The manifest is written twice however many years and passes there
    # are: with the plan before the first pass, and complete.  Years
    # without a triad, in the middle and at the end, cost nothing.
    corpus = _random_corpus(19, n_articles=400, years=12)
    last = corpus.years[-1]
    for year in (last + 2, last + 4):
        corpus.add(ArticleRecord(f"x{year}", year, frozenset({1, 2}), frozenset()))
    corpus.add(ArticleRecord("y", last + 3, frozenset({1, 2, 3}), frozenset()))
    config = LedgerConfig(k=2, spill_directory=tmp_path, shard_count=3)
    written = []
    write_manifest = ledger_mod._write_manifest

    def recording(path, payload):
        written.append(dict(payload))
        write_manifest(path, payload)

    monkeypatch.setattr(ledger_mod, "_write_manifest", recording)
    series, commits = _commits(corpus, config)
    assert series == oracle_tabulate(corpus, 2, "all")
    assert [m["complete"] for m in written] == [False, True]
    passes = written[0]["passes"]
    assert passes >= 3 and commits == list(range(1, passes + 1))


def _planned(monkeypatch):
    """A list that gains each plan the pass engine makes."""
    plans = []
    make_plan = passes_mod.plan
    monkeypatch.setattr(
        passes_mod, "plan", lambda *a: plans.append(make_plan(*a)) or plans[-1]
    )
    return plans


def test_heavy_keyword_holds_its_passes_and_a_heavy_pair_is_whole(tmp_path, monkeypatch):
    # Keyword 900 debuts last, as dense id 57, and is the latest keyword of
    # two pairs in each of 1,400 articles: 2,800 emissions, over the
    # 65,536 // 24 = 2,730 that one pass holds at the smallest budget.  It
    # becomes a holder, whose pairs are cut into passes by their other id,
    # none over a pass.
    store = CorpusStore()
    for i in range(1400):
        store.add(ArticleRecord(f"a{i:04d}", 2000, frozenset({i % 50, 50 + i % 7}), frozenset()))
        store.add(ArticleRecord(f"b{i:04d}", 2001, frozenset({i % 50, 50 + i % 7, 900}), frozenset()))
    plans = _planned(monkeypatch)
    config = LedgerConfig(k=1, spill_directory=tmp_path / "held", memory_budget_bytes=_MIN_BUDGET)
    assert tabulate(store, config) == oracle_tabulate(store, 1, "all")
    held = [p for p in plans[-1].passes if p.holders]
    assert len(held) >= 2 and {p.holders for p in held} == {(57,)}
    assert sum(p.size for p in held) == 2800
    assert max(p.size for p in plans[-1].passes) <= 2730
    # 2,800 articles from 2002 on pair keyword 3 with 900: the pair alone
    # is 2,828 emissions of one combination, which a whole pass counts.
    for i in range(2800):
        store.add(ArticleRecord(f"c{i:04d}", 2002 + i % 3, frozenset({3, 900}), frozenset()))
    config = LedgerConfig(k=1, spill_directory=tmp_path / "whole", memory_budget_bytes=_MIN_BUDGET)
    assert tabulate(store, config) == oracle_tabulate(store, 1, "all")
    keywords = store.view("all")[4]
    whole = [p for p in plans[-1].passes if p.whole]
    assert [(keywords[[*p.holders, p.first]].tolist(), p.size) for p in whole] == [
        ([900, 3], 2828)
    ]


def test_heavy_pair_is_counted_at_the_smallest_budget(tmp_path):
    # 3,000 keywords debut in 2000.  In 2001 keywords 5000 and 6000 debut
    # together in 2,800 articles, each with one of the 3,000: at k = 2 the
    # pair ends 2,800 triads, over the 2,730 that one pass holds, of up to
    # 3,000 distinct ones.  Both keywords become holders, and the triads
    # are cut by their smallest id.
    store = CorpusStore()
    for i in range(1000):
        kws = frozenset(range(3 * i, 3 * i + 3))
        store.add(ArticleRecord(f"a{i:04d}", 2000, kws, frozenset()))
    for i in range(2800):
        kws = frozenset({i % 3000, 5000, 6000})
        store.add(ArticleRecord(f"b{i:04d}", 2001, kws, frozenset()))
    config = LedgerConfig(k=2, spill_directory=tmp_path, memory_budget_bytes=_MIN_BUDGET)
    assert tabulate(store, config) == oracle_tabulate(store, 2, "all")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_of_holders_ends_in_whole_passes(tmp_path, monkeypatch, k):
    # 400 keywords debut in 1999.  From 2000 on, 3,000 articles hold
    # keywords 1000 to 1003, and every other one also one of the first 150.
    # Each of the C(4, k + 1) combinations of the four keywords is in 3,000
    # articles, over the 2,730 that one pass holds: each is a whole pass
    # under k holders, its largest ids, and at k = 3 there is exactly one.
    store = CorpusStore()
    for i in range(200):
        store.add(ArticleRecord(f"a{i:03d}", 1999, frozenset({2 * i, 2 * i + 1}), frozenset()))
    for i in range(3000):
        kws = {1000, 1001, 1002, 1003} | ({i % 150} if i % 2 else set())
        store.add(ArticleRecord(f"b{i:04d}", 2000 + i % 3, frozenset(kws), frozenset()))
    plans = _planned(monkeypatch)
    config = LedgerConfig(k=k, spill_directory=tmp_path, memory_budget_bytes=_MIN_BUDGET)
    assert tabulate(store, config) == oracle_tabulate(store, k, "all")
    keywords = store.view("all")[4]
    whole = [p for p in plans[-1].passes if p.whole]
    assert {len(p.holders) for p in whole} == {k}
    assert sorted(sorted(keywords[[*p.holders, p.first]].tolist()) for p in whole) == [
        list(c) for c in itertools.combinations(range(1000, 1004), k + 1)
    ]


def test_wide_articles_are_counted_at_the_smallest_budget():
    # Two articles of the same 80 keywords at k = 3: the latest keywords
    # end 2 * C(79, 3) quartets, and the pair of the two latest 2 * C(78, 2),
    # each over the 2,730 that one pass holds at the smallest budget, so
    # holders cut them down to passes that fit.  The reference is one pass
    # over the full range, at 24 bytes an emission; the oracle would hold
    # all 1.6 million quartets in a set.
    store = CorpusStore()
    for year in (2000, 2001):
        store.add(ArticleRecord(f"w{year}", year, frozenset(range(80)), frozenset()))
    emissions = passes_mod.census(store.view("all"), 4)[0]
    assert emissions == 2 * math.comb(80, 4)
    series = tabulate(store, LedgerConfig(k=3, memory_budget_bytes=_MIN_BUDGET))
    assert series == tabulate(store, LedgerConfig(k=3, memory_budget_bytes=24 * emissions))
    assert series.new_simplices == [math.comb(80, 4), 0]


def _two_articles(gap):
    store = CorpusStore()
    store.add(ArticleRecord("a", 1902, frozenset({1, 2, 3}), frozenset({1, 2})))
    store.add(
        ArticleRecord("b", 1902 + gap, frozenset({2, 3, 4}), frozenset({2, 3, 4}))
    )
    return store


def test_years_far_apart_match_oracle(tmp_path):
    store = _two_articles(1000)
    for refinement in ("all", "major"):
        config = LedgerConfig(k=1, refinement=refinement, spill_directory=tmp_path)
        assert tabulate(store, config) == oracle_tabulate(store, 1, refinement)


def test_million_year_span_completes_quickly(tmp_path):
    store = _two_articles(10**6)
    start = time.process_time()
    series = tabulate(store, LedgerConfig(k=1, spill_directory=tmp_path))
    assert time.process_time() - start < 5
    assert series.years == list(range(1902, 1902 + 10**6 + 1))
    # Only the first and the last year hold articles.
    for column, ends in [
        (series.new_simplices, [3, 2]),
        (series.new_peripheral, [3, 2]),
        (series.new_keywords, [3, 1]),
        (series.articles_processed, [1, 1]),
    ]:
        assert [column[0], column[-1]] == ends
        assert sum(column) == sum(ends)


def test_stray_year_adds_no_work_per_bucket(tmp_path):
    # A pass tallies only the years that hold articles, so one article 10^6
    # years after the rest costs each of up to 4,096 passes nothing.
    store = generate_synthetic(SynthParams(n_articles=3000, seed=11))
    stray = ArticleRecord("stray", 2009 + 10**6, frozenset({100, 101}), frozenset())
    store.add(stray)
    series = []
    for shard_count in (1, 4096):
        config = LedgerConfig(
            k=1, shard_count=shard_count, spill_directory=tmp_path / str(shard_count)
        )
        start = time.process_time()
        series.append(tabulate(store, config))
    assert time.process_time() - start < 5
    assert series[1] == series[0]
    assert series[0].years[-1] == 2009 + 10**6 and series[0].new_simplices[-1] == 1


def test_stray_year_keeps_the_manifest_small(tmp_path, monkeypatch):
    # The completing manifest stores the years that hold articles only;
    # the series spreads them over the calendar years, also when it is
    # read back from a complete directory.
    def with_stray(year):
        store = generate_synthetic(SynthParams(n_articles=3000, seed=11))
        store.add(ArticleRecord("stray", year, frozenset({100, 101}), frozenset()))
        return store

    # The stray year's tallies do not depend on its distance.
    oracle = oracle_tabulate(with_stray(2010), 1, "all")
    assert oracle.years == list(range(1990, 2011))
    store = with_stray(2009 + 10**6)
    config = LedgerConfig(k=1, shard_count=2, spill_directory=tmp_path)
    series = tabulate(store, config)
    assert (tmp_path / "k1" / "all" / "manifest.json").stat().st_size < 64 << 10
    assert series.years == list(range(1990, 2009 + 10**6 + 1))
    gap = [0] * (10**6 - 1)
    for name in ledger_mod.SERIES_COLUMNS:
        column = getattr(oracle, name)
        assert getattr(series, name) == column[:-1] + gap + column[-1:]

    def no_pass(*args):
        raise AssertionError("a complete ledger was counted again")

    monkeypatch.setattr(passes_mod, "_tally_pass", no_pass)
    assert tabulate(store, config) == series


def test_year_span_over_budget_raises_before_any_directory(tmp_path):
    # The series' four int64 columns take 32 bytes a year, within a quarter
    # of the budget: 512 years at the smallest budget.
    # One shard is one pass over the full range, two a plan of passes.
    spill = tmp_path / "spill"
    for shard_count in (1, 2):
        config = LedgerConfig(
            k=1,
            shard_count=shard_count,
            spill_directory=spill,
            memory_budget_bytes=_MIN_BUDGET,
        )
        assert tabulate(_two_articles(511), config).years[-1] == 1902 + 511
        assert spill.exists() == (shard_count == 2)
        shutil.rmtree(spill, ignore_errors=True)
        with pytest.raises(LedgerError) as raised:
            tabulate(_two_articles(10**6), config)
        message = str(raised.value)
        assert "1902 to 1001902" in message and "limit of 512 years" in message
        assert not spill.exists()


def test_manifest_does_not_grow_with_committed_years(tmp_path):
    # The manifest holds the plan's fingerprint and pass count alone while
    # the passes run, so a ledger of 300 years writes one as large as a
    # ledger of one year.
    sizes, keys, committed = {}, set(), {}
    for n in (1, 300):
        store = CorpusStore()
        for i in range(n):
            kws = frozenset({i, i + 1})
            store.add(ArticleRecord(f"a{i:03d}", 1800 + i, kws, frozenset()))
        ledger_dir = tmp_path / str(n) / "k1" / "all"

        def commit(finished, ledger_dir=ledger_dir, n=n):
            keys.add(tuple(_manifest(ledger_dir)))
            sizes[n] = (ledger_dir / "manifest.json").stat().st_size

        config = LedgerConfig(k=1, shard_count=2, spill_directory=tmp_path / str(n))
        committed[n] = _commits(store, config, observe=commit)[1]
    assert keys == {("version", "fingerprint", "passes", "complete")}
    assert committed == {1: [1], 300: [1, 2]}
    assert sizes[1] == sizes[300]


def test_bad_peripheral_tally_is_never_committed(tmp_path, monkeypatch):
    # A pass's tally is checked before its record is appended, in one pass
    # over the full range and in a plan of passes alike.
    corpus = _random_corpus(18, n_articles=200)
    count = passes_mod._count_words

    def too_many_peripheral(*args):
        tally = count(*args)
        tally[1, -1] = tally[0, -1] + 1
        return tally

    for shard_count in (2, 1):
        spill = tmp_path / str(shard_count)
        config = LedgerConfig(k=2, shard_count=shard_count, spill_directory=spill)
        with monkeypatch.context() as patch:
            patch.setattr(passes_mod, "_count_words", too_many_peripheral)
            with pytest.raises(LedgerError, match=f"in {corpus.years[-1]}"):
                tabulate(corpus, config)
        if shard_count == 1:
            assert not spill.exists()
        else:
            ledger_dir = spill / "k2" / "all"
            assert not _manifest(ledger_dir)["complete"]
            assert (ledger_dir / "tallies.bin").stat().st_size == 0
        assert tabulate(corpus, config) == oracle_tabulate(corpus, 2, "all")


# --- crash-restart ---------------------------------------------------------


@pytest.fixture
def manifest_passes(monkeypatch):
    """The pass count of every manifest written."""
    passes = set()
    write_manifest = ledger_mod._write_manifest

    def recording_write(path, payload):
        passes.add(payload["passes"])
        write_manifest(path, payload)

    monkeypatch.setattr(ledger_mod, "_write_manifest", recording_write)
    return passes


def _assert_passes(passes, budget, shard_count):
    assert len(passes) == 1
    if budget == _MIN_BUDGET:
        assert next(iter(passes)) > shard_count
    else:
        assert next(iter(passes)) >= shard_count


def _records(ledger_dir, corpus):
    """The whole records of running tallies in tallies.bin, and whether a
    torn one follows them."""
    path = ledger_dir / "tallies.bin"
    size = path.stat().st_size if path.exists() else 0
    return divmod(size, 16 * len(corpus.years))


@pytest.mark.parametrize("budget", _BUDGETS)
def test_crash_restart_yields_identical_series(
    tmp_path, monkeypatch, manifest_passes, budget
):
    # A kill between passes 2 and 3: the resume runs only the passes after
    # the second.
    corpus = _random_corpus(12, n_articles=800, years=12)
    config = LedgerConfig(
        k=2,
        refinement="all",
        spill_directory=tmp_path / "resume",
        shard_count=4,
        memory_budget_bytes=budget,
    )
    _commits(corpus, config, until=2)
    with monkeypatch.context() as patch:
        firsts = _recorded(patch, "_tally_pass", 5)
        resumed = tabulate(corpus, config)
    _assert_passes(manifest_passes, budget, 4)
    assert len(firsts) == next(iter(manifest_passes)) - 2
    clean = tabulate(
        corpus, LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean")
    )
    assert resumed == clean


@pytest.mark.parametrize("budget", _BUDGETS)
def test_crash_after_history_commit_before_manifest(
    tmp_path, monkeypatch, manifest_passes, budget
):
    # Every pass's record is appended; the completing manifest write is
    # not.  The resume runs no pass, and completes from the last record.
    corpus = _random_corpus(12, n_articles=5000, years=12)
    config = LedgerConfig(
        k=2,
        refinement="all",
        spill_directory=tmp_path / "resume",
        shard_count=4,
        memory_budget_bytes=budget,
    )
    ledger_dir = tmp_path / "resume" / "k2" / "all"
    write_manifest = ledger_mod._write_manifest

    def failing_write(path, payload):
        if payload["complete"]:
            raise Interrupt
        write_manifest(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(ledger_mod, "_write_manifest", failing_write)
        with pytest.raises(Interrupt):
            tabulate(corpus, config)
    passes = _manifest(ledger_dir)["passes"]
    assert _records(ledger_dir, corpus) == (passes, 0)
    with monkeypatch.context() as patch:
        firsts = _recorded(patch, "_tally_pass", 5)
        resumed = tabulate(corpus, config)
    assert firsts == []
    _assert_passes(manifest_passes, budget, 4)
    clean = tabulate(
        corpus, LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean")
    )
    assert resumed == clean == oracle_tabulate(corpus, 2, "all")
    assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]


def test_crash_between_log_append_and_manifest(tmp_path, monkeypatch):
    # A kill tears the third pass's record: the resume cuts it away,
    # deletes a stray file, and runs the passes from the third on again.
    corpus = _random_corpus(14, n_articles=400, years=10)
    config = LedgerConfig(
        k=2, spill_directory=tmp_path, shard_count=2, memory_budget_bytes=_MIN_BUDGET
    )
    ledger_dir = tmp_path / "k2" / "all"
    _commits(corpus, config, until=2)
    (ledger_dir / "b00007.bin").write_bytes(b"\0" * 8)
    with open(ledger_dir / "tallies.bin", "ab") as f:
        f.write(b"\xff" * 13)
    assert _records(ledger_dir, corpus) == (2, 13)
    with monkeypatch.context() as patch:
        firsts = _recorded(patch, "_tally_pass", 5)
        assert tabulate(corpus, config) == oracle_tabulate(corpus, 2, "all")
    assert len(firsts) == _manifest(ledger_dir)["passes"] - 2
    assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]


def test_bucket_without_keys_resumes(tmp_path):
    # No article has four Major keywords: a plan of one pass without keys,
    # interrupted after its record, completes on the resume.
    corpus = _random_corpus(15, n_articles=60, years=6)
    store = CorpusStore()
    for record in corpus.iter_records():
        major = frozenset(sorted(record.major_keywords)[:3])
        store.add(ArticleRecord(record.article_id, record.year, record.all_keywords, major))
    config = LedgerConfig(k=3, refinement="major", spill_directory=tmp_path, shard_count=512)
    _commits(store, config, until=1)
    ledger_dir = tmp_path / "k3" / "major"
    assert _manifest(ledger_dir)["passes"] == 1
    series = tabulate(store, config)
    assert series == oracle_tabulate(store, 3, "major")
    assert sum(series.new_simplices) == 0


def test_crash_after_years_without_keys_resumes(tmp_path):
    # No article of the first two years has a triad, so those years tally
    # zeros in every pass; a kill after the first pass resumes to the
    # oracle.
    store = CorpusStore()
    for year in (2000, 2001):
        store.add(ArticleRecord(f"{year}", year, frozenset({1, year}), frozenset()))
    rng = random.Random(6)
    for i in range(300):
        kws = frozenset(rng.sample(range(60), 6))
        store.add(ArticleRecord(f"c{i:03d}", 2002 + i % 3, kws, kws))
    config = LedgerConfig(
        k=2, spill_directory=tmp_path, memory_budget_bytes=_MIN_BUDGET
    )
    _commits(store, config, until=1)
    series = tabulate(store, config)
    assert series == oracle_tabulate(store, 2, "all")
    assert series.new_simplices[:2] == [0, 0]


def test_kill_inside_bucket_pass_reruns_it(tmp_path, monkeypatch):
    # A kill inside pass 2, after pass 1's record: the resume runs pass 2
    # and the rest, not pass 1.
    corpus = _random_corpus(16, n_articles=400, years=8)
    config = LedgerConfig(k=2, spill_directory=tmp_path, shard_count=4)
    count = passes_mod._count_words
    counted = []

    def failing_count(*args):
        if counted:
            raise Interrupt
        counted.append(1)
        return count(*args)

    with monkeypatch.context() as patch:
        patch.setattr(passes_mod, "_count_words", failing_count)
        with pytest.raises(Interrupt):
            tabulate(corpus, config)
    ledger_dir = tmp_path / "k2" / "all"
    assert not _manifest(ledger_dir)["complete"]
    assert _records(ledger_dir, corpus) == (1, 0)
    with monkeypatch.context() as patch:
        firsts = _recorded(patch, "_tally_pass", 5)
        resumed, commits = _commits(corpus, config)
    passes = _manifest(ledger_dir)["passes"]
    assert commits == list(range(2, passes + 1)) and len(firsts) == passes - 1
    assert resumed == oracle_tabulate(corpus, 2, "all")


_SIGKILL_CHILD = """
import os, signal, sys
import simplexledger.ledger as ledger_mod
import simplexledger.passes as passes_mod
from simplexledger.corpus import load_store

count, counted = passes_mod._count_words, []

def killed(*args):
    # Pass 2 is under way, and pass 1's record is on disk.
    counted.append(1)
    if len(counted) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return count(*args)

passes_mod._count_words = killed
with open(sys.argv[1], "rb") as f:
    store = load_store(f)
ledger_mod.tabulate(store, ledger_mod.LedgerConfig(
    k=2, shard_count=4, memory_budget_bytes=1 << 20, spill_directory=sys.argv[2]))
"""


def test_sigkill_inside_pass_two_resumes_to_the_oracle(tmp_path, monkeypatch):
    # A child process SIGKILLs itself inside pass 2; the resume runs pass 2
    # and the rest, not pass 1, and equals the oracle.
    corpus = _random_corpus(16, n_articles=400, years=8)
    store_path = tmp_path / "corpus.bin"
    with open(store_path, "wb") as f:
        save_store(corpus, f)
    spill = tmp_path / "spill"
    src = str(Path(ledger_mod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _SIGKILL_CHILD, str(store_path), str(spill)],
        env=env,
        capture_output=True,
    )
    assert child.returncode == -9
    ledger_dir = spill / "k2" / "all"
    assert _records(ledger_dir, corpus) == (1, 0)
    config = LedgerConfig(
        k=2, shard_count=4, memory_budget_bytes=1 << 20, spill_directory=spill
    )
    with open(store_path, "rb") as f:
        store = load_store(f)
    with monkeypatch.context() as patch:
        firsts = _recorded(patch, "_tally_pass", 5)
        series = tabulate(store, config)
    passes = _manifest(ledger_dir)["passes"]
    assert passes > 2 and len(firsts) == passes - 1
    assert series == oracle_tabulate(corpus, 2, "all")


def test_log_that_does_not_match_its_manifest_raises(tmp_path):
    # tallies.bin holding more records than its plan has passes does not
    # match its manifest: the ledger raises a LedgerError and commits
    # nothing.
    corpus = _random_corpus(16, n_articles=400, years=8)
    config = LedgerConfig(k=1, spill_directory=tmp_path, shard_count=4)
    _commits(corpus, config, until=1)
    ledger_dir = tmp_path / "k1" / "all"
    passes = _manifest(ledger_dir)["passes"]
    record = (ledger_dir / "tallies.bin").read_bytes()
    (ledger_dir / "tallies.bin").write_bytes(record * (passes + 1))
    with pytest.raises(LedgerError, match=f"{passes + 1} records.* {passes} passes"):
        tabulate(corpus, config)
    assert not _manifest(ledger_dir)["complete"]


@pytest.mark.parametrize(
    "first, second, restarts",
    [
        pytest.param(1 << 20, 4 << 20, False, id="larger"),
        pytest.param(1 << 20, _MIN_BUDGET, True, id="smaller"),
    ],
)
def test_resume_keeps_recorded_buckets(tmp_path, monkeypatch, first, second, restarts):
    # A budget whose plan is the recorded one resumes; one with another
    # plan starts fresh.  At 1 and 4 MiB shard_count sets the passes alike;
    # at the smallest budget the budget cuts them finer.
    corpus = _random_corpus(12, n_articles=2000, years=12)

    def config(budget):
        return LedgerConfig(
            k=2, spill_directory=tmp_path, shard_count=4, memory_budget_bytes=budget
        )

    _commits(corpus, config(first), until=2)
    recorded = _manifest(tmp_path / "k2" / "all")
    with monkeypatch.context() as patch:
        firsts = _recorded(patch, "_tally_pass", 5)
        resumed, commits = _commits(corpus, config(second))
    assert resumed == oracle_tabulate(corpus, 2, "all")
    final = _manifest(tmp_path / "k2" / "all")
    if restarts:
        assert final["fingerprint"] != recorded["fingerprint"] and commits[0] == 1
        assert len(firsts) == final["passes"]
    else:
        assert final["fingerprint"] == recorded["fingerprint"] and commits[0] == 3
        assert len(firsts) == final["passes"] - 2


def _repeating_corpus():
    """Every year repeats the first year's articles, so each key that a
    lost record counted would be counted as new again the next year."""
    rng = random.Random(5)
    sets = [frozenset(rng.sample(range(200), 10)) for _ in range(100)]
    store = CorpusStore()
    for year in range(2000, 2006):
        for i, kws in enumerate(sets):
            store.add(ArticleRecord(f"{year}-{i:03d}", year, kws, kws))
    return store


@pytest.mark.parametrize(
    "budget, damaged",
    [
        # The last record loses its last word.
        pytest.param(1 << 20, 8, id="log"),
        # Every record is lost.
        pytest.param(_MIN_BUDGET, None, id="history"),
    ],
)
def test_shard_file_shorter_than_committed_restarts(tmp_path, budget, damaged):
    corpus = _repeating_corpus()
    config = LedgerConfig(
        k=1, shard_count=2, spill_directory=tmp_path, memory_budget_bytes=budget
    )
    _commits(corpus, config, until=2)
    path = tmp_path / "k1" / "all" / "tallies.bin"
    os.truncate(path, path.stat().st_size - damaged if damaged else 0)
    series, commits = _commits(corpus, config)
    assert series == oracle_tabulate(corpus, 1, "all")
    # The resume runs again the pass whose record was torn, or every pass.
    assert commits[0] == (2 if damaged else 1)


def test_torn_manifest_starts_fresh(tmp_path):
    # A manifest cut short, as by a write that `replace_on_success` did not
    # make, is no JSON: the ledger starts fresh rather than raise.
    corpus = _repeating_corpus()
    config = LedgerConfig(k=1, shard_count=2, spill_directory=tmp_path)
    oracle = oracle_tabulate(corpus, 1, "all")
    assert tabulate(corpus, config) == oracle
    manifest = tmp_path / "k1" / "all" / "manifest.json"
    os.truncate(manifest, 20)
    assert tabulate(corpus, config) == oracle
    assert json.loads(manifest.read_text())["complete"]


@pytest.mark.parametrize(
    "k, corpus",
    [
        pytest.param(1, _repeating_corpus, id="inside-years"),
        pytest.param(
            2, lambda: _random_corpus(14, n_articles=400, years=10), id="across-years"
        ),
    ],
)
def test_kill_after_each_flush_resumes_to_the_oracle(tmp_path, monkeypatch, k, corpus):
    # A kill lands after each pass's record in turn, and after each manifest
    # write; each resume equals the oracle and runs only the unfinished
    # passes.
    corpus = corpus()
    oracle = oracle_tabulate(corpus, k, "all")

    def config(name):
        return LedgerConfig(
            k=k, spill_directory=tmp_path / name, memory_budget_bytes=_MIN_BUDGET
        )

    assert tabulate(corpus, config("clean")) == oracle
    passes = _manifest(tmp_path / "clean" / f"k{k}" / "all")["passes"]
    assert passes > 2
    kills = [("_append", i) for i in range(1, passes + 1)]
    kills += [("_write_manifest", i) for i in (1, 2)]
    for name, i in kills:
        made = []

        def killed(*args, fn=getattr(ledger_mod, name), made=made, i=i):
            result = fn(*args)
            made.append(1)
            if len(made) == i:
                raise Interrupt
            return result

        with monkeypatch.context() as patch:
            patch.setattr(ledger_mod, name, killed)
            with pytest.raises(Interrupt):
                tabulate(corpus, config(f"{name}{i}"))
        ledger_dir = tmp_path / f"{name}{i}" / f"k{k}" / "all"
        finished = i if name == "_append" else (0 if i == 1 else passes)
        assert _records(ledger_dir, corpus) == (finished, 0)
        with monkeypatch.context() as patch:
            firsts = _recorded(patch, "_tally_pass", 5)
            assert tabulate(corpus, config(f"{name}{i}")) == oracle
        assert len(firsts) == (passes - finished if i < 2 or name == "_append" else 0)


@pytest.mark.parametrize("version", range(1, 11))
def test_old_manifest_version_starts_fresh(tmp_path, version):
    # Manifest versions 1 to 10 went with shard files, per-year rows or a
    # key log; none is read.  Each here is today's complete manifest under
    # an old version, its series one off the oracle's, beside a stray key
    # log: trusting either would show.
    corpus = _random_corpus(13, n_articles=300)
    config = LedgerConfig(k=1, spill_directory=tmp_path, shard_count=2)
    ledger_dir = tmp_path / "k1" / "all"
    oracle = oracle_tabulate(corpus, 1, "all")
    assert tabulate(corpus, config) == oracle
    manifest = _manifest(ledger_dir)
    series = manifest["series"]
    series["new_simplices"] = [n + 1 for n in series["new_simplices"]]
    (ledger_dir / "manifest.json").write_text(json.dumps(dict(manifest, version=version)))
    (ledger_dir / "keys.bin").write_bytes(b"\0" * 64)
    (ledger_dir / "ends.bin").write_bytes(b"\0" * 16)
    assert tabulate(corpus, config) == oracle
    assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]
    assert _manifest(ledger_dir)["version"] == ledger_mod._MANIFEST_VERSION


def test_temporary_workdir_is_removed(two_article_corpus, tmp_path, monkeypatch):
    # Without a spill directory the ledger writes nothing, so it makes no
    # temporary directory: in one pass, in several, and interrupted.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for shard_count in (1, 2):
        tabulate(two_article_corpus, LedgerConfig(k=1, shard_count=shard_count))
        assert list(tmp_path.iterdir()) == []
    count = passes_mod._count_words

    def failing_count(*args):
        raise Interrupt

    monkeypatch.setattr(passes_mod, "_count_words", failing_count)
    with pytest.raises(Interrupt):
        tabulate(two_article_corpus, LedgerConfig(k=1, shard_count=2))
    assert list(tmp_path.iterdir()) == []
    assert count is not failing_count


def test_tabulate_ignores_sledger_tmp(two_article_corpus, tmp_path, monkeypatch):
    # The variable is `run`'s: without a spill directory the ledger works in
    # a temporary directory and leaves nothing under it.
    spill, temp = tmp_path / "spill", tmp_path / "temp"
    spill.mkdir()
    temp.mkdir()
    monkeypatch.setenv("SLEDGER_TMP", str(spill))
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    series = tabulate(two_article_corpus, LedgerConfig(k=1))
    assert series == oracle_tabulate(two_article_corpus, 1, "all")
    assert list(spill.iterdir()) == []
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("shard_count", [1, 4])
def test_merge_frame_stays_within_memory_budget(tmp_path, monkeypatch, shard_count):
    # One year of 5.6e6 pair emissions against a 1 MiB budget: over 100
    # passes, each of which, its share of the plan and of an index build
    # included, peaks within the budget.
    rng = random.Random(21)
    store = CorpusStore()
    for i in range(13_000):
        kws = frozenset(rng.sample(range(2000), 30))
        store.add(ArticleRecord(f"a{i:05d}", 2000, kws, kws))
    store.view("all")
    budget = 1 << 20
    peaks = []
    count = passes_mod._count_words

    def measured(*args):
        tally = count(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return tally

    monkeypatch.setattr(passes_mod, "_count_words", measured)
    config = LedgerConfig(
        k=1,
        shard_count=shard_count,
        spill_directory=tmp_path / "b",
        memory_budget_bytes=budget,
    )
    tracemalloc.start()
    try:
        spilled = tabulate(store, config)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(peaks) >= 100
    assert 0 < max(peaks) <= budget
    assert spilled == tabulate(store, LedgerConfig(k=1, spill_directory=tmp_path / "m"))


def test_quartet_spill_stays_within_memory_budget(tmp_path):
    # The benchmark's quartet-spill shape: 5,000 articles of 10 keywords at
    # k = 3, 4 shards and 512 KiB, in about 49 passes; the whole tabulate
    # peaks within the budget.
    rng = random.Random(25)
    store = CorpusStore()
    for i in range(5000):
        year = 1990 + i // 250
        kws = frozenset(rng.sample(range(100 * (i // 250 + 1)), 10))
        store.add(ArticleRecord(f"a{i:04d}", year, kws, kws))
    store.view("all")
    budget = 512 << 10
    config = LedgerConfig(
        k=3, shard_count=4, memory_budget_bytes=budget, spill_directory=tmp_path
    )
    tracemalloc.start()
    try:
        series = tabulate(store, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _manifest(tmp_path / "k3" / "all")["passes"] > 40
    assert peak <= budget
    assert series == tabulate(store, LedgerConfig(k=3))


def test_tabulate_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 30 ms to import; np.unique imports it.
    child = """
import sys
from simplexledger.ledger import LedgerConfig, tabulate
from simplexledger.synth import SynthParams, generate_synthetic

store = generate_synthetic(SynthParams(n_articles=300, vocab_size=60, seed=3))
# In a plan of passes, then in one pass over the full range.
for shard_count in (2, 1):
    config = LedgerConfig(
        k=2,
        refinement="major",
        shard_count=shard_count,
        memory_budget_bytes=1 << 16,
        spill_directory=sys.argv[1],
    )
    tabulate(store, config)
    print("numpy.ma" in sys.modules)
"""
    src = str(Path(ledger_mod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "False"]


# --- one pass over the full range -----------------------------------------


def test_one_bucket_is_counted_in_memory_and_two_in_the_log(tmp_path, monkeypatch):
    # At 24 bytes an emission, a budget of 24 E holds the full range in one
    # pass, which makes no plan and writes nothing; one byte less takes a
    # plan of passes.
    corpus = _random_corpus(3, n_articles=3000, vocab=100)
    plans = _recorded(monkeypatch, "plan", 0)
    for k in (1, 2, 3):
        oracle = oracle_tabulate(corpus, k, "all")
        exact = 24 * passes_mod.census(corpus.view("all"), k + 1)[0]
        assert exact - 1 >= _MIN_BUDGET
        for budget, planned in ((exact, False), (exact - 1, True)):
            plans.clear()
            spill = tmp_path / f"{k}-{budget}"
            config = LedgerConfig(
                k=k, memory_budget_bytes=budget, spill_directory=spill
            )
            assert tabulate(corpus, config) == oracle
            assert bool(plans) == spill.exists() == planned
            if planned:
                assert _manifest(spill / f"k{k}" / "all")["passes"] >= 2


def test_in_memory_ledger_needs_no_disk(tmp_path, monkeypatch):
    # With no free disk every ledger completes: none checks the disk.
    # Without a spill directory none writes anything, under $TMPDIR or
    # elsewhere; with one, only a plan of passes writes there.
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=0))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    corpus = _random_corpus(4)
    spill = tmp_path / "spill"
    for shard_count in (1, 2):
        for k in (1, 2, 3):
            for refinement in ("all", "major"):
                expected = oracle_tabulate(corpus, k, refinement)
                for directory in (spill, None):
                    config = LedgerConfig(
                        k=k,
                        refinement=refinement,
                        shard_count=shard_count,
                        spill_directory=directory,
                    )
                    assert tabulate(corpus, config) == expected
        assert spill.exists() == (shard_count == 2)
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize(
    "k, keywords",
    [
        pytest.param(1, 10, id="pairs"),
        pytest.param(3, 10, id="quartets"),
        # Each article holds just k + 1 keywords: one key per article.
        pytest.param(3, 4, id="one-per-article"),
    ],
)
def test_in_memory_ledger_stays_within_memory_budget(monkeypatch, k, keywords):
    # At a budget of 24 bytes an emission, the largest that one pass over
    # the full range holds, that pass peaks within it: the counterpart of
    # a plan's bound in test_merge_frame_stays_within_memory_budget.
    rng = random.Random(22)
    store = CorpusStore()
    articles = 12_000 // math.comb(keywords, k + 1) + 200
    for i in range(articles):
        kws = frozenset(rng.sample(range(3000), keywords))
        store.add(ArticleRecord(f"a{i:06d}", 2000 + i % 10, kws, kws))
    emissions = passes_mod.census(store.view("all"), k + 1)[0]
    budget = 24 * emissions
    plans = _recorded(monkeypatch, "plan", 0)
    config = LedgerConfig(k=k, memory_budget_bytes=budget)
    tracemalloc.start()
    try:
        series = tabulate(store, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plans == []
    assert peak <= budget
    assert series == tabulate(store, LedgerConfig(k=k, shard_count=2))


@pytest.mark.parametrize(
    "k, shard_count, bound",
    [
        # No article holds four keywords, so nothing is emitted.
        pytest.param(3, 1, 1.5, id="no-keys"),
        pytest.param(1, 1, 1.5, id="pairs"),
        pytest.param(1, 2, 1.5, id="pairs-two-shards"),
    ],
)
def test_per_article_counts_stay_within_memory_budget(tmp_path, k, shard_count, bound):
    # 50,000 articles in two years at the smallest budget: an array of 8
    # bytes an article over the corpus, or over one year, would take 6.1 or
    # 3.1 budgets, so the emission count and the processed articles are
    # counted a range at a time, and at k = 1 the plan, each index and each
    # pass's emission a step of ids at a time.
    rng = random.Random(23)
    store = CorpusStore()
    for i in range(50_000):
        kws = frozenset(rng.sample(range(500), 2))
        store.add(ArticleRecord(f"a{i:06d}", 2000 + i % 2, kws, kws))
    store.view("all")
    config = LedgerConfig(
        k=k,
        shard_count=shard_count,
        memory_budget_bytes=_MIN_BUDGET,
        spill_directory=tmp_path,
    )
    tracemalloc.start()
    try:
        series = tabulate(store, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * _MIN_BUDGET
    assert series == oracle_tabulate(store, k, "all")


@pytest.mark.parametrize(
    "m, k, bound",
    [pytest.param(60, 2, 1.0, id="60-triads"), pytest.param(40, 3, 1.5, id="40-quartets")],
)
def test_wide_article_stays_within_a_one_pass_budget(m, k, bound):
    # One article of m keywords and one of 4, at the smallest budget that
    # holds them in one pass over the full range, 24 bytes an emission: the
    # pass emits the wide article's C(j, k) combinations a row position at a
    # time, never its C(m, k + 1) at once.
    store = CorpusStore()
    for name, year, kws in (("wide", 2000, range(m)), ("four", 2001, range(m, m + 4))):
        store.add(ArticleRecord(name, year, frozenset(kws), frozenset(kws)))
    budget = 24 * passes_mod.census(store.view("all"), k + 1)[0]
    tracemalloc.start()
    try:
        series = tabulate(store, LedgerConfig(k=k, memory_budget_bytes=budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * budget
    assert series == oracle_tabulate(store, k, "all")


def test_restart_ignores_state_from_different_corpus(tmp_path):
    a = _random_corpus(1, n_articles=100)
    b = _random_corpus(2, n_articles=100)
    config = LedgerConfig(k=1, shard_count=2, spill_directory=tmp_path)
    tabulate(a, config)
    fresh = tabulate(b, config)
    assert fresh == oracle_tabulate(b, 1, "all")
