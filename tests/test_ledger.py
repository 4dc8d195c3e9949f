import io
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


# At 1 MiB every ledger here takes shard_count buckets; at the smallest
# budget some need more.
_MIN_BUDGET = ledger_mod._MIN_MEMORY_BUDGET
_BUDGETS = [pytest.param(1 << 20, id="1MiB"), pytest.param(_MIN_BUDGET, id="min")]


def _manifest(ledger_dir):
    return json.loads((ledger_dir / "manifest.json").read_text())


class Interrupt(Exception):
    pass


def _commits(corpus, config, until=None, observe=None):
    """Run ``tabulate`` with ``_write_manifest`` wrapped, and only then; the
    series, None if interrupted, and the watermark of each commit.

    A commit is a manifest write that leaves the ledger incomplete.  After
    each, ``observe(manifest)`` runs, if given; with ``until``, Interrupt is
    raised right after the first commit whose watermark is at least
    ``until``.
    """
    write_manifest = ledger_mod._write_manifest
    watermarks = []

    def write(path, payload):
        write_manifest(path, payload)
        if payload["complete"]:
            return
        watermarks.append(payload["watermark"])
        if observe is not None:
            observe(payload)
        if until is not None and payload["watermark"] >= until:
            raise Interrupt

    series = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger_mod, "_write_manifest", write)
        if until is None:
            series = tabulate(corpus, config)
        else:
            with pytest.raises(Interrupt):
                tabulate(corpus, config)
    return series, watermarks


@pytest.mark.parametrize(
    "seed, budget",
    [pytest.param(seed, 1 << 20, id=str(seed)) for seed in range(8)]
    + [pytest.param(seed, _MIN_BUDGET, id=f"{seed}-min") for seed in range(8)],
)
def test_tabulate_matches_oracle(seed, budget, tmp_path, monkeypatch):
    corpus = _random_corpus(seed)
    # At the smallest budget one partition is the floor, so that the budget
    # alone sets the bucket count.
    shard_count = 3 if budget > _MIN_BUDGET else 1
    buckets = set()
    in_memory = []
    count_in_memory = ledger_mod._count_in_memory
    monkeypatch.setattr(
        ledger_mod,
        "_count_in_memory",
        lambda *args: in_memory.append(1) or count_in_memory(*args),
    )
    for k in (1, 2, 3):
        for refinement in ("all", "major"):
            counted = len(in_memory)
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
            if len(in_memory) > counted:
                # One bucket is counted in memory, and writes nothing.
                assert not ledger_dir.exists()
                buckets.add(1)
                continue
            buckets.add(_manifest(ledger_dir)["buckets"])
            # A complete ledger keeps only its manifest.
            assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]
    if budget == _MIN_BUDGET:
        assert max(buckets) > shard_count
    else:
        assert buckets == {shard_count}


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
    # under major, emit no key.  At one shard each ledger is counted in
    # memory; at two these four reach the key log with no flush made.
    store = CorpusStore()
    for i in range(50):
        kws = frozenset({i, i + 1, i + 2})
        store.add(ArticleRecord(f"a{i:02d}", 2000 + i % 5, kws, frozenset({i})))
    count_log, flushes = ledger_mod._count_log, []

    def counting(ledger_dir, layout, buckets, n, *rest):
        flushes.append(n)
        return count_log(ledger_dir, layout, buckets, n, *rest)

    monkeypatch.setattr(ledger_mod, "_count_log", counting)
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
    assert flushes.count(0) == 4


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
    # although their even ids run up to 131,070.  Over three years, each
    # 64-bit key loses its top two bits to the year index in the log.
    quartets = [frozenset(range(8 * i, 8 * i + 8, 2)) for i in range(1 << 14)]
    store = CorpusStore()
    for i, kws in enumerate(quartets):
        store.add(ArticleRecord(f"a{i:05d}", 2000 + i % 3, kws, frozenset()))
    config = LedgerConfig(k=3, spill_directory=tmp_path / "fits")
    assert tabulate(store, config) == oracle_tabulate(store, 3, "all")
    # Over five years a key loses three bits.  The last 16 quartets' keywords
    # wait for 2004.  Before that, 2003 repeats old quartets, which are not
    # new, and mixes old keywords into new quartets, which are core; two of
    # these keys differ by 2^61 alone, so their words agree.  In 2004, the
    # waiting quartets and an article that mixes old and new keywords.
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
    # 16,400 keywords in quartets take 15 bits an id, so w = 60 leaves a
    # buffered word r = 4 bits for its year: a buffer spans at most 16 of
    # the 40 years.  The 6 bits of a year index make w + y = 66 > 64.
    rng = random.Random(23)
    store = CorpusStore()
    for i in range(4100):
        kws = frozenset(range(4 * i, 4 * i + 4))
        store.add(ArticleRecord(f"a{i:04d}", 1980 + i % 40, kws, frozenset()))
    for i in range(600):
        kws = frozenset(rng.sample(range(40), 6))
        store.add(ArticleRecord(f"b{i:03d}", 1980 + rng.randrange(40), kws, kws))
    layout = ledger_mod._Layout.of(16_400, 4, 40)
    assert (layout.width, layout.span_bits, layout.year_bits) == (60, 4, 6)
    flush = ledger_mod._flush
    spans = []

    def recording_flush(buffer, *args):
        first = args[-2]
        years = np.concatenate(buffer) & np.uint64(15)
        spans.append((first, int(years.max()) + 1))
        return flush(buffer, *args)

    monkeypatch.setattr(ledger_mod, "_flush", recording_flush)
    oracle = oracle_tabulate(store, 3, "all")
    for shard_count in (1, 7):
        spans.clear()
        config = LedgerConfig(
            k=3, shard_count=shard_count, spill_directory=tmp_path / str(shard_count)
        )
        assert tabulate(store, config) == oracle
        # Every year holds keys, and all fit one buffer.
        assert spans == [(0, 16), (16, 16), (32, 8)]


# --- key layout ------------------------------------------------------------

# (distinct keywords, combination size, calendar years, buckets or None for
# the layout's floor): 64-bit keys (65,536 keywords in quartets), which
# drop 7 bits to the year index; the paper's shape, 60-bit keys that drop 3;
# a one-year corpus, whose words carry no year bits; a bucket count that is
# not a power of two; a small width; and one whose 9 top bits of 2^64 / phi
# are even, so that only the forced low bit makes the multiplier odd.
_LAYOUTS = [
    pytest.param(65_536, 4, 117, None, id="w64"),
    pytest.param(27_875, 4, 117, 13, id="paper-B13"),
    pytest.param(65_536, 4, 1, 3, id="y0-B3"),
    pytest.param(5, 2, 3, 5, id="w6"),
    pytest.param(8, 3, 5, 2, id="w9"),
]


def _hashes(keys, layout):
    """The keys' hashes: their products with A_w mod 2^w."""
    product = keys * np.uint64(layout.multiplier)
    return product & np.uint64((1 << layout.width) - 1)


@pytest.mark.parametrize("n_keywords, s, years, buckets", _LAYOUTS)
def test_hash_round_trips_on_the_key_width(n_keywords, s, years, buckets):
    layout = ledger_mod._Layout.of(n_keywords, s, years)
    width, bits, y = layout.width, layout.bits, layout.year_bits
    rng = np.random.default_rng(width)
    if width <= 16:
        keys = np.arange(1 << width, dtype=np.uint64)
    else:
        top = (1 << width) - 1
        keys = rng.integers(0, top, size=50_000, dtype=np.uint64, endpoint=True)
        keys[:2] = (0, top)
    hashed = _hashes(keys, layout)
    if width <= 16:
        # Every key below 2^w has its own hash.
        assert np.array_equal(np.sort(hashed), keys)
    # A log word keeps the hash's low 64 - y bits above its year index; its
    # low ``bits`` of them, times A_w's inverse, are the key's largest id.
    words = (hashed << np.uint64(y)) | np.uint64(years - 1)
    largest = words >> np.uint64(y)
    largest *= np.uint64(pow(layout.multiplier, -1, 1 << bits))
    largest &= np.uint64((1 << bits) - 1)
    assert np.array_equal(largest, keys & np.uint64((1 << bits) - 1))


@pytest.mark.parametrize("n_keywords, s, years, buckets", _LAYOUTS)
def test_bucket_pass_recovers_first_years_and_largest_ids(
    tmp_path, n_keywords, s, years, buckets
):
    # Flushes of random keys, repeated across years and within a flush's
    # years, through the log and back: every key's first year, and whether
    # its largest id debuted then, must come out as they went in, also
    # where a word drops the hash's top bits.
    layout = ledger_mod._Layout.of(n_keywords, s, years)
    buckets = buckets or layout.min_buckets
    assert buckets >= layout.min_buckets
    starts = layout.starts(buckets)
    rng = np.random.default_rng(n_keywords + years)
    ids = rng.integers(0, n_keywords, size=(3000, s), dtype=np.uint32)
    ids.sort(axis=1)
    pool = ledger_mod._pack(ids, ledger_mod._comb_indices(s, s), layout.bits).ravel()
    debut_index = rng.integers(0, years, size=n_keywords).astype(np.uint8)
    first = {}
    log, ends = tmp_path / "keys.bin", tmp_path / "ends.bin"
    end = flushes = 0
    # Two flushes a year where a buffer spans one year (w = 64), else one
    # flush for every three years, in buffer words: hash, then the year
    # index less the flush's first.
    r = layout.span_bits
    span = min(1 << r, 3)
    buffer = []
    with open(log, "ab", buffering=0) as log_file, open(
        ends, "ab", buffering=0
    ) as index_file:
        for year in range(years):
            for rep in range(2):
                if not buffer:
                    head = year
                keys = rng.choice(pool, size=800)
                for key in keys.tolist():
                    first.setdefault(key, year)
                words = _hashes(keys, layout) << np.uint64(r)
                words |= np.uint64(year - head)
                buffer += [words[:500], words[500:]]
                ends_span = rep == 1 and year in (head + span - 1, years - 1)
                if span == 1 or ends_span:
                    end = ledger_mod._flush(
                        buffer, log_file.fileno(), index_file.fileno(),
                        layout, starts, head, end,
                    )
                    flushes += 1
    mask = (1 << layout.bits) - 1
    expected_new = np.zeros(years, dtype=np.int64)
    expected_peripheral = np.zeros(years, dtype=np.int64)
    for key, year in first.items():
        expected_new[year] += 1
        expected_peripheral[year] += debut_index[key & mask] == year
    # From index blocks of every size: one bucket, some, all.
    for index_bytes in (0, 8 * flushes * 3, 1 << 30):
        new, peripheral = ledger_mod._count_log(
            tmp_path, layout, buckets, flushes, debut_index, index_bytes
        )
        assert new.tolist() == expected_new.tolist()
        assert peripheral.tolist() == expected_peripheral.tolist()
    # The keys fill more than one bucket, and no range spans over 2^(64-y),
    # so a bucket's words, which drop the hash's top w + y - 64 bits, stay
    # as distinct as its hashes.
    assert np.count_nonzero(_bucket_keys(tmp_path, buckets)) > 1
    bounds = starts.tolist() + [1 << layout.width]
    span = max(b - a for a, b in zip(bounds, bounds[1:]))
    assert span <= 1 << (64 - layout.year_bits)


def test_spill_directory_holds_one_log_with_one_append_per_flush(
    tmp_path, monkeypatch
):
    corpus = _random_corpus(17, n_articles=1500, years=4)
    config = LedgerConfig(
        k=2, spill_directory=tmp_path, memory_budget_bytes=_MIN_BUDGET
    )
    ledger_dir = tmp_path / "k2" / "all"
    writes = []
    flushes = []
    write, flush = os.write, ledger_mod._flush

    def recording_write(fd, data):
        writes.append(os.fstat(fd).st_ino)
        return write(fd, data)

    def recording_flush(*args):
        del writes[:]
        end = flush(*args)
        inode = {p.name: p.stat().st_ino for p in ledger_dir.glob("*.bin")}
        assert writes == [inode["keys.bin"], inode["ends.bin"]]
        flushes.append(end)
        return end

    def check_directory(manifest):
        names = sorted(p.name for p in ledger_dir.iterdir())
        assert names == ["ends.bin", "keys.bin", "manifest.json"]

    monkeypatch.setattr(os, "write", recording_write)
    monkeypatch.setattr(ledger_mod, "_flush", recording_flush)
    series, watermarks = _commits(corpus, config, observe=check_directory)
    monkeypatch.undo()
    assert series == oracle_tabulate(corpus, 2, "all")
    assert watermarks[-1] == corpus.years[-1]
    # Some year takes more than one flush.
    assert len(corpus.years) < _manifest(ledger_dir)["flushes"] == len(flushes)


def test_corpus_within_one_buffer_commits_once(tmp_path, monkeypatch):
    # Every year's keys fit one buffer, so the sweep makes one flush, one
    # ends.bin row and one manifest write, and the completion one more.
    # Years without a triad, in the middle and at the end, are committed
    # with the rest.
    corpus = _random_corpus(19, n_articles=400, years=12)
    last = corpus.years[-1]
    for year in (last + 2, last + 4):
        corpus.add(ArticleRecord(f"x{year}", year, frozenset({1, 2}), frozenset()))
    corpus.add(ArticleRecord("y", last + 3, frozenset({1, 2, 3}), frozenset()))
    config = LedgerConfig(k=2, spill_directory=tmp_path, shard_count=3)
    ends = tmp_path / "k2" / "all" / "ends.bin"
    calls = {"_flush": 0, "_write_manifest": 0}
    for name in calls:

        def counting(*args, name=name, fn=getattr(ledger_mod, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ledger_mod, name, counting)
    rows = set()

    def commit(manifest):
        rows.add(ends.stat().st_size // (8 * 3))

    series, watermarks = _commits(corpus, config, observe=commit)
    assert series == oracle_tabulate(corpus, 2, "all")
    assert calls == {"_flush": 1, "_write_manifest": 2}
    assert rows == {1}
    assert watermarks == [corpus.years[-1]]


def test_too_little_disk_raises_before_any_directory(tmp_path, monkeypatch):
    store = CorpusStore()
    store.add(ArticleRecord("a", 2000, frozenset(range(6)), frozenset()))
    store.add(ArticleRecord("b", 2001, frozenset(range(3, 8)), frozenset()))
    asked = []
    usage = shutil.disk_usage(tmp_path)

    def small_disk(path):
        asked.append(Path(path))
        return usage._replace(free=100)

    monkeypatch.setattr(shutil, "disk_usage", small_disk)
    spill = tmp_path / "spill" / "run"
    with pytest.raises(LedgerError) as raised:
        tabulate(store, LedgerConfig(k=1, shard_count=2, spill_directory=spill))
    # 15 + 10 pairs of 8 bytes, and an index row of two buckets for each of
    # at most two flushes: one per half buffer, and one per 2^58 years (the
    # 6-bit keys leave 58 bits for a buffer's years).
    assert "may spill 232 bytes (200 of keys, 32 of index)" in str(raised.value)
    assert "100 bytes free" in str(raised.value)
    assert asked == [tmp_path]
    assert not (tmp_path / "spill").exists()


def test_too_many_buckets_raise_before_any_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger_mod, "_MAX_BUCKETS", 4)
    store = CorpusStore()
    store.add(ArticleRecord("a", 2000, frozenset({1, 2, 3}), frozenset()))
    spill = tmp_path / "spill"
    with pytest.raises(LedgerError, match="5 buckets .* over the limit of 4"):
        tabulate(store, LedgerConfig(k=1, shard_count=5, spill_directory=spill))
    assert not spill.exists()


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
    # The bucket pass tallies only the years that hold articles, so one
    # article 10^6 years after the rest costs each bucket nothing.
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

    monkeypatch.setattr(ledger_mod, "_count_log", no_pass)
    assert tabulate(store, config) == series


def test_year_span_over_budget_raises_before_any_directory(tmp_path):
    # The series' four int64 columns take 32 bytes a year, within a quarter
    # of the budget: 512 years at the smallest budget.
    # One shard is counted in memory, two in the key log.
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
    # One commit covers all 300 years, and its manifest is as large as the
    # one that commits a ledger of one year.
    sizes, keys, committed = {}, set(), {}
    for n in (1, 300):
        store = CorpusStore()
        for i in range(n):
            kws = frozenset({i, i + 1})
            store.add(ArticleRecord(f"a{i:03d}", 1800 + i, kws, frozenset()))
        ledger_dir = tmp_path / str(n) / "k1" / "all"

        def commit(manifest, ledger_dir=ledger_dir, n=n):
            keys.add(tuple(_manifest(ledger_dir)))
            sizes[n] = (ledger_dir / "manifest.json").stat().st_size

        config = LedgerConfig(k=1, shard_count=2, spill_directory=tmp_path / str(n))
        committed[n] = _commits(store, config, observe=commit)[1]
    assert keys == {
        ("version", "fingerprint", "buckets", "watermark", "flushes", "complete")
    }
    assert committed == {1: [1800], 300: [2099]}
    assert sizes[1] == sizes[300]


def test_bad_peripheral_tally_is_never_committed(tmp_path, monkeypatch):
    # Two shards count the key log; one counts in memory.
    corpus = _random_corpus(18, n_articles=200)
    for count, shard_count in (("_count_log", 2), ("_count_in_memory", 1)):
        counted = getattr(ledger_mod, count)

        def too_many_peripheral(*args, counted=counted):
            new, peripheral = counted(*args)
            peripheral[-1] = new[-1] + 1
            return new, peripheral

        spill = tmp_path / str(shard_count)
        config = LedgerConfig(k=2, shard_count=shard_count, spill_directory=spill)
        with monkeypatch.context() as patch:
            patch.setattr(ledger_mod, count, too_many_peripheral)
            with pytest.raises(LedgerError, match=f"in {corpus.years[-1]}"):
                tabulate(corpus, config)
        if shard_count == 1:
            assert not spill.exists()
        else:
            assert not _manifest(spill / "k2" / "all")["complete"]
        assert tabulate(corpus, config) == oracle_tabulate(corpus, 2, "all")


# --- crash-restart ---------------------------------------------------------


@pytest.fixture
def manifest_buckets(monkeypatch):
    """The bucket count of every manifest written."""
    buckets = set()
    write_manifest = ledger_mod._write_manifest

    def recording_write(path, payload):
        buckets.add(payload["buckets"])
        write_manifest(path, payload)

    monkeypatch.setattr(ledger_mod, "_write_manifest", recording_write)
    return buckets


def _assert_buckets(buckets, budget, shard_count):
    assert len(buckets) == 1
    if budget == _MIN_BUDGET:
        assert buckets.pop() > shard_count
    else:
        assert buckets == {shard_count}


@pytest.mark.parametrize("budget", _BUDGETS)
def test_crash_restart_yields_identical_series(tmp_path, manifest_buckets, budget):
    # Enough pairs that the smallest budget sets more buckets than shards.
    corpus = _random_corpus(12, n_articles=800, years=12)
    config = LedgerConfig(
        k=2,
        refinement="all",
        spill_directory=tmp_path / "resume",
        shard_count=4,
        memory_budget_bytes=budget,
    )
    _commits(corpus, config, until=corpus.years[0] + 5)
    resumed = tabulate(corpus, config)
    _assert_buckets(manifest_buckets, budget, 4)
    clean = tabulate(
        corpus, LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean")
    )
    assert resumed == clean


def _interrupt_before_manifest(monkeypatch, corpus, config, crash_year):
    """Run through the flush that commits crash_year; fail its manifest
    write."""
    write_manifest = ledger_mod._write_manifest

    def failing_write(path, payload):
        watermark = payload["watermark"]
        if watermark is not None and watermark >= crash_year:
            raise Interrupt
        write_manifest(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(ledger_mod, "_write_manifest", failing_write)
        with pytest.raises(Interrupt):
            tabulate(corpus, config)


def _spill_sizes(ledger_dir):
    return {p.name: p.stat().st_size for p in ledger_dir.glob("*.bin")}


def _bucket_keys(ledger_dir, buckets):
    """Each bucket's committed key count, summed over the flushes."""
    ends = np.fromfile(ledger_dir / "ends.bin", dtype=np.int64)
    return np.diff(ends, prepend=0).reshape(-1, buckets).sum(axis=0)


def _assert_committed_layout(ledger_dir):
    """The directory holds the manifest, ends.bin with one row per committed
    flush, and keys.bin at the length the last row gives, and nothing else."""
    manifest = _manifest(ledger_dir)
    buckets = manifest["buckets"]
    ends = np.fromfile(ledger_dir / "ends.bin", dtype=np.int64)
    assert ends.size == buckets * manifest["flushes"]
    # Each bucket's part of a flush starts where the one before it ends.
    assert (np.diff(ends, prepend=0) >= 0).all()
    assert _spill_sizes(ledger_dir) == {
        "ends.bin": 8 * ends.size,
        "keys.bin": 8 * int(ends[-1]),
    }
    names = {p.name for p in ledger_dir.iterdir()}
    assert names == {"manifest.json", "ends.bin", "keys.bin"}


def _committed_bytes(ledger_dir):
    """The bytes of ends.bin and keys.bin that the manifest commits."""
    manifest = _manifest(ledger_dir)
    size = 8 * manifest["buckets"] * manifest["flushes"]
    rows = (ledger_dir / "ends.bin").read_bytes()[:size]
    end = int(np.frombuffer(rows[-8:], dtype=np.int64)[0]) if rows else 0
    keys = (ledger_dir / "keys.bin").read_bytes()[: 8 * end]
    return {"ends.bin": rows, "keys.bin": keys}


def _years_after_watermark(corpus, ledger_dir, year):
    """The corpus years after the manifest's watermark, through ``year``."""
    watermark = _manifest(ledger_dir)["watermark"]
    return [y for y in corpus.years if watermark < y <= year]


@pytest.mark.parametrize("budget", _BUDGETS)
def test_crash_after_history_commit_before_manifest(
    tmp_path, monkeypatch, manifest_buckets, budget
):
    # A flush's keys and its ends.bin row are written; its manifest is not.
    # The corpus takes several flushes at 1 MiB, and many more at the
    # smallest budget.
    corpus = _random_corpus(12, n_articles=5000, years=12)
    config = LedgerConfig(
        k=2,
        refinement="all",
        spill_directory=tmp_path / "resume",
        shard_count=4,
        memory_budget_bytes=budget,
    )
    ledger_dir = tmp_path / "resume" / "k2" / "all"
    crash_year = corpus.years[0] + 5
    _interrupt_before_manifest(monkeypatch, corpus, config, crash_year)
    manifest = _manifest(ledger_dir)
    assert manifest["watermark"] < crash_year
    ends = ledger_dir / "ends.bin"
    flushes = manifest["flushes"]
    assert flushes > 0
    assert ends.stat().st_size > 8 * manifest["buckets"] * flushes
    committed = _committed_bytes(ledger_dir)
    # The resume cuts both files back to the committed flushes, keeps those
    # byte for byte, and appends from the year after the watermark again.
    redone = _years_after_watermark(corpus, ledger_dir, crash_year)
    assert redone[-1] == crash_year
    # The resume stops at the crash year, and its first commit is past the
    # watermark: a restart would commit the years up to it again.
    assert _commits(corpus, config, until=crash_year)[1][0] >= redone[0]
    for name, data in committed.items():
        assert (ledger_dir / name).read_bytes()[: len(data)] == data
    _assert_committed_layout(ledger_dir)
    assert _manifest(ledger_dir)["flushes"] > flushes

    resumed = tabulate(corpus, config)
    _assert_buckets(manifest_buckets, budget, 4)
    clean = tabulate(
        corpus, LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean")
    )
    assert resumed == clean == oracle_tabulate(corpus, 2, "all")
    assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]


def test_crash_between_log_append_and_manifest(tmp_path, monkeypatch):
    # keys.bin and its index ends.bin are append-only.  At the smallest
    # budget the crash year's flush follows committed ones.
    corpus = _random_corpus(14, n_articles=400, years=10)
    config = LedgerConfig(
        k=2, spill_directory=tmp_path, shard_count=2, memory_budget_bytes=_MIN_BUDGET
    )
    ledger_dir = tmp_path / "k2" / "all"
    crash_year = corpus.years[0] + 4
    _interrupt_before_manifest(monkeypatch, corpus, config, crash_year)
    assert _manifest(ledger_dir)["flushes"] > 0
    # A stray file from the failed flush goes too.
    (ledger_dir / "b00007.bin").write_bytes(b"\0" * 8)
    for name in _spill_sizes(ledger_dir):
        # A torn write: the next append was cut off mid-word.
        with open(ledger_dir / name, "ab") as f:
            f.write(b"\xff" * 13)
    redone = _years_after_watermark(corpus, ledger_dir, crash_year)
    assert redone[-1] == crash_year
    # The resume stops at the crash year, and its first commit is past the
    # watermark: a restart would commit the years up to it again.
    assert _commits(corpus, config, until=crash_year)[1][0] >= redone[0]
    _assert_committed_layout(ledger_dir)
    assert tabulate(corpus, config) == oracle_tabulate(corpus, 2, "all")


def test_bucket_without_keys_resumes(tmp_path):
    corpus = _random_corpus(15, n_articles=60, years=6)
    config = LedgerConfig(k=1, spill_directory=tmp_path, shard_count=512)
    ledger_dir = tmp_path / "k1" / "all"
    _commits(corpus, config, until=corpus.years[0] + 2)
    # Some buckets have not received a key: their part of every flush is
    # empty.
    assert 0 < np.count_nonzero(_bucket_keys(ledger_dir, 512)) < 512
    _assert_committed_layout(ledger_dir)
    assert tabulate(corpus, config) == oracle_tabulate(corpus, 1, "all")


def test_crash_after_years_without_keys_resumes(tmp_path, monkeypatch):
    # No article of the first two years has a triad, so they make no flush
    # of their own: the first flush commits them with the third year's
    # keys.  The fourth year's flush is cut away before the resume.
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
    ledger_dir = tmp_path / "k2" / "all"
    _interrupt_before_manifest(monkeypatch, store, config, 2003)
    manifest = _manifest(ledger_dir)
    assert manifest["flushes"] == 1 and manifest["watermark"] == 2002
    assert _spill_sizes(ledger_dir)["ends.bin"] > 8 * manifest["buckets"]
    assert _commits(store, config, until=2004)[1] == [2003, 2004]
    _assert_committed_layout(ledger_dir)
    assert tabulate(store, config) == oracle_tabulate(store, 2, "all")


def test_kill_inside_bucket_pass_reruns_it(tmp_path, monkeypatch):
    corpus = _random_corpus(16, n_articles=400, years=8)
    config = LedgerConfig(k=2, spill_directory=tmp_path, shard_count=4)
    count_bucket = ledger_mod._count_bucket
    counted = []

    def failing_count(*args):
        if counted:
            raise Interrupt
        counted.append(args[0])
        return count_bucket(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ledger_mod, "_count_bucket", failing_count)
        with pytest.raises(Interrupt):
            tabulate(corpus, config)
    assert len(counted) == 1
    ledger_dir = tmp_path / "k2" / "all"
    assert not _manifest(ledger_dir)["complete"]
    _assert_committed_layout(ledger_dir)
    # Every year is committed, so the resume only reruns the bucket pass.
    resumed, watermarks = _commits(corpus, config)
    assert watermarks == []
    assert resumed == oracle_tabulate(corpus, 2, "all")


def test_log_that_does_not_match_its_manifest_raises(tmp_path):
    # One committed word is overwritten by one whose low hash bits give back
    # a keyword id past the keywords: the bucket that reads it raises a
    # LedgerError, and no tally is committed.
    corpus = _random_corpus(16, n_articles=400, years=8)
    config = LedgerConfig(k=1, spill_directory=tmp_path, shard_count=4)
    years, _, _, _, keywords, _ = corpus.view("all")
    layout = ledger_mod._Layout.of(keywords.size, 2, years.size)
    assert keywords.size < 1 << layout.bits  # not a power of two
    _commits(corpus, config, until=corpus.years[2])
    ledger_dir = tmp_path / "k1" / "all"
    manifest = _manifest(ledger_dir)
    assert manifest["flushes"] > 0
    # Word 0, of year index 0, lies in the first bucket with a part in the
    # first flush.
    first_row = np.fromfile(ledger_dir / "ends.bin", np.int64)[: manifest["buckets"]]
    bucket = int(np.argmax(first_row > 0))
    low = keywords.size * layout.multiplier % (1 << layout.bits)
    word = np.array([low << layout.year_bits], dtype=np.uint64)
    with open(ledger_dir / "keys.bin", "r+b") as log:
        log.write(word.tobytes())
    with pytest.raises(LedgerError, match=f"bucket {bucket} of the key log"):
        tabulate(corpus, config)
    assert not _manifest(ledger_dir)["complete"]


@pytest.mark.parametrize(
    "first, second, restarts",
    [
        pytest.param(_MIN_BUDGET, 4 * _MIN_BUDGET, False, id="larger"),
        pytest.param(1 << 20, _MIN_BUDGET, True, id="smaller"),
    ],
)
def test_resume_keeps_recorded_buckets(tmp_path, first, second, restarts):
    # A budget that needs no more buckets than the recorded count resumes
    # with that count; one that needs more starts fresh.
    corpus = _random_corpus(12, n_articles=500, years=12)
    crash_year = corpus.years[0] + 5

    def config(budget):
        return LedgerConfig(
            k=2, spill_directory=tmp_path, shard_count=2, memory_budget_bytes=budget
        )

    _commits(corpus, config(first), until=crash_year)
    manifest = _manifest(tmp_path / "k2" / "all")
    recorded, watermark = manifest["buckets"], manifest["watermark"]
    assert watermark >= crash_year
    # The year index of each emitted batch.
    emitted = []
    batches = ledger_mod._batches

    def recording_batches(*args):
        for tag, keys in batches(*args):
            emitted.append(tag)
            yield tag, keys

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger_mod, "_batches", recording_batches)
        resumed, watermarks = _commits(corpus, config(second))
    assert resumed == oracle_tabulate(corpus, 2, "all")
    # A restart emits and commits the years up to the watermark again; a
    # resume only those after it.  Every year holds an article of three
    # keywords, so every emitted year yields a batch.
    expected = corpus.years[0] if restarts else watermark + 1
    years = corpus.view("all")[0].tolist()
    assert all(oracle_tabulate(corpus, 2, "all").articles_processed)
    assert emitted == sorted(emitted)
    assert sorted(set(emitted)) == [
        t for t, year in enumerate(years) if year >= expected
    ]
    assert (watermarks[0] < watermark) if restarts else (watermarks[0] > watermark)
    assert watermarks[-1] == corpus.years[-1]
    final = _manifest(tmp_path / "k2" / "all")["buckets"]
    assert (final > recorded) if restarts else (final == recorded > 2)


def _repeating_corpus():
    """Every year repeats the first year's articles, so each key that a
    damaged log lost would be counted as new again the next year."""
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
        # The log of every flush's keys.
        pytest.param(1 << 20, "keys.bin", id="log"),
        # ends.bin, where each bucket's part of each flush ends.
        pytest.param(_MIN_BUDGET, "ends.bin", id="history"),
    ],
)
def test_shard_file_shorter_than_committed_restarts(tmp_path, budget, damaged):
    corpus = _repeating_corpus()
    config = LedgerConfig(
        k=1, shard_count=2, spill_directory=tmp_path, memory_budget_bytes=budget
    )
    interrupted = _commits(corpus, config, until=2002)[1]
    ledger_dir = tmp_path / "k1" / "all"
    path = ledger_dir / damaged
    os.truncate(path, path.stat().st_size - 8)
    series, watermarks = _commits(corpus, config)
    assert series == oracle_tabulate(corpus, 1, "all")
    # The restart makes the interrupted run's commits again, from 2000.
    assert watermarks[: len(interrupted)] == interrupted


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
    "k, corpus, case",
    [
        # Each year takes three flushes, committed with its last.
        pytest.param(1, _repeating_corpus, "inside-years", id="inside-years"),
        # A committed flush holds the first part of the year after its
        # watermark.
        pytest.param(
            2,
            lambda: _random_corpus(14, n_articles=400, years=10),
            "across-years",
            id="across-years",
        ),
    ],
)
def test_kill_after_each_flush_resumes_to_the_oracle(
    tmp_path, monkeypatch, k, corpus, case
):
    # A kill lands after each flush in turn, before any manifest write, and
    # after each manifest write.  A resume emits the years after the
    # watermark again, also one that a committed flush holds in part.
    corpus = corpus()
    oracle = oracle_tabulate(corpus, k, "all")

    def config(name):
        return LedgerConfig(
            k=k, spill_directory=tmp_path / name, memory_budget_bytes=_MIN_BUDGET
        )

    # The last year of each flush, and the flush count and watermark of
    # each commit.
    flushed, commits = [], []
    flush, write_manifest = ledger_mod._flush, ledger_mod._write_manifest

    def recording_flush(buffer, *args):
        layout, first = args[2], args[-2]
        years = np.concatenate(buffer) & np.uint64((1 << layout.span_bits) - 1)
        flushed.append(corpus.years[first + int(years.max())])
        return flush(buffer, *args)

    def recording_write(path, payload):
        commits.append((payload["flushes"], payload["watermark"]))
        write_manifest(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(ledger_mod, "_flush", recording_flush)
        patch.setattr(ledger_mod, "_write_manifest", recording_write)
        assert tabulate(corpus, config("clean")) == oracle
    commits.pop()  # the completing write
    buckets = _manifest(tmp_path / "clean" / f"k{k}" / "all")["buckets"]
    if case == "inside-years":
        assert len(commits) < len(flushed) == commits[-1][0]
    else:
        assert any(flushed[n - 1] > watermark for n, watermark in commits)

    kills = [("_flush", i) for i in range(1, len(flushed) + 1)]
    kills += [("_write_manifest", i) for i in range(1, len(commits) + 1)]
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
        if name == "_write_manifest":
            assert _manifest(ledger_dir)["flushes"] == commits[i - 1][0]
            _assert_committed_layout(ledger_dir)
        else:
            # The first i flushes are written, and those that a commit
            # followed are committed; the resume cuts the rest away.
            done = [n for n, _ in commits if n < i]
            if done:
                assert _manifest(ledger_dir)["flushes"] == done[-1]
            else:
                assert not (ledger_dir / "manifest.json").exists()
            assert _spill_sizes(ledger_dir)["ends.bin"] == 8 * buckets * i
        assert tabulate(corpus, config(f"{name}{i}")) == oracle


# Manifest versions 1-5 packed 32, 21 or 16 bits per id and routed keys by
# the splitmix64 finalizer mod the shard or bucket count; version 6 wrote
# today's key log.
_OLD_ID_BITS = {1: 32, 2: 32, 3: 21, 4: 16}


def _old_pack(rows):
    bits = np.uint64(_OLD_ID_BITS[rows.shape[1]])
    keys = rows[:, 0].astype(np.uint64)
    for col in range(1, rows.shape[1]):
        keys = (keys << bits) | rows[:, col].astype(np.uint64)
    return keys


def _old_mix64(keys):
    x = keys.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_old_manifest_version_starts_fresh(tmp_path, version, engine_simplices):
    corpus = _random_corpus(13, n_articles=300)
    config = LedgerConfig(k=1, spill_directory=tmp_path, shard_count=2)
    ledger_dir = tmp_path / "k1" / "all"
    commits = []

    def commit(manifest):
        commits.append((manifest["watermark"], manifest["flushes"]))

    # Versions 6 to 9 kept keys.bin and ends.bin in today's format: their
    # state before the bucket pass is today's with another manifest.
    until = corpus.years[-1] if version >= 6 else None
    _commits(corpus, config, until=until, observe=commit)
    # Rewrite the state in an older layout.  Its rows are the oracle's, off
    # by one, so trusting them would show.
    oracle = oracle_tabulate(corpus, 1, "all")
    rows = [
        {
            "year": year,
            "new_simplices": new + 1,
            "new_peripheral": peripheral,
            "new_keywords": keywords,
            "articles_processed": articles,
        }
        for year, new, peripheral, keywords, articles in zip(
            oracle.years,
            oracle.new_simplices,
            oracle.new_peripheral,
            oracle.new_keywords,
            oracle.articles_processed,
        )
    ]
    current = _manifest(ledger_dir)
    series = {
        "years": [row["year"] for row in rows],
        **{name: [row[name] for row in rows] for name in ledger_mod.SERIES_COLUMNS},
    }
    manifest = {
        "version": version,
        "fingerprint": current["fingerprint"],
        "shard_count": 2,
        "watermark": rows[-1]["year"],
        "rows": rows,
    }
    if version == 8:
        # A complete version-8 manifest stored the series over every
        # calendar year.
        manifest = dict(current, version=8, complete=True, series=series)
    elif version == 9:
        # Version 9 hashed each key by splitmix64's finalizer mod 2^w.  Read
        # as today's, its hashes give other largest ids, which would show.
        _write_version_9_log(ledger_dir, corpus, current["buckets"])
        manifest = dict(current, version=9)
    elif version == 7:
        # Version 7 wrote today's manifest, but tagged each key with its
        # year's calendar offset.  Tags one year late would show.
        log = ledger_dir / "keys.bin"
        (np.fromfile(log, dtype=np.uint64) + np.uint64(1)).tofile(log)
        manifest = dict(current, version=7)
    elif version == 6:
        # Each row held the flushes committed through its year.
        for row in rows:
            row["flushes"] = next(f for w, f in commits if w >= row["year"])
        del manifest["shard_count"]
        manifest.update(buckets=current["buckets"], complete=False)
    else:
        _write_old_layout(ledger_dir, manifest, corpus, engine_simplices)
    (ledger_dir / "manifest.json").write_text(json.dumps(manifest))
    assert tabulate(corpus, config) == oracle
    assert [p.name for p in ledger_dir.iterdir()] == ["manifest.json"]


def _splitmix(keys, width):
    """Version 9's key hash: splitmix64's finalizer, its steps mod 2^width."""
    shift, mask = np.uint64((width + 1) // 2), np.uint64((1 << width) - 1)
    x = keys ^ (keys >> shift)
    for m in (0xBF58476D1CE4E5B9, 0x94D049BB133111EB):
        x = (x * np.uint64(m % (1 << width))) & mask
        x ^= x >> shift
    return x


def _write_version_9_log(ledger_dir, corpus, buckets):
    """Rewrite a k = 1 ledger's committed log as version 9 wrote it: each
    flush's keys hashed by ``_splitmix``, sorted and split by bucket anew."""
    years, _, _, _, keywords, _ = corpus.view("all")
    layout = ledger_mod._Layout.of(keywords.size, 2, years.size)
    width, y = layout.width, np.uint64(layout.year_bits)
    assert width + layout.year_bits <= 64  # no word drops hash bits
    log, ends = ledger_dir / "keys.bin", ledger_dir / "ends.bin"
    words = np.fromfile(log, dtype=np.uint64)
    flush_ends = np.fromfile(ends, dtype=np.int64).reshape(-1, buckets)[:, -1]
    year = words & ((np.uint64(1) << y) - np.uint64(1))
    keys = (words >> y) * np.uint64(pow(layout.multiplier, -1, 1 << width))
    hashes = _splitmix(keys & np.uint64((1 << width) - 1), width)
    end = 0
    with open(log, "wb", buffering=0) as log_file, open(
        ends, "wb", buffering=0
    ) as index_file:
        for a, b in zip([0, *flush_ends[:-1].tolist()], flush_ends.tolist()):
            first = int(year[a:b].min())
            buffered = hashes[a:b] << np.uint64(layout.span_bits)
            buffered |= year[a:b] - np.uint64(first)
            end = ledger_mod._flush(
                [buffered], log_file.fileno(), index_file.fileno(), layout,
                layout.starts(buckets), first, end,
            )


def _write_old_layout(ledger_dir, manifest, corpus, simplices):
    """The shard or bucket files of a k = 1 ledger in a version 1-5 layout,
    all years committed, and their entries in ``manifest``."""
    version, rows = manifest["version"], manifest["rows"]
    # Every pair, packed from raw keyword ids for version 2 and from dense
    # debut-order ids after it, split into two shards or buckets.
    corpus_years, starts, offsets, dense, keywords, _ = corpus.view("all")
    article_years = np.repeat(corpus_years, np.diff(starts))
    ids = keywords[dense] if version == 2 else dense
    pairs, years = [], []
    for a, b, year in zip(
        offsets[:-1].tolist(), offsets[1:].tolist(), article_years.tolist()
    ):
        for pair in simplices(ids[a:b].tolist(), 1):
            pairs.append(pair)
            years.append(year)
    keys = _old_pack(np.array(pairs, dtype=np.uint32))
    shard_of = _old_mix64(keys) % np.uint64(2)
    if version == 5:
        # Each year appends its deduplicated keys to their bucket files and
        # one row of every bucket's key count to ends.bin; the bucket pass
        # has not finished.
        years = np.array(years)
        filled = np.zeros(2, dtype=np.int64)
        for row in rows:
            for i in range(2):
                year_keys = np.unique(keys[(years == row["year"]) & (shard_of == i)])
                with open(ledger_dir / f"b{i:05d}.bin", "ab") as f:
                    f.write(year_keys.tobytes())
                filled[i] += year_keys.size
            with open(ledger_dir / "ends.bin", "ab") as f:
                f.write(filled.tobytes())
        del manifest["shard_count"]
        manifest.update(buckets=2, complete=False)
    else:
        keys, first = np.unique(keys, return_index=True)
        shard_of = shard_of[first]
        name = {1: "run0000.bin", 2: "hist0000.bin", 3: "hist0000.bin", 4: "log.bin"}
        for i in range(2):
            shard_dir = ledger_dir / f"shard{i:04d}"
            shard_dir.mkdir()
            keys[shard_of == i].tofile(shard_dir / name[version])
        if version == 1:
            manifest["runs"] = {str(i): ["run0000.bin"] for i in range(2)}
        elif version in (2, 3):
            manifest["history"] = ["hist0000.bin"] * 2
        else:
            manifest["shards"] = [
                {"file": "log.bin", "keys": int(np.count_nonzero(shard_of == i))}
                for i in range(2)
            ]


def test_temporary_workdir_is_removed(two_article_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # In memory, and in the key log.
    for shard_count in (1, 2):
        tabulate(two_article_corpus, LedgerConfig(k=1, shard_count=shard_count))
        assert list(tmp_path.iterdir()) == []

    # Interrupted right after its first commit.
    config = LedgerConfig(k=1, shard_count=2)
    _commits(two_article_corpus, config, until=two_article_corpus.years[0])
    assert list(tmp_path.iterdir()) == []


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
    # One year of 5.6e6 pair emissions against a 1 MiB budget: the year
    # flushes its buffer 100+ times into 100+ buckets.
    rng = random.Random(21)
    store = CorpusStore()
    for i in range(13_000):
        kws = frozenset(rng.sample(range(2000), 30))
        store.add(ArticleRecord(f"a{i:05d}", 2000, kws, kws))
    budget = 1 << 20
    calls = {"_flush": 0, "_count_bucket": 0}
    peak = 0

    def measured(name):
        fn = getattr(ledger_mod, name)

        def wrapper(*args):
            # The flush's buffer is held when it starts; everything else
            # either call holds is allocated inside it.
            nonlocal peak
            held = sum(a.nbytes for a in args[0]) if name == "_flush" else 0
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            peak = max(peak, held + tracemalloc.get_traced_memory()[1] - start)
            calls[name] += 1
            return result

        monkeypatch.setattr(ledger_mod, name, wrapper)

    measured("_flush")
    measured("_count_bucket")
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
    assert calls["_flush"] >= 100 and calls["_count_bucket"] >= 100
    assert 0 < peak <= budget
    assert spilled == tabulate(store, LedgerConfig(k=1, spill_directory=tmp_path / "m"))


def test_tabulate_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 30 ms to import; np.unique imports it.
    child = """
import sys
from simplexledger.ledger import LedgerConfig, tabulate
from simplexledger.synth import SynthParams, generate_synthetic

store = generate_synthetic(SynthParams(n_articles=300, vocab_size=60, seed=3))
# In the key log, then in memory.
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


# --- one bucket, in memory ------------------------------------------------


def _log_passes(monkeypatch):
    """A list that gains an entry each time the key log's emission pass
    runs."""
    passes = []
    emission_pass = ledger_mod._emission_pass

    def recording(*args):
        passes.append(1)
        return emission_pass(*args)

    monkeypatch.setattr(ledger_mod, "_emission_pass", recording)
    return passes


def test_one_bucket_is_counted_in_memory_and_two_in_the_log(tmp_path, monkeypatch):
    # At 24 bytes a key, a budget of 24 E gives one bucket, and one byte
    # less two.
    corpus = _random_corpus(3, n_articles=3000, vocab=100)
    passes = _log_passes(monkeypatch)
    for k in (1, 2, 3):
        oracle = oracle_tabulate(corpus, k, "all")
        exact = 24 * ledger_mod._census(corpus.view("all"), k + 1)[0]
        assert exact - 1 >= _MIN_BUDGET
        for budget, logged in ((exact, []), (exact - 1, [1])):
            passes.clear()
            spill = tmp_path / f"{k}-{budget}"
            config = LedgerConfig(
                k=k, memory_budget_bytes=budget, spill_directory=spill
            )
            assert tabulate(corpus, config) == oracle
            assert passes == logged
            assert spill.exists() == bool(logged)


def test_in_memory_ledger_needs_no_disk(tmp_path, monkeypatch):
    # With no free disk, a ledger of one bucket completes and leaves
    # nothing in its spill directory or under $TMPDIR; one that spills still
    # raises before it makes a directory.
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=0))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    passes = _log_passes(monkeypatch)
    corpus = _random_corpus(4)
    spill = tmp_path / "spill"
    for k in (1, 2, 3):
        for refinement in ("all", "major"):
            expected = oracle_tabulate(corpus, k, refinement)
            for directory in (spill, None):
                config = LedgerConfig(
                    k=k, refinement=refinement, spill_directory=directory
                )
                assert tabulate(corpus, config) == expected
    assert passes == []
    assert not spill.exists()
    assert list(temp.iterdir()) == []
    for directory in (spill, None):
        config = LedgerConfig(k=1, shard_count=2, spill_directory=directory)
        with pytest.raises(LedgerError, match="0 bytes free"):
            tabulate(corpus, config)
    assert not spill.exists()
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
    # At a budget of 24 bytes a key, the largest that one bucket holds, the
    # in-memory count peaks within it: the counterpart of the key log's
    # bound in test_merge_frame_stays_within_memory_budget.
    rng = random.Random(22)
    store = CorpusStore()
    articles = 12_000 // math.comb(keywords, k + 1) + 200
    for i in range(articles):
        kws = frozenset(rng.sample(range(3000), keywords))
        store.add(ArticleRecord(f"a{i:06d}", 2000 + i % 10, kws, kws))
    emissions = ledger_mod._census(store.view("all"), k + 1)[0]
    budget = 24 * emissions
    passes = _log_passes(monkeypatch)
    config = LedgerConfig(k=k, memory_budget_bytes=budget)
    tracemalloc.start()
    try:
        series = tabulate(store, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passes == []
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
    # counted a range at a time.  At k = 1 the key log's emission batch
    # holds a quarter of its buffer's keys, so a flush's batch and its
    # temporaries stay small beside the buffer.
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


def test_restart_ignores_state_from_different_corpus(tmp_path):
    a = _random_corpus(1, n_articles=100)
    b = _random_corpus(2, n_articles=100)
    config = LedgerConfig(k=1, shard_count=2, spill_directory=tmp_path)
    tabulate(a, config)
    fresh = tabulate(b, config)
    assert fresh == oracle_tabulate(b, 1, "all")
