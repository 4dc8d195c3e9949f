import io
import json
import math
import os
import random
import stat
import tempfile

import numpy as np
import pytest

import simplexledger.corpus as corpus_mod
import simplexledger.ledger as ledger_mod
from simplexledger.corpus import ArticleRecord, CorpusStore, load_store, save_store
from simplexledger.ledger import (
    LedgerConfig,
    LedgerError,
    enumerate_simplices,
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


def test_four_keywords_give_six_four_one():
    kws = {3, 9, 1, 7}
    assert len(enumerate_simplices(kws, 1)) == 6
    assert len(enumerate_simplices(kws, 2)) == 4
    assert len(enumerate_simplices(kws, 3)) == 1


def test_twelve_keywords_give_495_quartets():
    assert len(enumerate_simplices(range(12), 3)) == 495


def test_insufficient_arity_gives_empty():
    assert enumerate_simplices({1, 2}, 2) == []


def test_combinations_are_sorted_and_distinct():
    out = enumerate_simplices({5, 2, 9, 1}, 1)
    assert all(a < b for a, b in out)
    assert len(set(out)) == len(out)


def test_counts_match_binomial_for_random_sets():
    rng = random.Random(0)
    for _ in range(30):
        size = rng.randint(2, 15)
        kws = set(rng.sample(range(1000), size))
        for k in (1, 2, 3):
            assert len(enumerate_simplices(kws, k)) == math.comb(size, k + 1)


def test_negative_order_rejected():
    with pytest.raises(LedgerError):
        enumerate_simplices({1, 2}, -1)


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


def test_oracle_guard():
    store = CorpusStore()
    store.add(ArticleRecord("a", 1999, frozenset(range(40)), frozenset()))
    with pytest.raises(LedgerError, match="guard"):
        oracle_tabulate(store, 3, "all", guard=1000)


# --- pipeline equivalence and invariants ----------------------------------


# At 1 MiB every shard history stays resident; at the smallest budget the
# larger ones move to history files mid-run.
_MIN_BUDGET = ledger_mod._MIN_MEMORY_BUDGET
_BUDGETS = [pytest.param(1 << 20, id="1MiB"), pytest.param(_MIN_BUDGET, id="min")]


def _shard_files(ledger_dir):
    """The file each shard's committed state names, by shard."""
    manifest = json.loads((ledger_dir / "manifest.json").read_text())
    return [shard["file"] for shard in manifest["shards"]]


@pytest.mark.parametrize(
    "seed, budget",
    [pytest.param(seed, 1 << 20, id=str(seed)) for seed in range(8)]
    + [pytest.param(seed, _MIN_BUDGET, id=f"{seed}-min") for seed in range(8)],
)
def test_tabulate_matches_oracle(seed, budget, tmp_path):
    corpus = _random_corpus(seed)
    files = set()
    for k in (0, 1, 2, 3):
        for refinement in ("all", "major"):
            oracle = oracle_tabulate(corpus, k, refinement)
            exact = tabulate(
                corpus,
                LedgerConfig(
                    k=k,
                    refinement=refinement,
                    spill_directory=tmp_path / f"s{seed}",
                    shard_count=3,
                    memory_budget_bytes=budget,
                ),
            )
            assert exact == oracle
            files.update(_shard_files(tmp_path / f"s{seed}" / f"k{k}" / refinement))
    assert "log.bin" in files
    if budget == _MIN_BUDGET:
        assert any(name.startswith("hist") for name in files)
    else:
        assert files == {"log.bin"}


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


def test_per_article_emission_count_is_binomial():
    corpus = _random_corpus(77, n_articles=100)
    for record in corpus.iter_records():
        for k in (1, 2, 3):
            n = len(enumerate_simplices(record.all_keywords, k))
            assert n == math.comb(len(record.all_keywords), k + 1)


def test_order_zero_ledger_equals_vocabulary_tally(tmp_path):
    corpus = _random_corpus(88)
    series = tabulate(
        corpus, LedgerConfig(k=0, refinement="all", spill_directory=tmp_path)
    )
    debut = keyword_debut_years(corpus, "all")
    assert sum(series.new_simplices) == len(debut)
    assert series.new_simplices == series.new_keywords


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
    debut_order = CorpusStore._debut_order

    def counting(self, refinement):
        computed.append(refinement)
        return debut_order(self, refinement)

    monkeypatch.setattr(CorpusStore, "_debut_order", counting)
    for k in (1, 2, 3):
        for refinement in ("all", "major"):
            config = LedgerConfig(
                k=k, refinement=refinement, spill_directory=tmp_path / "a"
            )
            tabulate(store, config)
    assert sorted(computed) == ["all", "major"]
    # An added article debuts keywords, so a stale renumbering would show.
    late = store.years[-1] + 1
    store.add(ArticleRecord("z", late, frozenset({1, 500, 501}), frozenset({500})))
    for refinement in ("all", "major"):
        config = LedgerConfig(
            k=1, refinement=refinement, spill_directory=tmp_path / "b"
        )
        assert tabulate(store, config) == oracle_tabulate(store, 1, refinement)
    assert len(computed) == 4


# --- configuration and failure modes --------------------------------------


def test_invalid_configs_rejected():
    with pytest.raises(LedgerError):
        LedgerConfig(k=4)
    with pytest.raises(LedgerError):
        LedgerConfig(refinement="partial")
    with pytest.raises(LedgerError):
        LedgerConfig(shard_count=0)


def test_memory_budget_too_small_aborts_with_hint():
    with pytest.raises(LedgerError, match="merge frame"):
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
    # although their even ids run up to 131,070.
    store = CorpusStore()
    for i in range(1 << 14):
        kws = frozenset(range(8 * i, 8 * i + 8, 2))
        store.add(ArticleRecord(f"a{i:05d}", 2000, kws, frozenset()))
    config = LedgerConfig(k=3, spill_directory=tmp_path / "fits")
    assert tabulate(store, config) == oracle_tabulate(store, 3, "all")
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


# --- crash-restart ---------------------------------------------------------


@pytest.fixture
def manifest_forms(monkeypatch):
    """The shard file forms ("log", "history") of every manifest written."""
    forms = set()
    write_manifest = ledger_mod._write_manifest

    def recording_write(path, payload):
        forms.update(
            "log" if shard["file"] == "log.bin" else "history"
            for shard in payload["shards"]
        )
        write_manifest(path, payload)

    monkeypatch.setattr(ledger_mod, "_write_manifest", recording_write)
    return forms


def _expected_forms(budget):
    return {"log", "history"} if budget == _MIN_BUDGET else {"log"}


@pytest.mark.parametrize("budget", _BUDGETS)
def test_crash_restart_yields_identical_series(tmp_path, manifest_forms, budget):
    corpus = _random_corpus(12, n_articles=500, years=12)
    config = LedgerConfig(
        k=2,
        refinement="all",
        spill_directory=tmp_path / "resume",
        shard_count=4,
        memory_budget_bytes=budget,
    )

    class Interrupt(Exception):
        pass

    crash_year = corpus.years[0] + 5

    def boom(year):
        if year == crash_year:
            raise Interrupt

    with pytest.raises(Interrupt):
        tabulate(corpus, config, progress_callback=boom)
    resumed = tabulate(corpus, config)
    assert manifest_forms == _expected_forms(budget)
    clean = tabulate(
        corpus, LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean")
    )
    assert resumed == clean


def _interrupt_before_manifest(monkeypatch, corpus, config, crash_year):
    """Run through the year-end pass of crash_year; fail its manifest write."""

    class Interrupt(Exception):
        pass

    write_manifest = ledger_mod._write_manifest

    def failing_write(path, payload):
        if payload["watermark"] == crash_year:
            raise Interrupt
        write_manifest(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(ledger_mod, "_write_manifest", failing_write)
        with pytest.raises(Interrupt):
            tabulate(corpus, config)


def _assert_committed_layout(ledger_dir):
    """Each shard holds exactly the file its manifest names, at its size."""
    manifest = json.loads((ledger_dir / "manifest.json").read_text())
    for i, shard in enumerate(manifest["shards"]):
        directory = ledger_dir / f"shard{i:04d}"
        assert [p.name for p in directory.iterdir()] == [shard["file"]]
        assert (directory / shard["file"]).stat().st_size == 8 * shard["keys"]


@pytest.mark.parametrize("budget", _BUDGETS)
def test_crash_after_history_commit_before_manifest(
    tmp_path, monkeypatch, manifest_forms, budget
):
    corpus = _random_corpus(12, n_articles=500, years=12)
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
    manifest = json.loads((ledger_dir / "manifest.json").read_text())
    assert manifest["watermark"] == crash_year - 1
    # The failed year left uncommitted state: a history file the manifest
    # does not name, or a log longer than its committed keys.
    uncommitted = []
    for i, shard in enumerate(manifest["shards"]):
        for p in (ledger_dir / f"shard{i:04d}").iterdir():
            if p.name != shard["file"] or p.stat().st_size > 8 * shard["keys"]:
                uncommitted.append(p.name)
    assert uncommitted, "no uncommitted shard state"

    resumed = tabulate(corpus, config)
    assert manifest_forms == _expected_forms(budget)
    clean = tabulate(
        corpus, LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean")
    )
    assert resumed == clean == oracle_tabulate(corpus, 2, "all")
    _assert_committed_layout(ledger_dir)


def test_crash_between_log_append_and_manifest(tmp_path, monkeypatch):
    corpus = _random_corpus(14, n_articles=400, years=10)
    config = LedgerConfig(k=2, spill_directory=tmp_path, shard_count=2)
    ledger_dir = tmp_path / "k2" / "all"
    _interrupt_before_manifest(monkeypatch, corpus, config, corpus.years[0] + 4)
    manifest = json.loads((ledger_dir / "manifest.json").read_text())
    for i, shard in enumerate(manifest["shards"]):
        assert shard["file"] == "log.bin"
        log = ledger_dir / f"shard{i:04d}" / "log.bin"
        assert log.stat().st_size > 8 * shard["keys"]
        # A torn write: the next append was cut off mid-key.
        with open(log, "ab") as f:
            f.write(b"\xff" * 13)
    assert tabulate(corpus, config) == oracle_tabulate(corpus, 2, "all")
    _assert_committed_layout(ledger_dir)


def _repeating_corpus():
    """Every year repeats the first year's articles, so each key that a
    damaged history lost would be counted as new again the next year."""
    rng = random.Random(5)
    sets = [frozenset(rng.sample(range(200), 10)) for _ in range(100)]
    store = CorpusStore()
    for year in range(2000, 2006):
        for i, kws in enumerate(sets):
            store.add(ArticleRecord(f"{year}-{i:03d}", year, kws, kws))
    return store


@pytest.mark.parametrize(
    "budget, form",
    [
        pytest.param(1 << 20, "log.bin", id="log"),
        pytest.param(_MIN_BUDGET, "hist", id="history"),
    ],
)
def test_shard_file_shorter_than_committed_restarts(tmp_path, budget, form):
    corpus = _repeating_corpus()
    config = LedgerConfig(k=1, spill_directory=tmp_path, memory_budget_bytes=budget)

    class Interrupt(Exception):
        pass

    def boom(year):
        if year == 2002:
            raise Interrupt

    with pytest.raises(Interrupt):
        tabulate(corpus, config, progress_callback=boom)
    ledger_dir = tmp_path / "k1" / "all"
    (name,) = _shard_files(ledger_dir)
    assert name.startswith(form)
    path = ledger_dir / "shard0000" / name
    os.truncate(path, path.stat().st_size - 8)
    assert tabulate(corpus, config) == oracle_tabulate(corpus, 1, "all")


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_manifest_version_starts_fresh(tmp_path, version):
    corpus = _random_corpus(13, n_articles=300)
    config = LedgerConfig(k=1, spill_directory=tmp_path, shard_count=2)
    tabulate(corpus, config)
    # Rewrite the state in an older layout.  Its rows are off by one, so
    # trusting them would show.
    ledger_dir = tmp_path / "k1" / "all"
    manifest_path = ledger_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(
        version=version,
        rows=[dict(r, new_simplices=r["new_simplices"] + 1) for r in manifest["rows"]],
    )
    assert [shard["file"] for shard in manifest.pop("shards")] == ["log.bin"] * 2
    logs = [ledger_dir / f"shard{i:04d}" / "log.bin" for i in range(2)]
    if version == 1:
        # A list of run files per shard.
        for log in logs:
            log.rename(log.with_name("run0000.bin"))
        manifest["runs"] = {str(i): ["run0000.bin"] for i in range(2)}
    else:
        # One sorted history file per shard: version 3 with these dense
        # keys, version 2 with keys packed from raw keyword ids.
        pairs = [
            pair
            for record in corpus.iter_records()
            for pair in enumerate_simplices(record.all_keywords, 1)
        ]
        keys = np.unique(ledger_mod._pack(np.array(pairs, dtype=np.uint32), 2))
        shard_of = ledger_mod._mix64(keys) % np.uint64(2)
        for i, log in enumerate(logs):
            if version == 2:
                history = keys[shard_of == i]
            else:
                history = np.sort(np.fromfile(log, dtype=np.uint64))
            history.tofile(log.with_name("hist0000.bin"))
            log.unlink()
        manifest["history"] = ["hist0000.bin"] * 2
    manifest_path.write_text(json.dumps(manifest))
    assert tabulate(corpus, config) == oracle_tabulate(corpus, 1, "all")


def test_temporary_workdir_is_removed(two_article_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv(ledger_mod.SPILL_ENV_VAR, raising=False)
    tabulate(two_article_corpus, LedgerConfig(k=1))
    assert list(tmp_path.iterdir()) == []

    def boom(year):
        raise RuntimeError(year)

    with pytest.raises(RuntimeError):
        tabulate(two_article_corpus, LedgerConfig(k=1), progress_callback=boom)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shard_count", [1, 4])
def test_merge_frame_stays_within_memory_budget(tmp_path, monkeypatch, shard_count):
    # One year of 5.6e6 pair emissions against a 1 MiB budget: every
    # emission batch spills, so the year-end pass opens 20+ spill files.
    rng = random.Random(21)
    store = CorpusStore()
    for i in range(13_000):
        kws = frozenset(rng.sample(range(2000), 30))
        store.add(ArticleRecord(f"a{i:05d}", 2000, kws, kws))
    # A year before it whose 21,000 keys stay resident in every shard.
    for i in range(50):
        kws = frozenset(rng.sample(range(2000), 30))
        store.add(ArticleRecord(f"b{i:05d}", 1999, kws, kws))
    budget = 1 << 20
    iter_file = ledger_mod._iter_file
    shards = []
    held = {}
    opened = []
    peak = 0
    peak_resident = 0

    class Shard(ledger_mod._Shard):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shards.append(self)

    def tracked(path, chunk_elems):
        nonlocal peak, peak_resident
        opened.append(path.name)
        key = len(opened)
        try:
            for chunk in iter_file(path, chunk_elems):
                held[key] = chunk.nbytes
                resident = sum(
                    sh.resident.nbytes for sh in shards if sh.resident is not None
                )
                peak_resident = max(peak_resident, resident)
                peak = max(peak, sum(held.values()) + resident)
                yield chunk
        finally:
            held.pop(key, None)

    monkeypatch.setattr(ledger_mod, "_Shard", Shard)
    monkeypatch.setattr(ledger_mod, "_iter_file", tracked)
    spilled = tabulate(
        store,
        LedgerConfig(
            k=1,
            shard_count=shard_count,
            spill_directory=tmp_path / "b",
            memory_budget_bytes=budget,
        ),
    )
    assert sum(name.startswith("spill") for name in opened) >= 20
    assert peak_resident > 0
    assert 0 < peak <= budget
    assert spilled == tabulate(store, LedgerConfig(k=1, spill_directory=tmp_path / "m"))


def test_restart_ignores_state_from_different_corpus(tmp_path):
    a = _random_corpus(1, n_articles=100)
    b = _random_corpus(2, n_articles=100)
    config = LedgerConfig(k=1, spill_directory=tmp_path)
    tabulate(a, config)
    fresh = tabulate(b, config)
    assert fresh == oracle_tabulate(b, 1, "all")
