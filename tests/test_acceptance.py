"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import simplexledger.ledger as ledger_mod
from simplexledger.fitting import fit_exponential, fit_linear
from simplexledger.ledger import LedgerConfig, oracle_tabulate, tabulate
from simplexledger.metrics import build_metrics, exact_binomial
from simplexledger.synth import SynthParams, generate_synthetic


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_binomial_exactness():
    start = time.perf_counter()
    assert exact_binomial(27875, 2) == 388_493_875
    assert exact_binomial(27875, 3) == 3_609_496_592_625
    assert exact_binomial(27875, 4) == 25_150_972_257_411_000
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _passed(1, f"reference denominators exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_enumeration_exactness(engine_simplices):
    rng = random.Random(2)
    checked = 0
    for _ in range(60):
        size = rng.randint(2, 15)
        kws = set(rng.sample(range(5000), size))
        for k in (1, 2, 3):
            out = engine_simplices(kws, k)
            assert len(out) == math.comb(size, k + 1)
            assert len(set(out)) == len(out)
            assert all(list(t) == sorted(t) for t in out)
            checked += 1
    assert len(engine_simplices(range(12), 3)) == 495
    _passed(2, f"{checked} random keyword sets emit exact binomial counts")


def test_criterion_3_oracle_equivalence(tmp_path):
    start = time.perf_counter()
    rng = random.Random(3)
    for trial in range(100):
        vocab = rng.randint(30, 200)
        # Debut schedule must fit the vocabulary over the 20-year span and
        # give the opening year at least two keywords to sample from.
        front = vocab // 2 + 1
        trickle = (vocab - front) // 19
        staged = {1990 + i: front if i == 0 else trickle for i in range(20)}
        entry = rng.choice([None, staged])
        corpus = generate_synthetic(
            SynthParams(
                n_articles=rng.randint(100, 2000),
                vocab_size=vocab,
                year_start=1990,
                year_end=2009,
                keywords_per_article=(2, 7),
                major_fraction=rng.uniform(0.2, 0.9),
                new_keywords_per_year=entry,
                seed=trial,
            )
        )
        for k in (1, 2, 3):
            for refinement in ("all", "major"):
                exact = tabulate(
                    corpus,
                    LedgerConfig(
                        k=k,
                        refinement=refinement,
                        spill_directory=tmp_path / f"t{trial}",
                    ),
                )
                assert exact == oracle_tabulate(corpus, k, refinement), (
                    trial,
                    k,
                    refinement,
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _passed(3, f"100 corpora x 3 orders x 2 refinements exact in {elapsed:.0f} s")


def test_criterion_4_determinism_under_parallelism(tmp_path):
    corpus = generate_synthetic(
        SynthParams(
            n_articles=100_000,
            vocab_size=1500,
            year_start=1990,
            year_end=2009,
            keywords_per_article=6,
            new_keywords_per_year=75,
            seed=4,
        )
    )
    results = []
    # shard_count is the minimum number of passes.
    for shards in (1, 4, 16):
        results.append(
            tabulate(
                corpus,
                LedgerConfig(
                    k=1,
                    refinement="all",
                    shard_count=shards,
                    spill_directory=tmp_path / f"p{shards}",
                ),
            )
        )
    assert all(r == results[0] for r in results[1:])
    _passed(4, "10^5-article ledger identical across shard counts")


def test_criterion_5_rate_identities():
    corpora = 0
    for seed in range(10):
        corpus = generate_synthetic(
            SynthParams(
                n_articles=400,
                vocab_size=80,
                keywords_per_article=(2, 6),
                new_keywords_per_year=random.Random(seed).choice([None, 2, 4]),
                seed=seed + 50,
            )
        )
        corpora += 1
        order0 = oracle_tabulate(corpus, 0, "all")
        for k in (1, 2, 3):
            series = oracle_tabulate(corpus, k, "all")
            rows = build_metrics(series)
            assert series.cum_keywords == order0.cum_simplices
            for i, r in enumerate(rows):
                if r.r_p is not None:
                    assert r.r_c + r.r_p == 1.0
                if series.new_keywords[i] == 0:
                    assert series.new_peripheral[i] == 0
    _passed(5, f"rate identities exact on {corpora} corpora, all orders")


def test_criterion_6_fit_recovery():
    lin = fit_linear([(x, 2.5 + 0.75 * x) for x in range(20)])
    assert abs(lin.A - 2.5) <= 1e-9 and abs(lin.slope - 0.75) <= 1e-9
    exp = fit_exponential([(x, 3.0 * math.exp(0.02 * x)) for x in range(20)])
    assert abs(exp.A - 3.0) <= 1e-9 and abs(exp.slope - 0.02) <= 1e-9
    g = 0.012
    points = [
        (10 * (y + 1), round(50.0 * math.exp(g * 10 * (y + 1)))) for y in range(30)
    ]
    fit = fit_exponential(points)
    assert abs(fit.slope - g) / g < 0.01
    _passed(6, "exact models within 1e-9; 30-year growth constant within 1%")


# Criterion 7 runs in a fresh interpreter so that its peak RSS is its own,
# not that of every test run before it in this process.
_CRITERION_7_CHILD = """
import json, math, pathlib, sys, time
import simplexledger.passes as passes_mod
from simplexledger.ledger import _HEADER, LedgerConfig, tabulate
from simplexledger.synth import SynthParams, generate_synthetic

corpus = generate_synthetic(
    SynthParams(
        n_articles=100_000,
        vocab_size=2000,
        year_start=1990,
        year_end=2009,
        keywords_per_article=10,
        new_keywords_per_year=100,
        seed=7,
    )
)
emissions = sum(math.comb(len(r.all_keywords), 4) for r in corpus.iter_records())
passes = []
original_pass = passes_mod._tally_pass

def counting_pass(*args):
    passes.append(1)
    return original_pass(*args)

passes_mod._tally_pass = counting_pass
start = time.perf_counter()
series = tabulate(
    corpus,
    LedgerConfig(
        k=3,
        refinement="all",
        shard_count=4,
        memory_budget_bytes=4 << 20,  # low cap to force a plan of passes
        spill_directory=sys.argv[1],
    ),
)
elapsed = time.perf_counter() - start
tallies = pathlib.Path(sys.argv[1], "k3_all.tallies").read_bytes()
with open("/proc/self/status") as status:
    hwm_kib = next(int(l.split()[1]) for l in status if l.startswith("VmHWM:"))
print(json.dumps({
    "emissions": emissions,
    "elapsed": elapsed,
    "passes_run": len(passes),
    "passes": _HEADER.unpack_from(tallies)[2],
    "new": sum(series.new_simplices),
    "peak_kib": hwm_kib,
}))
"""


def test_criterion_7_performance_budget(tmp_path):
    if not Path("/proc/self/status").exists():
        pytest.skip("peak RSS is read from /proc/self/status")
    src = str(Path(ledger_mod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CRITERION_7_CHILD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(child.stdout)
    assert result["emissions"] == 100_000 * 210
    assert result["elapsed"] < 60
    # The budget, not shard_count, sets the pass count, and the ledger
    # runs more than one pass.
    assert result["passes"] > 4
    assert result["passes_run"] == result["passes"] > 1, "passes were not exercised"
    assert result["new"] > 0
    peak_gib = result["peak_kib"] / (1 << 20)
    assert peak_gib < 1.0, f"peak RSS {peak_gib:.2f} GiB"
    _passed(
        7,
        f"2.1e7 quartet emissions in {result['elapsed']:.1f} s, "
        f"{result['passes']} passes, "
        f"peak RSS {peak_gib:.2f} GiB",
    )


def test_criterion_8_crash_restart(tmp_path):
    corpus = generate_synthetic(
        SynthParams(
            n_articles=2000,
            vocab_size=100,
            year_start=1990,
            year_end=2009,
            keywords_per_article=(2, 8),
            new_keywords_per_year=4,
            seed=8,
        )
    )
    config = LedgerConfig(
        k=2,
        refinement="all",
        shard_count=4,
        memory_budget_bytes=1 << 20,
        spill_directory=tmp_path / "resume",
    )

    class Interrupt(Exception):
        pass

    append = ledger_mod._append
    header = ledger_mod._HEADER
    path = tmp_path / "resume" / "k2_all.tallies"

    def crash_midway(fd, values):
        # Interrupted right after the second pass's record is committed.
        append(fd, values)
        if os.fstat(fd).st_size == header.size + 2 * values.nbytes:
            raise Interrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger_mod, "_append", crash_midway)
        with pytest.raises(Interrupt):
            tabulate(corpus, config)
    # The header plans more passes than the two records hold.
    tallies = path.read_bytes()
    record = 16 * len(corpus.years)
    assert len(tallies) == header.size + 2 * record
    assert header.unpack_from(tallies)[2] > 2
    resumed = tabulate(corpus, config)
    clean = tabulate(
        corpus,
        LedgerConfig(k=2, refinement="all", spill_directory=tmp_path / "clean"),
    )
    assert resumed == clean
    _passed(8, "run interrupted mid-plan resumed from its records; series identical")


def test_criterion_9_paper_scale_slopes():
    pytest.skip(
        "criterion 9 is conditional: reproducing the published 2005-2018 "
        "slopes within ±15% requires a user-supplied PubMed annual baseline "
        "and MeSH export; excluded from CI by the acceptance terms"
    )
