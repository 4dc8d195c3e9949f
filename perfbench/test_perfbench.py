"""Tests of the benchmark itself.

The reference ledger must agree with ``oracle_tabulate``: small corpora shaped
like each workload are generated, written to TSV, ingested by
``simplexledger`` and tabulated by the oracle.  The tracer must
nest spans, report missing names, and give self times.
"""

import csv
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refledger import reference_csv  # noqa: E402
from run import span_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Shape, generate, write_corpus, write_ontology  # noqa: E402

from simplexledger import ingest_tsv, load_ontology, oracle_tabulate  # noqa: E402

SMALL_SHAPES = {
    "quartet": Shape(years=6, articles_per_year=80, per_year_vocab=20, keywords=10),
    "orders": Shape(years=8, articles_per_year=60, per_year_vocab=15, keywords=6),
}


def _columns(series) -> dict[str, list[int]]:
    return {
        "year": series.years,
        "new_simplices": series.new_simplices,
        "new_peripheral": series.new_peripheral,
        "new_keywords": series.new_keywords,
        "articles_processed": series.articles_processed,
        "cum_simplices": series.cum_simplices,
        "cum_keywords": series.cum_keywords,
        "cum_articles": series.cum_articles,
    }


@pytest.mark.parametrize("shape_name", sorted(SMALL_SHAPES))
def test_reference_matches_oracle(tmp_path, shape_name):
    corpus = generate(SMALL_SHAPES[shape_name], seed=5, salt=shape_name)
    write_ontology(corpus.vocab, tmp_path / "ontology.tsv")
    write_corpus(corpus, tmp_path / "corpus.tsv")
    with open(tmp_path / "ontology.tsv", encoding="utf-8") as f:
        ontology = load_ontology(f)
    with open(tmp_path / "corpus.tsv", encoding="utf-8") as f:
        store = ingest_tsv(f, ontology)
    assert len(store) == len(corpus.years)
    for k in range(4):
        for refinement in ("all", "major"):
            rows = list(csv.DictReader(io.StringIO(reference_csv(corpus, k, refinement))))
            expected = _columns(oracle_tabulate(store, k, refinement))
            for column, values in expected.items():
                assert [int(r[column]) for r in rows] == values, column
            assert {(r["k"], r["refinement"]) for r in rows} == {(str(k), refinement)}


def test_generator_is_seeded():
    shape = SMALL_SHAPES["orders"]
    a, b = generate(shape, 7, "x"), generate(shape, 7, "x")
    c = generate(shape, 8, "x")
    assert (a.ids == b.ids).all() and (a.major == b.major).all()
    assert a.ids.size != c.ids.size or (a.ids != c.ids).any()


def test_quartet_spill_emits_exactly_1_05_million():
    workload = WORKLOADS["quartet-spill"]
    assert workload.expected_emissions == 1_050_000
    assert generate(workload.shape, 1, workload.name).emissions(3, "all") == 1_050_000


def test_tracer_nests_spans_and_reports_missing_names():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Owner, "outer", "cli.run", "Owner.outer")
    tracer.wrap(Owner, "inner", "corpus.digest", "Owner.inner")
    tracer.wrap(Owner, "renamed", "corpus.load_store", "Owner.renamed")
    assert Owner().outer() == 2
    assert tracer.missing == {"Owner.renamed": "corpus.load_store"}
    (outer_id, outer_parent, *_), (_, inner_parent, *_) = tracer.spans
    assert outer_parent == 0 and inner_parent == outer_id


def test_self_time_subtracts_child_spans():
    spans = [
        (1, 0, "cli.run", 0, 10 * 10**9, {}),
        (2, 1, "ledger.tabulate", 1 * 10**9, 7 * 10**9, {"read_bytes": 80, "new_keys": 2}),
        (3, 2, "corpus.digest", 2 * 10**9, 3 * 10**9, {}),
        (4, 2, "corpus.digest", 4 * 10**9, 5 * 10**9, {}),
    ]
    m = span_metrics(spans)
    assert m["cli.run_self_s"] == 4 and m["ledger.tabulate_self_s"] == 4
    assert m["corpus.digest_s"] == 2 and m["corpus.digest_calls"] == 2
    assert m["ledger.read_bytes"] == 80 and m["ledger.new_keys"] == 2
    assert m["corpus.load_store_s"] == 0


def test_missing_span_metrics_are_left_out():
    spans = [(1, 0, "cli.run", 0, 10**9, {})]
    m = span_metrics(spans, {"corpus.digest", "ledger.tabulate"})
    assert "corpus.digest_s" not in m and "corpus.digest_calls" not in m
    assert "ledger.new_keys" not in m and "ledger.read_bytes" not in m
    assert m["cli.run_self_s"] == 1
