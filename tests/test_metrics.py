import io
import math
import random

import pytest

from simplexledger.fitting import fit_linear
from simplexledger.ledger import LedgerConfig, LedgerSeries, oracle_tabulate, tabulate
from simplexledger.metrics import (
    CSV_COLUMNS,
    MetricsError,
    build_metrics,
    coverage_fraction,
    exact_binomial,
    paired_series,
    read_metrics_csv,
    write_ledger_csv,
    write_metrics_csv,
)
from simplexledger.synth import SynthParams, generate_synthetic


def test_reference_denominators_exact():
    assert exact_binomial(27875, 2) == 388_493_875
    assert exact_binomial(27875, 3) == 3_609_496_592_625
    assert exact_binomial(27875, 4) == 25_150_972_257_411_000


def test_binomial_edges():
    assert exact_binomial(10, 0) == 1
    assert exact_binomial(10, 10) == 1
    assert exact_binomial(3, 5) == 0


def test_binomial_rejects_bad_input():
    with pytest.raises(MetricsError):
        exact_binomial(-1, 2)
    with pytest.raises(MetricsError):
        exact_binomial(2.0, 2)


def test_pascals_rule_sampled():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 10_000)
        for s in (1, 2, 3, 4):
            assert exact_binomial(n, s) == exact_binomial(n - 1, s - 1) + exact_binomial(
                n - 1, s
            )


def test_full_and_zero_coverage():
    assert coverage_fraction(exact_binomial(40, 2), 40, 1) == 1.0
    assert coverage_fraction(0, 40, 1) == 0.0


def test_six_per_billion_quartets():
    fraction = coverage_fraction(150_906_000, 27_875, 3)
    assert abs(fraction - 6.0e-9) < 1e-11


def test_coverage_preconditions():
    with pytest.raises(MetricsError):
        coverage_fraction(10, 3, 3)  # vocabulary too small for quartets
    with pytest.raises(MetricsError, match="mismatch"):
        coverage_fraction(exact_binomial(20, 2) + 1, 20, 1)


def test_coverage_monotone_in_numerator():
    values = [coverage_fraction(c, 100, 2) for c in (0, 10, 100, 1000)]
    assert values == sorted(values)


def test_rates_hand_example(two_article_corpus, tmp_path):
    series = tabulate(
        two_article_corpus,
        LedgerConfig(k=1, refinement="all", spill_directory=tmp_path),
    )
    rates = {row.year: row for row in build_metrics(series)}
    assert rates[2001].r_p == 1.0
    assert rates[2001].r_c == 0.0
    assert rates[2001].r_m == 0.25


def test_rate_identities_on_random_corpora():
    for seed in range(6):
        corpus = generate_synthetic(
            SynthParams(
                n_articles=200,
                vocab_size=50,
                year_end=1999,
                keywords_per_article=(2, 6),
                new_keywords_per_year=3,
                seed=seed,
            )
        )
        for k in (1, 2):
            series = oracle_tabulate(corpus, k, "all")
            rows = build_metrics(series)
            for i, r in enumerate(rows):
                if r.r_p is not None:
                    assert r.r_p + r.r_c == pytest.approx(1.0)
                if series.new_keywords[i] == 0 and series.cum_keywords[i] > 0:
                    assert r.r_m == 0.0
                    assert series.new_peripheral[i] == 0


def test_undefined_rates_are_none_not_nan(two_article_corpus, tmp_path):
    # A gap year (no articles) has zero new combinations.
    from simplexledger.corpus import ArticleRecord

    two_article_corpus.add(
        ArticleRecord("c", 2003, frozenset({2, 3}), frozenset({2, 3}))
    )
    series = oracle_tabulate(two_article_corpus, 1, "all")
    rows = build_metrics(series)
    rates = {row.year: row for row in rows}
    assert rates[2002].r_p is None
    assert rates[2002].r_c is None
    out = io.StringIO()
    write_metrics_csv(rows, out)
    assert "nan" not in out.getvalue().lower()


def test_metrics_csv_header_is_frozen(two_article_corpus):
    series = oracle_tabulate(two_article_corpus, 1, "all")
    out = io.StringIO()
    write_metrics_csv(build_metrics(series), out)
    header = out.getvalue().splitlines()[0]
    assert header == (
        "year,k,refinement,new_simplices,cum_simplices,new_peripheral,"
        "new_mesh,cum_mesh,cum_articles,coverage,r_m,r_p,r_c"
    )
    assert CSV_COLUMNS == header.split(",")


def test_order_zero_identity_through_metrics():
    corpus = generate_synthetic(
        SynthParams(
            n_articles=300,
            vocab_size=60,
            year_end=1999,
            new_keywords_per_year=4,
            seed=2,
        )
    )
    order0 = oracle_tabulate(corpus, 0, "all")
    order1 = oracle_tabulate(corpus, 1, "all")
    # The order-0 ledger tally is the vocabulary series used by metrics.
    assert order0.cum_simplices == order1.cum_keywords


def _sparse_series():
    """k = 2 with empty early years: no keywords in 2000, two in 2001 (fewer
    than k + 1, so no coverage), then combinations from 2002 on."""
    return LedgerSeries(
        k=2,
        refinement="major",
        years=[2000, 2001, 2002, 2003],
        new_simplices=[0, 0, 1, 4],
        new_peripheral=[0, 0, 1, 3],
        new_keywords=[0, 2, 1, 3],
        articles_processed=[1, 1, 2, 3],
    )


def _metrics_text(rows):
    out = io.StringIO()
    write_metrics_csv(rows, out)
    return out.getvalue()


def test_metrics_csv_round_trips_with_none_cells():
    rows = build_metrics(_sparse_series())
    assert rows[0].r_m is None and rows[0].r_p is None
    assert rows[1].coverage is None and rows[3].coverage == 0.25
    text = _metrics_text(rows)
    assert read_metrics_csv(io.StringIO(text)) == rows
    assert _metrics_text(read_metrics_csv(io.StringIO(text))) == text


def test_metrics_csv_round_trips_random_corpus():
    corpus = generate_synthetic(SynthParams(n_articles=300, vocab_size=40, seed=3))
    rows = build_metrics(oracle_tabulate(corpus, 2, "all"))
    assert read_metrics_csv(io.StringIO(_metrics_text(rows))) == rows


def _damaged(edit):
    lines = _metrics_text(build_metrics(_sparse_series())).splitlines()
    edit(lines)
    return io.StringIO("\n".join(lines) + "\n")


def _drop_last_column(lines):
    lines[:] = [line.rsplit(",", 1)[0] for line in lines]


def _rename_column(lines):
    lines[0] = lines[0].replace("r_c", "r_x")


def _bad_cell(lines):
    cells = lines[3].split(",")
    cells[CSV_COLUMNS.index("cum_mesh")] = "three"
    lines[3] = ",".join(cells)


def _short_row(lines):
    lines[2] = lines[2].rsplit(",", 1)[0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_rename_column, "line 1: expected the header"),
        (_drop_last_column, "line 1: expected the header"),
        (_bad_cell, "line 4: cum_mesh 'three' is not int"),
        (_short_row, "line 3: expected 13 cells, got 12"),
    ],
)
def test_read_metrics_csv_names_the_bad_line(edit, message):
    with pytest.raises(MetricsError, match=message):
        read_metrics_csv(_damaged(edit))


def test_read_metrics_csv_refuses_an_empty_file():
    with pytest.raises(MetricsError, match="line 1: .* got nothing"):
        read_metrics_csv(io.StringIO(""))


def test_ledger_csv_rows():
    out = io.StringIO()
    write_ledger_csv(_sparse_series(), out)
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert lines[4] == "2003,2,major,4,3,3,3,5,6,7"


def test_paired_series_year_identity(two_article_corpus):
    rows = build_metrics(oracle_tabulate(two_article_corpus, 1, "all"))
    by_year = paired_series(rows, "year", "cum_simplices")
    assert [x for x, _ in by_year] == [2000.0, 2001.0]


def test_paired_series_articles_non_decreasing():
    corpus = generate_synthetic(SynthParams(n_articles=200, vocab_size=40, seed=3))
    rows = build_metrics(oracle_tabulate(corpus, 1, "all"))
    xs = [x for x, _ in paired_series(rows, "articles", "cum_simplices")]
    assert xs == sorted(xs)


def test_paired_series_rejects_unknown_axis(two_article_corpus):
    rows = build_metrics(oracle_tabulate(two_article_corpus, 1, "all"))
    with pytest.raises(MetricsError):
        paired_series(rows, "volume", "cum_simplices")


def test_constant_novelty_rate_recovered_by_linear_fit():
    # Every article carries exactly two fresh keywords, hence exactly one
    # never-seen pair: cumulative combinations track articles with slope 1.
    years = list(range(1990, 2010))
    corpus = generate_synthetic(
        SynthParams(
            n_articles=0,
            articles_per_year={y: 10 for y in years},
            vocab_size=400,
            year_start=years[0],
            year_end=years[-1],
            keywords_per_article=2,
            new_keywords_per_year=20,
            sample_pool="current-year",
            seed=4,
        )
    )
    rows = build_metrics(oracle_tabulate(corpus, 1, "all"))
    points = paired_series(rows, "articles", "cum_simplices")
    fit = fit_linear(points)
    assert abs(fit.slope - 1.0) <= 0.02
