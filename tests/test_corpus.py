import io
import random

import pytest

from simplexledger.corpus import (
    ArticleRecord,
    CorpusError,
    CorpusStore,
    FilterConfig,
    IngestStats,
    RawArticle,
    filter_article,
    ingest_pubmed_xml,
    ingest_tsv,
    load_store,
    save_store,
)
from simplexledger.synth import SynthParams, generate_synthetic


def _raw(pub_types, year, keywords):
    return RawArticle("x", year, pub_types, keywords)


def test_editorial_rejected():
    stats = IngestStats()
    out = filter_article(
        _raw(["Editorial"], 1998, [(0, False), (1, False)]), FilterConfig(), stats
    )
    assert out is None
    assert stats.rejected_pub_type == 1


def test_review_with_three_keywords_accepted():
    out = filter_article(
        _raw(["Review"], 1998, [(0, True), (1, False), (4, False)]), FilterConfig()
    )
    assert out is not None
    assert len(out.all_keywords) == 3
    assert out.major_keywords == frozenset({0})


def test_too_few_keywords_after_branch_filter_rejected():
    stats = IngestStats()
    out = filter_article(
        _raw(["Journal Article"], 1998, [(0, False)]), FilterConfig(), stats
    )
    assert out is None
    assert stats.rejected_too_few_keywords == 1


def test_pre_minimum_year_rejected():
    stats = IngestStats()
    out = filter_article(
        _raw(["Review"], 1890, [(0, False), (1, False)]), FilterConfig(), stats
    )
    assert out is None
    assert stats.rejected_year == 1


def test_rejection_counters_account_for_every_input(ontology):
    rows = [
        "p1\t1998\tJournal Article\t*D000001;D000002",
        "p2\t1998\tEditorial\tD000001;D000002",
        "p3\t1890\tReview\tD000001;D000002",
        "p4\t1998\tReview\tD000003",  # Z-branch only keyword
        "p5\tnot-a-year\tReview\tD000001;D000002",
    ]
    store = ingest_tsv(iter(rows), ontology)
    s = store.stats
    total = (
        s.accepted
        + s.rejected_pub_type
        + s.rejected_year
        + s.rejected_too_few_keywords
        + s.rejected_malformed
    )
    assert total == len(rows)
    assert len(store) == 1
    assert s.malformed_lines == [5]


def test_tsv_major_star_prefix(ontology):
    store = ingest_tsv(iter(["p1\t1998\tJournal Article\t*D000001;D000002"]), ontology)
    (record,) = store.iter_records()
    assert len(record.all_keywords) == 2
    assert len(record.major_keywords) == 1


def test_tsv_empty_stream(ontology):
    store = ingest_tsv(iter([]), ontology)
    assert len(store) == 0
    assert store.stats.accepted == 0


def test_tsv_unknown_codes_dropped_with_counter(ontology):
    store = ingest_tsv(
        iter(["p1\t1998\tReview\tD000001;D999999;D000002"]), ontology
    )
    (record,) = store.iter_records()
    assert len(record.all_keywords) == 2
    assert store.stats.unknown_keyword_codes == 1


def test_ingestion_is_order_insensitive(ontology):
    rows = [
        "p1\t1998\tJournal Article\t*D000001;D000002",
        "p2\t1999\tReview\tD000002;D000005;D000007",
        "p3\t1998\tReview\tD000007;D000008",
    ]
    a = ingest_tsv(iter(rows), ontology)
    b = ingest_tsv(iter(reversed(rows)), ontology)
    assert a == b


def test_duplicate_article_id_last_wins(ontology):
    rows = [
        "p1\t1998\tReview\tD000001;D000002",
        "p1\t1999\tReview\tD000005;D000007",
    ]
    store = ingest_tsv(iter(rows), ontology)
    assert len(store) == 1
    (record,) = store.iter_records()
    assert record.year == 1999
    assert store.stats.duplicate_article_ids == 1


def _xml_doc(articles):
    parts = ["<PubmedArticleSet>"]
    for pmid, year, ptypes, mesh in articles:
        heads = "".join(
            f'<MeshHeading><DescriptorName UI="{ui}" MajorTopicYN='
            f'"{"Y" if major else "N"}">x</DescriptorName></MeshHeading>'
            for ui, major in mesh
        )
        types = "".join(f"<PublicationType>{t}</PublicationType>" for t in ptypes)
        parts.append(
            f"<PubmedArticle><MedlineCitation><PMID>{pmid}</PMID><Article>"
            f"<Journal><JournalIssue><PubDate><Year>{year}</Year></PubDate>"
            f"</JournalIssue></Journal>"
            f"<PublicationTypeList>{types}</PublicationTypeList></Article>"
            f"<MeshHeadingList>{heads}</MeshHeadingList>"
            f"</MedlineCitation></PubmedArticle>"
        )
    parts.append("</PubmedArticleSet>")
    return io.BytesIO("".join(parts).encode())


def test_xml_major_topic_flag(ontology):
    doc = _xml_doc(
        [("1", 1998, ["Journal Article"], [("D000001", True), ("D000002", False)])]
    )
    store = ingest_pubmed_xml(doc, ontology)
    (record,) = store.iter_records()
    assert record.major_keywords == frozenset(
        {ontology.by_code("D000001").id}
    )


def test_xml_and_tsv_produce_identical_records(ontology):
    doc = _xml_doc(
        [("p1", 1998, ["Review"], [("D000001", True), ("D000002", False)])]
    )
    via_xml = ingest_pubmed_xml(doc, ontology)
    via_tsv = ingest_tsv(iter(["p1\t1998\tReview\t*D000001;D000002"]), ontology)
    assert via_xml == via_tsv


def test_xml_earliest_year_wins(ontology):
    doc = io.BytesIO(
        b"<PubmedArticleSet><PubmedArticle><MedlineCitation><PMID>1</PMID>"
        b"<Article><Journal><JournalIssue><PubDate><Year>1999</Year></PubDate>"
        b"</JournalIssue></Journal>"
        b"<ArticleDate><Year>1998</Year><Month>12</Month><Day>1</Day></ArticleDate>"
        b"<PublicationTypeList><PublicationType>Review</PublicationType>"
        b"</PublicationTypeList></Article>"
        b'<MeshHeadingList><MeshHeading><DescriptorName UI="D000001" '
        b'MajorTopicYN="N">x</DescriptorName></MeshHeading>'
        b'<MeshHeading><DescriptorName UI="D000002" MajorTopicYN="N">y'
        b"</DescriptorName></MeshHeading></MeshHeadingList>"
        b"</MedlineCitation></PubmedArticle></PubmedArticleSet>"
    )
    store = ingest_pubmed_xml(doc, ontology)
    (record,) = store.iter_records()
    assert record.year == 1998


def test_xml_missing_year_skipped_with_counter(ontology):
    doc = io.BytesIO(
        b"<PubmedArticleSet><PubmedArticle><MedlineCitation><PMID>1</PMID>"
        b"<Article><PublicationTypeList><PublicationType>Review"
        b"</PublicationType></PublicationTypeList></Article>"
        b'<MeshHeadingList><MeshHeading><DescriptorName UI="D000001" '
        b'MajorTopicYN="N">x</DescriptorName></MeshHeading>'
        b'<MeshHeading><DescriptorName UI="D000002" MajorTopicYN="N">y'
        b"</DescriptorName></MeshHeading></MeshHeadingList>"
        b"</MedlineCitation></PubmedArticle></PubmedArticleSet>"
    )
    store = ingest_pubmed_xml(doc, ontology)
    assert len(store) == 0
    assert store.stats.rejected_year == 1


def test_xml_malformed_aborts(ontology):
    with pytest.raises(CorpusError, match="malformed XML"):
        ingest_pubmed_xml(io.BytesIO(b"<PubmedArticleSet><oops"), ontology)


def test_xml_fixture_equals_hand_converted_tsv(ontology):
    rng = random.Random(5)
    codes = [d.external_code for d in ontology.descriptors]
    articles = []
    tsv_rows = []
    for i in range(200):
        year = rng.randint(1980, 2000)
        chosen = rng.sample(codes, rng.randint(2, 5))
        mesh = [(c, rng.random() < 0.5) for c in chosen]
        ptype = rng.choice(["Journal Article", "Review", "Editorial"])
        articles.append((f"p{i}", year, [ptype], mesh))
        kws = ";".join(("*" if major else "") + c for c, major in mesh)
        tsv_rows.append(f"p{i}\t{year}\t{ptype}\t{kws}")
    via_xml = ingest_pubmed_xml(_xml_doc(articles), ontology)
    via_tsv = ingest_tsv(iter(tsv_rows), ontology)
    assert via_xml == via_tsv
    assert len(via_xml) > 0


def test_store_roundtrip_and_byte_determinism():
    corpus = generate_synthetic(
        SynthParams(n_articles=150, vocab_size=40, seed=9, major_fraction=0.4)
    )
    buf1, buf2 = io.BytesIO(), io.BytesIO()
    save_store(corpus, buf1)
    save_store(corpus, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    buf1.seek(0)
    assert load_store(buf1) == corpus


def test_store_rejects_bad_magic():
    with pytest.raises(CorpusError, match="magic"):
        load_store(io.BytesIO(b"NOTSTORE" + b"\0" * 16))


def _small_store_bytes():
    store = CorpusStore()
    store.add(ArticleRecord("a1", 1999, frozenset({1, 5, 300}), frozenset({5})))
    store.add(ArticleRecord("a2", 1999, frozenset({2, 3}), frozenset()))
    store.add(ArticleRecord("b1", 2003, frozenset({4, 9, 200000}), frozenset({4, 9})))
    buf = io.BytesIO()
    save_store(store, buf)
    return buf.getvalue()


_SMALL_STORE = _small_store_bytes()


@pytest.mark.parametrize("length", range(len(_SMALL_STORE)))
def test_truncated_store_raises_corpus_error(length):
    with pytest.raises(CorpusError):
        load_store(io.BytesIO(_SMALL_STORE[:length]))


def test_store_with_trailing_byte_rejected():
    assert len(load_store(io.BytesIO(_SMALL_STORE))) == 3
    with pytest.raises(CorpusError, match="trailing"):
        load_store(io.BytesIO(_SMALL_STORE + b"\0"))


def test_store_with_non_utf8_article_id_rejected():
    corrupt = _SMALL_STORE.replace(b"a1", b"\xff1", 1)
    with pytest.raises(CorpusError, match="UTF-8"):
        load_store(io.BytesIO(corrupt))


def test_p_counts_monotone_and_major_below_all():
    corpus = generate_synthetic(
        SynthParams(
            n_articles=400,
            vocab_size=60,
            keywords_per_article=(2, 9),
            major_fraction=0.5,
            seed=21,
        )
    )
    for year in corpus.years:
        p2 = corpus.articles_with_at_least(2, "all", year)
        p3 = corpus.articles_with_at_least(3, "all", year)
        p4 = corpus.articles_with_at_least(4, "all", year)
        assert p2 >= p3 >= p4
        for s in (2, 3, 4):
            assert corpus.articles_with_at_least(
                s, "major", year
            ) <= corpus.articles_with_at_least(s, "all", year)


def test_every_stored_record_satisfies_invariants(ontology):
    rng = random.Random(6)
    codes = [d.external_code for d in ontology.descriptors]
    rows = []
    for i in range(300):
        chosen = rng.sample(codes, rng.randint(1, 6))
        kws = ";".join(("*" if rng.random() < 0.5 else "") + c for c in chosen)
        ptype = rng.choice(["Journal Article", "Review", "Letter", "Editorial"])
        rows.append(f"p{i}\t{rng.randint(1880, 2020)}\t{ptype}\t{kws}")
    store = ingest_tsv(iter(rows), ontology)
    eligible = ontology.eligible_ids()
    for record in store.iter_records():
        assert record.major_keywords <= record.all_keywords
        assert record.year >= 1902
        assert len(record.all_keywords) >= 2
        assert record.all_keywords <= eligible
