import dataclasses
import hashlib
import io
import itertools
import os
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simplexledger.corpus as corpus_mod
import simplexledger.ingest as ingest_mod
from simplexledger.corpus import (
    ArticleRecord,
    CorpusError,
    CorpusStore,
    IngestStats,
    load_store,
    save_store,
)
from simplexledger.ingest import PUB_TYPES, FilterConfig, ingest_pubmed_xml, ingest_tsv
from simplexledger.ledger import LedgerConfig, tabulate
from simplexledger.ontology import is_eligible, load_ontology
from simplexledger.synth import SynthParams, generate_synthetic

from conftest import ONTOLOGY_TSV


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
    assert a.digest() == b.digest()


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


def _tsv_row(pmid, year, ptypes, mesh):
    kws = ";".join(("*" if major else "") + code for code, major in mesh)
    return f"{pmid}\t{year}\t{'|'.join(ptypes)}\t{kws}"


def _ingest_both(ontology, articles, config=None):
    """Ingest the articles through both readers, check that the stores and
    the counters agree, and return one of the stores."""
    via_tsv = ingest_tsv(iter(_tsv_row(*a) for a in articles), ontology, config)
    via_xml = ingest_pubmed_xml(_xml_doc(articles), ontology, config)
    assert via_tsv.digest() == via_xml.digest()
    assert via_tsv.stats == via_xml.stats
    return via_tsv


_TWO = [("D000001", False), ("D000002", False)]
# Each case: publication types, year, (code, major) pairs, the counters it
# leaves, and the admitted article's (keyword codes, Major codes) or None.
_ADMISSION_CASES = {
    "editorial": (["Editorial"], 1998, _TWO, {"rejected_pub_type": 1}, None),
    "before-1902": (["Review"], 1890, _TWO, {"rejected_year": 1}, None),
    "too-few-after-branch-filter": (
        ["Journal Article"],
        1998,
        [("D000001", True), ("D000003", False), ("D000006", True)],
        {"rejected_too_few_keywords": 1},
        None,
    ),
    "review-with-three": (
        ["Review"],
        1998,
        [("D000001", True), ("D000002", False), ("D000005", False)],
        {"accepted": 1},
        (["D000001", "D000002", "D000005"], ["D000001"]),
    ),
    # Codes are resolved before the rules run, so a rejected article's
    # unknown code is still counted.
    "unknown-code-in-rejected-article": (
        ["Editorial"],
        1890,
        [("D000001", False), ("D999999", True), ("D000002", False)],
        {"rejected_pub_type": 1, "unknown_keyword_codes": 1},
        None,
    ),
    "repeated-code-major-first": (
        ["Journal Article"],
        1998,
        [("D000001", True), ("D000001", False), ("D000002", False)],
        {"accepted": 1},
        (["D000001", "D000002"], ["D000001"]),
    ),
    "repeated-code-major-last": (
        ["Journal Article", "Letter"],
        1998,
        [("D000001", False), ("D000002", False), ("D000001", True)],
        {"accepted": 1},
        (["D000001", "D000002"], ["D000001"]),
    ),
    "repeated-code-alone": (
        ["Review"],
        1998,
        [("D000001", True), ("D000001", False)],
        {"rejected_too_few_keywords": 1},
        None,
    ),
    "largest-int32-year": (
        ["Review"], (1 << 31) - 1, _TWO, {"accepted": 1}, (["D000001", "D000002"], [])
    ),
    "year-beyond-int32": (["Review"], 1 << 31, _TWO, {"rejected_year": 1}, None),
    "year-far-beyond-int32": (["Review"], 99999999999, _TWO, {"rejected_year": 1}, None),
}


@pytest.mark.parametrize(
    "ptypes, year, mesh, counters, admitted",
    list(_ADMISSION_CASES.values()),
    ids=list(_ADMISSION_CASES),
)
def test_admission_rules_agree_across_readers(
    ontology, ptypes, year, mesh, counters, admitted
):
    store = _ingest_both(ontology, [("p1", year, ptypes, mesh)])
    assert store.stats == IngestStats(**counters)
    if admitted is None:
        assert len(store) == 0
        return

    def ids_of(codes):
        by_code = {d.external_code: d.id for d in ontology.descriptors}
        return sorted(by_code[code] for code in codes)

    keywords, major = admitted
    years, _, _, ids, kids, _, _, _, _ = store.view("all")
    assert years.tolist() == [year]
    assert kids[ids].tolist() == ids_of(keywords)  # one entry per keyword
    _, _, _, ids, kids, _, _, _, _ = store.view("major")
    assert kids[ids].tolist() == ids_of(major)


def test_year_below_int32_is_rejected_whatever_the_minimum(ontology):
    config = FilterConfig(min_year=-(1 << 40))
    lowest = -(1 << 31)
    articles = [("p1", lowest - 1, ["Review"], _TWO), ("p2", lowest, ["Review"], _TWO)]
    store = _ingest_both(ontology, articles, config)
    assert store.stats == IngestStats(accepted=1, rejected_year=1)
    assert store.years == [lowest]


def _seeded_articles(ontology, seed, n):
    """Articles that exercise every admission rule: unknown and branch-dropped
    codes, repeated codes with mixed Major flags, rejected publication types
    and years, too few keywords, and non-ASCII ids repeated across years."""
    rng = random.Random(seed)
    codes = [d.external_code for d in ontology.descriptors] + ["D999999", "X1"]
    names = ["pé1", "文献2", "Ωmega3"] + [f"p{i}" for i in range(4, 40)]
    ptypes = ["Journal Article", "Review", "Editorial", "Letter"]
    articles = []
    for _ in range(n):
        size = rng.randint(0, 7)
        mesh = [(rng.choice(codes), rng.random() < 0.4) for _ in range(size)]
        articles.append(
            (
                rng.choice(names),
                rng.randint(1895, 2005),
                rng.sample(ptypes, rng.randint(1, 2)),
                mesh,
            )
        )
    return articles


def test_admission_keeps_the_store_bytes(ontology):
    # The digest is pinned: a change to the admission step that reorders,
    # drops or adds a keyword, a flag or an article changes it.
    store = _ingest_both(ontology, _seeded_articles(ontology, 17, 400))
    stats = store.stats
    assert stats.accepted > 0 and stats.duplicate_article_ids > 0
    assert stats.rejected_pub_type > 0 and stats.rejected_year > 0
    assert stats.rejected_too_few_keywords > 0 and stats.unknown_keyword_codes > 0
    assert store.digest() == (
        "5e01663fb5026bee28b1905dd84543bb0b6fb5972fc60f16049d5308b1cc43c1"
    )


def _reference_tsv(lines, ontology, config=FilterConfig()):
    """The TSV reader one token at a time by the token rules, staging each
    admitted article through `CorpusStore.add`: the store and its counters."""
    codes = {
        d.external_code: d.id if is_eligible(d, config.branch_filter) else None
        for d in ontology.descriptors
    }
    store, stats = CorpusStore(), IngestStats()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        try:
            article_id, year_text, pub_type, kw_text = parts
            year = int(year_text)
        except ValueError:
            article_id = None
        if (
            article_id is None
            or "\0" in article_id
            or len(article_id.encode("utf-8", "surrogatepass")) > 64
        ):
            stats.rejected_malformed += 1
            stats.malformed_lines.append(lineno)
            continue
        major_of = {}
        for token in kw_text.split(";"):
            token = token.strip()
            if not token:
                continue
            code, major = token.lstrip("*"), token.startswith("*")
            if code not in codes:
                stats.unknown_keyword_codes += 1
            elif codes[code] is not None:
                kid = codes[code]
                major_of[kid] = major or major_of.get(kid, False)
        if PUB_TYPES.isdisjoint(t.strip() for t in pub_type.split("|")):
            stats.rejected_pub_type += 1
        elif not max(config.min_year, -(1 << 31)) <= year < 1 << 31:
            stats.rejected_year += 1
        elif len(major_of) < 2:
            stats.rejected_too_few_keywords += 1
        else:
            major = frozenset(kid for kid, flag in major_of.items() if flag)
            store.add(ArticleRecord(article_id, year, frozenset(major_of), major))
            stats.accepted += 1
    stats.duplicate_article_ids = store.stats.duplicate_article_ids
    return store, stats


_ONTOLOGY = load_ontology(io.StringIO(ONTOLOGY_TSV))


def _block_boundary_articles():
    """One admission block and three articles more that pass the
    publication-type and year rules, the last of the block and the first
    after it left with one keyword, and articles those rules reject on
    both sides of the boundary.  The keywords repeat one as Major and
    plain, and carry an unknown code and a space-padded ``*``-token of a
    code the branch filter drops (D000003)."""
    block = ingest_mod._BLOCK
    keywords = [
        [("D000001", True), ("D000002", False), ("D000001", False)],
        [("D000004", False), (" *D000003 ", False), ("D999999", True),
         ("D000005", True)],
    ]
    one_left = [("D000007", True), (" *D000003 ", False), ("D999999", False)]
    articles = []
    for i in range(block + 3):
        if i in (block - 2, block + 1):
            articles.append((f"e{i}", 1995, ["Editorial"], keywords[0]))
            articles.append((f"y{i}", 1800, ["Review"], keywords[1]))
        mesh = one_left if i in (block - 1, block) else keywords[i % 2]
        articles.append((f"p{i}", 1990 + i % 20, ["Review"], mesh))
    return articles


def _block_boundary_lines():
    lines = [_tsv_row(*a) + "\n" for a in _block_boundary_articles()]
    block = ingest_mod._BLOCK
    # Malformed lines, their numbers recorded, before and after the boundary.
    lines[block - 1 : block - 1] = ["p-bad\t19x5\tReview\tD000001;D000002\n"]
    lines[block + 2 : block + 2] = ["p-short\t1995\tReview\n"]
    return lines


def test_admission_across_a_block_boundary():
    articles = _block_boundary_articles()
    lines = _block_boundary_lines()
    expected, counters = _reference_tsv(lines, _ONTOLOGY)
    assert counters.malformed_lines == [ingest_mod._BLOCK, ingest_mod._BLOCK + 3]
    assert counters.rejected_pub_type == counters.rejected_year == 2
    assert counters.rejected_too_few_keywords == 2
    assert counters.accepted == ingest_mod._BLOCK + 1
    assert counters.unknown_keyword_codes > 0
    # The XML input has no malformed record.
    _, via_xml = _reference_tsv([_tsv_row(*a) for a in articles], _ONTOLOGY)
    theirs = io.BytesIO()
    save_store(expected, theirs)
    for store, reference in (
        (ingest_tsv(iter(lines), _ONTOLOGY), counters),
        (ingest_pubmed_xml(_xml_doc(articles), _ONTOLOGY), via_xml),
    ):
        assert store.stats == reference
        mine = io.BytesIO()
        save_store(store, mine)
        assert mine.getvalue() == theirs.getvalue()


# Codes of each kind: eligible, dropped by the branch filter, unknown, none.
_TOKEN_CODES = ["D000001", "D000002", "D000004", "D000007", "D000003", "D000006",
                "D999999", "d000001", ""]
_PADDING = st.sampled_from(["", " ", "  ", "\u00a0", "\r"])


@st.composite
def _tokens(draw):
    stars = draw(st.sampled_from(["", "", "*", "**", "* "]))
    code = draw(st.sampled_from(_TOKEN_CODES))
    return draw(_PADDING) + stars + code + draw(_PADDING)


@st.composite
def _tsv_lines(draw):
    """A corpus line, malformed at times, with one of four endings."""
    article_id = draw(st.sampled_from(
        ["p1", "p2", "é3", "文4", "a\0b", "x" * 65, "é" * 32, "é" * 33,
         "\U0001d538" * 17]
    ))
    year = draw(st.one_of(
        st.integers(1895, 1910).map(str),
        st.sampled_from([" 1905 ", "1_905", "19x5", "", str((1 << 31) - 1),
                         str(1 << 31), str(-(1 << 31) - 1), str(10**12)]),
    ))
    pub_types = "|".join(draw(st.lists(
        st.sampled_from(
            ["Journal Article", "Review", " Review ", "Editorial", "Letter"]
        ),
        min_size=1, max_size=3,
    )))
    keywords = ";".join(draw(st.lists(_tokens(), max_size=8)))
    width = draw(st.sampled_from([4, 4, 4, 4, 3, 5]))
    fields = [article_id, year, pub_types, keywords, "extra"][:width]
    line = "\t".join(fields) if draw(st.integers(0, 9)) else ""
    return line + draw(st.sampled_from(["", "\n", "\r\n", "\r\r\n"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_tsv_lines(), max_size=12))
@example([
    "p1\t1905\tReview\t**D000001;*;;; *D000002 ;D000002;*D000001;D999999;D000003\r\n",
    "\n",
    "p2\t1906\tJournal Article | Letter\tD000001;D000001;*D000004;D000006\n",
    "p3\t1907\tReview\t**D000003;*D000006;*\n",
    f"p4\t{1 << 31}\tReview\tD000001;D000002\n",
    "p\x005\t1905\tReview\tD000001;D000002\n",
    f"{'x' * 65}\t1905\tReview\tD000001;D000002\n",
    "p1\tnineteen\tReview\tD000001;D000002\n",
    "p6\t1906\tReview\n",
])
@example(_block_boundary_lines())
def test_tsv_admission_matches_the_token_rules(lines):
    expected, counters = _reference_tsv(lines, _ONTOLOGY)
    store = ingest_tsv(iter(lines), _ONTOLOGY)
    assert store.stats == counters
    mine, theirs = io.BytesIO(), io.BytesIO()
    save_store(store, mine)
    save_store(expected, theirs)
    assert mine.getvalue() == theirs.getvalue()


def test_xml_repeated_heading_is_major_if_any_copy_is(ontology):
    mesh = [
        ("D000001", False), ("D000002", False), ("D000001", True), ("D000002", False)
    ]
    via_xml = ingest_pubmed_xml(_xml_doc([("7", 1999, ["Review"], mesh)]), ontology)
    expected, counters = _reference_tsv(
        ["7\t1999\tReview\tD000001;D000002;*D000001;D000002"], ontology
    )
    assert via_xml.stats == counters == IngestStats(accepted=1)
    assert via_xml.digest() == expected.digest()
    (record,) = via_xml.iter_records()
    by_code = {d.external_code: d.id for d in ontology.descriptors}
    assert record.major_keywords == {by_code["D000001"]}
    assert record.all_keywords == {by_code["D000001"], by_code["D000002"]}


def test_xml_ui_is_read_by_the_token_rules(ontology):
    # A Major heading reaches the admission step as ``*`` and its UI.
    mesh = [(" D000001 ", False), ("*D000002", False), ("D000005", True)]
    store = ingest_pubmed_xml(_xml_doc([("8", 1999, ["Review"], mesh)]), ontology)
    expected, _ = _reference_tsv(
        ["8\t1999\tReview\t D000001 ;*D000002;*D000005"], ontology
    )
    assert store.digest() == expected.digest()


def test_xml_major_topic_flag(ontology):
    doc = _xml_doc(
        [("1", 1998, ["Journal Article"], [("D000001", True), ("D000002", False)])]
    )
    store = ingest_pubmed_xml(doc, ontology)
    (record,) = store.iter_records()
    by_code = {d.external_code: d.id for d in ontology.descriptors}
    assert record.major_keywords == frozenset({by_code["D000001"]})


def test_xml_starred_qualifier_makes_its_heading_major(ontology):
    # MEDLINE stars a qualifier, as in ``Alpha Concept/drug therapy*``, to
    # make its heading a major topic although the descriptor is unstarred.
    heading = (
        '<MeshHeading><DescriptorName UI="{}" MajorTopicYN="N">x</DescriptorName>'
        '<QualifierName UI="Q000188" MajorTopicYN="{}">drug therapy'
        "</QualifierName></MeshHeading>"
    )
    doc = _xml_doc([("1", 1998, ["Review"], [])]).getvalue().decode()
    doc = doc.replace(
        "<MeshHeadingList>",
        "<MeshHeadingList>" + heading.format("D000001", "Y")
        + heading.format("D000002", "N"),
    )
    store = ingest_pubmed_xml(io.BytesIO(doc.encode()), ontology)
    expected, _ = _reference_tsv(["1\t1998\tReview\t*D000001;D000002"], ontology)
    assert store.digest() == expected.digest()
    (record,) = store.iter_records()
    by_code = {d.external_code: d.id for d in ontology.descriptors}
    assert record.major_keywords == {by_code["D000001"]}


def test_xml_and_tsv_produce_identical_records(ontology):
    doc = _xml_doc(
        [("p1", 1998, ["Review"], [("D000001", True), ("D000002", False)])]
    )
    via_xml = ingest_pubmed_xml(doc, ontology)
    via_tsv = ingest_tsv(iter(["p1\t1998\tReview\t*D000001;D000002"]), ontology)
    assert via_xml.digest() == via_tsv.digest()


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


def test_xml_year_fallbacks(ontology):
    # A MedlineDate gives its leading year, and a date with no leading
    # year, or a non-numeric Year, gives none.
    dates = {
        "1": "<MedlineDate>1998 Dec-1999 Jan</MedlineDate>",
        "2": "<MedlineDate>Spring 1990</MedlineDate></PubDate>"
        "<ArticleDate><Year>2001</Year></ArticleDate><PubDate>",
        "3": "<Year>19x9</Year></PubDate>"
        "<ArticleDate><Year>2002</Year></ArticleDate><PubDate>",
        "4": "<MedlineDate>Winter</MedlineDate>",
        "5": "<Year>unknown</Year>",
    }
    mesh = [("D000001", False), ("D000002", False)]
    doc = _xml_doc(
        [(pmid, f"@{pmid}", ["Review"], mesh) for pmid in dates]
    ).getvalue().decode()
    for pmid, date in dates.items():
        doc = doc.replace(f"<Year>@{pmid}</Year>", date)
    store = ingest_pubmed_xml(io.BytesIO(doc.encode()), ontology)
    assert store.stats == IngestStats(accepted=3, rejected_year=2)
    years = {r.article_id: r.year for r in store.iter_records()}
    assert years == {"1": 1998, "2": 2001, "3": 2002}


def test_xml_malformed_aborts(ontology):
    with pytest.raises(CorpusError, match="malformed XML"):
        ingest_pubmed_xml(io.BytesIO(b"<PubmedArticleSet><oops"), ontology)


def test_xml_record_without_its_own_pmid_is_malformed(ontology, caplog):
    # The second record cites article 100 and the third cites nothing;
    # neither has a PMID of its own, so neither may take an id.
    mesh = [("D000005", False), ("D000007", False)]
    doc = _xml_doc([
        ("100", 1998, ["Review"], [("D000001", True), ("D000002", False)]),
        ("CITING", 1999, ["Review"], mesh),
        ("NONE", 2000, ["Review"], mesh),
    ]).getvalue().decode()
    cited = (
        '<CommentsCorrectionsList><CommentsCorrections RefType="CommentOn">'
        '<RefSource>x</RefSource><PMID Version="1">100</PMID>'
        "</CommentsCorrections></CommentsCorrectionsList>"
    )
    doc = doc.replace("<PMID>CITING</PMID>", cited).replace("<PMID>NONE</PMID>", "")
    store = ingest_pubmed_xml(io.BytesIO(doc.encode()), ontology)
    assert store.stats == IngestStats(accepted=1, rejected_malformed=2)
    (record,) = store.iter_records()
    assert (record.article_id, record.year) == ("100", 1998)
    assert "without MedlineCitation/PMID" in caplog.text


def test_tsv_nul_in_article_id_is_malformed(ontology, caplog):
    rows = [
        "p1\t1998\tReview\tD000001;D000002",
        "p\x002\t1998\tReview\tD000001;D000002",
    ]
    store = ingest_tsv(iter(rows), ontology)
    assert store.stats == IngestStats(
        accepted=1, rejected_malformed=1, malformed_lines=[2]
    )
    assert [r.article_id for r in store.iter_records()] == ["p1"]
    assert "tsv line 2" in caplog.text


def test_over_long_article_id_is_malformed(ontology, caplog):
    # One long id would widen every id's slot when the store folds.
    mesh = [("D000001", True), ("D000002", False)]
    rows = [_tsv_row(f"p{i}", 1998, ["Review"], mesh) for i in range(3)]
    long_row = _tsv_row("x" * 5000, 1998, ["Review"], mesh)
    clean, dirty = io.BytesIO(), io.BytesIO()
    save_store(ingest_tsv(iter(rows), ontology), clean)
    store = ingest_tsv(iter([rows[0], long_row, *rows[1:]]), ontology)
    assert store.stats == IngestStats(
        accepted=3, rejected_malformed=1, malformed_lines=[2]
    )
    assert "tsv line 2: article id over 64 bytes" in caplog.text
    save_store(store, dirty)
    assert dirty.getvalue() == clean.getvalue()
    # The XML reader counts such a PMID the same way, and 64 bytes fit.
    articles = [(pmid, 1998, ["Review"], mesh) for pmid in ("1", "9" * 65, "é" * 32)]
    store = ingest_pubmed_xml(_xml_doc(articles), ontology)
    assert store.stats == IngestStats(accepted=2, rejected_malformed=1)
    assert sorted(r.article_id for r in store.iter_records()) == ["1", "é" * 32]


def test_xml_parse_memory_is_flat_in_the_record_count(monkeypatch):
    # Each read record, a skipped one too, leaves the document's root, so
    # the parse peaks no higher over 4N records than over the first N.
    monkeypatch.setattr(ingest_mod, "_warn", lambda *args: None)
    mesh = [("D000001", True), ("D000002", False)]
    # The parser's module loads on the first record, before the count.
    warm_up = _xml_doc([("1", 1998, ["Review"], mesh)])
    for _ in ingest_mod._xml_articles(warm_up, IngestStats()):
        pass
    n = 5_000
    # Every tenth record has an empty PMID and is skipped.
    articles = [
        ("" if i % 10 == 0 else str(i), 1998, ["Review"], mesh) for i in range(4 * n)
    ]
    stats = IngestStats()
    records = ingest_mod._xml_articles(_xml_doc(articles), stats)
    tracemalloc.start()
    try:
        for _ in itertools.islice(records, n):
            pass
        _, first = tracemalloc.get_traced_memory()
        for _ in records:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.rejected_malformed == 4 * n // 10
    assert peak - first < 64 << 10


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
    assert via_xml.digest() == via_tsv.digest()
    assert len(via_xml) > 0


def _assert_loads_as(data, store):
    # A loaded store's digest is the file's checksum, so the records check
    # what the columns were read as.
    loaded = load_store(io.BytesIO(data))
    assert loaded.digest() == store.digest()
    assert list(loaded.iter_records()) == list(store.iter_records())


def test_store_roundtrip_and_byte_determinism():
    corpus = generate_synthetic(
        SynthParams(n_articles=150, vocab_size=40, seed=9, major_fraction=0.4)
    )
    buf1, buf2 = io.BytesIO(), io.BytesIO()
    save_store(corpus, buf1)
    save_store(corpus, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    _assert_loads_as(buf1.getvalue(), corpus)


def test_save_store_hashes_the_columns_as_it_writes(monkeypatch):
    # One pass over the store's contents writes and hashes them; the
    # trailer is the digest, which the store then holds without another.
    corpus = generate_synthetic(SynthParams(n_articles=150, vocab_size=40, seed=9))
    passes = []
    file_chunks = CorpusStore._file_chunks

    def counted(self):
        passes.append(1)
        return file_chunks(self)

    monkeypatch.setattr(CorpusStore, "_file_chunks", counted)
    buf = io.BytesIO()
    save_store(corpus, buf)
    data = buf.getvalue()
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()
    assert data[-32:].hex() == corpus.digest()
    assert len(passes) == 1


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


def test_store_spanning_the_int32_years_loads():
    # The step between the two years overflows int32; it is no decrease.
    store = CorpusStore()
    store.add(ArticleRecord("a", -(1 << 31), frozenset({1, 2}), frozenset()))
    store.add(ArticleRecord("b", 1990, frozenset({1, 2}), frozenset({2})))
    buf = io.BytesIO()
    save_store(store, buf)
    _assert_loads_as(buf.getvalue(), store)


def test_store_from_a_pipe_refused():
    # The size is checked against the header before any column is read.
    read, write = os.pipe()
    with open(read, "rb") as src:
        with open(write, "wb") as sink:
            sink.write(_SMALL_STORE)
        with pytest.raises(CorpusError, match="seekable"):
            load_store(src)


def test_version_one_store_refused():
    with pytest.raises(CorpusError, match="version 1; re-run ingest"):
        load_store(io.BytesIO(b"SLEDGER1\x01" + struct.pack("<I", 0)))


# Byte offsets in the small store: a 40-byte header, then the offsets of its
# three articles (4 x int64), their years (3 x int32) and the 8 ids (uint32).
_OFFSETS, _YEARS, _IDS = 40, 72, 84


def _patched(offset, fmt, value):
    data = bytearray(_SMALL_STORE)
    struct.pack_into(fmt, data, offset, value)
    return io.BytesIO(bytes(data))


@pytest.mark.parametrize(
    "offset, fmt, value, cause",
    [
        (_OFFSETS + 8, "<q", 6, "offsets do not rise"),
        (_OFFSETS + 24, "<q", 7, "offsets do not rise"),
        (_YEARS + 4, "<i", 1990, "years decrease"),
        (_IDS + 4, "<I", 1, "not strictly ascending"),
        (len(_SMALL_STORE) - 33, "<B", ord("x"), "article id count"),
        # "a2" becomes a second "a1" in 1999.
        (len(_SMALL_STORE) - 37, "<B", ord("1"), "article ids are not strictly"),
        # Still ascending: only the checksum sees it.
        (_IDS + 28, "<I", 200001, "checksum"),
    ],
)
def test_store_structure_errors_name_their_cause(offset, fmt, value, cause):
    with pytest.raises(CorpusError, match=cause):
        load_store(_patched(offset, fmt, value))


def test_store_with_an_over_long_article_id_refused_before_its_width():
    # 20,000 articles whose last id becomes 5,000 bytes, with the header and
    # the checksum made to match: laid out at that width, the ids would
    # take 100 MB.
    store = CorpusStore()
    for i in range(20_000):
        store.add(ArticleRecord(f"p{i:05}", 1999, frozenset({1, 2}), frozenset()))
    buf = io.BytesIO()
    save_store(store, buf)
    body = bytearray(buf.getvalue()[:-32])
    last, long_id = b"p19999\0", b"z" * 5000 + b"\0"
    assert body.endswith(last)
    body[-len(last) :] = long_id
    # The header's article-id byte count sits at offset 32.
    (names,) = struct.unpack_from("<Q", body, 32)
    struct.pack_into("<Q", body, 32, names - len(last) + len(long_id))
    data = bytes(body) + hashlib.sha256(body).digest()
    tracemalloc.start()
    try:
        with pytest.raises(CorpusError, match="over 64 bytes"):
            load_store(io.BytesIO(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_store_with_article_id_repeated_in_another_year_rejected(
    two_article_corpus,
):
    # "b" (2001) renamed to "a" (2000) with the checksum recomputed, so
    # only the structure check can refuse it.
    buf = io.BytesIO()
    save_store(two_article_corpus, buf)
    body = buf.getvalue()[:-32]
    assert body.endswith(b"a\0b\0")
    body = body[:-2] + b"a\0"
    with pytest.raises(CorpusError, match="repeats in another year"):
        load_store(io.BytesIO(body + hashlib.sha256(body).digest()))


def test_article_ids_ordered_as_bytes_not_by_length():
    # "a10" sorts before "a9" as bytes, though it is longer.
    store = CorpusStore()
    store.add(ArticleRecord("a9", 1999, frozenset({1, 2}), frozenset()))
    store.add(ArticleRecord("a10", 1999, frozenset({3, 4}), frozenset()))
    buf = io.BytesIO()
    save_store(store, buf)
    data = buf.getvalue()
    assert data[:-32].endswith(b"a10\0a9\0")
    _assert_loads_as(data, store)
    swapped = data[:-39] + b"a9\0a10\0" + data[-32:]
    with pytest.raises(CorpusError, match="not strictly ascending within a year"):
        load_store(io.BytesIO(swapped))
    # "b" repeated in a later year, where the padding of the shorter id
    # must not pick up the bytes of the id after it.
    store = CorpusStore()
    store.add(ArticleRecord("b", 1999, frozenset({1, 2}), frozenset()))
    store.add(ArticleRecord("a10", 2000, frozenset({3, 4}), frozenset()))
    store.add(ArticleRecord("c", 2000, frozenset({5, 6}), frozenset()))
    buf = io.BytesIO()
    save_store(store, buf)
    body = buf.getvalue()[:-32]
    assert body.endswith(b"b\0a10\0c\0")
    body = body[:-2] + b"b\0"
    with pytest.raises(CorpusError, match="repeats in another year"):
        load_store(io.BytesIO(body + hashlib.sha256(body).digest()))


def test_add_order_does_not_change_digest_or_file():
    records = list(
        generate_synthetic(
            SynthParams(n_articles=120, vocab_size=30, seed=3, major_fraction=0.5)
        ).iter_records()
    )
    forward, backward = CorpusStore(), CorpusStore()
    for record in records:
        forward.add(record)
    for record in reversed(records):
        backward.add(record)
    assert forward.digest() == backward.digest()
    a, b = io.BytesIO(), io.BytesIO()
    save_store(forward, a)
    save_store(backward, b)
    assert a.getvalue() == b.getvalue()
    assert load_store(io.BytesIO(a.getvalue())).digest() == forward.digest()


def test_store_loads_from_a_stream_after_other_bytes():
    # A store is read from the stream's position on: after a prefix it
    # loads with the same digest and views, and the SHA-256 of its file
    # covers the store's bytes alone.
    store = generate_synthetic(
        SynthParams(n_articles=120, vocab_size=30, seed=3, major_fraction=0.5)
    )
    saved = io.BytesIO()
    save_store(store, saved)
    data = saved.getvalue()
    prefix = b"bytes before the store"
    stream = io.BytesIO(prefix + data)
    stream.seek(len(prefix))
    loaded = load_store(stream)
    assert loaded.digest() == store.digest()
    for refinement in ("all", "major"):
        for got, want in zip(loaded.view(refinement), store.view(refinement)):
            assert np.array_equal(got, want)
    assert loaded.file_sha256() == hashlib.sha256(data).hexdigest()
    assert store.file_sha256() == loaded.file_sha256()


@pytest.mark.parametrize(
    "record, cause",
    [
        (ArticleRecord("a", 1999, frozenset({1, 2}), frozenset({3})), "Major"),
        (ArticleRecord("a\0b", 1999, frozenset({1, 2}), frozenset()), "NUL"),
        (ArticleRecord("a", 1999, frozenset({-1, 2}), frozenset()), "range"),
        (ArticleRecord("a", 1999, frozenset({1, 1 << 32}), frozenset()), "range"),
        (ArticleRecord("a", 1 << 31, frozenset({1, 2}), frozenset()), "range"),
        (ArticleRecord("a", -(1 << 31) - 1, frozenset({1, 2}), frozenset()), "range"),
        (ArticleRecord("a\ud800", 1999, frozenset({1, 2}), frozenset()), "UTF-8"),
        (ArticleRecord("é" * 33, 1999, frozenset({1, 2}), frozenset()), "66 bytes"),
    ],
)
def test_store_rejects_records_it_cannot_represent(record, cause):
    # The record raises from ``add`` itself and stages nothing, whether or
    # not the store was read before.
    def store_with_one_article():
        store = CorpusStore()
        store.add(ArticleRecord("a", 2000, frozenset({3, 4}), frozenset({4})))
        return store

    for read_first in (False, True):
        store = store_with_one_article()
        if read_first:
            len(store)
        with pytest.raises(CorpusError, match=cause):
            store.add(record)
        assert store.digest() == store_with_one_article().digest()
        assert store.stats.duplicate_article_ids == 0


def test_add_after_read_keeps_last_wins():
    store = CorpusStore()
    store.add(ArticleRecord("a", 1999, frozenset({1, 2}), frozenset({2})))
    assert store.max_keyword_id() == 2
    store.add(ArticleRecord("a", 2001, frozenset({3, 4}), frozenset()))
    store.add(ArticleRecord("b", 1999, frozenset({5, 6}), frozenset({5})))
    assert store.max_keyword_id() == 6
    assert store.years == [1999, 2001]
    assert [r.article_id for r in store.iter_records()] == ["b", "a"]
    assert store.stats.duplicate_article_ids == 1


def _staged_store(articles=50_000, keywords=10):
    """A store of ``articles`` articles of ``keywords`` ids each, staged in
    blocks of 512 in an order that is neither by year nor by article id."""
    position = np.arange(articles) * 7919 % articles
    ids = np.arange(keywords, dtype=np.uint32) * 100 + position[:, None] % 97
    ids = ids.astype(np.uint32)
    years = (1950 + position * 50 // articles).astype(np.int32)
    names = [f"p{i:05}" for i in position.tolist()]
    store = CorpusStore()
    for a in range(0, articles, 512):
        block = slice(a, min(a + 512, articles))
        kids = ids[block].ravel()
        counts = np.full(len(names[block]), keywords, np.uint32)
        store._stage(names[block], years[block], counts, kids, kids % 3 == 0)
    return store


def test_fold_holds_about_one_copy_of_its_columns():
    # The fold gathers a chunk of articles at a time into columns it
    # allocates once, and an ingest's tails are used in place: above what
    # the store held before, it peaks at the new columns (about 7 B per id)
    # and the per-article sort temporaries, 11.5 B per id in all.  A copy
    # of the tails and an int64 gather index over every id would take 29.
    store = _staged_store()
    tracemalloc.start()
    try:
        assert len(store) == 50_000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15 * 500_000


def test_load_store_peaks_near_the_file_size(tmp_path):
    # Each column is read into its own array, and the Major flags are
    # unpacked once every check has passed; with no whole-file bytes and no
    # decoded article ids, the load peaks at 1.19 times this file.
    path = tmp_path / "store.bin"
    with open(path, "wb") as f:
        save_store(_staged_store(), f)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with open(path, "rb") as f:
            loaded = load_store(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 50_000
    assert peak <= 1.3 * size


def test_fold_in_small_chunks_equals_the_default(monkeypatch):
    # At a chunk of 8, each gather of ids and each span of article ids
    # holds a few articles at most, and one article (up to 12 ids) or one
    # id (64 bytes) outgrows it.  "dup" repeats far apart in add order,
    # across such a boundary, and once more after a read.
    rng = random.Random(8)
    names = ["", "é", "x" * 64, "ab中", *(f"a{i}" for i in range(40))]

    def record(i):
        ids = rng.sample(range(300), rng.randint(0, 12))
        name = "dup" if i in (3, 41) else rng.choice(names) if i % 5 else f"a{i}"
        year = rng.randint(1990, 1994)
        return ArticleRecord(name, year, frozenset(ids), frozenset(ids[::2]))

    records = [record(i) for i in range(60)]
    readded = dataclasses.replace(records[3], year=1995)
    last_wins = {r.article_id: r for r in [*records, readded]}

    def folded():
        store = CorpusStore()
        for r in records[:30]:
            store.add(r)
        assert len(store) <= 30
        for r in [*records[30:], readded]:
            store.add(r)
        buf = io.BytesIO()
        save_store(store, buf)
        return store, buf.getvalue()

    expected, data = folded()
    monkeypatch.setattr(corpus_mod, "_CHUNK", 8)
    store, chunked = folded()
    assert chunked == data
    assert max(np.diff(store._offsets)) > 8
    assert store.stats.duplicate_article_ids == len(records) + 1 - len(last_wins)
    assert list(store.iter_records()) == sorted(
        last_wins.values(), key=lambda r: (r.year, r.article_id.encode())
    )
    _assert_loads_as(data, expected)


def test_duplicate_count_is_current_when_ingest_returns(ontology):
    rows = [
        "p1\t1998\tReview\tD000001;D000002",
        "p2\t1998\tReview\tD000001;D000002",
        "p1\t1999\tReview\tD000005;D000007",
        "p1\t1997\tReview\tD000002;D000007",
    ]
    assert ingest_tsv(iter(rows), ontology).stats.duplicate_article_ids == 2
    doc = _xml_doc(
        [("1", 1998, ["Review"], [("D000001", False), ("D000002", False)])] * 3
    )
    assert ingest_pubmed_xml(doc, ontology).stats.duplicate_article_ids == 2


@st.composite
def _articles(draw):
    ids = draw(st.frozensets(st.integers(0, 70_000), max_size=5))
    name = st.characters(blacklist_characters="\0", blacklist_categories=("Cs",))
    major = st.frozensets(st.sampled_from(sorted(ids))) if ids else st.just(ids)
    return ArticleRecord(
        article_id=draw(st.text(name, max_size=4)),
        year=draw(st.integers(1902, 1910)),
        all_keywords=ids,
        major_keywords=draw(major),
    )


@st.composite
def _repeating_articles(draw):
    """Articles over a few ids, so that ids repeat within and across years."""
    ids = sorted(draw(st.frozensets(st.integers(0, 70_000), max_size=5)))
    major = [kid for kid in ids if draw(st.booleans())]
    return ArticleRecord(
        article_id=draw(st.sampled_from(["", "a", "a1", "b", "é", "ab\u4e2d"])),
        year=draw(st.integers(1902, 1906)),
        all_keywords=frozenset(ids),
        major_keywords=frozenset(major),
    )


_READS = [
    len,
    CorpusStore.digest,
    lambda store: store.view("major"),
    lambda store: store.stats,
    lambda store: [store.records_in(year) for year in store.years],
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(_repeating_articles(), st.sampled_from(_READS)), max_size=30)
)
def test_interleaved_adds_and_reads_match_a_last_wins_model(steps):
    store = CorpusStore()
    model: dict[str, ArticleRecord] = {}
    duplicates = 0
    for step in steps:
        if isinstance(step, ArticleRecord):
            duplicates += step.article_id in model
            model[step.article_id] = step
            store.add(step)
        else:
            step(store)
    once = CorpusStore()
    for record in model.values():
        once.add(record)
    mine, theirs = io.BytesIO(), io.BytesIO()
    save_store(store, mine)
    save_store(once, theirs)
    assert mine.getvalue() == theirs.getvalue()
    assert store.digest() == once.digest()
    assert store.stats.duplicate_article_ids == duplicates
    assert once.stats.duplicate_article_ids == 0


_TOP_ID = (1 << 32) - 1


@st.composite
def _view_articles(draw):
    """Articles over a few names, so that some are re-added, and ids that
    reach both ends of the uint32 range."""
    ids = st.one_of(st.sampled_from([0, 1, 2, _TOP_ID]), st.integers(0, _TOP_ID))
    kids = sorted(draw(st.frozensets(ids, max_size=4)))
    return ArticleRecord(
        article_id=draw(st.sampled_from(["a", "b", "c", "d"])),
        year=draw(st.integers(1902, 1904)),
        all_keywords=frozenset(kids),
        major_keywords=frozenset(kid for kid in kids if draw(st.booleans())),
    )


def _reference_views(store, refinement):
    """The refinement's CSR offsets and ids, and its debut order, from the
    records: each keyword in order of its first (article, id) position, and
    each article's ids in that order."""
    offsets, ids, debuts, dense = [0], [], {}, {}
    for record in store.iter_records():
        for kid in sorted(record.keywords(refinement)):
            ids.append(kid)
            if kid not in dense:
                dense[kid] = len(dense)
                debuts[kid] = record.year
        offsets.append(len(ids))
    rows = zip(offsets, offsets[1:])
    ranked = [kid for a, b in rows for kid in sorted(ids[a:b], key=dense.get)]
    return (
        offsets, ranked, list(dense), list(debuts.values()), [dense[i] for i in ranked]
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_view_articles(), max_size=12))
@example([
    ArticleRecord("e", 1902, frozenset(), frozenset()),
    ArticleRecord("a", 1903, frozenset({3, 7}), frozenset({7})),
    ArticleRecord("d", 1902, frozenset({0, _TOP_ID}), frozenset({0, _TOP_ID})),
    ArticleRecord("b", 1903, frozenset({1, 3}), frozenset()),
    ArticleRecord("c", 1903, frozenset({_TOP_ID, 2}), frozenset({2})),
    ArticleRecord("d", 1904, frozenset({0, 5}), frozenset({5})),
])
@example([  # more ids than the largest id in both refinements: no ranking
    ArticleRecord("a", 1902, frozenset({0, 3, 5}), frozenset({0, 3, 5})),
    ArticleRecord("b", 1902, frozenset(), frozenset()),
    ArticleRecord("c", 1903, frozenset({1, 2, 4}), frozenset()),
    ArticleRecord("d", 1903, frozenset({1, 4}), frozenset({1, 4})),
    ArticleRecord("e", 1904, frozenset({0, 2, 5}), frozenset({0, 2, 5})),
])
def test_views_match_a_reference_from_the_records(records):
    store = CorpusStore()
    for record in records:
        store.add(record)
    buf = io.BytesIO()
    save_store(store, buf)
    article_years = [record.year for record in store.iter_records()]
    for views in (store, load_store(io.BytesIO(buf.getvalue()))):
        for refinement in ("all", "major"):
            view = views.view(refinement)
            years, starts, offsets, ids, keywords, debuts, heads, places, positions = view
            assert years.dtype == np.int32 and starts[0] == 0
            assert np.repeat(years, np.diff(starts)).tolist() == article_years
            got = (offsets, keywords[ids], keywords, years[debuts], ids)
            assert [a.dtype for a in got] == [
                np.int64, np.uint32, np.uint32, np.int32, np.uint32
            ]
            assert [a.tolist() for a in got] == list(
                _reference_views(store, refinement)
            )
            # The transpose: each dense id's places in the ids, ascending,
            # and each place's row position in its article.
            widest = int(np.diff(offsets).max(initial=0))
            assert (heads.dtype, places.dtype) == (np.int64, np.uint32)
            assert positions.dtype == np.min_scalar_type(widest - 1)
            assert heads.size == keywords.size + 1 and heads[0] == 0
            assert places.size == positions.size == heads[-1] == ids.size
            article = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
            for d in range(keywords.size):
                at = np.flatnonzero(ids == d)
                assert places[heads[d] : heads[d + 1]].tolist() == at.tolist()
                assert positions[heads[d] : heads[d + 1]].tolist() == (
                    at - offsets[article[at]]
                ).tolist()


def test_debut_order_refuses_more_ids_than_32_bit_positions():
    # A zero-stride view stands for 2^32 + 1 ids without their 16 GiB.
    ids = np.broadcast_to(np.uint32(0), ((1 << 32) + 1,))
    store = CorpusStore()
    store._set_columns(
        np.empty(0, np.int32), np.zeros(1, np.int64), ids, np.empty(0, bool), b""
    )
    tracemalloc.start()
    try:
        with pytest.raises(CorpusError, match="over the limit of 4294967296"):
            store.view("all")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_debut_order_of_dense_ids_holds_no_transient():
    # 1.1 x 10^6 ids over 1,100 keywords: 10^5 articles of eleven ascending
    # ids, over 50 years of 2,000 articles.  The first 1,000 keywords all
    # appear in the first chunk; keyword 1000 + 37 j mod 100 first appears
    # in article 1,000 j, so from j = 2 on past that chunk and in a later
    # year, and out of id order.  Under major, two ids in three are Major.
    articles = 100_000
    index = np.arange(articles, dtype=np.uint32)
    base = index * 37 % 100
    late = 1000 + index // 1000 * 37 % 100
    ids = np.column_stack(
        (base[:, None] + np.arange(0, 1000, 100, dtype=np.uint32), late)
    ).ravel()
    article_years = np.repeat(np.arange(1950, 2000, dtype=np.int32), articles // 50)
    major = np.arange(ids.size) % 3 != 1
    assert 11 * 2000 > corpus_mod._CHUNK  # the second year is past a chunk
    for refinement in ("all", "major"):
        store = CorpusStore()
        store._set_columns(
            article_years, np.arange(articles + 1, dtype=np.int64) * 11, ids, major, b""
        )
        tracemalloc.start()
        try:
            years, _, offsets, dense, keywords, debuts, _, _, _ = store.view(refinement)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The refinement's positions among all ids.
        kept = np.arange(ids.size) if refinement == "all" else np.flatnonzero(major)
        # The dense ids, and the transpose's places and one-byte positions.
        assert held >= 9 * kept.size
        assert peak <= 1.1 * held
        bounds = np.arange(articles + 1) * 11
        assert offsets.tolist() == np.searchsorted(kept, bounds).tolist()
        # Each keyword in order of its first position, as the records give it.
        first: dict[int, int] = {}
        for position, kid in zip(kept.tolist(), ids[kept].tolist()):
            first.setdefault(kid, position)
        rank = {kid: d for d, kid in enumerate(first)}
        assert keywords.tolist() == list(first)
        assert years[debuts].tolist() == [
            article_years[position // 11] for position in first.values()
        ]
        # Each article's dense ids ascend.
        expected = [rank[kid] for kid in ids[kept].tolist()]
        rows = zip(offsets[:-1].tolist(), offsets[1:].tolist())
        assert dense.tolist() == [d for a, b in rows for d in sorted(expected[a:b])]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(0, 40), max_size=300),
    data=st.data(),
    step=st.sampled_from([1, 2, 3, 7, 64]),
)
def test_keep_first_keeps_each_values_smallest_tag_across_steps(values, data, step):
    # Runs of one value cross the steps of the compaction, whose first
    # word of a step is a head only when its value differs from the last
    # of the step before.
    tags = data.draw(st.lists(st.integers(0, 7), min_size=len(values), max_size=len(values)))
    words = np.array([v << 3 | t for v, t in zip(values, tags)], dtype=np.uint64)
    smallest: dict[int, int] = {}
    for v, t in zip(values, tags):
        smallest[v] = min(t, smallest.get(v, t))
    saved = corpus_mod._KEEP_STEP
    corpus_mod._KEEP_STEP = step
    try:
        kept, kept_tags = corpus_mod.keep_first(words, 3, np.uint8)
    finally:
        corpus_mod._KEEP_STEP = saved
    assert kept.tolist() == sorted(smallest)
    assert kept_tags.tolist() == [smallest[v] for v in sorted(smallest)]


@settings(max_examples=40, deadline=None)
@given(records=st.lists(_articles(), max_size=4), data=st.data())
def test_damaged_store_raises_only_corpus_error(records, data):
    store = CorpusStore()
    for record in records:
        store.add(record)
    buf = io.BytesIO()
    save_store(store, buf)
    blob = buf.getvalue()
    _assert_loads_as(blob, store)
    for length in range(len(blob)):
        with pytest.raises(CorpusError):
            load_store(io.BytesIO(blob[:length]))
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), max_size=16)):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << bit % 8
        with pytest.raises(CorpusError):
            load_store(io.BytesIO(bytes(damaged)))


def test_p_counts_monotone_and_major_below_all(tmp_path):
    corpus = generate_synthetic(
        SynthParams(
            n_articles=400,
            vocab_size=60,
            keywords_per_article=(2, 9),
            major_fraction=0.5,
            seed=21,
        )
    )
    # Articles with at least k + 1 keywords, per year, as `tabulate` counts
    # them.
    processed = {
        (k, refinement): tabulate(
            corpus,
            LedgerConfig(k=k, refinement=refinement, spill_directory=tmp_path),
        ).articles_processed
        for k in (1, 2, 3)
        for refinement in ("all", "major")
    }
    for i in range(len(processed[1, "all"])):
        p2, p3, p4 = (processed[k, "all"][i] for k in (1, 2, 3))
        assert p2 >= p3 >= p4
        for k in (1, 2, 3):
            assert processed[k, "major"][i] <= processed[k, "all"][i]


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
    allowed = FilterConfig().branch_filter
    eligible = {d.id for d in ontology.descriptors if is_eligible(d, allowed)}
    for record in store.iter_records():
        assert record.major_keywords <= record.all_keywords
        assert record.year >= 1902
        assert len(record.all_keywords) >= 2
        assert record.all_keywords <= eligible
