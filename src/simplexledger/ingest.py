"""Reading raw corpora into a store: the TSV and PubMed XML readers and
their one admission step.

Both readers parse one article at a time and hand it to one admission
step, which admits the articles a block of 512 at a time into the store's
column tails.  An article's keywords arrive as tokens, a TSV ``;``-field or
an XML ``UI`` with ``*`` prefixed when Major, and each token takes one
lookup in a table built once per ingest from the vocabulary and the branch
filter: a code maps to its id, ``*`` and the code to the id's complement
(Major), and either to a sentinel for a branch the filter drops.  Only a
token the table lacks runs the token rules: surrounding whitespace is
dropped, an empty token is skipped, leading ``*``s mark it Major, and a
code outside the vocabulary is counted as unknown, whatever becomes of its
article.  An article is admitted when, in this order, (a) a publication
type is Journal Article or Review, (b) the year is present, not before the
configured minimum and within int32, and (c) at least two keywords remain
once repeated keywords are merged into one that is Major if any copy is.
The first two rules are checked as each article arrives; the block holds
the articles that pass them, their keywords as ints, and `keep_first`, the
ledger's merge too, merges a block's repeats, after which the third rule
is applied and the block's admitted articles are staged in one step.
Rejections are counted, never raised.

The XML reader clears each record once read, and the document's root
after it, so that its memory stays flat however many records the file
holds.  Only `ingest` and `run --input` load this module and the ontology
it reads: `run --store` needs neither.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from simplexledger.corpus import (
    _INT32,
    _MAX_ID_BYTES,
    CorpusError,
    CorpusStore,
    IngestStats,
    _id_fault,
    keep_first,
)
from simplexledger.ontology import BranchFilter, Ontology, is_eligible, numbered_lines

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

# The research-content publication types and the fewest keywords an
# admitted article carries; the minimum year is configurable.
PUB_TYPES = frozenset({"Journal Article", "Review"})
MIN_KEYWORDS = 2
DEFAULT_MIN_YEAR = 1902
# Articles per admission block.  A block holds its keywords as 8-byte
# ints, so it stays small beside the store.
_BLOCK = 512
# A code the branch filter drops, in the token table: unlike None, it
# survives a complement, and no keyword id reaches it.
_DROPPED = 1 << 32


@dataclass(frozen=True)
class FilterConfig:
    """The configurable admission rules applied during ingestion."""

    min_year: int = DEFAULT_MIN_YEAR
    branch_filter: BranchFilter = field(default_factory=BranchFilter)


def _token_table(ontology: Ontology, config: FilterConfig) -> dict[str, int]:
    """Each code, and ``*`` and the code, resolved: the keyword id, or its
    complement for Major.  A code the branch filter drops resolves to
    `_DROPPED`, which no keyword id reaches, or its complement.

    The vocabulary holds no code the token rules would change (`load_ontology`
    refuses surrounding whitespace and a leading ``*``), so a token found
    here resolves as those rules would resolve it.
    """
    table: dict[str, int] = {}
    for d in ontology.descriptors:
        kid = d.id if is_eligible(d, config.branch_filter) else _DROPPED
        table[d.external_code] = kid
        table["*" + d.external_code] = ~kid
    return table


def _resolve(
    table: dict[str, int], tokens: list[str], stats: IngestStats
) -> list[int]:
    """The tokens' values, where one of them is not in the table.  Such a
    token runs the token rules: it is trimmed, skipped if empty, Major if
    it starts with ``*``, and counted and skipped if its code is unknown."""
    kids = []
    for token in tokens:
        kid = table.get(token)
        if kid is None:
            token = token.strip()
            if not token:
                continue
            kid = table.get(token.lstrip("*"))
            if kid is None:
                stats.unknown_keyword_codes += 1
                continue
            if token[0] == "*":
                kid = ~kid
        kids.append(kid)
    return kids


# A parsed article: its id, year, publication types and keyword tokens.
_Parsed = tuple[str, int | None, Iterable[str], list[str]]


def _admit(
    store: CorpusStore,
    ontology: Ontology,
    config: FilterConfig,
    articles: Iterable[_Parsed],
) -> None:
    """Resolve each parsed article's keyword tokens and apply the first two
    admission rules; the articles they pass wait, their keywords resolved
    to ints, in a block that `_admit_block` merges, checks for too few
    keywords and stages whole.  The readers have counted an article id
    with an `_id_fault` as malformed."""
    table = _token_table(ontology, config)
    stats = store._stats
    lowest, highest = max(config.min_year, _INT32.start), _INT32.stop
    names, years, counts, ids = block = _new_block()
    for article_id, year, pub_types, tokens in articles:
        kids = [*map(table.get, tokens)]
        if None in kids:
            kids = _resolve(table, tokens, stats)
        if PUB_TYPES.isdisjoint(pub_types):
            stats.rejected_pub_type += 1
        elif year is None or not lowest <= year < highest:
            stats.rejected_year += 1
        else:
            names.append(article_id)
            years.append(year)
            counts.append(len(kids))
            ids.fromlist(kids)
            if len(names) == _BLOCK:
                _admit_block(store, *block)
                names, years, counts, ids = block = _new_block()
    _admit_block(store, *block)


def _new_block() -> tuple[list[str], array, array, array]:
    """An empty block: article ids, years, keyword counts, table values."""
    return [], array("i"), array("q"), array("q")


def _admit_block(
    store: CorpusStore, names: list[str], years: array, counts: array, ids: array
) -> None:
    """Merge each article's repeated keywords into one, Major if any copy
    is, drop the codes the branch filter drops, reject the articles left
    with too few keywords and stage the rest in one step.  ``ids`` holds
    each article's table values in turn, ``counts[i]`` of article ``i``."""
    kids = np.frombuffer(ids, np.int64)
    plain = kids >= 0
    kids = np.where(plain, kids, ~kids)
    article = np.repeat(np.arange(len(names), dtype=np.int64), counts)
    # A word per copy: its value, article << 33 | keyword id, above a tag of
    # 0 for a Major copy, so that a kept keyword is Major if any copy is.
    words = ((article << 34) | (kids << 1) | plain)[kids != _DROPPED]
    values, tags = keep_first(words.view(np.uint64), 1, np.uint8)
    owner = (values >> np.uint64(33)).view(np.int64)
    distinct = np.bincount(owner, minlength=len(names))
    admitted = distinct >= MIN_KEYWORDS
    accepted = int(np.count_nonzero(admitted))
    store._stats.rejected_too_few_keywords += len(names) - accepted
    store._stats.accepted += accepted
    kept = admitted[owner]
    store._stage(
        list(itertools.compress(names, admitted.tolist())),
        np.frombuffer(years, np.int32)[admitted],
        distinct[admitted].astype(np.uint32),
        values[kept].astype(np.uint32),
        tags[kept] == 0,
    )


def _warn(message: str, *args) -> None:
    # ``logging`` loads on the first warning, not with every command.
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _reject_line(stats: IngestStats, lineno: int, message: str, *args) -> None:
    """Count a malformed TSV line and log why."""
    stats.rejected_malformed += 1
    stats.malformed_lines.append(lineno)
    _warn("tsv line %d: " + message, lineno, *args)


def ingest_tsv(
    stream: Iterable[str] | TextIO | BinaryIO,
    ontology: Ontology,
    config: FilterConfig | None = None,
) -> CorpusStore:
    """Read ``article_id <TAB> year <TAB> pub_type <TAB> keyword-list`` rows.

    The keyword list is ``;``-separated external codes; a ``*`` prefix marks
    a Major keyword, and whitespace around a code is dropped.  Multiple
    publication types may be ``|``-separated.
    A binary stream is decoded line by line, so a byte that is not UTF-8
    raises a `CorpusError` naming its line.
    """
    store = CorpusStore()
    articles = _tsv_articles(stream, store._stats)
    _admit(store, ontology, config or FilterConfig(), articles)
    return store


def _tsv_articles(
    stream: Iterable[str] | TextIO | BinaryIO, stats: IngestStats
) -> Iterator[_Parsed]:
    """The TSV rows as parsed articles; a malformed row is counted."""
    for lineno, line in numbered_lines(stream, CorpusError):
        parts = line.split("\t")
        if len(parts) != 4:
            _reject_line(stats, lineno, "expected 4 fields, got %d", len(parts))
            continue
        article_id, year_text, pub_type, kw_text = parts
        fault = _id_fault(article_id)
        if fault:
            _reject_line(stats, lineno, "article id %s: %r", fault, article_id[:16])
            continue
        try:
            year = int(year_text)
        except ValueError:
            _reject_line(stats, lineno, "unparseable year %r", year_text)
            continue
        if pub_type in PUB_TYPES:
            pub_types = (pub_type,)
        else:
            pub_types = [t.strip() for t in pub_type.split("|")]
        yield article_id, year, pub_types, kw_text.split(";")


def _xml_years(citation: ET.Element) -> list[int]:
    years: list[int] = []
    for elem in citation.iter():
        # Publication dates only; processing dates (DateCompleted etc.) do
        # not define when the work appeared.
        if elem.tag in ("PubDate", "ArticleDate"):
            year_elem = elem.find("Year")
            if year_elem is not None and year_elem.text:
                try:
                    years.append(int(year_elem.text))
                except ValueError:
                    pass
        elif elem.tag == "MedlineDate" and elem.text:
            head = elem.text.strip()[:4]
            if head.isdigit():
                years.append(int(head))
    return years


def ingest_pubmed_xml(
    stream: BinaryIO,
    ontology: Ontology,
    config: FilterConfig | None = None,
) -> CorpusStore:
    """Ingest a PubMed-format citation XML stream.

    A record's id is its ``MedlineCitation/PMID`` and its year the earliest
    year among its dated elements.  Records missing a year are skipped with
    a counter, records missing that PMID or with one over 64 bytes are
    counted as malformed, and malformed XML aborts with the parser's
    position.
    """
    store = CorpusStore()
    articles = _xml_articles(stream, store._stats)
    _admit(store, ontology, config or FilterConfig(), articles)
    return store


def _xml_articles(stream: BinaryIO, stats: IngestStats) -> Iterator[_Parsed]:
    """The ``PubmedArticle`` records as parsed articles; a record without a
    usable PMID is counted as malformed."""
    import xml.etree.ElementTree as ET

    try:
        events = ET.iterparse(stream, events=("start", "end"))
        # Each record stays its parent's child once read; the root, taken
        # from its start event, is cleared after each record, skipped ones
        # too, so that the parse holds one record at a time.
        _, root = next(events)
        for event, article in events:
            if event == "start" or article.tag != "PubmedArticle":
                continue
            # The record's own PMID; a cited article's sits deeper.
            pmid = article.findtext("MedlineCitation/PMID")
            if not pmid or _id_fault(pmid):
                stats.rejected_malformed += 1
                _warn(
                    "PubmedArticle without MedlineCitation/PMID, or with one "
                    "over %d bytes, skipped", _MAX_ID_BYTES,
                )
            else:
                pub_types = [
                    pt.text.strip()
                    for pt in article.iter("PublicationType")
                    if pt.text
                ]
                tokens: list[str] = []
                for heading in article.iter("MeshHeading"):
                    descriptor = heading.find("DescriptorName")
                    if descriptor is None:
                        continue
                    code = descriptor.get("UI")
                    if not code:
                        continue
                    # A starred qualifier makes its heading a major topic too.
                    major = any(
                        elem.get("MajorTopicYN") == "Y"
                        for elem in (descriptor, *heading.findall("QualifierName"))
                    )
                    tokens.append("*" + code if major else code)
                years = _xml_years(article)
                yield pmid, min(years) if years else None, pub_types, tokens
            article.clear()
            root.clear()
    except ET.ParseError as exc:
        raise CorpusError(f"malformed XML: {exc}") from exc
