"""Article ingestion, filtering, and storage.

Articles survive ingestion when (a) their publication type intersects the
configured research-content types, (b) at least two branch-eligible keywords
remain after vocabulary filtering, and (c) the year is present and not
before the configured minimum.  Rejections are counted, never raised.

The store is grouped by year so that the ledger's ascending-year sweep is a
sequential scan.  It serializes to a versioned binary file with magic
``SLEDGER1``: year-partitioned blocks of delta-encoded sorted keyword id
lists plus a major-flag bitmask per article.
"""

from __future__ import annotations

import hashlib
import io
import logging
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, TextIO

from simplexledger.ontology import BranchFilter, Ontology, is_eligible

log = logging.getLogger(__name__)

ALL = "all"
MAJOR = "major"
REFINEMENTS = (ALL, MAJOR)

DEFAULT_PUB_TYPES = frozenset({"Journal Article", "Review"})
DEFAULT_MIN_YEAR = 1902

_MAGIC = b"SLEDGER1"
_STORE_VERSION = 1


class CorpusError(ValueError):
    """Raised for unrecoverable ingestion or store-format problems."""


@dataclass(frozen=True)
class ArticleRecord:
    """One filtered publication: year plus its eligible keyword sets."""

    article_id: str
    year: int
    all_keywords: frozenset[int]
    major_keywords: frozenset[int]

    def keywords(self, refinement: str) -> frozenset[int]:
        if refinement == ALL:
            return self.all_keywords
        if refinement == MAJOR:
            return self.major_keywords
        raise ValueError(f"unknown refinement {refinement!r}")


@dataclass(frozen=True)
class FilterConfig:
    """Article admission rules applied during ingestion."""

    pub_types: frozenset[str] = DEFAULT_PUB_TYPES
    min_year: int = DEFAULT_MIN_YEAR
    branch_filter: BranchFilter = field(default_factory=BranchFilter)
    min_keywords: int = 2


@dataclass
class IngestStats:
    """Rejection and warning counters; their sum plus accepted equals input."""

    accepted: int = 0
    rejected_pub_type: int = 0
    rejected_too_few_keywords: int = 0
    rejected_year: int = 0
    rejected_malformed: int = 0
    duplicate_article_ids: int = 0
    unknown_keyword_codes: int = 0
    malformed_lines: list[int] = field(default_factory=list)


@dataclass
class RawArticle:
    """Parsed but unfiltered article, shared by the TSV and XML paths."""

    article_id: str
    year: int | None
    pub_types: list[str]
    keywords: list[tuple[int, bool]]  # (keyword id, major flag)


class CorpusStore:
    """Year-partitioned collection of ArticleRecords."""

    def __init__(self) -> None:
        self._by_year: dict[int, dict[str, ArticleRecord]] = {}
        self._year_of: dict[str, int] = {}
        self.stats = IngestStats()

    def add(self, record: ArticleRecord) -> None:
        # Duplicate ids are last-wins; the old copy is evicted even if it
        # landed in a different year.
        old_year = self._year_of.get(record.article_id)
        if old_year is not None:
            del self._by_year[old_year][record.article_id]
            self.stats.duplicate_article_ids += 1
        self._by_year.setdefault(record.year, {})[record.article_id] = record
        self._year_of[record.article_id] = record.year

    def __len__(self) -> int:
        return sum(len(g) for g in self._by_year.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorpusStore):
            return NotImplemented
        return self._contents() == other._contents()

    def _contents(self) -> dict[int, frozenset[ArticleRecord]]:
        return {y: frozenset(g.values()) for y, g in self._by_year.items() if g}

    @property
    def years(self) -> list[int]:
        return sorted(y for y, g in self._by_year.items() if g)

    def records_in(self, year: int) -> list[ArticleRecord]:
        group = self._by_year.get(year, {})
        return [group[key] for key in sorted(group)]

    def iter_records(self) -> Iterator[ArticleRecord]:
        for year in self.years:
            yield from self.records_in(year)

    def articles_with_at_least(self, s: int, refinement: str, year: int) -> int:
        """Count of year-``year`` articles carrying >= s keywords."""
        return sum(
            1
            for r in self._by_year.get(year, {}).values()
            if len(r.keywords(refinement)) >= s
        )

    def max_keyword_id(self) -> int:
        best = -1
        for record in self.iter_records():
            if record.all_keywords:
                best = max(best, max(record.all_keywords))
        return best

    def digest(self) -> str:
        """Content hash over the canonical serialization."""
        buf = io.BytesIO()
        save_store(self, buf)
        return hashlib.sha256(buf.getvalue()).hexdigest()


def filter_article(
    raw: RawArticle,
    config: FilterConfig,
    stats: IngestStats | None = None,
) -> ArticleRecord | None:
    """Apply the admission rules; None means rejected (and counted)."""
    stats = stats if stats is not None else IngestStats()
    if not set(raw.pub_types) & config.pub_types:
        stats.rejected_pub_type += 1
        return None
    if raw.year is None or raw.year < config.min_year:
        stats.rejected_year += 1
        return None
    all_kw = frozenset(kid for kid, _ in raw.keywords)
    major_kw = frozenset(kid for kid, major in raw.keywords if major)
    if len(all_kw) < config.min_keywords:
        stats.rejected_too_few_keywords += 1
        return None
    stats.accepted += 1
    return ArticleRecord(
        article_id=raw.article_id,
        year=raw.year,
        all_keywords=all_kw,
        major_keywords=major_kw,
    )


def _resolve_keywords(
    codes: Iterable[tuple[str, bool]],
    ontology: Ontology,
    branch_filter: BranchFilter,
    stats: IngestStats,
) -> list[tuple[int, bool]]:
    """Map external codes to ids, dropping unknown and branch-ineligible ones."""
    out: list[tuple[int, bool]] = []
    for code, major in codes:
        descriptor = ontology.by_code(code)
        if descriptor is None:
            stats.unknown_keyword_codes += 1
            continue
        if not is_eligible(descriptor, branch_filter):
            continue
        out.append((descriptor.id, major))
    return out


def ingest_tsv(
    stream: Iterable[str] | TextIO,
    ontology: Ontology,
    config: FilterConfig | None = None,
) -> CorpusStore:
    """Read ``article_id <TAB> year <TAB> pub_type <TAB> keyword-list`` rows.

    The keyword list is ``;``-separated external codes; a ``*`` prefix marks
    a Major keyword.  Multiple publication types may be ``|``-separated.
    """
    config = config or FilterConfig()
    store = CorpusStore()
    stats = store.stats
    for lineno, raw_line in enumerate(stream, start=1):
        line = raw_line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            stats.rejected_malformed += 1
            stats.malformed_lines.append(lineno)
            log.warning("tsv line %d: expected 4 fields, got %d", lineno, len(parts))
            continue
        article_id, year_text, pub_type, kw_text = parts
        try:
            year: int | None = int(year_text)
        except ValueError:
            stats.rejected_malformed += 1
            stats.malformed_lines.append(lineno)
            log.warning("tsv line %d: unparseable year %r", lineno, year_text)
            continue
        codes = []
        for token in kw_text.split(";"):
            token = token.strip()
            if not token:
                continue
            major = token.startswith("*")
            codes.append((token.lstrip("*"), major))
        raw = RawArticle(
            article_id=article_id,
            year=year,
            pub_types=[t.strip() for t in pub_type.split("|")],
            keywords=_resolve_keywords(codes, ontology, config.branch_filter, stats),
        )
        record = filter_article(raw, config, stats)
        if record is not None:
            store.add(record)
    return store


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

    A record's year is the earliest year among its dated elements.  Records
    missing a year are skipped with a counter; malformed XML aborts with the
    parser's position.
    """
    config = config or FilterConfig()
    store = CorpusStore()
    stats = store.stats
    try:
        for _, article in ET.iterparse(stream, events=("end",)):
            if article.tag != "PubmedArticle":
                continue
            pmid = article.findtext(".//PMID") or ""
            pub_types = [
                pt.text.strip()
                for pt in article.iter("PublicationType")
                if pt.text
            ]
            codes: list[tuple[str, bool]] = []
            for heading in article.iter("MeshHeading"):
                descriptor = heading.find("DescriptorName")
                if descriptor is None:
                    continue
                code = descriptor.get("UI")
                if not code:
                    continue
                major = descriptor.get("MajorTopicYN", "N") == "Y"
                codes.append((code, major))
            years = _xml_years(article)
            raw = RawArticle(
                article_id=pmid,
                year=min(years) if years else None,
                pub_types=pub_types,
                keywords=_resolve_keywords(
                    codes, ontology, config.branch_filter, stats
                ),
            )
            record = filter_article(raw, config, stats)
            if record is not None:
                store.add(record)
            article.clear()
    except ET.ParseError as exc:
        raise CorpusError(f"malformed XML: {exc}") from exc
    return store


# --- binary store serialization -------------------------------------------


def _write_varint(buf: BinaryIO, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.write(bytes((byte | 0x80,)))
        else:
            buf.write(bytes((byte,)))
            return


def _read_exact(src: BinaryIO, n: int) -> bytes:
    data = src.read(n)
    if len(data) != n:
        raise CorpusError("truncated store file")
    return data


def _read_varint(buf: BinaryIO) -> int:
    shift = 0
    value = 0
    while True:
        byte = _read_exact(buf, 1)[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7


def save_store(store: CorpusStore, out: BinaryIO) -> None:
    out.write(_MAGIC)
    out.write(struct.pack("<BI", _STORE_VERSION, len(store.years)))
    for year in store.years:
        records = store.records_in(year)
        out.write(struct.pack("<iI", year, len(records)))
        for record in records:
            ident = record.article_id.encode("utf-8")
            out.write(struct.pack("<H", len(ident)))
            out.write(ident)
            ids = sorted(record.all_keywords)
            _write_varint(out, len(ids))
            prev = 0
            for kid in ids:
                _write_varint(out, kid - prev)
                prev = kid
            mask = bytearray((len(ids) + 7) // 8)
            for i, kid in enumerate(ids):
                if kid in record.major_keywords:
                    mask[i // 8] |= 1 << (i % 8)
            out.write(bytes(mask))


def load_store(src: BinaryIO) -> CorpusStore:
    magic = src.read(len(_MAGIC))
    if magic != _MAGIC:
        raise CorpusError(f"bad magic {magic!r}; not a store file")
    version, n_years = struct.unpack("<BI", _read_exact(src, 5))
    if version != _STORE_VERSION:
        raise CorpusError(f"unsupported store version {version}")
    store = CorpusStore()
    for _ in range(n_years):
        year, n_records = struct.unpack("<iI", _read_exact(src, 8))
        for _ in range(n_records):
            (id_len,) = struct.unpack("<H", _read_exact(src, 2))
            try:
                article_id = _read_exact(src, id_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"article id is not UTF-8: {exc}") from exc
            n_ids = _read_varint(src)
            ids = []
            prev = 0
            for _ in range(n_ids):
                prev += _read_varint(src)
                ids.append(prev)
            mask = _read_exact(src, (n_ids + 7) // 8)
            major = frozenset(
                kid
                for i, kid in enumerate(ids)
                if mask[i // 8] & (1 << (i % 8))
            )
            store.add(
                ArticleRecord(
                    article_id=article_id,
                    year=year,
                    all_keywords=frozenset(ids),
                    major_keywords=major,
                )
            )
    if src.read(1):
        raise CorpusError("trailing bytes after the last year block")
    return store
