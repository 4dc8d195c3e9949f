"""Article ingestion, filtering, and storage.

Both readers hand each parsed article to one admission step, which stages
it straight into the store's column tails.  An article's keywords arrive as
tokens, a TSV ``;``-field or an XML ``UI`` with ``*`` prefixed when Major,
and each token takes one lookup in a table built once per ingest from the
vocabulary and the branch filter: a code maps to its id, ``*`` and the code
to the id's complement (Major), and either to None for a branch the filter
drops.  Only a token the table lacks runs the token rules: surrounding
whitespace is dropped, an empty token is skipped, leading ``*``s mark it
Major, and a code outside the vocabulary is counted as unknown.  The step
merges repeated keywords into one that is Major if any copy is, and then
admits the article when, in this order, (a) a publication type is Journal
Article or Review, (b) the year is present, not before the configured
minimum and within int32, and (c) at least two keywords remain.
Rejections are counted, never raised.

The store holds every article in one CSR (compressed sparse row) layout,
the same in memory and on disk, sorted by (year, article id) so that each
year of the ledger's ascending sweep is one contiguous slice:

- ``years`` (int32), one per article;
- ``offsets`` (int64, articles + 1): article ``i`` owns
  ``ids[offsets[i]:offsets[i+1]]``;
- ``ids`` (uint32), ascending within each article;
- ``major``, one Major-topic flag per id;
- the article ids, UTF-8, each followed by a NUL byte.

``add`` and the admission step stage articles in the same layout, as
column tails in add order; ``add`` refuses an article the layout cannot
hold before staging any of it.  The next read folds the tails into the
columns with stable numpy sorts; the last copy of each article id wins,
even across years, and the dropped copies count as duplicates.

A store file (format version 2) is a 40-byte header (magic ``SLEDGER1``,
version, article count, id count, article-id bytes), the raw little-endian
``offsets``, ``years`` and ``ids`` arrays, the ``major`` flags packed eight
to a byte, the article ids, and a SHA-256 trailer over everything before
it.  Loading runs the structural checks first, so that each error names its
cause, and then the checksum, which catches corruption that leaves the
structure valid; the checksum doubles as the store's digest.  A version-1
file (varint-encoded year blocks) is refused: re-run ingest.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, TextIO

import numpy as np

from simplexledger.ontology import BranchFilter, Ontology, is_eligible, numbered_lines

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

ALL = "all"
MAJOR = "major"
REFINEMENTS = (ALL, MAJOR)

# The research-content publication types and the fewest keywords an
# admitted article carries; the minimum year is configurable.
PUB_TYPES = frozenset({"Journal Article", "Review"})
MIN_KEYWORDS = 2
DEFAULT_MIN_YEAR = 1902
# The years the int32 year column holds.
_INT32 = range(-(1 << 31), 1 << 31)
# The longest article id, in UTF-8 bytes.  A fold lays every id out at the
# longest one's width, so one long id would widen them all.
_MAX_ID_BYTES = 64

_MAGIC = b"SLEDGER1"
_STORE_VERSION = 2
# Magic, version, article count, keyword id count, article-id bytes.
_HEADER = struct.Struct("<8sB7xQQQ")
_TRAILER_SIZE = 32  # SHA-256 of everything before it


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
    """The configurable admission rules applied during ingestion."""

    min_year: int = DEFAULT_MIN_YEAR
    branch_filter: BranchFilter = field(default_factory=BranchFilter)


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


def run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values.

    Applied to a sorted array it selects the distinct values, without the
    ``numpy.ma`` import that ``np.unique`` costs on its first call.
    """
    heads = np.empty(values.size, dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


class CorpusStore:
    """Articles in one CSR layout, sorted by (year, article id).

    Article ``i`` appeared in ``years[i]`` and carries the keyword ids
    ``ids[offsets[i]:offsets[i+1]]``, ascending, with ``major`` flagging its
    Major keywords.  Added articles wait in column tails until the next
    read folds them in, keeping the last copy of each article id.
    """

    def __init__(self) -> None:
        self._stats = IngestStats()
        self._clear_tails()
        self._set_columns(
            np.empty(0, np.int32),
            np.zeros(1, np.int64),
            np.empty(0, np.uint32),
            np.empty(0, bool),
            b"",
        )

    def _clear_tails(self) -> None:
        # The articles added since the last fold, in the columns' layout.
        self._tail_years = array("i")
        self._tail_counts = array("I")
        self._tail_ids = array("I")
        self._tail_major = bytearray()
        self._tail_names = bytearray()

    def _set_columns(self, years, offsets, ids, major, article_ids, digest=None):
        self._years = years
        self._offsets = offsets
        self._ids = ids
        self._major = major
        # UTF-8 article ids, each followed by a NUL byte.
        self._article_ids = article_ids
        # Values derived from the columns, dropped whenever they change.
        self._cache: dict = {} if digest is None else {"digest": digest}

    @property
    def stats(self) -> IngestStats:
        """Ingest counters; reading them folds, so duplicates are counted."""
        self._fold()
        return self._stats

    def add(self, record: ArticleRecord) -> None:
        """Stage one article, or raise before staging anything."""
        article_id = record.article_id
        if not record.major_keywords <= record.all_keywords:
            raise CorpusError(
                f"article {article_id!r} has Major keywords outside its keyword set"
            )
        if "\0" in article_id:
            raise CorpusError(f"article id {article_id!r} contains NUL")
        ids = sorted(record.all_keywords)
        try:
            name = article_id.encode("utf-8")
            years = array("i", (record.year,))
            id_column = array("I", ids)
        except UnicodeEncodeError as exc:
            raise CorpusError(f"article id {article_id!r} is not UTF-8") from exc
        except OverflowError as exc:
            raise CorpusError(f"year or keyword id out of range: {exc}") from exc
        if len(name) > _MAX_ID_BYTES:
            raise CorpusError(
                f"article id {article_id[:16]!r}... has {len(name)} bytes, "
                f"over the limit of {_MAX_ID_BYTES}"
            )
        major = record.major_keywords
        self._tail_years += years
        self._tail_counts.append(len(id_column))
        self._tail_ids += id_column
        self._tail_major += bytes(kid in major for kid in ids)
        self._tail_names += name + b"\0"

    def _fold(self) -> None:
        """Merge the column tails, if any, into the columns; these are just
        the first chunk, so an add after a read needs no other path."""
        if not self._tail_years:
            return
        years = np.concatenate((self._years, self._tail_years))
        counts = np.concatenate((np.diff(self._offsets), self._tail_counts))
        ids = np.concatenate((self._ids, self._tail_ids))
        major = np.concatenate((self._major, np.frombuffer(self._tail_major, bool)))
        names, lengths = _fixed_width(self._article_ids + self._tail_names)
        self._clear_tails()
        # A stable sort puts each id's copies in add order, so the last of
        # each run is the one that wins, whatever its year.
        by_name = names.argsort(kind="stable")
        keep = by_name[run_heads(names[by_name][::-1])[::-1]]
        self._stats.duplicate_article_ids += len(years) - len(keep)
        # ``keep`` is in id order; a stable sort by year gives (year, id).
        order = keep[years[keep].argsort(kind="stable")]
        starts = np.cumsum(counts) - counts
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts[order], out=offsets[1:])
        gather = np.arange(offsets[-1], dtype=np.int64)
        gather += np.repeat(starts[order] - offsets[:-1], counts[order])
        # Each row of the fixed-width ids up to its length and one NUL.
        grid = names[order].view(np.uint8).reshape(len(order), names.itemsize)
        article_ids = grid[np.arange(names.itemsize) <= lengths[order, None]]
        self._set_columns(
            years[order], offsets, ids[gather], major[gather], article_ids.tobytes()
        )

    def _cached(self, key: str, compute: Callable[[], object]):
        self._fold()
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def __len__(self) -> int:
        self._fold()
        return len(self._years)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorpusStore):
            return NotImplemented
        mine, theirs = self.csr(ALL), other.csr(ALL)
        return (
            self._article_ids == other._article_ids
            and np.array_equal(self._major, other._major)
            and all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        )

    @property
    def years(self) -> list[int]:
        """The distinct publication years, ascending."""
        return self._cached(
            "years", lambda: self._years[run_heads(self._years)].tolist()
        )

    def year_range(self, year: int) -> tuple[int, int]:
        """The article index range [lo, hi) of one year."""
        self._fold()
        lo, hi = np.searchsorted(self._years, (year, year + 1))
        return int(lo), int(hi)

    def csr(self, refinement: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(years, offsets, ids) of every article under one refinement."""
        self._fold()
        if refinement == ALL:
            return self._years, self._offsets, self._ids
        if refinement == MAJOR:
            return self._cached("major_csr", self._major_csr)
        raise ValueError(f"unknown refinement {refinement!r}")

    def _major_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        running = np.zeros(self._major.size + 1, dtype=np.int64)
        np.cumsum(self._major, out=running[1:])
        return self._years, running[self._offsets], self._ids[self._major]

    def debut_order(
        self, refinement: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The refinement's keywords renumbered in debut order.

        Returns (keywords, debuts, dense): the distinct keyword ids in order
        of first appearance, their debut years (non-decreasing), and the
        refinement's CSR ids replaced by their positions in ``keywords``.
        Cached per refinement until the columns change.
        """
        return self._cached(
            f"debut_order_{refinement}", lambda: self._debut_order(refinement)
        )

    def _debut_order(self, refinement: str):
        years, offsets, ids = self.csr(refinement)
        # Articles are sorted by year, so a keyword's first position is its
        # debut; a stable sort keeps each keyword's first position at its head.
        by_id = ids.argsort(kind="stable")
        sorted_ids = ids[by_id]
        heads = run_heads(sorted_ids)
        kids, first = sorted_ids[heads], by_id[heads]
        inverse = np.empty(ids.size, dtype=np.intp)
        inverse[by_id] = np.cumsum(heads) - 1
        order = np.argsort(first)
        rank = np.empty(kids.size, dtype=ids.dtype)
        rank[order] = np.arange(kids.size, dtype=ids.dtype)
        article = np.searchsorted(offsets, first[order], side="right") - 1
        return kids[order], years[article], rank[inverse]

    def records_in(self, year: int) -> list[ArticleRecord]:
        """The year's articles as records, in article-id order."""
        lo, hi = self.year_range(year)
        names = self._cached(
            "article_ids", lambda: self._article_ids.decode("utf-8").split("\0")
        )
        base, top = self._offsets[lo], self._offsets[hi]
        ids = self._ids[base:top].tolist()
        major = self._major[base:top].tolist()
        bounds = (self._offsets[lo : hi + 1] - base).tolist()
        records = []
        for i, a, b in zip(range(lo, hi), bounds, bounds[1:]):
            kws = ids[a:b]
            records.append(
                ArticleRecord(
                    article_id=names[i],
                    year=year,
                    all_keywords=frozenset(kws),
                    major_keywords=frozenset(
                        kid for kid, flag in zip(kws, major[a:b]) if flag
                    ),
                )
            )
        return records

    def iter_records(self) -> Iterator[ArticleRecord]:
        for year in self.years:
            yield from self.records_in(year)

    def max_keyword_id(self) -> int:
        return self._cached(
            "max_id", lambda: int(self._ids.max()) if self._ids.size else -1
        )

    def digest(self) -> str:
        """SHA-256 of the store file's contents, its checksum trailer."""
        return self._cached("digest", lambda: _sha256(self._file_chunks()).hex())

    def _file_chunks(self) -> Iterator[bytes | memoryview]:
        """The store file's contents up to the checksum trailer."""
        years, offsets, ids = self.csr(ALL)
        yield _HEADER.pack(
            _MAGIC, _STORE_VERSION, len(years), len(ids), len(self._article_ids)
        )
        for column, dtype in ((offsets, "<i8"), (years, "<i4"), (ids, "<u4")):
            yield memoryview(np.ascontiguousarray(column, dtype=dtype))
        yield memoryview(np.packbits(self._major, bitorder="little"))
        yield self._article_ids


def _sha256(chunks: Iterable[bytes | memoryview]) -> bytes:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()


def _token_table(ontology: Ontology, config: FilterConfig) -> dict[str, int | None]:
    """Each code, and ``*`` and the code, resolved: the keyword id, its
    complement for Major, or None if the branch filter drops the code.

    The vocabulary holds no code the token rules would change (`load_ontology`
    refuses surrounding whitespace and a leading ``*``), so a token found
    here resolves as those rules would resolve it.
    """
    table: dict[str, int | None] = {}
    for d in ontology.descriptors:
        if is_eligible(d, config.branch_filter):
            table[d.external_code] = d.id
            table["*" + d.external_code] = ~d.id
        else:
            table[d.external_code] = table["*" + d.external_code] = None
    return table


def _resolve(
    table: dict[str, int | None], token: str, stats: IngestStats
) -> int | None:
    """A token the table lacks, by the token rules: trimmed, skipped if
    empty, Major if it starts with ``*``, counted if its code is unknown."""
    token = token.strip()
    if not token:
        return None
    try:
        kid = table[token.lstrip("*")]
    except KeyError:
        stats.unknown_keyword_codes += 1
        return None
    if kid is not None and token[0] == "*":
        return ~kid
    return kid


def _admit(
    store: CorpusStore,
    table: dict[str, int | None],
    config: FilterConfig,
    article_id: str,
    year: int | None,
    pub_types: Iterable[str],
    tokens: Iterable[str],
) -> None:
    """Resolve one parsed article's keyword tokens, apply the admission
    rules, and append the article to the column tails or count its
    rejection.  The readers have refused a NUL in, or an over-long,
    ``article_id``."""
    stats = store._stats
    # Each keyword id, and whether any of its copies is Major.
    major_of: dict[int, bool] = {}
    for token in tokens:
        try:
            kid = table[token]
        except KeyError:
            kid = _resolve(table, token, stats)
        if kid is None:
            continue
        if kid < 0:
            major_of[~kid] = True
        elif kid not in major_of:
            major_of[kid] = False
    if PUB_TYPES.isdisjoint(pub_types):
        stats.rejected_pub_type += 1
    elif year is None or year < config.min_year or year not in _INT32:
        stats.rejected_year += 1
    elif len(major_of) < MIN_KEYWORDS:
        stats.rejected_too_few_keywords += 1
    else:
        try:
            name = article_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(f"article id {article_id!r} is not UTF-8") from exc
        ids = sorted(major_of)
        store._tail_years.append(year)
        store._tail_counts.append(len(ids))
        store._tail_ids.fromlist(ids)
        store._tail_major.extend(map(major_of.__getitem__, ids))
        store._tail_names += name + b"\0"
        stats.accepted += 1


def _id_too_long(article_id: str) -> bool:
    # A character takes at most 4 bytes; a lone surrogate, which the store
    # refuses anyway, counts 3.
    return len(article_id) > _MAX_ID_BYTES // 4 and (
        len(article_id.encode("utf-8", "surrogatepass")) > _MAX_ID_BYTES
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
    config = config or FilterConfig()
    table = _token_table(ontology, config)
    store = CorpusStore()
    stats = store.stats
    for lineno, line in numbered_lines(stream, CorpusError):
        parts = line.split("\t")
        if len(parts) != 4:
            _reject_line(stats, lineno, "expected 4 fields, got %d", len(parts))
            continue
        article_id, year_text, pub_type, kw_text = parts
        if "\0" in article_id:
            _reject_line(stats, lineno, "article id %r contains NUL", article_id)
            continue
        if _id_too_long(article_id):
            _reject_line(
                stats, lineno, "article id over %d bytes: %r...", _MAX_ID_BYTES,
                article_id[:16],
            )
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
        _admit(store, table, config, article_id, year, pub_types, kw_text.split(";"))
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

    A record's id is its ``MedlineCitation/PMID`` and its year the earliest
    year among its dated elements.  Records missing a year are skipped with
    a counter, records missing that PMID or with one over 64 bytes are
    counted as malformed, and malformed XML aborts with the parser's
    position.
    """
    import xml.etree.ElementTree as ET

    config = config or FilterConfig()
    table = _token_table(ontology, config)
    store = CorpusStore()
    try:
        for _, article in ET.iterparse(stream, events=("end",)):
            if article.tag != "PubmedArticle":
                continue
            # The record's own PMID; a cited article's sits deeper.
            pmid = article.findtext("MedlineCitation/PMID")
            if not pmid or _id_too_long(pmid):
                store._stats.rejected_malformed += 1
                _warn(
                    "PubmedArticle without MedlineCitation/PMID, or with one "
                    "over %d bytes, skipped", _MAX_ID_BYTES,
                )
                article.clear()
                continue
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
                major = descriptor.get("MajorTopicYN", "N") == "Y"
                tokens.append("*" + code if major else code)
            years = _xml_years(article)
            year = min(years) if years else None
            _admit(store, table, config, pmid, year, pub_types, tokens)
            article.clear()
    except ET.ParseError as exc:
        raise CorpusError(f"malformed XML: {exc}") from exc
    return store


# --- binary store serialization -------------------------------------------


def _fixed_width(names: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The NUL-terminated article ids as one fixed-width bytes array, and
    their lengths in bytes.

    Each id is padded with at least one NUL, which no id contains, so the
    array orders the ids as bytes do; UTF-8 bytes sort as their code points.
    """
    blob = np.frombuffer(names, np.uint8)
    ends = np.flatnonzero(blob == 0)
    starts = np.concatenate(([0], ends + 1))[:-1]
    lengths = ends - starts
    width = int(lengths.max(initial=0)) + 1
    padded = np.concatenate((blob, np.zeros(width, np.uint8)))
    grid = np.lib.stride_tricks.sliding_window_view(padded, width)[starts]
    grid[np.arange(width) >= lengths[:, None]] = 0
    return grid.view(f"S{width}").ravel(), lengths


def save_store(store: CorpusStore, out: BinaryIO) -> None:
    """Write the store file: header and columns, then their SHA-256."""
    for chunk in store._file_chunks():
        out.write(chunk)
    out.write(bytes.fromhex(store.digest()))


def load_store(src: BinaryIO) -> CorpusStore:
    """Read a store file, checking its structure and then its checksum."""
    data = src.read()
    magic = data[: len(_MAGIC)]
    if magic != _MAGIC:
        raise CorpusError(f"bad magic {magic!r}; not a store file")
    if len(data) == len(_MAGIC):
        raise CorpusError("truncated store file")
    version = data[len(_MAGIC)]
    if version != _STORE_VERSION:
        raise CorpusError(f"unsupported store version {version}; re-run ingest")
    if len(data) < _HEADER.size:
        raise CorpusError("truncated store file")
    _, _, n, n_ids, n_names = _HEADER.unpack_from(data)
    sizes = (8 * (n + 1), 4 * n, 4 * n_ids, (n_ids + 7) // 8, n_names)
    expected = _HEADER.size + sum(sizes) + _TRAILER_SIZE
    if len(data) < expected:
        raise CorpusError("truncated store file")
    if len(data) > expected:
        raise CorpusError("trailing bytes after the checksum")
    starts = list(itertools.accumulate(sizes, initial=_HEADER.size))
    offsets = np.frombuffer(data, "<i8", n + 1, starts[0])
    years = np.frombuffer(data, "<i4", n, starts[1])
    ids = np.frombuffer(data, "<u4", n_ids, starts[2])
    packed = np.frombuffer(data, np.uint8, sizes[3], starts[3])
    names = data[starts[4] : starts[5]]

    if offsets[0] != 0 or offsets[-1] != n_ids or (np.diff(offsets) < 0).any():
        raise CorpusError("keyword offsets do not rise monotonically to the id count")
    if (np.diff(years) < 0).any():
        raise CorpusError("article years decrease")
    first = np.zeros(n_ids, dtype=bool)
    first[offsets[:-1][offsets[:-1] < n_ids]] = True
    if ((ids[1:] <= ids[:-1]) & ~first[1:]).any():
        raise CorpusError("keyword ids are not strictly ascending within an article")
    if names.count(b"\0") != n or (n_names and not names.endswith(b"\0")):
        raise CorpusError(f"article id count does not match the {n} articles")
    try:
        names.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"article id is not UTF-8: {exc}") from exc
    article_ids, _ = _fixed_width(names)
    if ((years[1:] == years[:-1]) & (article_ids[1:] <= article_ids[:-1])).any():
        raise CorpusError("article ids are not strictly ascending within a year")
    article_ids.sort()
    if (article_ids[1:] == article_ids[:-1]).any():
        raise CorpusError("an article id repeats in another year")
    checksum = _sha256([memoryview(data)[:-_TRAILER_SIZE]])
    if checksum != data[-_TRAILER_SIZE:]:
        raise CorpusError("store checksum mismatch; the file is corrupt")

    store = CorpusStore()
    major = np.unpackbits(packed, count=n_ids, bitorder="little").view(bool)
    store._set_columns(years, offsets, ids, major, names, checksum.hex())
    return store
