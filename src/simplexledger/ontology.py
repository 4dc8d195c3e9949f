"""Keyword vocabulary with tree positions and branch eligibility rules.

The vocabulary is loaded from a plain TSV export rather than the official
XML distribution; a row is ``external_code <TAB> name <TAB> tree_numbers``
with tree numbers ``;``-separated.  Loading assigns dense integer ids in
source order, so the same file always produces the same id assignment.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, TextIO

# Branches retained by default: the biomedical-oriented subset of the
# top-level tree categories.
DEFAULT_BRANCHES = frozenset("ABCDEFGJLN")

_VALID_BRANCH_CODES = frozenset(string.ascii_uppercase)
# A tree number's branch letter, or "" for an empty tree number.
_branch = operator.itemgetter(slice(1))


class OntologyError(ValueError):
    """Raised for malformed or inconsistent vocabulary input."""


@dataclass(frozen=True)
class Descriptor:
    """One vocabulary entry: external code, display name, tree positions."""

    id: int
    external_code: str
    name: str
    tree_numbers: tuple[str, ...]


@dataclass(frozen=True)
class BranchFilter:
    """Set of allowed single-letter top-level branch codes."""

    allowed: frozenset[str] = DEFAULT_BRANCHES

    def __post_init__(self) -> None:
        bad = set(self.allowed) - _VALID_BRANCH_CODES
        if bad:
            raise OntologyError(f"invalid branch codes: {sorted(bad)}")


def is_eligible(descriptor: Descriptor, branch_filter: BranchFilter) -> bool:
    """A descriptor is eligible if any of its tree numbers starts with an
    allowed branch letter.  No tree numbers means ineligible."""
    return not branch_filter.allowed.isdisjoint(map(_branch, descriptor.tree_numbers))


@dataclass
class Ontology:
    """Immutable-after-load vocabulary; a descriptor's id is its index."""

    descriptors: list[Descriptor] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.descriptors)


def numbered_lines(source: Iterable, error: type) -> Iterator[tuple[int, str]]:
    """The non-empty lines of a TSV source, numbered from 1, without their
    endings.  Bytes are decoded a line at a time, so that a non-UTF-8 byte
    raises ``error`` naming its line.  A text stream decodes ahead of the
    line it yields, so its decode error can only name the last good line."""
    lineno = 0
    try:
        for lineno, raw in enumerate(source, start=1):
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"line {lineno}: not UTF-8: {exc}") from None
            line = raw.rstrip("\n").rstrip("\r")
            if line:
                yield lineno, line
    except UnicodeDecodeError as exc:
        raise error(f"after line {lineno}: not UTF-8: {exc}") from None


def load_ontology(source: Iterable[str] | TextIO | BinaryIO) -> Ontology:
    """Build an Ontology from TSV rows, assigning dense ids in source order.

    A leading header row is detected by a literal first cell
    ``external_code`` and skipped.  Duplicate codes, codes with surrounding
    whitespace or a leading ``*``, malformed rows and non-UTF-8 bytes are
    rejected with the offending code / line number.
    """
    ontology = Ontology()
    codes: set[str] = set()
    for lineno, line in numbered_lines(source, OntologyError):
        parts = line.split("\t")
        if lineno == 1 and parts[0] == "external_code":
            continue
        if len(parts) != 3:
            raise OntologyError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        code, name, trees = parts
        if not code:
            raise OntologyError(f"line {lineno}: empty external code")
        if code != code.strip() or code[0] == "*":
            # A corpus keyword token is trimmed, and a leading ``*`` marks it
            # Major, so no token could name this code.
            raise OntologyError(
                f"line {lineno}: external code {code!r} has surrounding "
                "whitespace or a leading '*'"
            )
        if code in codes:
            raise OntologyError(f"duplicate external code {code!r} at line {lineno}")
        tree_numbers = tuple(filter(None, trees.split(";")))
        ontology.descriptors.append(
            Descriptor(len(ontology.descriptors), code, name, tree_numbers)
        )
        codes.add(code)
    return ontology
