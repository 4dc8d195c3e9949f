"""Keyword vocabulary with tree positions and branch eligibility rules.

The vocabulary is loaded from a plain TSV export rather than the official
XML distribution; a row is ``external_code <TAB> name <TAB> tree_numbers``
with tree numbers ``;``-separated.  Loading assigns dense integer ids in
source order, so the same file always produces the same id assignment.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable, TextIO

# Branches retained by default: the biomedical-oriented subset of the
# top-level tree categories.
DEFAULT_BRANCHES = frozenset("ABCDEFGJLN")

_VALID_BRANCH_CODES = frozenset(string.ascii_uppercase)


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
    return any(t[:1] in branch_filter.allowed for t in descriptor.tree_numbers)


@dataclass
class Ontology:
    """Immutable-after-load vocabulary with id and code lookups."""

    descriptors: list[Descriptor] = field(default_factory=list)
    _by_code: dict[str, Descriptor] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.descriptors)

    def by_code(self, external_code: str) -> Descriptor | None:
        return self._by_code.get(external_code)

    def eligible_ids(self, branch_filter: BranchFilter | None = None) -> frozenset[int]:
        branch_filter = branch_filter or BranchFilter()
        return frozenset(
            d.id for d in self.descriptors if is_eligible(d, branch_filter)
        )


def load_ontology(source: Iterable[str] | TextIO) -> Ontology:
    """Build an Ontology from TSV rows, assigning dense ids in source order.

    A leading header row is detected by a literal first cell
    ``external_code`` and skipped.  Duplicate codes and malformed rows are
    rejected with the offending code / line number.
    """
    ontology = Ontology()
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
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
        if code in ontology._by_code:
            raise OntologyError(f"duplicate external code {code!r} at line {lineno}")
        tree_numbers = tuple(t for t in trees.split(";") if t)
        descriptor = Descriptor(
            id=len(ontology.descriptors),
            external_code=code,
            name=name,
            tree_numbers=tree_numbers,
        )
        ontology.descriptors.append(descriptor)
        ontology._by_code[code] = descriptor
    return ontology
