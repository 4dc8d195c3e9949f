"""Deterministic synthetic corpus generation for desk-scale verification.

Keyword ids enter the vocabulary on a per-year schedule and every scheduled
keyword is force-used in its debut year, so debut years (and therefore
peripheral/core classification) are fully controlled by the parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from simplexledger.corpus import ArticleRecord, CorpusStore


class SynthError(ValueError):
    """Raised when parameters cannot produce a valid corpus."""


@dataclass(frozen=True)
class SynthParams:
    n_articles: int = 1000
    vocab_size: int = 100
    year_start: int = 1990
    year_end: int = 2009
    # int for a fixed per-article keyword count, (lo, hi) for uniform.
    keywords_per_article: int | tuple[int, int] = 6
    major_fraction: float = 0.5
    # int: that many new keywords every year; dict: explicit year -> count.
    # Unscheduled vocabulary enters in year_start.
    new_keywords_per_year: int | dict[int, int] | None = None
    # "entered": sample from all keywords entered so far;
    # "current-year": articles use only keywords debuting that year.
    sample_pool: str = "entered"
    # Optional explicit per-year article counts (overrides even spread).
    articles_per_year: dict[int, int] | None = None
    seed: int = 0

    def years(self) -> list[int]:
        return list(range(self.year_start, self.year_end + 1))

    @classmethod
    def from_json(cls, raw: dict) -> "SynthParams":
        """Parameters from a JSON object: year keys may be strings and
        ``keywords_per_article`` a two-element list."""
        data = dict(raw)
        for key in ("new_keywords_per_year", "articles_per_year"):
            value = data.get(key)
            if isinstance(value, dict):
                data[key] = {int(y): int(c) for y, c in value.items()}
        kpa = data.get("keywords_per_article")
        if isinstance(kpa, list):
            data["keywords_per_article"] = (int(kpa[0]), int(kpa[1]))
        return cls(**data)


def _validate(params: SynthParams) -> None:
    if params.n_articles <= 0 and params.articles_per_year is None:
        raise SynthError("n_articles must be positive")
    if params.vocab_size <= 0:
        raise SynthError("vocab_size must be positive")
    if params.year_end < params.year_start:
        raise SynthError("year_end before year_start")
    if not 0.0 <= params.major_fraction <= 1.0:
        raise SynthError("major_fraction must be in [0, 1]")
    if params.sample_pool not in ("entered", "current-year"):
        raise SynthError(f"unknown sample_pool {params.sample_pool!r}")


def _entry_schedule(params: SynthParams) -> dict[int, int]:
    """Per-year new-keyword counts; must fit within vocab_size."""
    years = params.years()
    schedule = params.new_keywords_per_year
    if schedule is None:
        per_year = {y: 0 for y in years}
        per_year[params.year_start] = params.vocab_size
    elif isinstance(schedule, int):
        per_year = {y: schedule for y in years}
    else:
        per_year = {y: int(schedule.get(y, 0)) for y in years}
    total = sum(per_year.values())
    if total > params.vocab_size:
        raise SynthError(
            f"entry schedule needs {total} keywords but vocab_size is "
            f"{params.vocab_size}"
        )
    if total == 0:
        raise SynthError("entry schedule introduces no keywords")
    return per_year


def _article_counts(params: SynthParams) -> dict[int, int]:
    years = params.years()
    if params.articles_per_year is not None:
        return {y: int(params.articles_per_year.get(y, 0)) for y in years}
    base, extra = divmod(params.n_articles, len(years))
    return {y: base + (1 if i < extra else 0) for i, y in enumerate(years)}


def generate_synthetic(params: SynthParams) -> CorpusStore:
    """Build a corpus deterministically from the parameters and seed."""
    _validate(params)
    schedule = _entry_schedule(params)
    counts = _article_counts(params)
    rng = random.Random(params.seed)

    store = CorpusStore()
    entered: list[int] = []
    next_id = 0
    serial = 0
    for year in params.years():
        debuts = list(range(next_id, next_id + schedule[year]))
        next_id += schedule[year]
        entered.extend(debuts)
        n_art = counts[year]
        if n_art == 0:
            if debuts:
                raise SynthError(
                    f"year {year}: {len(debuts)} keywords debut but no "
                    "articles are scheduled to carry them"
                )
            continue
        pool = debuts if params.sample_pool == "current-year" else entered
        if len(pool) < 2:
            raise SynthError(f"year {year}: keyword pool too small ({len(pool)})")
        # Round-robin the debuts so each is used in its debut year.
        forced: list[list[int]] = [[] for _ in range(n_art)]
        for i, kid in enumerate(debuts):
            forced[i % n_art].append(kid)
        for i in range(n_art):
            if isinstance(params.keywords_per_article, int):
                m = params.keywords_per_article
            else:
                lo, hi = params.keywords_per_article
                m = rng.randint(lo, hi)
            m = max(m, 2, len(forced[i]))
            m = min(m, len(pool))
            chosen = set(forced[i])
            remaining = [kid for kid in pool if kid not in chosen]
            chosen.update(rng.sample(remaining, m - len(chosen)))
            major = frozenset(
                kid for kid in sorted(chosen) if rng.random() < params.major_fraction
            )
            store.add(
                ArticleRecord(
                    article_id=f"syn{serial:07d}",
                    year=year,
                    all_keywords=frozenset(chosen),
                    major_keywords=major,
                )
            )
            serial += 1
    return store
