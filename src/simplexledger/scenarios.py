"""End-to-end verification: synthetic corpora checked against the oracle.

Each scenario generates a corpus, runs `tabulate` and the brute-force
oracle for every order and refinement, and compares column by column, year
by year.  A scenario may also declare a qualitative
expectation about its rate or coverage series.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO

from simplexledger.corpus import REFINEMENTS
from simplexledger.ledger import (
    SERIES_COLUMNS,
    LedgerConfig,
    LedgerSeries,
    oracle_tabulate,
    tabulate,
)
from simplexledger.metrics import build_metrics
from simplexledger.synth import SynthParams, generate_synthetic

REPORT_COLUMNS = ["scenario", "k", "refinement", "status", "detail"]


class ScenarioError(ValueError):
    """Raised for unusable scenario definitions."""


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    params: SynthParams
    expectation: str = "none"
    description: str = ""


@dataclass
class ScenarioReport:
    scenario: str
    ok: bool
    rows: list[dict[str, str]] = field(default_factory=list)

    def add(self, k: int, refinement: str, status: str, detail: str = "") -> None:
        self.rows.append(
            {
                "scenario": self.scenario,
                "k": str(k),
                "refinement": refinement,
                "status": status,
                "detail": detail,
            }
        )
        if status != "ok":
            self.ok = False


def load_scenarios(path: str | Path | None = None) -> list[ScenarioSpec]:
    """Read a scenario catalog; defaults to the packaged one."""
    if path is None:
        text = (
            resources.files("simplexledger") / "data" / "scenarios.json"
        ).read_text()
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    specs = []
    names = set()
    for entry in raw:
        name = entry["name"]
        if name in names:
            raise ScenarioError(f"duplicate scenario name {name!r}")
        names.add(name)
        specs.append(
            ScenarioSpec(
                name=name,
                params=SynthParams.from_json(entry["params"]),
                expectation=entry.get("expectation", "none"),
                description=entry.get("description", ""),
            )
        )
    return specs


def _compare(exact: LedgerSeries, oracle: LedgerSeries) -> list[str]:
    problems = []
    if exact.years != oracle.years:
        return [f"year axis differs: {exact.years} vs {oracle.years}"]
    for col in SERIES_COLUMNS:
        a, b = getattr(exact, col), getattr(oracle, col)
        for i, year in enumerate(exact.years):
            if a[i] != b[i]:
                problems.append(f"{col}@{year}: pipeline {a[i]} != oracle {b[i]}")
    return problems


def _check_expectation(expectation: str, oracle: LedgerSeries) -> str | None:
    """None means the qualitative expectation holds."""
    if expectation == "none":
        return None
    rows = build_metrics(oracle)
    if expectation == "r_p_always_one":
        bad = [r.year for r in rows if r.r_p is not None and r.r_p != 1.0]
        return f"r_p != 1.0 in years {bad}" if bad else None
    if expectation == "r_p_zero_after_first_year":
        first = rows[0].year
        bad = [
            r.year
            for r in rows
            if r.year > first
            and ((r.r_p not in (None, 0.0)) or r.r_m not in (None, 0.0))
        ]
        return f"late innovation in years {bad}" if bad else None
    if expectation in ("densifying", "diffusicating"):
        coverages = [r.coverage for r in rows if r.coverage is not None]
        if len(coverages) < 2:
            return "too few coverage points"
        rising = coverages[-1] > coverages[0]
        if expectation == "densifying" and not rising:
            return f"coverage fell: {coverages[0]} -> {coverages[-1]}"
        if expectation == "diffusicating" and rising:
            return f"coverage rose: {coverages[0]} -> {coverages[-1]}"
        return None
    raise ScenarioError(f"unknown expectation {expectation!r}")


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """Generate, tabulate both ways, and compare; exact match required."""
    report = ScenarioReport(scenario=spec.name, ok=True)
    corpus = generate_synthetic(spec.params)
    for k in (1, 2, 3):
        for refinement in REFINEMENTS:
            oracle = oracle_tabulate(corpus, k, refinement)
            if (k, refinement) == (1, "all"):
                pairwise = oracle
            exact = tabulate(corpus, LedgerConfig(k=k, refinement=refinement))
            problems = _compare(exact, oracle)
            if problems:
                report.add(k, refinement, "mismatch", "; ".join(problems[:5]))
            else:
                report.add(k, refinement, "ok")
    # Qualitative check on the pairwise / all-refinement view.
    failure = _check_expectation(spec.expectation, pairwise)
    if failure is not None:
        report.add(1, "all", "expectation-failed", failure)
    return report


def write_report_csv(reports: list[ScenarioReport], out: IO[str]) -> None:
    writer = csv.DictWriter(out, fieldnames=REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        for row in report.rows:
            writer.writerow(row)
