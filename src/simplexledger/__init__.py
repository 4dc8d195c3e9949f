"""Exact first-occurrence tabulation of keyword combinations in publication corpora.

The pipeline: load a keyword ontology, ingest and filter articles, enumerate
all order-k keyword combinations per article, maintain an exact year-granular
first-occurrence ledger, then derive growth/coverage/innovation-rate series
and model fits.
"""

__version__ = "0.1.0"

from simplexledger.ontology import BranchFilter, Descriptor, Ontology, load_ontology
from simplexledger.corpus import (
    ArticleRecord,
    CorpusStore,
    FilterConfig,
    ingest_pubmed_xml,
    ingest_tsv,
)
from simplexledger.synth import SynthParams, generate_synthetic
from simplexledger.ledger import (
    LedgerConfig,
    LedgerSeries,
    keyword_debut_years,
    oracle_tabulate,
    tabulate,
)
from simplexledger.metrics import (
    MetricsRow,
    build_metrics,
    coverage_fraction,
    exact_binomial,
    paired_series,
)
from simplexledger.fitting import FitResult, fit_exponential, fit_linear

__all__ = [
    "ArticleRecord",
    "BranchFilter",
    "CorpusStore",
    "Descriptor",
    "FilterConfig",
    "FitResult",
    "LedgerConfig",
    "LedgerSeries",
    "MetricsRow",
    "Ontology",
    "SynthParams",
    "build_metrics",
    "coverage_fraction",
    "exact_binomial",
    "fit_exponential",
    "fit_linear",
    "generate_synthetic",
    "ingest_pubmed_xml",
    "ingest_tsv",
    "keyword_debut_years",
    "load_ontology",
    "oracle_tabulate",
    "paired_series",
    "tabulate",
]
