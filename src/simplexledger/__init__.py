"""Exact first-occurrence tabulation of keyword combinations in publication corpora.

The pipeline: load a keyword ontology, ingest and filter articles, enumerate
all order-k keyword combinations per article, maintain an exact year-granular
first-occurrence ledger, then derive growth/coverage/innovation-rate series
and model fits.

Each exported name loads its submodule on first use, so that importing
the package, or one of its modules, loads no module it does not need.
"""

import importlib

__version__ = "0.1.0"


def lazy_loader(namespace: dict, modules: dict[str, str]):
    """A module ``__getattr__`` that imports a name of ``modules`` from its
    submodule on first use and binds it in ``namespace``, the globals."""

    def __getattr__(name: str):
        if name not in modules:
            owner = namespace["__name__"]
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{modules[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__


# Each exported name and the submodule that defines it.
_EXPORTS = {
    "ArticleRecord": "corpus",
    "BranchFilter": "ontology",
    "CorpusStore": "corpus",
    "Descriptor": "ontology",
    "FilterConfig": "ingest",
    "FitResult": "fitting",
    "LedgerConfig": "ledger",
    "LedgerSeries": "ledger",
    "MetricsRow": "metrics",
    "Ontology": "ontology",
    "SynthParams": "synth",
    "build_metrics": "metrics",
    "coverage_fraction": "metrics",
    "exact_binomial": "metrics",
    "fit_exponential": "fitting",
    "fit_linear": "fitting",
    "generate_synthetic": "synth",
    "ingest_pubmed_xml": "ingest",
    "ingest_tsv": "ingest",
    "keyword_debut_years": "ledger",
    "load_ontology": "ontology",
    "oracle_tabulate": "ledger",
    "paired_series": "metrics",
    "tabulate": "ledger",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_loader(globals(), _EXPORTS)
