"""Command-line surface: ingest, run, synth, verify, report.

A `run` owns its output directory via a lock file and writes, per order and
refinement: ledger CSV, metrics CSV, fit CSV, and SVG charts, plus a run
manifest recording the config hash, input digests, and tool version.  All
randomness is seed-pinned; CSV output is byte-deterministic for identical
config and inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import simplexledger
from simplexledger.corpus import (
    REFINEMENTS,
    CorpusStore,
    FilterConfig,
    ingest_pubmed_xml,
    ingest_tsv,
    load_store,
    save_store,
)
from simplexledger.fitting import (
    FIT_CSV_COLUMNS,
    PRESET_WINDOWS,
    FitError,
    fit_csv_row,
    fit_exponential,
    fit_linear,
)
from simplexledger.ledger import LedgerConfig, LedgerSeries, tabulate
from simplexledger.metrics import build_metrics, paired_series, write_metrics_csv
from simplexledger.ontology import BranchFilter, load_ontology
from simplexledger.plots import svg_line_chart
from simplexledger.scenarios import load_scenarios, run_scenario, write_report_csv
from simplexledger.synth import SynthParams, generate_synthetic

LEDGER_CSV_COLUMNS = [
    "year",
    "k",
    "refinement",
    "new_simplices",
    "new_peripheral",
    "new_keywords",
    "articles_processed",
    "cum_simplices",
    "cum_keywords",
    "cum_articles",
]


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _filter_config(args: argparse.Namespace) -> FilterConfig:
    branch_filter = (
        BranchFilter(frozenset(args.branches)) if args.branches else BranchFilter()
    )
    return FilterConfig(min_year=args.min_year, branch_filter=branch_filter)


def _load_corpus(args: argparse.Namespace) -> tuple[CorpusStore, list[Path]]:
    """Corpus from a store file or from raw input + ontology."""
    inputs: list[Path] = []
    if getattr(args, "store", None):
        path = Path(args.store)
        inputs.append(path)
        with open(path, "rb") as f:
            return load_store(f), inputs
    if not args.input or not args.ontology:
        raise SystemExit("need either --store or both --input and --ontology")
    ontology_path, input_path = Path(args.ontology), Path(args.input)
    inputs.extend([ontology_path, input_path])
    with open(ontology_path, encoding="utf-8") as f:
        ontology = load_ontology(f)
    config = _filter_config(args)
    if args.format == "xml":
        with open(input_path, "rb") as f:
            return ingest_pubmed_xml(f, ontology, config), inputs
    with open(input_path, encoding="utf-8") as f:
        return ingest_tsv(f, ontology, config), inputs


class _OutputLock:
    """Exclusive ownership of an output directory."""

    def __init__(self, directory: Path) -> None:
        self.path = directory / ".lock"
        directory.mkdir(parents=True, exist_ok=True)

    def __enter__(self) -> "_OutputLock":
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise SystemExit(
                f"output directory is locked by {self.path}; remove the lock "
                "if no other run is active"
            )
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc: object) -> None:
        self.path.unlink(missing_ok=True)


def _write_ledger_csv(series: LedgerSeries, path: Path) -> None:
    cum_s = series.cum_simplices
    cum_k = series.cum_keywords
    cum_a = series.cum_articles
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(LEDGER_CSV_COLUMNS)
        for i, year in enumerate(series.years):
            writer.writerow(
                [
                    year,
                    series.k,
                    series.refinement,
                    series.new_simplices[i],
                    series.new_peripheral[i],
                    series.new_keywords[i],
                    series.articles_processed[i],
                    cum_s[i],
                    cum_k[i],
                    cum_a[i],
                ]
            )


def _consistency_check(series: LedgerSeries) -> None:
    """Re-verify prefix sums and bounds before artifacts are accepted."""
    total = 0
    for i in range(len(series.years)):
        total += series.new_simplices[i]
        if series.cum_simplices[i] != total:
            raise SystemExit(f"cumulative mismatch at {series.years[i]}")
        if not 0 <= series.new_peripheral[i] <= series.new_simplices[i]:
            raise SystemExit(f"peripheral bound violated at {series.years[i]}")


def _parse_window(text: str) -> tuple[float, float]:
    if text in PRESET_WINDOWS:
        return PRESET_WINDOWS[text]
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise SystemExit(f"bad fit window {text!r}; use a preset or LO:HI")


def _run_fits(rows, year_window, out_path: Path, k: int, refinement: str) -> None:
    """Linear fit on the article axis, exponential on the vocabulary axis."""
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(FIT_CSV_COLUMNS)
        selections = [("full", rows)]
        if year_window is not None:
            lo, hi = year_window
            selections.append(
                ("window", [r for r in rows if lo <= r.year <= hi])
            )
        for _, selection in selections:
            if len(selection) < 2:
                continue
            by_articles = paired_series(selection, "articles")
            by_vocab = paired_series(selection, "vocabulary")
            try:
                result = fit_linear(by_articles["cum_simplices"])
                writer.writerow(fit_csv_row(result, k, refinement, "articles"))
            except FitError:
                pass
            try:
                result = fit_exponential(by_vocab["cum_simplices"])
                writer.writerow(fit_csv_row(result, k, refinement, "vocabulary"))
            except FitError:
                pass


def _write_charts(rows, out_dir: Path, k: int, refinement: str) -> list[str]:
    """The four SVG charts of one (k, refinement); returns their file names."""
    tag = f"k{k}_{refinement}"
    by_articles = paired_series(rows, "articles")
    by_vocab = paired_series(rows, "vocabulary")
    by_year = paired_series(rows, "year")
    svg_line_chart(
        [("cumulative combinations", by_articles["cum_simplices"])],
        out_dir / f"c_vs_articles_{tag}.svg",
        title=f"Distinct combinations vs articles ({tag})",
        xlabel="cumulative articles",
        ylabel="cumulative distinct combinations",
    )
    series = [("cumulative combinations", by_vocab["cum_simplices"])]
    try:
        fit = fit_exponential(by_vocab["cum_simplices"])
        import math

        overlay = [
            (x, fit.A * math.exp(fit.slope * x))
            for x, _ in by_vocab["cum_simplices"]
        ]
        series.append(("exponential fit", overlay))
    except FitError:
        pass
    svg_line_chart(
        series,
        out_dir / f"c_vs_vocab_{tag}.svg",
        title=f"Distinct combinations vs vocabulary ({tag})",
        xlabel="cumulative vocabulary",
        ylabel="cumulative distinct combinations",
        log_y=True,
    )
    svg_line_chart(
        [("coverage", by_vocab["coverage"])],
        out_dir / f"coverage_vs_vocab_{tag}.svg",
        title=f"Coverage of possible combinations ({tag})",
        xlabel="cumulative vocabulary",
        ylabel="coverage fraction",
        log_y=True,
    )
    svg_line_chart(
        [
            ("conceptual rate", by_year["r_m"]),
            ("peripheral rate", by_year["r_p"]),
        ],
        out_dir / f"rates_{tag}.svg",
        title=f"Innovation rates ({tag})",
        xlabel="year",
        ylabel="rate",
    )
    return [
        f"{stem}_{tag}.svg"
        for stem in ("c_vs_articles", "c_vs_vocab", "coverage_vs_vocab", "rates")
    ]


def cmd_ingest(args: argparse.Namespace) -> int:
    store, _ = _load_corpus(args)
    with open(args.output, "wb") as f:
        save_store(store, f)
    stats = store.stats
    print(f"accepted {stats.accepted} articles into {args.output}")
    print(
        f"rejected: pub-type {stats.rejected_pub_type}, "
        f"keywords {stats.rejected_too_few_keywords}, "
        f"year {stats.rejected_year}, malformed {stats.rejected_malformed}; "
        f"unknown keyword codes {stats.unknown_keyword_codes}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.params:
        raw = json.loads(Path(args.params).read_text())
        from simplexledger.scenarios import _params_from_json

        params = _params_from_json(raw)
    else:
        params = SynthParams(
            n_articles=args.n_articles,
            vocab_size=args.vocab_size,
            year_start=args.year_start,
            year_end=args.year_end,
            keywords_per_article=args.keywords,
            major_fraction=args.major_fraction,
            new_keywords_per_year=args.new_per_year,
            seed=args.seed,
        )
    store = generate_synthetic(params)
    with open(args.output, "wb") as f:
        save_store(store, f)
    print(f"wrote {len(store)} synthetic articles to {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    corpus, inputs = _load_corpus(args)
    ks = [int(x) for x in args.k.split(",")]
    refinements = args.refinement.split(",")
    for refinement in refinements:
        if refinement not in REFINEMENTS:
            raise SystemExit(f"unknown refinement {refinement!r}")
    year_window = _parse_window(args.fit_window) if args.fit_window else None

    run_config = {
        "command": "run",
        "k": ks,
        "refinement": refinements,
        "min_year": args.min_year,
        "branches": args.branches,
        "shard_count": args.shard_count,
        "memory_budget": args.memory_budget,
        "fit_window": args.fit_window,
    }
    config_hash = hashlib.sha256(
        json.dumps(run_config, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "tool_version": simplexledger.__version__,
        "config": run_config,
        "config_hash": config_hash,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "artifacts": [],
        "status": "partial",
    }

    with _OutputLock(out_dir):
        manifest_path = out_dir / "run_manifest.json"
        spill_root = os.environ.get("SLEDGER_TMP") or str(out_dir / "spill")
        try:
            for k in ks:
                for refinement in refinements:
                    tag = f"k{k}_{refinement}"
                    config = LedgerConfig(
                        k=k,
                        refinement=refinement,
                        shard_count=args.shard_count,
                        memory_budget_bytes=args.memory_budget,
                        spill_directory=spill_root,
                    )
                    series = tabulate(corpus, config)
                    _consistency_check(series)
                    ledger_csv = out_dir / f"ledger_{tag}.csv"
                    _write_ledger_csv(series, ledger_csv)
                    rows = build_metrics(series)
                    metrics_csv = out_dir / f"metrics_{tag}.csv"
                    with open(metrics_csv, "w", newline="") as f:
                        write_metrics_csv(rows, f)
                    fits_csv = out_dir / f"fits_{tag}.csv"
                    _run_fits(rows, year_window, fits_csv, k, refinement)
                    charts = _write_charts(rows, out_dir, k, refinement)
                    manifest["artifacts"] += [
                        ledger_csv.name,
                        metrics_csv.name,
                        fits_csv.name,
                        *charts,
                    ]
        except Exception:
            manifest_path.write_text(json.dumps(manifest, indent=1))
            raise
        manifest["status"] = "complete"
        manifest_path.write_text(json.dumps(manifest, indent=1))
    print(f"run complete; artifacts in {out_dir}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    specs = load_scenarios(args.scenarios)
    if args.only:
        wanted = set(args.only.split(","))
        specs = [s for s in specs if s.name in wanted]
    reports = [run_scenario(spec) for spec in specs]
    with open(args.out, "w", newline="") as f:
        write_report_csv(reports, f)
    failed = [r.scenario for r in reports if not r.ok]
    for report in reports:
        print(f"{report.scenario}: {'ok' if report.ok else 'FAILED'}")
    if failed:
        print(f"mismatches in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Recompute fits and charts from an existing metrics CSV."""
    from simplexledger.metrics import MetricsRow

    rows = []
    with open(args.metrics, newline="") as f:
        for record in csv.DictReader(f):
            def num(field: str) -> float | None:
                return float(record[field]) if record[field] != "" else None

            rows.append(
                MetricsRow(
                    year=int(record["year"]),
                    k=int(record["k"]),
                    refinement=record["refinement"],
                    new_simplices=int(record["new_simplices"]),
                    cum_simplices=int(record["cum_simplices"]),
                    new_peripheral=int(record["new_peripheral"]),
                    new_mesh=int(record["new_mesh"]),
                    cum_mesh=int(record["cum_mesh"]),
                    cum_articles=int(record["cum_articles"]),
                    coverage=num("coverage"),
                    r_m=num("r_m"),
                    r_p=num("r_p"),
                    r_c=num("r_c"),
                )
            )
    if not rows:
        raise SystemExit("metrics CSV has no rows")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k, refinement = rows[0].k, rows[0].refinement
    year_window = _parse_window(args.fit_window) if args.fit_window else None
    _run_fits(rows, year_window, out_dir / f"fits_k{k}_{refinement}.csv", k, refinement)
    _write_charts(rows, out_dir, k, refinement)
    print(f"report written to {out_dir}")
    return 0


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", help="existing binary corpus store")
    parser.add_argument("--input", help="raw corpus file (TSV or PubMed XML)")
    parser.add_argument("--ontology", help="descriptor TSV")
    parser.add_argument("--format", choices=("tsv", "xml"), default="tsv")
    parser.add_argument("--min-year", type=int, default=1902)
    parser.add_argument(
        "--branches", default=None, help="allowed branch letters, e.g. ABCDEFGJLN"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexledger",
        description="Exact first-occurrence tallies of keyword combinations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="filter a raw corpus into a binary store")
    _add_corpus_args(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus store")
    p.add_argument("--params", help="JSON file of generator parameters")
    p.add_argument("--n-articles", type=int, default=1000)
    p.add_argument("--vocab-size", type=int, default=100)
    p.add_argument("--year-start", type=int, default=1990)
    p.add_argument("--year-end", type=int, default=2009)
    p.add_argument("--keywords", type=int, default=6)
    p.add_argument("--major-fraction", type=float, default=0.5)
    p.add_argument("--new-per-year", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="tabulate, derive metrics, fit, and chart")
    _add_corpus_args(p)
    p.add_argument("--k", default="1", help="comma-separated orders, e.g. 1,2,3")
    p.add_argument(
        "--refinement", default="all", help="comma-separated: all,major"
    )
    p.add_argument("--shard-count", type=int, default=1)
    p.add_argument("--memory-budget", type=int, default=256 << 20)
    p.add_argument(
        "--fit-window",
        default=None,
        help="year window for fits: a preset name or LO:HI",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the synthetic-vs-oracle scenario suite")
    p.add_argument("--scenarios", default=None, help="scenario catalog JSON")
    p.add_argument("--only", default=None, help="comma-separated scenario names")
    p.add_argument("--out", default="scenario_report.csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="fits and charts from an existing metrics CSV")
    p.add_argument("--metrics", required=True)
    p.add_argument("--fit-window", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
