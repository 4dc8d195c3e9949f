"""Command-line surface: ingest, run, synth, verify, report.

A `run` owns its output directory through an ``flock`` on ``.lock`` and
writes, per order and refinement: ledger CSV, metrics CSV, fit CSV, and SVG
charts, plus a run manifest recording the config hash, input digests, and
tool version.  The lock also guards the run's spill root: ``out/spill``, or
under ``$SLEDGER_TMP`` a directory named from the resolved output path, so
runs on different outputs never share one.  `run` is the only reader of
that variable.  Once the manifest says the run is complete, the spill root
is deleted; an interrupted run keeps it to resume from.  All randomness is
seed-pinned; CSV output is byte-deterministic for identical config and
inputs.

`metrics` writes and reads the per-year CSVs, and one writer makes the fits
and charts of both `run` and `report`: a `report` on a run's metrics CSV with
the same fit window reproduces that run's fits and charts.  The corpus flags
other than `--store` apply to raw input only, and `run --store` refuses them.
Every file a command writes whole, the store and each CSV, chart and
manifest, is written by `replace_on_success`: to a temporary file beside it,
renamed over it once whole.  The run manifest says ``partial``, listing the
artifacts already whole, until the last ledger's are, and then ``complete``.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import gc
import glob
import hashlib
import math
import os
import re
import shutil
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import simplexledger
from simplexledger.corpus import (
    REFINEMENTS,
    CorpusStore,
    load_store,
    replace_on_success,
    save_store,
)

# The names of the stages that only some commands use, each loaded on first
# use by the package's `lazy_loader` and bound here.  The readers, their
# filter and the ontology serve raw input alone, so that `run --store`
# compiles none of their modules; the ledger, metrics, fits and charts
# serve `run` and `report` alone, so that `ingest` compiles none of theirs.
# They stay attributes of this module because the benchmark's tracer
# (perfbench/tracer.py) and the tests wrap them here; the commands reach
# them through `_cli`, which looks each up in this module's globals when
# used, so a wrapper set beforehand is the one called, also when the module
# runs as ``__main__`` in a namespace of its own (``python -m cProfile -m
# simplexledger.cli``).
_STAGES = {
    "FilterConfig": "ingest",
    "ingest_pubmed_xml": "ingest",
    "ingest_tsv": "ingest",
    "BranchFilter": "ontology",
    "load_ontology": "ontology",
    "FIT_CSV_COLUMNS": "fitting",
    "PRESET_WINDOWS": "fitting",
    "FitError": "fitting",
    "fit_csv_row": "fitting",
    "fit_exponential": "fitting",
    "fit_linear": "fitting",
    "LedgerConfig": "ledger",
    "LedgerError": "ledger",
    "tabulate": "ledger",
    "build_metrics": "metrics",
    "paired_series": "metrics",
    "read_metrics_csv": "metrics",
    "write_ledger_csv": "metrics",
    "write_metrics_csv": "metrics",
    "svg_line_chart": "plots",
}
__getattr__ = _load_stage = simplexledger.lazy_loader(globals(), _STAGES)


class _Stages:
    def __getattr__(self, name: str):
        namespace = globals()
        return namespace[name] if name in namespace else _load_stage(name)


_cli = _Stages()


# Corpus flags that only raw input uses; `run --store` refuses them.
_INGEST_ONLY = ("ontology", "format", "min_year", "branches")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _filter_config(args: argparse.Namespace) -> _cli.FilterConfig:
    """The filter flags given; `FilterConfig`'s defaults fill the rest."""
    options: dict = {}
    if args.min_year is not None:
        options["min_year"] = args.min_year
    if args.branches:
        options["branch_filter"] = _cli.BranchFilter(frozenset(args.branches))
    return _cli.FilterConfig(**options)


def _load_corpus(args: argparse.Namespace) -> tuple[CorpusStore, list[Path]]:
    """Corpus from a store file or from raw input + ontology."""
    if getattr(args, "store", None):
        for name in _INGEST_ONLY:
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise SystemExit(f"{flag} applies to --input, not to --store")
        path = Path(args.store)
        with open(path, "rb") as f:
            return load_store(f), [path]
    if not (args.input and args.ontology):
        raise SystemExit("raw input needs both --input and --ontology")
    inputs = [Path(args.ontology), Path(args.input)]
    # Binary, so that the readers can name the line of a non-UTF-8 byte.
    with open(inputs[0], "rb") as f:
        ontology = _cli.load_ontology(f)
    ingest = _cli.ingest_pubmed_xml if args.format == "xml" else _cli.ingest_tsv
    with open(inputs[1], "rb") as f:
        return ingest(f, ontology, _filter_config(args)), inputs


class _OutputLock:
    """Exclusive ownership of an output directory.

    An ``flock`` on ``.lock``, an empty file, is held for the whole run.
    The kernel drops it when the process ends, however it ends, so a file
    left behind by a killed run does not block the next one.
    """

    def __init__(self, directory: Path) -> None:
        self.path = directory / ".lock"
        directory.mkdir(parents=True, exist_ok=True)

    def __enter__(self) -> "_OutputLock":
        self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise SystemExit(
                f"output directory is locked by another run ({self.path})"
            )
        return self

    def __exit__(self, *exc: object) -> None:
        # The file stays: unlinking it would let a run that opened it just
        # before lock a file the next run no longer sees.
        os.close(self.fd)


def _parse_window(text: str) -> tuple[float, float]:
    if text in _cli.PRESET_WINDOWS:
        return _cli.PRESET_WINDOWS[text]
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise SystemExit(f"bad fit window {text!r}; use a preset or LO:HI")


def _try_fit(fit, points):
    try:
        return fit(points)
    except _cli.FitError:
        return None


def _write_report(rows, k: int, refinement: str, window, out_dir: Path) -> list[str]:
    """Write the fits CSV and four SVG charts of one (k, refinement) and
    return their file names.  Cumulative combinations get a linear fit on
    articles and an exponential fit on vocabulary, over every year and then
    over the year window; the full-range exponential is the chart overlay."""
    # Loaded here, as ``json`` in the commands that write it, not with
    # every command.
    import csv

    tag = f"k{k}_{refinement}"
    by_articles = _cli.paired_series(rows, "articles", "cum_simplices")
    combinations = _cli.paired_series(rows, "vocabulary", "cum_simplices")
    selections = [(by_articles, combinations)]
    if window is not None:
        chosen = [r for r in rows if window[0] <= r.year <= window[1]]
        selections.append(
            (
                _cli.paired_series(chosen, "articles", "cum_simplices"),
                _cli.paired_series(chosen, "vocabulary", "cum_simplices"),
            )
        )
    fits = []
    for articles, vocab in selections:
        fits.append(("articles", _try_fit(_cli.fit_linear, articles)))
        fits.append(("vocabulary", _try_fit(_cli.fit_exponential, vocab)))
    with replace_on_success(out_dir / f"fits_{tag}.csv", "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_cli.FIT_CSV_COLUMNS)
        writer.writerows(
            _cli.fit_csv_row(fit, k, refinement, x) for x, fit in fits if fit
        )

    vocab_series = [("cumulative combinations", combinations)]
    overlay = fits[1][1]
    if overlay is not None:
        curve = [(x, overlay.A * math.exp(overlay.slope * x)) for x, _ in combinations]
        vocab_series.append(("exponential fit", curve))
    y_label, vocabulary = "cumulative distinct combinations", "cumulative vocabulary"
    charts = [  # (stem, title, x label, y label, log y, series)
        ("c_vs_articles", "Distinct combinations vs articles", "cumulative articles",
         y_label, False, [("cumulative combinations", by_articles)]),
        ("c_vs_vocab", "Distinct combinations vs vocabulary", vocabulary,
         y_label, True, vocab_series),
        ("coverage_vs_vocab", "Coverage of possible combinations", vocabulary,
         "coverage fraction", True,
         [("coverage", _cli.paired_series(rows, "vocabulary", "coverage"))]),
        ("rates", "Innovation rates", "year", "rate", False,
         [("conceptual rate", _cli.paired_series(rows, "year", "r_m")),
          ("peripheral rate", _cli.paired_series(rows, "year", "r_p"))]),
    ]
    for stem, title, xlabel, ylabel, log_y, series in charts:
        with replace_on_success(out_dir / f"{stem}_{tag}.svg", "w") as f:
            _cli.svg_line_chart(series, f, title=f"{title} ({tag})",
                                xlabel=xlabel, ylabel=ylabel, log_y=log_y)
    return [f"fits_{tag}.csv", *(f"{chart[0]}_{tag}.svg" for chart in charts)]


def _remove_orphaned_temporaries(path: Path) -> None:
    """Remove the temporary files that `replace_on_success` left beside
    ``path`` in writers since killed.  No lock guards that directory, so a
    file is orphaned only once no process has the PID in its name."""
    prefix = f".{path.name}."
    for tmp in path.parent.glob(glob.escape(prefix) + "*.tmp"):
        pid = tmp.name[len(prefix) : -len(".tmp")]
        if not pid.isdecimal():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            tmp.unlink(missing_ok=True)
        except (PermissionError, OverflowError):
            pass  # another user's process, or a number no PID reaches


@contextmanager
def _store_output(path: Path) -> Iterator[BinaryIO]:
    """`replace_on_success` on ``--output``, entered before any work, so
    that an output that cannot be written stops the command first with a
    message naming it."""
    if path.is_dir():
        raise SystemExit(f"cannot write --output {path}: it is a directory")
    _remove_orphaned_temporaries(path)
    with ExitStack() as stack:
        try:
            f = stack.enter_context(replace_on_success(path))
        except OSError as exc:
            raise SystemExit(f"cannot write --output {path}: {exc.strerror}")
        yield f


def cmd_ingest(args: argparse.Namespace) -> int:
    with _store_output(Path(args.output)) as f:
        store, _ = _load_corpus(args)
        save_store(store, f)
    stats = store.stats
    print(f"accepted {stats.accepted} articles into {args.output}")
    print(
        f"stored {len(store)} articles; dropped {stats.duplicate_article_ids} "
        f"duplicate article ids, keeping each id's last copy"
    )
    print(
        f"rejected: pub-type {stats.rejected_pub_type}, "
        f"keywords {stats.rejected_too_few_keywords}, "
        f"year {stats.rejected_year}, malformed {stats.rejected_malformed}; "
        f"unknown keyword codes {stats.unknown_keyword_codes}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """`SynthParams` from its defaults or ``--params``, then the flags given."""
    # Imported here, as in `cmd_verify`, so that other commands skip it.
    import json

    from simplexledger.synth import SynthParams, generate_synthetic

    with _store_output(Path(args.output)) as out:
        if args.params:
            params = SynthParams.from_json(json.loads(Path(args.params).read_text()))
        else:
            params = SynthParams()
        given = {
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(SynthParams)
            if getattr(args, f.name, None) is not None
        }
        params = dataclasses.replace(params, **given)
        store = generate_synthetic(params)
        save_store(store, out)
    print(f"wrote {len(store)} synthetic articles to {args.output}")
    return 0


def _spill_root(out_dir: Path) -> Path:
    """``out/spill``, or under ``$SLEDGER_TMP`` one directory per resolved
    output path, so that only the run holding its lock uses it."""
    env_root = os.environ.get("SLEDGER_TMP")
    if not env_root:
        return out_dir / "spill"
    name = hashlib.sha256(str(out_dir.resolve()).encode()).hexdigest()[:16]
    return Path(env_root) / f"spill-{name}"


def cmd_run(args: argparse.Namespace) -> int:
    import json

    out_dir = Path(args.out)
    try:
        ks = [int(x) for x in args.k.split(",")]
    except ValueError:
        raise SystemExit(f"--k takes comma-separated orders, got {args.k!r}")
    refinements = args.refinement.split(",")
    for flag, values in (("--k", ks), ("--refinement", refinements)):
        if len(set(values)) < len(values):
            raise SystemExit(f"{flag} repeats a value: {','.join(map(str, values))}")
    spill_root = _spill_root(out_dir)
    # Every order is checked before any work, so a bad one writes nothing.
    try:
        configs = [
            _cli.LedgerConfig(
                k=k,
                refinement=refinement,
                shard_count=args.shard_count,
                memory_budget_bytes=args.memory_budget,
                spill_directory=spill_root,
            )
            for k in ks
            for refinement in refinements
        ]
    except _cli.LedgerError as exc:
        raise SystemExit(str(exc))
    year_window = _parse_window(args.fit_window) if args.fit_window else None
    corpus, inputs = _load_corpus(args)

    run_config = {
        "command": "run",
        "k": ks,
        "refinement": refinements,
        "shard_count": args.shard_count,
        "memory_budget": args.memory_budget,
        "fit_window": args.fit_window,
    }
    if args.input:  # the filter applies to raw input only
        run_config["min_year"] = _filter_config(args).min_year
        run_config["branches"] = args.branches
    config_hash = hashlib.sha256(
        json.dumps(run_config, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "tool_version": simplexledger.__version__,
        "config": run_config,
        "config_hash": config_hash,
        # A store's own hash was taken as it loaded; raw inputs are read again.
        "inputs": {
            str(p): corpus.file_sha256() if args.store else _sha256_file(p)
            for p in inputs
        },
        "artifacts": [],
        "status": "partial",
    }

    with _OutputLock(out_dir):
        manifest_path = out_dir / "run_manifest.json"

        def commit() -> None:
            with replace_on_success(manifest_path, "w") as f:
                f.write(json.dumps(manifest, indent=1))

        # Under the lock, a temporary file here is one a killed writer left.
        for stale in out_dir.glob(".*.tmp"):
            stale.unlink()
        # Partial before any artifact is rewritten, and after each ledger's
        # artifacts are whole, so that however the run ends the manifest
        # lists only whole artifacts of this run.
        commit()
        # Each refinement's ledgers run together, so that the store holds one
        # view at a time; the manifest lists the artifacts by k first.
        run_order = sorted(configs, key=lambda c: refinements.index(c.refinement))
        written: dict[_cli.LedgerConfig, list[str]] = {}
        for config in run_order:
            k, refinement = config.k, config.refinement
            tag = f"k{k}_{refinement}"
            series = _cli.tabulate(corpus, config)
            with replace_on_success(out_dir / f"ledger_{tag}.csv", "w") as f:
                _cli.write_ledger_csv(series, f)
            rows = _cli.build_metrics(series)
            with replace_on_success(out_dir / f"metrics_{tag}.csv", "w") as f:
                _cli.write_metrics_csv(rows, f)
            written[config] = [
                f"ledger_{tag}.csv",
                f"metrics_{tag}.csv",
                *_write_report(rows, k, refinement, year_window, out_dir),
            ]
            manifest["artifacts"] = [
                name for c in configs for name in written.get(c, ())
            ]
            commit()
        manifest["status"] = "complete"
        commit()
        shutil.rmtree(spill_root, ignore_errors=True)
    print(f"run complete; artifacts in {out_dir}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from simplexledger.scenarios import load_scenarios, run_scenario, write_report_csv

    specs = load_scenarios(args.scenarios)
    if args.only:
        wanted = set(args.only.split(","))
        specs = [s for s in specs if s.name in wanted]
    reports = [run_scenario(spec) for spec in specs]
    with replace_on_success(Path(args.out), "w") as f:
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
    path = Path(args.metrics)
    with open(path, newline="") as f:
        rows = _cli.read_metrics_csv(f)
    if rows:
        k, refinement = rows[0].k, rows[0].refinement
    else:
        # `run` writes a header-only CSV when no article was admitted; its
        # name, ``metrics_k{k}_{refinement}.csv``, still carries the two.
        pattern = rf"metrics_k([1-9][0-9]*)_({'|'.join(REFINEMENTS)})\.csv"
        name = re.fullmatch(pattern, path.name)
        if name is None:
            raise SystemExit("metrics CSV has no rows")
        k, refinement = int(name[1]), name[2]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    year_window = _parse_window(args.fit_window) if args.fit_window else None
    _write_report(rows, k, refinement, year_window, out_dir)
    print(f"report written to {out_dir}")
    return 0


def _add_corpus_args(parser: argparse.ArgumentParser, source) -> None:
    """The raw-input flags; ``--input`` goes to ``source``, which is the
    parser itself or a group that makes it exclusive with ``--store``."""
    source.add_argument("--input", help="raw corpus file (TSV or PubMed XML)")
    parser.add_argument("--ontology", help="descriptor TSV")
    parser.add_argument("--format", choices=("tsv", "xml"), help="default: tsv")
    parser.add_argument("--min-year", type=int, help="default: 1902")
    parser.add_argument("--branches", help="allowed branch letters, e.g. ABCDEFGJLN")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexledger",
        description="Exact first-occurrence tallies of keyword combinations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="filter a raw corpus into a binary store")
    _add_corpus_args(p, p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus store")
    # Each flag's dest is a `SynthParams` field; a flag given overrides that
    # field of --params, or of the defaults there.
    p.add_argument("--params", help="JSON file of generator parameters")
    p.add_argument("--n-articles", type=int)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--year-start", type=int)
    p.add_argument("--year-end", type=int)
    p.add_argument("--keywords", type=int, dest="keywords_per_article")
    p.add_argument("--major-fraction", type=float)
    p.add_argument("--new-per-year", type=int, dest="new_keywords_per_year")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="tabulate, derive metrics, fit, and chart")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--store", help="existing binary corpus store")
    _add_corpus_args(p, source)
    p.add_argument(
        "--k", default="1", help="comma-separated orders in 1..3, e.g. 1,2,3"
    )
    p.add_argument(
        "--refinement", default="all", help="comma-separated: all,major"
    )
    p.add_argument(
        "--shard-count",
        type=int,
        default=1,
        help="minimum number of passes; the memory budget may add more",
    )
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
    """Run the command ``argv``, or ``sys.argv``'s as a program.

    As a program, the process ends once the command returns, so the heap is
    frozen then: interpreter shutdown skips its collections of the frozen
    objects, tens of thousands of them after ``import numpy``, which hold
    no garbage.  Exit hooks, the flush of the standard streams and every
    free by reference count still run.  A caller's ``main(argv)`` leaves
    the caller's heap as it is.
    """
    args = build_parser().parse_args(argv)
    status = args.func(args)
    if argv is None:
        gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(main())
