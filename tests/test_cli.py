import csv
import fcntl
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

import simplexledger.corpus as corpus_mod
import simplexledger.ledger as ledger_mod
import simplexledger.passes as passes_mod
from simplexledger import cli
from simplexledger.cli import main
from simplexledger.corpus import (
    ArticleRecord,
    CorpusError,
    CorpusStore,
    FilterConfig,
    ingest_tsv,
    load_store,
    save_store,
)
from simplexledger.ledger import LedgerSeries, oracle_tabulate
from simplexledger.metrics import build_metrics, write_ledger_csv
from simplexledger.ontology import BranchFilter, OntologyError, load_ontology

from conftest import DEMO_CORPUS, ONTOLOGY_TSV


@pytest.fixture
def demo_files(tmp_path):
    ontology = tmp_path / "ontology.tsv"
    ontology.write_text(ONTOLOGY_TSV)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(DEMO_CORPUS)
    return ontology, corpus


def _run_dir(tmp_path, name, demo_files, extra=()):
    ontology, corpus = demo_files
    out = tmp_path / name
    code = main(
        [
            "run",
            "--ontology",
            str(ontology),
            "--input",
            str(corpus),
            "--k",
            "1",
            "--refinement",
            "major",
            "--fit-window",
            "paper-recent",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


def test_run_demo_corpus_metrics_row(tmp_path, demo_files):
    out = _run_dir(tmp_path, "run1", demo_files)
    with open(out / "metrics_k1_major.csv", newline="") as f:
        rows = {row["year"]: row for row in csv.DictReader(f)}
    row = rows["2001"]
    assert float(row["r_p"]) == 1.0
    assert float(row["r_c"]) == 0.0
    assert float(row["r_m"]) == 0.25
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["tool_version"]
    assert len(manifest["inputs"]) == 2


def test_run_is_byte_deterministic(tmp_path, demo_files):
    a = _run_dir(tmp_path, "runA", demo_files)
    b = _run_dir(tmp_path, "runB", demo_files)
    # Every file of the two output directories, the lock file included.
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)
    assert (a / ".lock").read_bytes() == b""
    charts = [
        f"{stem}_k1_major.svg"
        for stem in ("c_vs_articles", "c_vs_vocab", "coverage_vs_vocab", "rates")
    ]
    csvs = ["ledger_k1_major.csv", "metrics_k1_major.csv", "fits_k1_major.csv"]
    for name in csvs + charts:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    artifacts = json.loads((a / "run_manifest.json").read_text())["artifacts"]
    assert set(charts) <= set(artifacts)
    assert all((a / name).exists() for name in artifacts)


def test_manifest_lists_artifacts_by_order_then_refinement(tmp_path, demo_files):
    # Whatever order the ledgers run in, the manifest lists them by k first.
    ontology, corpus = demo_files
    out = tmp_path / "o"
    argv = ["run", "--ontology", str(ontology), "--input", str(corpus),
            "--k", "1,2", "--refinement", "all,major", "--out", str(out)]
    assert main(argv) == 0
    stems = ("c_vs_articles", "c_vs_vocab", "coverage_vs_vocab", "rates")
    expected = [
        name
        for tag in ("k1_all", "k1_major", "k2_all", "k2_major")
        for name in (
            f"ledger_{tag}.csv",
            f"metrics_{tag}.csv",
            f"fits_{tag}.csv",
            *(f"{stem}_{tag}.svg" for stem in stems),
        )
    ]
    assert len(expected) == 28
    assert json.loads((out / "run_manifest.json").read_text())["artifacts"] == expected


def test_run_emits_charts(tmp_path, demo_files):
    out = _run_dir(tmp_path, "runC", demo_files)
    for stem in ("c_vs_articles", "c_vs_vocab", "coverage_vs_vocab", "rates"):
        path = out / f"{stem}_k1_major.svg"
        assert path.exists()
        assert path.read_text().startswith("<svg")


def test_ledger_csv_header_frozen(tmp_path, demo_files):
    out = _run_dir(tmp_path, "runD", demo_files)
    header = (out / "ledger_k1_major.csv").read_text().splitlines()[0]
    assert header == (
        "year,k,refinement,new_simplices,new_peripheral,new_keywords,"
        "articles_processed,cum_simplices,cum_keywords,cum_articles"
    )


def test_locked_output_directory_refused(tmp_path, demo_files):
    out = tmp_path / "locked"
    out.mkdir()
    ontology, corpus = demo_files
    with open(out / ".lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(SystemExit, match="lock"):
            main(
                [
                    "run",
                    "--ontology",
                    str(ontology),
                    "--input",
                    str(corpus),
                    "--out",
                    str(out),
                ]
            )


def test_leftover_unlocked_lock_file_does_not_block(tmp_path, demo_files):
    out = tmp_path / "killed"
    out.mkdir()
    # What a killed run leaves: the file, without the lock the kernel held.
    (out / ".lock").write_text("123")
    _run_dir(tmp_path, "killed", demo_files)
    assert json.loads((out / "run_manifest.json").read_text())["status"] == "complete"


def test_complete_run_removes_spill_state(tmp_path, demo_files, monkeypatch):
    monkeypatch.delenv("SLEDGER_TMP", raising=False)
    out = _run_dir(tmp_path, "spilled", demo_files)
    assert json.loads((out / "run_manifest.json").read_text())["status"] == "complete"
    assert not list(out.rglob("hist*.bin"))
    assert not (out / "spill").exists()


def test_complete_run_leaves_sledger_tmp_empty(tmp_path, demo_files, monkeypatch):
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setenv("SLEDGER_TMP", str(spill))
    out = _run_dir(tmp_path, "spilled", demo_files)
    assert json.loads((out / "run_manifest.json").read_text())["status"] == "complete"
    assert list(spill.iterdir()) == []
    assert not (out / "spill").exists()


def _run_argv(store, out):
    return ["run", "--store", str(store), "--k", "1", "--shard-count", "2",
            "--memory-budget", "65536", "--out", str(out)]


def _assert_ledger_is_oracle(store_path, out):
    with open(store_path, "rb") as f:
        series = oracle_tabulate(load_store(f), 1, "all")
    expected = out.parent / f"oracle_{out.name}.csv"
    with open(expected, "w", newline="") as f:
        write_ledger_csv(series, f)
    assert (out / "ledger_k1_all.csv").read_bytes() == expected.read_bytes()


def test_runs_on_different_outputs_never_share_spill_state(tmp_path, monkeypatch):
    # Two corpora, two outputs, one SLEDGER_TMP; the second run starts and
    # completes inside the first one's ledger, after its first commit.
    spill = tmp_path / "spill"
    monkeypatch.setenv("SLEDGER_TMP", str(spill))
    stores, outs = [], []
    for seed in ("5", "6"):
        (tmp_path / seed).mkdir()
        stores.append(_synth(tmp_path / seed, "--seed", seed))
        outs.append(tmp_path / seed / "out")
    write_manifest = ledger_mod._write_manifest
    nested = []

    def interleaved(path, payload):
        write_manifest(path, payload)
        if not nested:
            nested.append(path)
            assert main(_run_argv(stores[1], outs[1])) == 0

    monkeypatch.setattr(ledger_mod, "_write_manifest", interleaved)
    assert main(_run_argv(stores[0], outs[0])) == 0
    assert nested
    for store, out in zip(stores, outs):
        _assert_ledger_is_oracle(store, out)
    assert list(spill.iterdir()) == []


def test_rerun_on_the_same_output_resumes_under_sledger_tmp(tmp_path, monkeypatch):
    spill = tmp_path / "spill"
    monkeypatch.setenv("SLEDGER_TMP", str(spill))
    store, out = _synth(tmp_path), tmp_path / "out"
    append = ledger_mod._append

    def killed(fd, values):
        append(fd, values)
        raise RuntimeError("killed")

    monkeypatch.setattr(ledger_mod, "_append", killed)
    with pytest.raises(RuntimeError, match="killed"):
        main(_run_argv(store, out))
    monkeypatch.setattr(ledger_mod, "_append", append)
    assert [p.name for p in spill.iterdir()] == [cli._spill_root(out).name]

    load_manifest = ledger_mod._load_manifest
    loaded = []

    def recording(path, fingerprint):
        manifest = load_manifest(path, fingerprint)
        loaded.append(manifest and manifest["passes"])
        return manifest

    monkeypatch.setattr(ledger_mod, "_load_manifest", recording)
    passes = []
    tally_pass = passes_mod._tally_pass
    monkeypatch.setattr(
        passes_mod, "_tally_pass", lambda *args: passes.append(1) or tally_pass(*args)
    )
    assert main(_run_argv(store, out)) == 0
    # The first pass's record was appended before the kill: the rerun finds
    # the manifest and runs only the passes after it.
    assert len(loaded) == 1 and loaded[0] > 1 and len(passes) == loaded[0] - 1
    _assert_ledger_is_oracle(store, out)
    assert list(spill.iterdir()) == []


class _Torn:
    """A stream whose first write stops halfway with ``error``."""

    def __init__(self, f, error):
        self.f, self.error = f, error

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise self.error


def _tear(monkeypatch, name, error, nth=1):
    """Stop the ``nth`` whole-file write of a file called ``name`` halfway
    with ``error``.  The dict returned gets the file's path, its bytes
    (None if it did not exist) and its directory's listing from just
    before that write."""
    real, calls, before = corpus_mod.replace_on_success, [], {}

    @contextmanager
    def tearing(path, mode="wb"):
        calls.append(path.name)
        torn = calls.count(name) == nth and path.name == name
        if torn:
            before["path"] = path
            before["bytes"] = path.read_bytes() if path.exists() else None
            before["listing"] = sorted(os.listdir(path.parent))
        with real(path, mode) as f:
            yield _Torn(f, error) if torn else f

    for module in (cli, ledger_mod):
        monkeypatch.setattr(module, "replace_on_success", tearing)
    return before


def test_run_manifest_survives_a_kill_mid_write(tmp_path, demo_files, monkeypatch):
    # A rerun of one ledger writes its manifest three times: partial with
    # no artifact, partial with the ledger's, and complete.  A kill in the
    # first leaves the last run's manifest; in the last, the partial one.
    out = _run_dir(tmp_path, "atomic", demo_files)
    complete = (out / "run_manifest.json").read_text()
    partial = json.loads(complete) | {"status": "partial"}
    for nth, expected in ((1, json.loads(complete)), (3, partial)):
        with monkeypatch.context() as patch:
            _tear(patch, "run_manifest.json", KeyboardInterrupt("killed"), nth)
            with pytest.raises(KeyboardInterrupt):
                _run_dir(tmp_path, "atomic", demo_files)
        assert json.loads((out / "run_manifest.json").read_text()) == expected
        assert not list(out.glob(".*.tmp"))


def test_rerun_removes_a_killed_writers_temporary_file(tmp_path, demo_files):
    # A writer killed by SIGKILL leaves its temporary file; the next run on
    # the same output deletes it under the lock.
    clean = _run_dir(tmp_path, "clean", demo_files)
    out = tmp_path / "killed"
    out.mkdir()
    (out / ".metrics_k1_all.csv.1.tmp").write_text("torn")
    _run_dir(tmp_path, "killed", demo_files)
    assert not list(out.glob(".*.tmp"))
    assert sorted(os.listdir(out)) == sorted(os.listdir(clean))


def test_interrupted_rerun_lists_only_its_whole_artifacts(tmp_path, monkeypatch):
    # A rerun cut short after its first ledger must not leave the last
    # run's "complete" over artifacts it has begun to rewrite.
    store, out = _synth(tmp_path), tmp_path / "out"
    argv = ["run", "--store", str(store), "--k", "1,2", "--out", str(out)]
    assert main(argv) == 0
    before = json.loads((out / "run_manifest.json").read_text())
    assert before["status"] == "complete" and len(before["artifacts"]) == 14
    old = {name: (out / name).read_bytes() for name in before["artifacts"]}
    tabulate, calls = cli.tabulate, []

    def interrupted(corpus, config):
        calls.append(config)
        if len(calls) == 2:
            raise KeyboardInterrupt("interrupted")
        return tabulate(corpus, config)

    monkeypatch.setattr(cli, "tabulate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["artifacts"] == before["artifacts"][:7]
    assert all("_k1_all." in name for name in manifest["artifacts"])
    assert all((out / name).read_bytes() == old[name] for name in old)


def test_run_completes_ledgers_without_emissions(tmp_path):
    # No article has 4 keywords or 2 Major ones, so four of the six ledgers
    # emit no key.
    corpus = CorpusStore()
    for i in range(50):
        kws = frozenset({i, i + 1, i + 2})
        corpus.add(ArticleRecord(f"a{i:02d}", 2000 + i % 5, kws, frozenset({i})))
    store, out = tmp_path / "store.bin", tmp_path / "out"
    with open(store, "wb") as f:
        save_store(corpus, f)
    argv = ["run", "--store", str(store), "--k", "1,2,3", "--refinement",
            "all,major", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "run_manifest.json").read_text())["status"] == "complete"
    assert sorted(p.name for p in out.glob("ledger_*.csv")) == [
        f"ledger_k{k}_{r}.csv" for k in (1, 2, 3) for r in ("all", "major")
    ]


def test_ingest_then_run_from_store(tmp_path, demo_files):
    ontology, corpus = demo_files
    store = tmp_path / "corpus.bin"
    assert (
        main(
            [
                "ingest",
                "--ontology",
                str(ontology),
                "--input",
                str(corpus),
                "--output",
                str(store),
            ]
        )
        == 0
    )
    out = tmp_path / "fromstore"
    assert (
        main(
            ["run", "--store", str(store), "--k", "1,2", "--refinement",
             "all,major", "--out", str(out)]
        )
        == 0
    )
    assert (out / "metrics_k2_all.csv").exists()


def test_ingest_reports_dropped_duplicates(tmp_path, demo_files, capsys):
    ontology, _ = demo_files
    corpus = tmp_path / "repeats.tsv"
    corpus.write_text(
        "p1\t2000\tReview\tD000001;D000002\n"
        "p1\t2001\tReview\tD000001;D000002\n"
        "p2\t2000\tReview\tD000001;D000002\n"
    )
    store = tmp_path / "corpus.bin"
    argv = ["ingest", "--ontology", str(ontology), "--input", str(corpus)]
    assert main([*argv, "--output", str(store)]) == 0
    out = capsys.readouterr().out
    assert f"accepted 3 articles into {store}\n" in out
    assert "stored 2 articles; dropped 1 duplicate article ids" in out
    with open(store, "rb") as f:
        assert len(load_store(f)) == 2


def test_ingest_removes_only_a_dead_writers_temporary_file(tmp_path, demo_files):
    # No lock guards --output's directory: a temporary file named with a
    # PID that no process has is a killed writer's, and one named with a
    # live process's PID may be a writer's still at work.
    ontology, corpus = demo_files
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    dead = tmp_path / f".corpus.bin.{child.pid}.tmp"
    live = tmp_path / f".corpus.bin.{os.getppid()}.tmp"
    for tmp in (dead, live):
        tmp.write_text("torn")
    argv = ["ingest", "--ontology", str(ontology), "--input", str(corpus)]
    assert main([*argv, "--output", str(tmp_path / "corpus.bin")]) == 0
    assert not dead.exists()
    assert live.read_text() == "torn"
    live.unlink()


@pytest.mark.parametrize(
    "damaged, error",
    [("corpus", CorpusError), ("ontology", OntologyError)],
)
def test_ingest_names_the_line_of_a_non_utf8_byte(tmp_path, demo_files, damaged, error):
    ontology, corpus = demo_files
    path = {"corpus": corpus, "ontology": ontology}[damaged]
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"\t", b"\xff\t", 1)
    path.write_bytes(b"".join(lines))
    argv = ["ingest", "--ontology", str(ontology), "--input", str(corpus)]
    with pytest.raises(error, match="line 2: not UTF-8"):
        main([*argv, "--output", str(tmp_path / "corpus.bin")])


@pytest.mark.parametrize("output", ["no-such-dir/corpus.bin", "a-directory"])
@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_unwritable_output_is_refused_first(tmp_path, command, output):
    # The inputs are missing too: reading them first would raise about them.
    missing = str(tmp_path / "missing")
    argv = {
        "ingest": ["ingest", "--ontology", missing, "--input", missing],
        "synth": ["synth", "--params", missing],
    }[command]
    (tmp_path / "a-directory").mkdir()
    output = tmp_path / output
    with pytest.raises(SystemExit, match=re.escape(str(output))):
        main([*argv, "--output", str(output)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]
    assert not any((tmp_path / "a-directory").iterdir())


@pytest.mark.parametrize(
    "command, name, nth",
    [
        pytest.param("ingest", "corpus.bin", 1, id="ingest"),
        pytest.param("synth", "corpus.bin", 1, id="synth"),
        pytest.param("run", "ledger_k1_all.csv", 1, id="csv"),
        pytest.param("run", "rates_k1_all.svg", 1, id="svg"),
        pytest.param("run", "run_manifest.json", 1, id="run-manifest"),
        # The ledger's first commit writes its manifest; the second replaces it.
        pytest.param("run", "manifest.json", 2, id="ledger-manifest"),
    ],
)
def test_failed_store_write_keeps_the_old_store(
    tmp_path, demo_files, monkeypatch, command, name, nth
):
    # Every file written whole, when its write fails halfway, stays as it
    # was, and its directory holds no temporary file.
    ontology, corpus = demo_files
    out = tmp_path / "out"
    argv = {
        "ingest": ["ingest", "--ontology", str(ontology), "--input", str(corpus),
                   "--output", str(out / "corpus.bin")],
        "synth": ["synth", "--n-articles", "40", "--vocab-size", "20",
                  "--year-start", "1994", "--year-end", "1998", "--seed", "5",
                  "--output", str(out / "corpus.bin")],
        "run": _run_argv(tmp_path / "syn.bin", out),
    }[command]
    if command == "run":
        _synth(tmp_path)
    out.mkdir()
    assert main(argv) == 0
    before = _tear(monkeypatch, name, OSError("disk full"), nth)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    path = before["path"]
    assert before["bytes"] is not None and path.read_bytes() == before["bytes"]
    assert sorted(os.listdir(path.parent)) == before["listing"]
    assert not list(out.rglob(".*.tmp"))


@pytest.mark.parametrize("damaged", ["corpus", "ontology"])
def test_text_mode_readers_name_a_non_utf8_byte(demo_files, damaged):
    ontology, corpus = demo_files
    path = {"corpus": corpus, "ontology": ontology}[damaged]
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"\t", b"\xff\t", 1)
    path.write_bytes(b"".join(lines))
    # A text stream decodes ahead, so the error names the last line read.
    with open(ontology, encoding="utf-8") as f:
        if damaged == "ontology":
            with pytest.raises(OntologyError, match="after line 0: not UTF-8"):
                load_ontology(f)
            return
        parsed = load_ontology(f)
    with open(corpus, encoding="utf-8") as f:
        with pytest.raises(CorpusError, match="after line 0: not UTF-8"):
            ingest_tsv(f, parsed)


def _synth(tmp_path, *flags):
    store = tmp_path / "syn.bin"
    argv = ["synth", "--n-articles", "400", "--vocab-size", "60", "--year-start",
            "1994", "--year-end", "2008", "--new-per-year", "3", "--seed", "5"]
    assert main([*argv, *flags, "--output", str(store)]) == 0
    return store


def test_synth_params_file_matches_flags(tmp_path):
    store = _synth(tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "n_articles": 400, "vocab_size": 60, "year_start": 1994, "year_end": 2008,
        "new_keywords_per_year": 3, "seed": 5,
    }))
    from_file = tmp_path / "from_file.bin"
    assert main(["synth", "--params", str(params), "--output", str(from_file)]) == 0
    assert from_file.read_bytes() == store.read_bytes()


def test_synth_flags_override_the_params_file(tmp_path):
    store = _synth(tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "n_articles": 400, "vocab_size": 60, "year_start": 1994, "year_end": 2008,
        "new_keywords_per_year": 3, "seed": 1,
    }))
    from_file = tmp_path / "from_file.bin"
    argv = ["synth", "--params", str(params), "--seed", "5", "--output", str(from_file)]
    assert main(argv) == 0
    assert from_file.read_bytes() == store.read_bytes()


_REPORT_FILES = ["fits_{}.csv"] + [
    f"{stem}_{{}}.svg"
    for stem in ("c_vs_articles", "c_vs_vocab", "coverage_vs_vocab", "rates")
]


@pytest.mark.parametrize("window", [None, "paper-recent", "1996:2001"])
def test_report_reproduces_the_runs_fits_and_charts(tmp_path, window):
    store = _synth(tmp_path)
    window_flags = ["--fit-window", window] if window else []
    out = tmp_path / "run"
    argv = ["run", "--store", str(store), "--k", "1,2", "--refinement", "all,major"]
    assert main([*argv, *window_flags, "--out", str(out)]) == 0
    for k in (1, 2):
        for refinement in ("all", "major"):
            tag = f"k{k}_{refinement}"
            rerun = tmp_path / f"report_{tag}"
            metrics = str(out / f"metrics_{tag}.csv")
            assert main(["report", "--metrics", metrics, *window_flags,
                         "--out", str(rerun)]) == 0
            for name in (template.format(tag) for template in _REPORT_FILES):
                assert (rerun / name).read_bytes() == (out / name).read_bytes()
    fits = (out / "fits_k1_all.csv").read_text().splitlines()
    assert len(fits) == (5 if window else 3)


@pytest.fixture
def empty_run(tmp_path, demo_files):
    """A run whose only article has one keyword, so none is admitted."""
    ontology, corpus = demo_files
    corpus.write_text("p1\t2000\tJournal Article\tD000001\n")
    out = tmp_path / "run"
    argv = ["run", "--ontology", str(ontology), "--input", str(corpus)]
    argv += ["--k", "1,2", "--refinement", "all,major", "--out", str(out)]
    assert main(argv) == 0
    return out


def test_report_reproduces_a_run_with_no_admitted_article(tmp_path, empty_run):
    for tag in ("k1_all", "k1_major", "k2_all", "k2_major"):
        metrics = empty_run / f"metrics_{tag}.csv"
        assert len(metrics.read_text().splitlines()) == 1
        rerun = tmp_path / f"report_{tag}"
        assert main(["report", "--metrics", str(metrics), "--out", str(rerun)]) == 0
        for name in (template.format(tag) for template in _REPORT_FILES):
            assert (rerun / name).read_bytes() == (empty_run / name).read_bytes()


@pytest.mark.parametrize(
    "name",
    ["empty.csv", "metrics_k1_none.csv", "metrics_k01_all.csv", "metrics_k1_all.csv.1"],
)
def test_report_refuses_other_empty_metrics_csv(tmp_path, empty_run, name):
    metrics = tmp_path / name
    metrics.write_bytes((empty_run / "metrics_k1_all.csv").read_bytes())
    out = tmp_path / "report"
    with pytest.raises(SystemExit, match="metrics CSV has no rows"):
        main(["report", "--metrics", str(metrics), "--out", str(out)])
    assert not out.exists()


def test_each_fit_runs_once(tmp_path, monkeypatch):
    calls = []

    def counted(name, fit):
        def wrapper(points):
            calls.append(name)
            return fit(points)

        return wrapper

    monkeypatch.setattr(cli, "fit_linear", counted("linear", cli.fit_linear))
    monkeypatch.setattr(cli, "fit_exponential", counted("exp", cli.fit_exponential))
    store = _synth(tmp_path)
    argv = ["run", "--store", str(store), "--k", "1,2", "--refinement", "all,major"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    # Four (k, refinement) pairs; the chart reuses the full-range fit.
    assert calls.count("linear") == 4 and calls.count("exp") == 4
    calls.clear()
    window = ["--fit-window", "1996:2001"]
    assert main([*argv, *window, "--out", str(tmp_path / "windowed")]) == 0
    assert calls.count("linear") == 8 and calls.count("exp") == 8


def test_run_calls_the_stages_set_on_the_cli_module(tmp_path, monkeypatch):
    # The benchmark's tracer wraps the stages as attributes of `cli` before
    # `main` runs; `run` must call those wrappers.
    calls = []
    tabulate = cli.tabulate

    def counted(corpus, config):
        calls.append((config.k, config.refinement))
        return tabulate(corpus, config)

    monkeypatch.setattr(cli, "tabulate", counted)
    store = _synth(tmp_path)
    argv = ["run", "--store", str(store), "--k", "1,2", "--refinement", "all,major"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [(1, "all"), (1, "major"), (2, "all"), (2, "major")]


@pytest.mark.parametrize("window", [None, (1, 5000)])
def test_report_memory_on_a_long_table(tmp_path, window):
    # The report builds only the point lists it fits and draws.
    n = 10**4
    series = LedgerSeries(
        k=1,
        refinement="all",
        years=list(range(1, n + 1)),
        new_simplices=[2] * n,
        new_peripheral=[1] * n,
        new_keywords=[3] * n,
        articles_processed=[2] * n,
    )
    rows = build_metrics(series)
    tracemalloc.start()
    try:
        cli._write_report(rows, 1, "all", window, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20


@pytest.mark.parametrize(
    "flag, value",
    [("--ontology", "x.tsv"), ("--format", "xml"), ("--min-year", "2010"),
     ("--branches", "Z")],
)
def test_run_from_store_refuses_ingest_flags(tmp_path, flag, value):
    store = _synth(tmp_path)
    argv = ["run", "--store", str(store), flag, value, "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit, match=f"{flag} applies to --input"):
        main(argv)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "orders, message",
    [
        ("1,4", "order k must be in 1..3, got 4"),
        ("a", "--k takes comma-separated orders, got 'a'"),
    ],
)
def test_run_checks_every_order_before_any_work(tmp_path, orders, message):
    store = _synth(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match=message):
        main(["run", "--store", str(store), "--k", orders, "--out", str(out)])
    # Not even the valid order's ledger_k1_all.csv is written.
    assert not out.exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--k", "1,2,1"], "--k repeats a value: 1,2,1"),
        (["--refinement", "all,all"], "--refinement repeats a value: all,all"),
    ],
    ids=["k", "refinement"],
)
def test_run_refuses_a_repeated_order_or_refinement(tmp_path, option, message):
    # A repeat would tabulate twice and list each artifact twice.
    store = _synth(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match=message):
        main(["run", "--store", str(store), *option, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--input", "x.tsv"], "raw input needs both --input and --ontology"),
        (
            ["--store", "s.bin", "--fit-window", "2000"],
            "bad fit window '2000'; use a preset or LO:HI",
        ),
    ],
    ids=["no-ontology", "fit-window"],
)
def test_run_argument_errors_exit_with_their_message(tmp_path, option, message):
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["run", *option, "--out", str(out)])
    assert not out.exists()


def test_store_and_input_are_exclusive(tmp_path, demo_files, capsys):
    ontology, corpus = demo_files
    argv = ["run", "--store", "s.bin", "--input", str(corpus),
            "--ontology", str(ontology), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_ingest_has_no_store_option(tmp_path, capsys):
    store = _synth(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest", "--store", str(store), "--output", str(tmp_path / "c.bin")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --store" in capsys.readouterr().err


def test_manifest_records_filters_only_for_raw_input(tmp_path, demo_files):
    out = _run_dir(tmp_path, "raw", demo_files, ["--min-year", "2001"])
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config["min_year"] == 2001 and config["branches"] is None
    store = _synth(tmp_path)
    out = tmp_path / "stored"
    assert main(["run", "--store", str(store), "--out", str(out)]) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert "min_year" not in config and "branches" not in config


def test_branches_filter_raw_input(tmp_path):
    # Under --branches A only the two A codes are eligible: p1 drops its Z
    # code, p2 its G and Z+D codes, and p3, with none, is rejected.
    ontology = tmp_path / "ontology.tsv"
    ontology.write_text(ONTOLOGY_TSV + "D000009\tIota Thing\tA02.1\n")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "p1\t2000\tJournal Article\t*D000001;D000009;D000003\n"
        "p2\t2001\tJournal Article\tD000001;*D000002;*D000009;D000004\n"
        "p3\t2001\tReview\tD000002;D000007\n"
    )
    raw = ["--ontology", str(ontology), "--input", str(corpus), "--branches", "A"]
    store = tmp_path / "a.bin"
    assert main(["ingest", *raw, "--output", str(store)]) == 0
    with open(ontology, "rb") as f:
        vocabulary = load_ontology(f)
    expected, default = io.BytesIO(), io.BytesIO()
    only_a = FilterConfig(branch_filter=BranchFilter(frozenset("A")))
    with open(corpus, "rb") as f:
        save_store(ingest_tsv(f, vocabulary, only_a), expected)
    with open(corpus, "rb") as f:
        save_store(ingest_tsv(f, vocabulary), default)
    assert store.read_bytes() == expected.getvalue() != default.getvalue()
    out = tmp_path / "run"
    assert main(["run", *raw, "--k", "1", "--out", str(out)]) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config["branches"] == "A"


def test_synth_and_verify_and_report(tmp_path):
    store = tmp_path / "syn.bin"
    assert (
        main(
            [
                "synth",
                "--n-articles",
                "120",
                "--vocab-size",
                "40",
                "--seed",
                "5",
                "--output",
                str(store),
            ]
        )
        == 0
    )
    out = tmp_path / "synrun"
    assert main(["run", "--store", str(store), "--k", "1", "--out", str(out)]) == 0

    report = tmp_path / "report.csv"
    assert (
        main(["verify", "--only", "frozen-vocabulary", "--out", str(report)]) == 0
    )
    assert report.read_text().startswith("scenario,k,refinement,status")

    rerun = tmp_path / "rereport"
    assert (
        main(
            [
                "report",
                "--metrics",
                str(out / "metrics_k1_all.csv"),
                "--out",
                str(rerun),
            ]
        )
        == 0
    )
    assert (rerun / "fits_k1_all.csv").exists()


def test_verify_reports_a_mismatch(tmp_path, monkeypatch, capsys):
    import simplexledger.scenarios as scenarios

    tabulate = scenarios.tabulate

    def off_by_one(corpus, config):
        series = tabulate(corpus, config)
        series.new_simplices[0] += 1
        return series

    monkeypatch.setattr(scenarios, "tabulate", off_by_one)
    report = tmp_path / "report.csv"
    argv = ["verify", "--only", "frozen-vocabulary", "--out", str(report)]
    assert main(argv) == 1
    assert "mismatches in: frozen-vocabulary" in capsys.readouterr().err
    with open(report, newline="") as f:
        statuses = {row["status"] for row in csv.DictReader(f)}
    assert "mismatch" in statuses


def test_cli_import_loads_only_what_its_commands_run():
    # Every child process compiles every module it imports; these serve
    # only `run`, `report`, `verify`, `synth`, the XML reader, a warning or
    # nothing at all.
    child = """
import sys

before = set(sys.modules)
import simplexledger.cli as cli

heavy = ["xml.etree.ElementTree", "fractions", "decimal", "logging",
         "simplexledger.synth", "simplexledger.scenarios",
         "simplexledger.ledger", "simplexledger.metrics",
         "simplexledger.fitting", "simplexledger.plots", "csv", "json"]
print([name for name in heavy if name in set(sys.modules) - before])
sys.path.insert(0, sys.argv[1])
from tracer import WRAPPED

wrapped = [attr for owner, attr, _ in WRAPPED if owner == "cli"]
print([name for name in [*wrapped, "CorpusStore"] if not hasattr(cli, name)])
import simplexledger

unimportable = []
for name in simplexledger.__all__:
    try:
        exec(f"from simplexledger import {name}", {})
    except ImportError:
        unimportable.append(name)
print(unimportable, len(wrapped), len(simplexledger.__all__))
"""
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", child, str(root / "perfbench")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    heavy, missing, rest = out.stdout.splitlines()
    assert heavy == "[]"
    assert missing == "[]"
    unimportable, wrapped, exported = rest.rsplit(" ", 2)
    assert unimportable == "[]"
    assert int(wrapped) >= 10 and int(exported) >= 20
