import csv
import fcntl
import json

import pytest

from simplexledger.cli import main
from simplexledger.corpus import CorpusError
from simplexledger.ontology import OntologyError

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


def test_complete_run_removes_spill_state(tmp_path, demo_files):
    out = _run_dir(tmp_path, "spilled", demo_files)
    assert json.loads((out / "run_manifest.json").read_text())["status"] == "complete"
    assert not list(out.rglob("hist*.bin"))
    assert not (out / "spill").exists()


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
