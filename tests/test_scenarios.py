import io
import json
import tempfile

import pytest

from simplexledger import scenarios
from simplexledger.scenarios import (
    ScenarioError,
    ScenarioReport,
    load_scenarios,
    run_scenario,
    write_report_csv,
)


def test_catalog_loads_with_unique_names():
    specs = load_scenarios()
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    assert "all-new-every-year" in names
    assert "frozen-vocabulary" in names


def test_duplicate_scenario_names_rejected(tmp_path):
    entry = {"name": "dup", "params": {"n_articles": 10, "vocab_size": 10}}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenarios(path)


@pytest.mark.parametrize(
    "name",
    [
        "all-new-every-year",
        "frozen-vocabulary",
        "paper-shape",
        "dense-core",
        "sparse-frontier",
        "bursty-entry",
    ],
)
def test_scenario_pipeline_matches_oracle(name):
    (spec,) = [s for s in load_scenarios() if s.name == name]
    report = run_scenario(spec)
    failures = [r for r in report.rows if r["status"] != "ok"]
    assert report.ok, failures


def test_scenario_leaves_nothing_under_tmpdir_when_tabulate_raises(
    tmp_path, monkeypatch
):
    # The scenario passes no spill directory, so each ledger's temporary
    # directory is tabulate's own; a run that raises leaves nothing either.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tabulate = scenarios.tabulate
    configs = []

    def tabulate_once(corpus, config):
        if configs:
            raise RuntimeError("tabulate failed")
        configs.append(config)
        return tabulate(corpus, config)

    monkeypatch.setattr(scenarios, "tabulate", tabulate_once)
    (spec,) = [s for s in load_scenarios() if s.name == "frozen-vocabulary"]
    with pytest.raises(RuntimeError, match="tabulate failed"):
        run_scenario(spec)
    assert [c.spill_directory for c in configs] == [None]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, metrics_builds",
    [("bursty-entry", 0), ("frozen-vocabulary", 1)],
)
def test_one_oracle_pass_per_order_and_refinement(monkeypatch, name, metrics_builds):
    calls = []

    for attr in ("oracle_tabulate", "build_metrics"):

        def wrapper(*args, fn=getattr(scenarios, attr), attr=attr):
            calls.append(attr)
            return fn(*args)

        monkeypatch.setattr(scenarios, attr, wrapper)
    (spec,) = [s for s in load_scenarios() if s.name == name]
    assert run_scenario(spec).ok
    assert calls.count("oracle_tabulate") == 6
    assert calls.count("build_metrics") == metrics_builds


def test_report_csv_shape():
    report = ScenarioReport(scenario="x", ok=True)
    report.add(1, "all", "ok")
    report.add(2, "major", "mismatch", "new_simplices@1999: pipeline 3 != oracle 4")
    out = io.StringIO()
    write_report_csv([report], out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "scenario,k,refinement,status,detail"
    assert len(lines) == 3
    assert not report.ok
