"""The README's library example runs as written."""

import re
from pathlib import Path

from conftest import DEMO_CORPUS, ONTOLOGY_TSV

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    (tmp_path / "mesh.tsv").write_text(ONTOLOGY_TSV)
    (tmp_path / "corpus.tsv").write_text(DEMO_CORPUS)
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
