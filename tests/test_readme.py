"""README's library example runs as written."""
import re
import shutil
from pathlib import Path

from scatterscore.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run(*argv):
    return main([str(a) for a in argv])


def library_example() -> str:
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_m_and_k_star(tmp_path, monkeypatch, capsys):
    corpus, model = tmp_path / "corpus.csv", tmp_path / "model.json"
    assert run("corpus", DATA / "judged.csv", "--out", corpus) == 0
    assert run("train", corpus, "--n-trees", 3, "--out", model) == 0
    shutil.copy(DATA / "golden" / "p0.csv", tmp_path / "plot.csv")  # x,y header and 200 points
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(library_example(), {})
    m, k_star = map(int, capsys.readouterr().out.split())
    assert 1 <= m <= k_star
