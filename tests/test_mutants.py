import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_each_mutant_text_occurs_once_under_src():
    # a rename fails here instead of silently dropping a mutant
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) == 11
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new
        counts = {path: text.count(mutant.old) for path, text in sources.items()}
        assert {p for p, n in counts.items() if n} == {ROOT / mutant.path}, mutant.name
        assert counts[ROOT / mutant.path] == 1, mutant.name
