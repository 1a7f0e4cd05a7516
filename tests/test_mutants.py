"""The mutant catalogue in ``tools/mutants.py``: only the cheap check runs
here. Running the mutants themselves takes a test run each."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_snippet_occurs_once_and_every_test_file_exists():
    assert mutants.check() == []
    assert len(mutants.MUTANTS) >= 8


def test_a_stale_catalogue_is_reported(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\nx = 1\n")
    stale = (
        mutants.Mutant("twice", "src/m.py", "x = 1", "x = 2", ("tests/missing.py",)),
        mutants.Mutant("absent", "src/m.py", "y = 1", "y = 1", ()),
    )
    monkeypatch.setattr(mutants, "MUTANTS", stale)
    assert mutants.check(tmp_path) == [
        "twice: snippet occurs 2 times in src/m.py",
        "twice: no test file tests/missing.py",
        "absent: replacement equals the snippet",
        "absent: snippet occurs 0 times in src/m.py",
        "absent: names no test file",
    ]
