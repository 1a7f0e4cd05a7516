"""The CLI equivalence runner in ``tools/cli_artifacts.py``."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cli_artifacts.py"
_spec = importlib.util.spec_from_file_location("cli_artifacts", TOOL)
cli_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_artifacts)


def tree(root: pathlib.Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_leave_the_same_tree(tmp_path):
    names = ["pushout", "simulate", "simulate-static-slot"]
    for side in ("a", "b"):
        assert cli_artifacts.main([str(tmp_path / side), *names]) == 0
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert a == b
    assert sorted(a) == [
        "pushout/artifacts/pushout.json", "pushout/exit", "pushout/stderr", "pushout/stdout",
        "simulate-static-slot/artifacts/final_state.json", "simulate-static-slot/exit",
        "simulate-static-slot/stderr", "simulate-static-slot/stdout",
        "simulate/artifacts/final_state.json", "simulate/exit", "simulate/stderr",
        "simulate/stdout",
    ]
    # each out-dir's path is normalised, so the two stdouts agree
    assert a["pushout/stdout"] == b"pushout: 3 nodes, 2 edges -> <out>/pushout.json\n"
    assert a["pushout/exit"] == a["simulate/exit"] == a["simulate-static-slot/exit"] == b"0\n"
    # the static slot keeps the state's entry
    final = json.loads(a["simulate-static-slot/artifacts/final_state.json"])
    assert final["vector"][2] == 0.1


def test_an_unknown_name_is_refused(tmp_path, capsys):
    assert cli_artifacts.main([str(tmp_path), "no-such-command"]) == 2
    assert "names: pushout simulate" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
