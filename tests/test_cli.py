"""End-to-end CLI runs against temp directories and JSON fixtures."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from mycocat.cli import build_parser, main, write_atomic
from conftest import deleted, key_paths, replaced


def run_cli(argv):
    return main(argv)


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def star_cospan_file(tmp_path):
    return write(
        tmp_path / "cospan.json",
        {
            "apex": {"nodes": ["a"], "edges": []},
            "b": {"nodes": ["a", "b"], "edges": [["eb", ["a", "b"]]]},
            "c": {"nodes": ["a", "c"], "edges": [["ec", ["a", "c"]]]},
            "left": {"nodes": [["a", "a"]], "edges": []},
            "right": {"nodes": [["a", "a"]], "edges": []},
        },
    )


class TestPushoutCommand:
    def test_star_pushout(self, tmp_path, star_cospan_file, capsys):
        code = run_cli(["pushout", star_cospan_file, "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "pushout.json").read_text())
        assert len(payload["object"]["nodes"]) == 3
        assert len(payload["object"]["edges"]) == 2

    def test_missing_file_reports_config_error(self, tmp_path, capsys):
        code = run_cli(["pushout", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestWriteAtomic:
    def test_same_bytes_leave_the_file(self, tmp_path, star_cospan_file):
        argv = ["pushout", star_cospan_file, "--out-dir", str(tmp_path / "out")]
        assert run_cli(argv) == 0
        path = tmp_path / "out" / "pushout.json"
        before = path.stat()
        assert run_cli(argv) == 0
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(path.parent) == ["pushout.json"]

    def test_new_bytes_replace_the_file(self, tmp_path):
        path = tmp_path / "out" / "a.json"
        write_atomic(path, "{}\n")
        before = path.stat()
        write_atomic(path, '{"a": "\u00e9"}\n')
        assert path.read_bytes() == '{"a": "\u00e9"}\n'.encode("utf-8")
        assert path.stat().st_ino != before.st_ino  # a temp file renamed over it
        assert os.listdir(path.parent) == ["a.json"]


class TestSimulateCommand:
    def test_roundtrip(self, tmp_path):
        dyn = write(
            tmp_path / "dyn.json",
            {
                "drift": [[0.0, 1.0], [0.0, 0.0]],
                "controls": [[[0.0, 0.0], [0.0, 0.0]]],
            },
        )
        prog = write(tmp_path / "prog.json", {"pieces": [[1.0, [0.0]]]})
        state = write(
            tmp_path / "state.json",
            {
                "vector": [0.0, 1.0],
                "graph": {"nodes": ["v0", "v1"], "edges": [["e0", ["v0", "v1"]]]},
                "features": 1,
            },
        )
        code = run_cli(["simulate", dyn, prog, state, "--out-dir", str(tmp_path)])
        assert code == 0
        out = json.loads((tmp_path / "final_state.json").read_text())
        # exp([[0,1],[0,0]]) @ (0,1) = (1,1)
        assert out["vector"] == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("length", [1e14, 1e17, 1e300])
    def test_stiff_triangular_flow_is_exact(self, tmp_path, length):
        # exp(s [[-1, 1], [0, 0]]) @ (0, 1) = (1 - e^-s, 1); through Pade
        # squaring the first entry was 0.9961013694411649 at s = 1e14
        dyn = write(
            tmp_path / "dyn.json",
            {"drift": [[-1.0, 1.0], [0.0, 0.0]], "controls": [[[0.0, 0.0], [0.0, 0.0]]]},
        )
        prog = write(tmp_path / "prog.json", {"pieces": [[length, [0.0]]]})
        state = write(
            tmp_path / "state.json",
            {
                "vector": [0.0, 1.0],
                "graph": {"nodes": ["v0", "v1"], "edges": [["e0", ["v0", "v1"]]]},
                "features": 1,
            },
        )
        code = run_cli(["simulate", dyn, prog, state, "--out-dir", str(tmp_path)])
        assert code == 0
        out = json.loads((tmp_path / "final_state.json").read_text())
        assert out["vector"] == [1.0, 1.0]


class TestOrderScanCommand:
    def test_scan_writes_json_and_csv(self, tmp_path):
        exp = write(
            tmp_path / "exp.json",
            {
                "species": {"n_sites": 2, "channels": 2, "features": 3},
                "pulse_p": {"channel": 0},
                "pulse_q": {"channel": 1},
                "eps_grid": [0.2, 0.1, 0.05, 0.02, 0.01],
                "scaling": "amplitude",
                "seed": 7,
            },
        )
        code = run_cli(["order-scan", exp, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "order_scan.json").read_text())
        assert report["verdict"] == "quadratic"
        csv_bytes = (tmp_path / "order_scan_rows.csv").read_bytes()
        assert csv_bytes.startswith(b"eps,delta\r\n")  # RFC 4180 line endings
        assert len(csv_bytes.strip().splitlines()) == 6  # header + 5 rows

    def test_seed_flag_replaces_the_configured_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MYCOCAT_SEED", raising=False)
        config = {"species": {"n_sites": 2}, "seed": 7}
        runs = {
            "flag": (config, ["--seed", "5"]),
            "config": ({**config, "seed": 5}, []),
            "unflagged": (config, []),
        }
        reports = {}
        for name, (data, flags) in runs.items():
            path = write(tmp_path / f"{name}.json", data)
            out = tmp_path / name
            assert run_cli(["order-scan", path, *flags, "--out-dir", str(out)]) == 0
            reports[name] = (out / "order_scan.json").read_bytes()
        assert reports["flag"] == reports["config"] != reports["unflagged"]
        assert json.loads(reports["flag"])["seed"] == 5


class TestWorkedExampleCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        code = run_cli(["worked-example", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: quadratic" in out
        assert (tmp_path / "worked_example.json").exists()
        assert (tmp_path / "order_scan_amplitude.csv").exists()
        assert (tmp_path / "order_scan_duration.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        dir1, dir2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(["worked-example", "--out-dir", str(dir1), "--seed", "5"]) == 0
        assert run_cli(["worked-example", "--out-dir", str(dir2), "--seed", "5"]) == 0
        for name in (
            "worked_example.json",
            "order_scan_amplitude.csv",
            "order_scan_duration.csv",
        ):
            assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()

    def test_scaling_restriction(self, tmp_path):
        code = run_cli(
            ["worked-example", "--out-dir", str(tmp_path), "--scaling", "duration"]
        )
        assert code == 0
        assert (tmp_path / "order_scan_duration.csv").exists()
        assert not (tmp_path / "order_scan_amplitude.csv").exists()
        # the summary records the one mode that ran
        summary = json.loads((tmp_path / "worked_example.json").read_text())
        assert summary["config"]["scaling_modes"] == ["duration"]
        assert list(summary["scans"]) == ["duration"]

    def test_config_file_commuting_variant(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", {"coupling": "commuting"})
        code = run_cli(
            ["worked-example", "--config", cfg, "--out-dir", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "worked_example.json").read_text())
        for scan in summary["scans"].values():
            assert scan["slope"] is None or scan["slope"] >= 2.8


class TestCheckLawsCommand:
    def suite(self):
        return {
            "checks": [
                {"law": "functor_laws", "samples": 20, "tol": 1e-10,
                 "species": {"n_sites": 2}},
                {"law": "functor_laws", "samples": 10, "tol": 1e-10,
                 "species": {"n_sites": 2}, "mutant": "non_causal",
                 "expect": "fail"},
                {"law": "naturality", "variant": "similarity", "programs": 5,
                 "species": {"n_sites": 2}},
                {"law": "adjunction"},
                {"law": "lipschitz", "pairs": 4, "bound": 1.000001,
                 "species": {"n_sites": 2}},
                {"law": "compatibility", "pulses": 10,
                 "species": {"n_sites": 2}},
            ]
        }

    def test_suite_with_expected_failures_exits_zero(self, tmp_path):
        suite = write(tmp_path / "suite.json", self.suite())
        code = run_cli(["check-laws", suite, "--out-dir", str(tmp_path)])
        assert code == 0
        results = json.loads((tmp_path / "law_reports.json").read_text())["results"]
        assert len(results) == 6
        assert all(r["as_expected"] for r in results)

    def test_an_explicit_unit_psi_scale_writes_the_same_report(self, tmp_path):
        entry = {"law": "compatibility", "pulses": 10, "species": {"n_sites": 2}}
        reports = []
        for check in (entry, {**entry, "psi_amplitude_scale": 1.0}):
            out = tmp_path / str(len(reports))
            out.mkdir()
            suite = write(out / "suite.json", {"checks": [check]})
            assert run_cli(["check-laws", suite, "--seed", "3", "--out-dir", str(out)]) == 0
            results = json.loads((out / "law_reports.json").read_text())["results"]
            reports.append(results[0]["report"])
        assert reports[0] == reports[1]
        assert reports[0]["samples"] == 10

    def test_unexpected_failure_exits_nonzero(self, tmp_path):
        suite = {
            "checks": [
                {"law": "functor_laws", "samples": 10, "tol": 1e-10,
                 "species": {"n_sites": 2}, "mutant": "non_causal"}
            ]
        }
        path = write(tmp_path / "suite.json", suite)
        code = run_cli(["check-laws", path, "--out-dir", str(tmp_path)])
        assert code == 1

    def test_every_entry_is_read_before_any_law_runs(self, tmp_path, capsys):
        suite = {
            "checks": [
                {"law": "functor_laws", "samples": 3, **SMALL_SPECIES},
                {"law": "functor_laws", "samples": 0, **SMALL_SPECIES},
            ]
        }
        path = write(tmp_path / "suite.json", suite)
        code = run_cli(["check-laws", path, "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: checks[1].samples: must be positive, got 0"]
        assert not (tmp_path / "law_reports.json").exists()

    def test_unknown_law_is_config_error(self, tmp_path, capsys):
        path = write(tmp_path / "suite.json", {"checks": [{"law": "nonsense"}]})
        code = run_cli(["check-laws", path, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err


class TestShippedSampleInputs:
    """The files under sample_inputs/ must stay runnable as documented."""

    samples = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"

    def test_laws_suite(self, tmp_path):
        code = run_cli(
            ["check-laws", str(self.samples / "laws_suite.json"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 0

    def test_order_scan(self, tmp_path):
        code = run_cli(
            ["order-scan", str(self.samples / "order_scan.json"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "order_scan.json").read_text())
        assert report["verdict"] == "quadratic"

    def test_pushout_and_simulate(self, tmp_path):
        assert run_cli(
            ["pushout", str(self.samples / "cospan_star.json"),
             "--out-dir", str(tmp_path)]
        ) == 0
        assert run_cli(
            ["simulate",
             str(self.samples / "dynamics_shear.json"),
             str(self.samples / "program_pulse.json"),
             str(self.samples / "state_pair.json"),
             "--out-dir", str(tmp_path)]
        ) == 0

    def test_simulate_keeps_a_static_slot(self, tmp_path):
        # the third slot is in no block, so its entry comes out as it went in
        assert run_cli(
            ["simulate",
             str(self.samples / "dynamics_static_slot.json"),
             str(self.samples / "program_two_piece.json"),
             str(self.samples / "state_static_slot.json"),
             "--out-dir", str(tmp_path)]
        ) == 0
        final = json.loads((tmp_path / "final_state.json").read_text())
        assert final["vector"][2] == 0.1 and final["vector"][:2] != [1.0, 0.5]


class TestEnvironmentOverrides:
    def test_out_dir_env_var(self, tmp_path, star_cospan_file):
        env = dict(os.environ)
        env["MYCOCAT_OUT_DIR"] = str(tmp_path / "from-env")
        env.pop("MYCOCAT_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "mycocat.cli", "pushout", star_cospan_file],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "from-env" / "pushout.json").exists()

    def test_seed_env_var_matches_flag(self, tmp_path):
        env = dict(os.environ)
        env["MYCOCAT_SEED"] = "77"
        env["MYCOCAT_OUT_DIR"] = str(tmp_path / "a")
        proc = subprocess.run(
            [sys.executable, "-m", "mycocat.cli", "worked-example",
             "--scaling", "amplitude"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        code = run_cli(
            ["worked-example", "--out-dir", str(tmp_path / "b"), "--seed", "77",
             "--scaling", "amplitude"]
        )
        assert code == 0
        assert (tmp_path / "a" / "worked_example.json").read_bytes() == (
            tmp_path / "b" / "worked_example.json"
        ).read_bytes()

    def test_artifacts_do_not_depend_on_hash_seed(self, tmp_path):
        suite = str(SAMPLES / "laws_suite.json")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env.pop("MYCOCAT_SEED", None)
            out = tmp_path / hash_seed
            for argv in (["check-laws", suite], ["worked-example"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "mycocat.cli", *argv, "--out-dir", str(out)],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        first, second = outputs
        assert set(first) >= {"law_reports.json", "worked_example.json"}
        assert [name for name in first if first[name] != second[name]] == []


class TestClosedStdout:
    @pytest.mark.parametrize("expect, code", [("fail", 0), ("pass", 1)])
    def test_run_finishes_after_reader_closes_stdout(self, tmp_path, expect, code):
        # like `mycocat check-laws ... | head -1`, with the reader gone first
        suite = write(tmp_path / "suite.json", {"checks": [
            {"law": "functor_laws", "samples": 3, **SMALL_SPECIES},
            {"law": "functor_laws", "samples": 3, "mutant": "non_causal",
             "expect": expect, **SMALL_SPECIES},
        ]})
        env = dict(os.environ)
        env.pop("MYCOCAT_SEED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mycocat.cli", "check-laws", suite,
                 "--out-dir", str(tmp_path)],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, "")
        results = json.loads((tmp_path / "law_reports.json").read_text())["results"]
        assert [r["report"]["verdict"] for r in results] == ["pass", "fail"]


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
SMALL_SPECIES = {"species": {"n_sites": 2}}
# Stands for the path of the written config, in argv and in the message.
CONFIG = "<config>"
DYNAMICS = str(SAMPLES / "dynamics_shear.json")
PROGRAM = str(SAMPLES / "program_pulse.json")
STATE = str(SAMPLES / "state_pair.json")
# one site of three features whose third slot no matrix touches
STATIC_DYNAMICS = str(SAMPLES / "dynamics_static_slot.json")
TWO_PIECES = str(SAMPLES / "program_two_piece.json")
STATIC_STATE = str(SAMPLES / "state_static_slot.json")
STATE_PAIR = json.loads((SAMPLES / "state_pair.json").read_text(encoding="utf-8"))
STAR_COSPAN = json.loads((SAMPLES / "cospan_star.json").read_text(encoding="utf-8"))
# A two-site explicit species block: one channel that decays each site.
EXPLICIT_SPECIES = {
    "dynamics": {"drift": [[0.0, 0.0], [0.0, 0.0]], "controls": [[[-1.0, 0.0], [0.0, -1.0]]]},
    "graph": {"nodes": ["site0", "site1"], "edges": [["link0", ["site0", "site1"]]]},
    "features": 1,
}


@pytest.mark.parametrize(
    "argv, config, env, message",
    [
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "eps_gird": [0.2, 0.1, 0.05, 0.01]}, {},
            "error: eps_gird: unknown configuration field", id="scan-unknown-key",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "pulse_p": {"channel": 0, "amplitud": 2.0}}, {},
            "error: pulse_p.amplitud: unknown configuration field", id="scan-unknown-pulse-key",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_site": 2}}, {},
            "error: species.n_site: unknown configuration field", id="scan-unknown-species-key",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "pulse_q": {"channel": 5}}, {},
            "error: pulse_q.channel: 5 is outside [0, 2)", id="scan-channel-too-high",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "pulse_p": {"channel": -1}}, {},
            "error: pulse_p.channel: -1 is outside [0, 2)", id="scan-channel-negative",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"pulse_q": {"channel": 5}}, {},
            "error: pulse_q.channel: 5 is outside [0, 2)", id="worked-example-channel-too-high",
        ),
        pytest.param(
            ["order-scan", CONFIG], SMALL_SPECIES, {"MYCOCAT_SEED": "abc"},
            "error: MYCOCAT_SEED: not an integer: 'abc'", id="seed-env-not-an-integer",
        ),
        pytest.param(
            ["pushout", str(SAMPLES / "cospan_star.json")], None, {"MYCOCAT_SEED": "abc"},
            None, id="pushout-ignores-seed-env",
        ),
        pytest.param(
            ["pushout", str(SAMPLES / "cospan_star.json"), "--seed", "1"], None, {},
            "mycocat: error: unrecognized arguments: --seed 1", id="pushout-seed-flag",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, STATE, "--tol", "0"], None, {},
            "mycocat: error: unrecognized arguments: --tol 0", id="simulate-tol-flag",
        ),
        pytest.param(
            ["worked-example", "--tol", "1e-12"], None, {},
            "mycocat: error: unrecognized arguments: --tol 1e-12", id="worked-example-tol-flag",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": {"nodes": ["a", "a"], "edges": []}}, {},
            f"error: {CONFIG}: duplicate node ids", id="pushout-duplicate-node",
        ),
        pytest.param(
            ["pushout", CONFIG], {
                **STAR_COSPAN,
                "apex": {"nodes": ["a", "b"], "edges": [["ae", ["a", "b"]]]},
                "b": {"nodes": ["a", "b", "x"], "edges": [["eb", ["a", "x"]]]},
                "left": {"nodes": [["a", "a"], ["b", "b"]], "edges": [["ae", "eb"]]},
            }, {},
            f"error: {CONFIG}: edge 'ae' does not preserve incidence",
            id="pushout-leg-breaks-incidence",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": {"nodes": "ab", "edges": []}}, {},
            f"error: {CONFIG}: b.nodes: must be a list of ids, got 'ab'",
            id="pushout-nodes-not-a-list",
        ),
        pytest.param(
            ["pushout", CONFIG],
            {**STAR_COSPAN, "b": {**STAR_COSPAN["b"], "directed": "no"}}, {},
            f"error: {CONFIG}: b.directed: must be true or false, got 'no'",
            id="pushout-directed-not-a-bool",
        ),
        pytest.param(
            ["pushout", CONFIG],
            {**STAR_COSPAN, "b": {"nodes": ["a", "b"], "edges": [["eb", ["a", "b"], "x"]]}},
            {}, f"error: {CONFIG}: b.edges[0]: must be [id, [u, v]], got ['eb', ['a', 'b'], 'x']",
            id="pushout-edge-entry-malformed",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": "ab"}, {},
            f"error: {CONFIG}: b: must be a JSON object, got 'ab'",
            id="pushout-graph-not-an-object",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": {"nodes": [["a"], "b"], "edges": []}},
            {}, f"error: {CONFIG}: b.nodes[0]: must be an id, got list",
            id="pushout-node-id-a-list",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": {"edges": []}}, {},
            f"error: {CONFIG}: b.nodes: missing key", id="pushout-graph-without-nodes",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "left": {"nodes": [["a", "a"]]}}, {},
            f"error: {CONFIG}: left.edges: missing key", id="pushout-leg-without-edges",
        ),
        pytest.param(
            ["pushout", CONFIG], {k: v for k, v in STAR_COSPAN.items() if k != "right"}, {},
            f"error: {CONFIG}: right: missing key", id="pushout-cospan-without-right",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "left": {"nodes": "a", "edges": []}}, {},
            f"error: {CONFIG}: left.nodes: must be a list of [from, to] id pairs, got 'a'",
            id="pushout-leg-nodes-not-pairs",
        ),
        pytest.param(
            ["check-laws", str(SAMPLES / "laws_suite.json"), "--seed", "301"], None, {},
            None, id="lipschitz-sampler-seed-301",
        ),
        pytest.param(
            ["simulate", DYNAMICS, CONFIG, STATE], {"pieces": [[-0.5, [0.3]]]}, {},
            f"error: {CONFIG}: piece lengths must be strictly positive",
            id="simulate-negative-length",
        ),
        pytest.param(
            ["simulate", DYNAMICS, CONFIG, STATE], {"length": 1.0}, {},
            f"error: {CONFIG}: pieces: missing key", id="simulate-program-without-pieces",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {"vector": [1.0, 0.5], "features": 1},
            {}, f"error: {CONFIG}: graph: missing key", id="simulate-state-without-graph",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE], {"drift": [[0.0, 1.0], [0.0, 0.0]]}, {},
            f"error: {CONFIG}: controls: missing key", id="simulate-dynamics-without-controls",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE],
            {"drift": [[0.0, 1.0], [0.0, 0.0]], "controls": []}, {},
            f"error: {PROGRAM}: program has 1 control channels, dynamics {CONFIG} has 0",
            id="simulate-control-width-mismatch",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG],
            {"vector": [1.0, 0.5, 0.25], "features": 1,
             "graph": {"nodes": ["a", "b", "c"], "edges": []}}, {},
            f"error: {CONFIG}: state has dimension 3, dynamics {DYNAMICS} has dimension 2",
            id="simulate-state-dimension-mismatch",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samplez": 5, **SMALL_SPECIES}]}, {},
            "error: checks[0].samplez: unknown configuration field",
            id="laws-unknown-entry-key",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 5, "species": {
                "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]}, "features": 1,
            }}]}, {},
            "error: checks[0].species: graph: missing key",
            id="laws-explicit-species-without-graph",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 5, "species": {
                "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]}, "features": 1,
                "graph": {"nodes": ["site0"], "edges": []}, "sigmma": 1.0,
            }}]}, {},
            "error: checks[0].species.sigmma: unknown configuration field",
            id="laws-explicit-species-unknown-key",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 5, "mutant": "noncausal",
                         "expect": "fail", **SMALL_SPECIES}]}, {},
            "error: checks[0].mutant: unknown mutant 'noncausal'",
            id="laws-unknown-mutant",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 0, **SMALL_SPECIES}]}, {},
            "error: checks[0].samples: must be positive, got 0", id="laws-zero-samples",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "compatibility", "pulses": -2, **SMALL_SPECIES}]}, {},
            "error: checks[0].pulses: must be positive, got -2", id="laws-negative-pulses",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"functor_samples": 0}, {},
            "error: functor_samples: must be positive, got 0",
            id="worked-example-zero-functor-samples",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "tol": -1, **SMALL_SPECIES}]}, {},
            "error: checks[0].tol: must be a nonnegative number, got -1.0",
            id="laws-negative-tol",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "lipschitz", "pairs": 2, "bound": "nan", **SMALL_SPECIES}]}, {},
            "error: checks[0].bound: must be a number, got 'nan'",
            id="lipschitz-nan-bound",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE],
            {"drift": [[math.nan, 1.0], [0.0, 0.0]], "controls": [[[0.0, 1.0], [0.0, 0.0]]]},
            {}, f"error: {CONFIG}: dynamics matrices must be finite",
            id="simulate-nan-drift",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "weights": [1, 1]}, {},
            "error: weights: need 3 numbers (omega, sigma, structure), got 2",
            id="scan-two-weights",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"weights": [1, 1, 1, 1]}, {},
            "error: weights: need 3 numbers (omega, sigma, structure), got 4",
            id="worked-example-four-weights",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "weights": [math.nan, 1, 1]}, {},
            "error: weights: distance weights must be nonnegative numbers, got (nan, 1.0, 1.0)",
            id="scan-nan-weight",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"weights": [math.nan, 1, 1]}, {},
            "error: weights: distance weights must be nonnegative numbers, got (nan, 1.0, 1.0)",
            id="worked-example-nan-weight",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 0}}, {},
            "error: species.n_sites: must be positive, got 0", id="scan-zero-sites",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {"n_sites": 0}}]}, {},
            "error: checks[0].species.n_sites: must be positive, got 0", id="laws-zero-sites",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, **SMALL_SPECIES},
                        {"law": "functor_laws", "samples": 3, "species": {"n_sites": 0}}]}, {},
            "error: checks[1].species.n_sites: must be positive, got 0",
            id="laws-zero-sites-second-entry",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {
                **EXPLICIT_SPECIES, "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]},
            }}, {},
            "error: species.dynamics: dimension 1 does not match layout 2",
            id="scan-explicit-species-dimension-mismatch",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]},
            }}]}, {},
            "error: checks[0].species.dynamics: dimension 1 does not match layout 2",
            id="laws-explicit-species-dimension-mismatch",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"n_sites": 0}, {},
            "error: n_sites: must be positive, got 0", id="worked-example-zero-sites",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "features": 0}}, {},
            "error: species.features: must be positive, got 0", id="scan-zero-features",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"features": 0}, {},
            "error: features: unknown configuration field", id="worked-example-zero-features",
        ),
        pytest.param(
            ["worked-example", "--seed", "-1"], None, {},
            "error: --seed: must be nonnegative, got -1", id="worked-example-negative-seed",
        ),
        pytest.param(
            ["order-scan", CONFIG], SMALL_SPECIES, {"MYCOCAT_SEED": "-2"},
            "error: MYCOCAT_SEED: must be nonnegative, got -2", id="seed-env-negative",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "seed": -1}, {},
            "error: seed: must be nonnegative, got -1", id="scan-negative-seed",
        ),
        pytest.param(
            ["order-scan", CONFIG, "--seed", "5"], {**SMALL_SPECIES, "seed": -1}, {},
            "error: seed: must be nonnegative, got -1", id="scan-negative-seed-under-flag",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "seed": -1}, {"MYCOCAT_SEED": "5"},
            "error: seed: must be nonnegative, got -1", id="scan-negative-seed-under-env",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "seed": -1, **SMALL_SPECIES}]}, {},
            "error: checks[0].seed: must be nonnegative, got -1", id="laws-negative-seed",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "sigma": -1}}, {},
            "error: species.sigma: must be a nonnegative number, got -1.0",
            id="scan-negative-sigma",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 1, "sigma": -1}}, {},
            "error: species.sigma: must be a nonnegative number, got -1.0",
            id="scan-negative-sigma-one-site",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "sigma": "nan"}}, {},
            "error: species.sigma: must be a number, got 'nan'",
            id="scan-nan-sigma",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"sigma": -1}, {},
            "error: sigma: must be a nonnegative number, got -1.0",
            id="worked-example-negative-sigma",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "compatibility", "pulses": 3,
                         "species": {"n_sites": 2, "channels": -1}}]}, {},
            "error: checks[0].species.channels: must be positive, got -1",
            id="laws-negative-channels",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3,
                         "species": {"n_sites": 2, "channels": 0}}]}, {},
            "error: checks[0].species.channels: must be positive, got 0",
            id="laws-zero-channels",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"channels": 0}, {},
            "error: channels: must be positive, got 0", id="worked-example-zero-channels",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"channels": -1}, {},
            "error: channels: must be positive, got -1",
            id="worked-example-negative-channels",
        ),
        pytest.param(
            ["check-laws", CONFIG], {"checks": ["x"]}, {},
            "error: checks[0]: must be a JSON object, got 'x'", id="laws-entry-not-object",
        ),
        pytest.param(
            ["check-laws", CONFIG], [1], {},
            f"error: {CONFIG}: must be a JSON object, got list", id="laws-suite-not-object",
        ),
        pytest.param(
            ["order-scan", CONFIG], [1], {},
            f"error: {CONFIG}: must be a JSON object, got list", id="scan-config-not-object",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], [1], {},
            f"error: {CONFIG}: must be a JSON object, got list",
            id="worked-example-config-not-object",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": [1]}, {},
            "error: species: must be a JSON object, got list", id="scan-species-not-object",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": 5}]}, {},
            "error: checks[0].species: must be a JSON object, got 5", id="laws-species-not-object",
        ),
        pytest.param(
            ["check-laws", CONFIG], {"checks": [{"law": ["adjunction"]}]}, {},
            "error: checks[0].law: unknown check ['adjunction']", id="laws-law-not-a-string",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "naturality", "variant": "rotated", **SMALL_SPECIES}]}, {},
            "error: checks[0].variant: unknown variant 'rotated'",
            id="laws-unknown-variant",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "lipschitz", "pairs": 2, "program": {"length": 1.0},
                         **SMALL_SPECIES}]}, {},
            "error: checks[0].program: pieces: missing key",
            id="laws-program-without-pieces",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "lipschitz", "pairs": 2, "program": {"pieces": [[1.0, [1.0]]]},
                         **SMALL_SPECIES}]}, {},
            "error: checks[0].program: program has 1 control channels, species has 2",
            id="laws-program-control-width-mismatch",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "compatibility", "pulses": 3, "psi_amplitude_scale": 2.0,
                         "expect": "fail", "species": {"n_sites": 2, "sigma": math.inf}}]},
            {}, "error: checks[0].species.sigma: must be finite, got inf",
            id="laws-infinite-sigma",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"sigma": math.inf}, {},
            "error: sigma: must be finite, got inf", id="worked-example-infinite-sigma",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "mutant": "non_causal", "tol": math.inf,
                         "samples": 5, **SMALL_SPECIES}]}, {},
            "error: checks[0].tol: must be finite, got inf", id="laws-infinite-tol",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "lipschitz", "pairs": 2, "bound": math.inf,
                         **SMALL_SPECIES}]}, {},
            "error: checks[0].bound: must be finite, got inf", id="lipschitz-infinite-bound",
        ),
        pytest.param(
            ["check-laws", CONFIG, "--tol", "inf"],
            {"checks": [{"law": "functor_laws", "mutant": "non_causal", "samples": 5,
                         **SMALL_SPECIES}]}, {},
            "error: --tol: must be finite, got inf", id="laws-infinite-tol-flag",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"functor_tol": math.inf}, {},
            "error: functor_tol: must be finite, got inf",
            id="worked-example-infinite-functor-tol",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"compat_tol": math.inf}, {},
            "error: compat_tol: must be finite, got inf",
            id="worked-example-infinite-compat-tol",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "sigma": "abc",
            }}]}, {},
            "error: checks[0].species.sigma: must be a number, got 'abc'",
            id="laws-explicit-species-sigma-not-a-number",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "sigma": -1.0,
            }}]}, {},
            "error: checks[0].species: sigma must be a finite nonnegative number, got -1.0",
            id="laws-explicit-species-negative-sigma",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "graph": {"nodes": ["site0"], "edges": []},
                "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]}, "sigma": -1.0,
            }}]}, {},
            "error: checks[0].species: sigma must be a finite nonnegative number, got -1.0",
            id="laws-explicit-species-negative-sigma-one-node",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "graph": {"nodes": ["site0", "site1"], "edges": []},
            }}]}, {},
            "error: checks[0].species: mycelial network must be connected",
            id="laws-explicit-species-disconnected",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "features": 1.5,
            }}]}, {},
            "error: checks[0].species.features: must be an integer, got 1.5",
            id="laws-explicit-species-fractional-features",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 2.7, "seed": 1.9,
                         "species": {"n_sites": 2.5}}]}, {},
            "error: checks[0].samples: must be an integer, got 2.7",
            id="laws-fractional-samples",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {"n_sites": 2.5}}]},
            {}, "error: checks[0].species.n_sites: must be an integer, got 2.5",
            id="laws-fractional-sites",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "lipschitz", "pairs": math.inf, **SMALL_SPECIES}]}, {},
            "error: checks[0].pairs: must be an integer, got inf", id="laws-infinite-pairs",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "seed": 1.9}, {},
            "error: seed: must be an integer, got 1.9", id="scan-fractional-seed",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "channels": 2.5}}, {},
            "error: species.channels: must be an integer, got 2.5",
            id="scan-fractional-channels",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"functor_samples": 2.5}, {},
            "error: functor_samples: must be an integer, got 2.5",
            id="worked-example-fractional-samples",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"scaling_modes": []}, {},
            "error: scaling_modes: must name at least one mode",
            id="worked-example-no-scaling-modes",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "weights": [1, math.inf, 1]}, {},
            "error: weights: distance weights must be finite, got (1.0, inf, 1.0)",
            id="scan-infinite-weight",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"weights": [1, math.inf, 1]}, {},
            "error: weights: distance weights must be finite, got (1.0, inf, 1.0)",
            id="worked-example-infinite-weight",
        ),
        pytest.param(
            ["order-scan", CONFIG],
            {**SMALL_SPECIES, "eps_grid": [0.2, math.nan, 0.05, 0.02, 0.01]}, {},
            "error: eps_grid: entries must be finite, got nan", id="scan-nan-eps",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "eps_grid": [math.inf, 0.1, 0.05, 0.01]},
            {}, "error: eps_grid: entries must be finite, got inf", id="scan-infinite-eps",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG],
            {"n_sites": 2, "eps_grid": [0.2, 0.1, math.nan, 0.02, 0.01]}, {},
            "error: eps_grid: entries must be finite, got nan", id="worked-example-nan-eps",
        ),
        pytest.param(
            ["order-scan", CONFIG],
            {**SMALL_SPECIES, "pulse_p": {"channel": 0, "amplitude": math.nan}}, {},
            "error: pulse_p.amplitude: must be finite, got nan", id="scan-nan-amplitude",
        ),
        pytest.param(
            ["order-scan", CONFIG],
            {**SMALL_SPECIES, "pulse_q": {"channel": 1, "duration": math.inf}}, {},
            "error: pulse_q.duration: must be finite, got inf", id="scan-infinite-duration",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "compatibility", "pulses": 3, "psi_amplitude_scale": math.nan,
                         "expect": "fail", **SMALL_SPECIES}]}, {},
            "error: checks[0].psi_amplitude_scale: must be finite, got nan",
            id="laws-nan-psi-scale",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "naturality", "variant": "perturbed", "programs": 3,
                         "magnitude": math.nan, "expect": "fail", **SMALL_SPECIES}]}, {},
            "error: checks[0].magnitude: must be finite, got nan", id="laws-nan-magnitude",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"n_sites": 2, "features": 4}, {},
            "error: features: unknown configuration field",
            id="worked-example-features-not-channels-plus-one",
        ),
        pytest.param(
            ["simulate", DYNAMICS, CONFIG, STATE], {"pieces": [[math.inf, [0.3]]]}, {},
            f"error: {CONFIG}: piece lengths and controls must be finite",
            id="simulate-infinite-length",
        ),
        pytest.param(
            ["simulate", DYNAMICS, CONFIG, STATE], {"pieces": [[0.5, [math.nan]]]}, {},
            f"error: {CONFIG}: piece lengths and controls must be finite",
            id="simulate-nan-control",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {**STATE_PAIR, "features": 1.9}, {},
            f"error: {CONFIG}: features: must be an integer, got 1.9",
            id="simulate-fractional-features",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {**STATE_PAIR, "features": True}, {},
            f"error: {CONFIG}: features: must be an integer, got True",
            id="simulate-bool-features",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {**STATE_PAIR, "features": math.inf}, {},
            f"error: {CONFIG}: features: must be an integer, got inf",
            id="simulate-infinite-features",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {**STATE_PAIR, "vector": [True, 0.5]}, {},
            f"error: {CONFIG}: vector[0]: must be a number, got True",
            id="simulate-bool-vector-entry",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {**STATE_PAIR, "vector": [1.0, "a"]}, {},
            f"error: {CONFIG}: vector[1]: must be a number, got 'a'",
            id="simulate-string-vector-entry",
        ),
        pytest.param(
            ["simulate", DYNAMICS, CONFIG, STATE], {"pieces": [[0.5, ["a"]]]}, {},
            f"error: {CONFIG}: pieces[0]: must be [length, [u1, ..., uc]] with numbers, "
            "got [0.5, ['a']]",
            id="simulate-string-control",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE],
            {"drift": [["a", 1.0], [0.0, 0.0]], "controls": [[[0.0, 0.0], [1.0, 0.0]]]}, {},
            f"error: {CONFIG}: drift[0][0]: must be a number, got 'a'",
            id="simulate-string-drift",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE],
            {"drift": [[0.0, 1.0], [0.0, 0.0]],
             "controls": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, "a"], [0.0, 0.0]]]}, {},
            f"error: {CONFIG}: controls[1][0][1]: must be a number, got 'a'",
            id="simulate-string-dynamics-control",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE],
            {"drift": [[0.0, 1.0], [0.0]], "controls": [[[0.0, 0.0], [1.0, 0.0]]]}, {},
            f"error: {CONFIG}: drift: rows must be equally long, got lengths [2, 1]",
            id="simulate-ragged-drift",
        ),
        pytest.param(
            ["order-scan", CONFIG],
            {"species": {"n_sites": 2.0, "sigma": 1}, "seed": 3.0,
             "pulse_p": {"channel": 0.0, "amplitude": 1}}, {},
            None, id="scan-integral-float-for-int-and-int-for-float",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "tol": True, **SMALL_SPECIES}]}, {},
            "error: checks[0].tol: must be a number, got True", id="laws-bool-tol",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": "7", **SMALL_SPECIES}]}, {},
            "error: checks[0].samples: must be an integer, got '7'", id="laws-string-samples",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "pulse_p": {"channel": False}}, {},
            "error: pulse_p.channel: must be an integer, got False", id="scan-bool-channel",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "weights": [True, 1, 1]}, {},
            "error: weights[0]: must be a number, got True", id="scan-bool-weight",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "scaling": ["amplitude"]}, {},
            "error: scaling: must be a string, got list", id="scan-list-scaling",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "label": 7}}, {},
            "error: species.label: must be a string, got 7", id="scan-number-label",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"eps_grid": "0.2"}, {},
            "error: eps_grid: must be a list, got '0.2'", id="worked-example-string-eps-grid",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"scaling_modes": "duration"}, {},
            "error: scaling_modes: must be a list, got 'duration'",
            id="worked-example-string-scaling-modes",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3,
                         "species": {"n_sites": 2, "coupling": "dense"}}]}, {},
            "error: checks[0].species.coupling: unknown coupling kind 'dense'",
            id="laws-unknown-coupling",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"n_sites": 2, "coupling": "dense"}, {},
            "error: coupling: unknown coupling kind 'dense'",
            id="worked-example-unknown-coupling",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "features": 1}}, {},
            "error: species.features: coupling needs at least 2 features per site",
            id="scan-one-feature",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "pulse_p": {"channel": 0, "amplitude": 10**400}},
            {}, f"error: pulse_p.amplitude: must be a number in the float range, got {10**400}",
            id="scan-integer-past-float-range",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"n_sites": 1e308}, {},
            "error: n_sites: too large, the species' dynamics would take more than 64 MiB",
            id="worked-example-huge-sites",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"n_sites": -1e308}, {},
            "error: n_sites: must be positive, got -1e+308",
            id="worked-example-hugely-negative-sites",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": -(10**400)}}, {},
            "error: species.n_sites: must be positive, got -1e+400",
            id="scan-negative-sites-past-float-range",
        ),
        pytest.param(
            ["order-scan", CONFIG], {**SMALL_SPECIES, "seed": -1e308}, {},
            "error: seed: must be nonnegative, got -1e+308", id="scan-hugely-negative-seed",
        ),
        pytest.param(
            ["worked-example", "--config", CONFIG], {"compat_pulses": 1e308}, {},
            "error: compat_pulses: must be at most 10000", id="worked-example-huge-pulses",
        ),
        pytest.param(
            ["order-scan", CONFIG], {"species": {"n_sites": 2, "channels": 1e308}}, {},
            "error: species.channels: too large, the species' dynamics would take more than "
            "64 MiB", id="scan-huge-channels",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "lipschitz", "pairs": 1e308, **SMALL_SPECIES}]}, {},
            "error: checks[0].pairs: must be at most 10000", id="lipschitz-huge-pairs",
        ),
    ],
)
def test_input_contract(tmp_path, monkeypatch, capsys, argv, config, env, message):
    """Bad inputs exit 2 with one ``error:`` line, after argparse's usage
    lines for a flag the subcommand does not take; ``message=None`` expects
    exit 0."""
    monkeypatch.delenv("MYCOCAT_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        path = write(tmp_path / "config.json", config)
        argv = [path if arg == CONFIG else arg for arg in argv]
        message = message and message.replace(CONFIG, path)
    try:
        code = run_cli(argv + ["--out-dir", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
    except SystemExit as exc:
        code, lines = exc.code, capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: mycocat")
        lines = lines[-1:]
    if message is None:
        assert code == 0, lines
    else:
        assert code == 2
        assert lines == [message]


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert flags == {
        "pushout": {"--out-dir"},
        "simulate": {"--out-dir"},
        "order-scan": {"--out-dir", "--seed"},
        "worked-example": {"--out-dir", "--seed", "--config", "--scaling"},
        "check-laws": {"--out-dir", "--seed", "--tol"},
    }


@pytest.mark.parametrize(
    "raw",
    [b'{"seed": ' + b"9" * 5000 + b"}", b'{"scaling": "\xff"}',
     b'{"seed": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
    ids=["integer-past-digit-limit", "not-utf8", "nested-past-recursion-limit"],
)
def test_unreadable_input_file_is_invalid_json(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert run_cli(["order-scan", str(path), "--out-dir", str(tmp_path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: invalid JSON (")


def test_directory_as_input_file_is_a_config_error(tmp_path, capsys):
    assert run_cli(["order-scan", str(tmp_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: cannot read (Is a directory)"]


def test_huge_nilpotent_pulse_is_not_read_as_commuting(tmp_path, capsys):
    # the pulse's flow is exact (the pulse is nilpotent) and so is its
    # generator, read off the dynamics rather than logged from a flow this
    # far from I; the commutator's norm is taken without overflow
    path = write(tmp_path / "config.json",
                 {**SMALL_SPECIES, "pulse_p": {"channel": 0, "amplitude": 1e200}})
    assert run_cli(["order-scan", path, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "order_scan.json").read_text())
    assert report["verdict"] == "quadratic"
    assert math.isfinite(report["commutator_norm"]) and report["commutator_norm"] > 1e200


def test_commuting_pulse_far_from_identity_is_commuting(tmp_path, capsys):
    # a log of exp(0.1 * 800 * A) does not converge; the generators commute
    # exactly and the rows sit at the floor
    path = write(tmp_path / "config.json", {
        "species": {"n_sites": 2, "coupling": "commuting"},
        "pulse_p": {"channel": 0, "amplitude": 800},
    })
    assert run_cli(["order-scan", path, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "order_scan.json").read_text())
    assert report["verdict"].startswith("commuting")
    assert report["commutator_norm"] == 0.0


def test_huge_pulse_prints_one_error_line_and_no_warning(tmp_path):
    # the rows are finite, but the commutator of the two generators
    # (entries 1e200 and 1e109) overflows; it is refused without a numpy
    # warning on stderr
    path = write(tmp_path / "config.json", {
        **SMALL_SPECIES,
        "pulse_p": {"channel": 0, "amplitude": 1e200},
        "pulse_q": {"channel": 1, "amplitude": 1e109},
    })
    env = dict(os.environ)
    env.pop("MYCOCAT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mycocat.cli", "order-scan", path, "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: commutator of the pulse generators overflows float64"
    ]


# ---------------------------------------------------------------------------
# Import contract: the package and the CLI load only what a command runs
# ---------------------------------------------------------------------------

# Each snippet runs in a fresh interpreter and ends by printing whether numpy
# was loaded; {cospan} and {out} are filled in by the test.
NUMPY_FREE_SNIPPETS = {
    "import-package": "import mycocat",
    "cli-help": (
        "import runpy\n"
        "sys.argv = ['mycocat', '--help']\n"
        "try:\n"
        "    runpy.run_module('mycocat.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    ),
    "cli-pushout": (
        "from mycocat.cli import main\n"
        "assert main(['pushout', {cospan!r}, '--out-dir', {out!r}]) == 0\n"
        "assert not {{'dataclasses', 'csv'}} & sys.modules.keys(), 'dataclasses or csv loaded'\n"
    ),
    "graphs-name": (
        "import mycocat\n"
        "assert mycocat.pushout_along_monos is sys.modules['mycocat.graphs'].pushout_along_monos\n"
    ),
    "unknown-name": (
        "import mycocat\n"
        "try:\n"
        "    mycocat.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'mycocat' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    ),
}


@pytest.mark.parametrize("snippet", NUMPY_FREE_SNIPPETS)
def test_fresh_interpreter_loads_no_numpy(tmp_path, star_cospan_file, snippet):
    code = NUMPY_FREE_SNIPPETS[snippet].format(cospan=star_cospan_file, out=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# Imports every mycocat module after numpy, counting the source strings
# compiled meanwhile and whether typing's NamedTuple builder made each one.
STRING_COMPILES = """
import pathlib, sys
import numpy, numpy.random
import mycocat
compiles = []

def hook(event, args):
    if event == 'compile' and args[1] == '<string>':
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != '_make_nmtuple':
            frame = frame.f_back
        compiles.append(frame is not None)

sys.addaudithook(hook)
for path in sorted(pathlib.Path(mycocat.__path__[0]).glob('*.py')):
    __import__('mycocat.' + path.stem)
print(len(compiles), compiles.count(False), 'dataclasses' in sys.modules)
"""


def test_importing_every_module_generates_no_code():
    """Records are plain classes: no module compiles source text at import
    (dataclasses compiled 164 strings), save what the two NamedTuples,
    ``kernels.Blocks`` and ``experiments.FitResult``, make."""
    proc = subprocess.run([sys.executable, "-c", STRING_COMPILES], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    total, outside_namedtuples, dataclasses_loaded = proc.stdout.split()
    assert int(total) > 0  # the hook sees the NamedTuples
    assert outside_namedtuples == "0"
    assert dataclasses_loaded == "False"


# Every name the package exported by eager imports, by defining submodule.
PACKAGE_EXPORTS = {
    "envmyc": [
        "Constraints", "DistanceWeights", "EnvBatch", "EnvMorphism", "EnvObject",
        "FieldRule", "MycMorphism", "MycObject", "anastomosis",
        "anastomosis_with_injections", "apply_env_morphism", "compose_env_morphisms",
        "compose_myc_morphisms", "env_distance", "env_distances", "myc_distance",
        "transport_myc",
    ],
    "errors": ["MycocatError"],
    "experiments": [
        "AsymmetryReport", "ExposureExperiment", "PulseTemplate", "WorkedExampleConfig",
        "fit_loglog_slope", "reference_species", "run_order_asymmetry_scan",
        "run_worked_example",
    ],
    "graphs": [
        "AttributedGraph", "Cospan", "GraphMorphism", "compose_graph_morphisms",
        "is_monomorphism", "pushout_along_monos", "verify_pushout_universal_property",
    ],
    "laws": [
        "LawReport", "NaturalTransformationData", "SpeciesFunctor", "check_adjunction",
        "check_compatibility", "check_functor_laws", "check_lipschitz", "check_naturality",
    ],
    "liealg": [
        "BchResult", "bch_truncated", "commutator", "effective_mixture_generator",
        "estimate_generator", "matrix_exp", "matrix_log",
    ],
    "programs": [
        "Extraction", "InternalState", "PieceTable", "Program", "ReferenceDynamics",
        "StateLayout", "concatenate", "evolve", "extract", "flow_matrix",
        "programs_equivalent_at", "state_distances",
    ],
}


@pytest.mark.parametrize("module", PACKAGE_EXPORTS)
def test_package_exports_resolve_to_their_definitions(module):
    import importlib

    import mycocat

    source = importlib.import_module(f"mycocat.{module}")
    assert getattr(mycocat, module) is source
    for name in PACKAGE_EXPORTS[module]:
        assert getattr(mycocat, name) is getattr(source, name), name
        assert name in dir(mycocat), name
        assert name in mycocat.__all__, name
    assert mycocat.__version__ == "0.1.0"


def test_package_refuses_unknown_names():
    import mycocat

    with pytest.raises(AttributeError, match="no_such_name"):
        mycocat.no_such_name
    assert not hasattr(mycocat, "_config_kwargs")
    assert sorted(mycocat.__all__) == sorted(
        name for names in PACKAGE_EXPORTS.values() for name in names
    )


# ---------------------------------------------------------------------------
# Input fuzzer: every key path of every sample input, through cli.main
# ---------------------------------------------------------------------------

INPUT = "<input>"  # stands for the path of the fuzzed file in argv
FUZZ_COMMANDS = {
    "cospan_star.json": ["pushout", INPUT],
    "dynamics_shear.json": ["simulate", INPUT, PROGRAM, STATE],
    "program_pulse.json": ["simulate", DYNAMICS, INPUT, STATE],
    "state_pair.json": ["simulate", DYNAMICS, PROGRAM, INPUT],
    "dynamics_static_slot.json": ["simulate", INPUT, TWO_PIECES, STATIC_STATE],
    "program_two_piece.json": ["simulate", STATIC_DYNAMICS, INPUT, STATIC_STATE],
    "state_static_slot.json": ["simulate", STATIC_DYNAMICS, TWO_PIECES, INPUT],
    "order_scan.json": ["order-scan", INPUT],
    "laws_suite.json": ["check-laws", INPUT],
}
FUZZ_VALUES = [None, "x", [], {}, -1, 0, math.inf, 1e308, -1e308, True, "1", [[1]]]
DELETE = object()  # a fuzz case that deletes the key or list item at its path


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_fuzzer_covers_every_sample_input():
    assert sorted(FUZZ_COMMANDS) == sorted(p.name for p in SAMPLES.glob("*.json"))


@pytest.mark.parametrize("name", FUZZ_COMMANDS)
def test_fuzzed_sample_inputs_exit_cleanly(tmp_path, monkeypatch, capsys, name):
    """Each key path of the file, set to each fuzz value in turn and, but
    the root, deleted: the run exits 0 or 2 (check-laws may also exit 1, a verdict that differs from
    its expectation), writes one ``error:`` line to stderr when it exits 2
    and nothing otherwise, and raises nothing out of ``main``. Where the
    file holds a number, ``true`` and ``"1"`` exit 2: a bool or a string is
    never a number. Every case runs, in a fixed order; all six files take
    ~2 s."""
    monkeypatch.delenv("MYCOCAT_SEED", raising=False)
    doc = json.loads((SAMPLES / name).read_text(encoding="utf-8"))
    command = FUZZ_COMMANDS[name]
    exits = (0, 1, 2) if command[0] == "check-laws" else (0, 2)
    cases = [(path, value) for path in key_paths(doc) for value in FUZZ_VALUES]
    cases += [(path, DELETE) for path in list(key_paths(doc))[1:]]
    numbers = {
        path for path in key_paths(doc)
        if isinstance(value_at(doc, path), (int, float))
        and not isinstance(value_at(doc, path), bool)
    }
    bad = []
    for index, (path, value) in enumerate(cases):
        # a new input file and out-dir per run: replacing an existing file
        # can cost a disk flush, which would dominate the run
        run = tmp_path / str(index)
        run.mkdir()
        fuzzed = deleted(doc, path) if value is DELETE else replaced(doc, path, value)
        (run / name).write_text(json.dumps(fuzzed), encoding="utf-8")
        argv = [str(run / name) if arg == INPUT else arg for arg in command]
        try:
            code = main(argv + ["--out-dir", str(run)])
        except BaseException as exc:  # a traceback at the command line
            code = f"{type(exc).__name__}: {exc}"
        lines = capsys.readouterr().err.splitlines()
        clean = all(line.startswith("error: ") for line in lines)
        refused = path in numbers and (value is True or value == "1")
        if code not in exits or len(lines) != (code == 2) or not clean or refused and code != 2:
            bad.append((path, value, code, lines))
    assert bad == []
