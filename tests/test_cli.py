"""End-to-end CLI runs against temp directories and JSON fixtures."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from mycocat.cli import main


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


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
SMALL_SPECIES = {"species": {"n_sites": 2}}
# Stands for the path of the written config, in argv and in the message.
CONFIG = "<config>"
DYNAMICS = str(SAMPLES / "dynamics_shear.json")
PROGRAM = str(SAMPLES / "program_pulse.json")
STATE = str(SAMPLES / "state_pair.json")


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
            ["pushout", str(SAMPLES / "cospan_star.json")], None, {"MYCOCAT_SEED": "abc"},
            "error: MYCOCAT_SEED: not an integer: 'abc'", id="seed-env-not-an-integer",
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
            f"error: {CONFIG}: missing key 'pieces'", id="simulate-program-without-pieces",
        ),
        pytest.param(
            ["simulate", DYNAMICS, PROGRAM, CONFIG], {"vector": [1.0, 0.5], "features": 1},
            {}, f"error: {CONFIG}: missing key 'graph'", id="simulate-state-without-graph",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE], {"drift": [[0.0, 1.0], [0.0, 0.0]]}, {},
            f"error: {CONFIG}: missing key 'controls'", id="simulate-dynamics-without-controls",
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
            "error: species: missing key 'graph'", id="laws-explicit-species-without-graph",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 5, "species": {
                "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]}, "features": 1,
                "graph": {"nodes": ["site0"], "edges": []}, "sigmma": 1.0,
            }}]}, {},
            "error: species.sigmma: unknown configuration field",
            id="laws-explicit-species-unknown-key",
        ),
    ],
)
def test_input_contract(tmp_path, monkeypatch, capsys, argv, config, env, message):
    """Bad inputs exit 2 with one ``error:`` line; ``message=None`` expects exit 0."""
    monkeypatch.delenv("MYCOCAT_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        path = write(tmp_path / "config.json", config)
        argv = [path if arg == CONFIG else arg for arg in argv]
        message = message and message.replace(CONFIG, path)
    code = run_cli(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0, err
    else:
        assert code == 2
        assert err.splitlines() == [message]
