"""End-to-end CLI runs against temp directories and JSON fixtures."""

import json
import math
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
            ["pushout", str(SAMPLES / "cospan_star.json")], None, {"MYCOCAT_SEED": "abc"},
            "error: MYCOCAT_SEED: not an integer: 'abc'", id="seed-env-not-an-integer",
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
            f"error: {CONFIG}: b.nodes: must be a list of ids, got str",
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
            {}, f"error: {CONFIG}: b.edges[0]: must be [id, [u, v]]",
            id="pushout-edge-entry-malformed",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": "ab"}, {},
            f"error: {CONFIG}: b: must be a JSON object, got str",
            id="pushout-graph-not-an-object",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "b": {"nodes": [["a"], "b"], "edges": []}},
            {}, f"error: {CONFIG}: b.nodes[0]: must be an id, got list",
            id="pushout-node-id-a-list",
        ),
        pytest.param(
            ["pushout", CONFIG], {**STAR_COSPAN, "left": {"nodes": "a", "edges": []}}, {},
            f"error: {CONFIG}: left.nodes: must be a list of [from, to] id pairs",
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
            "error: checks[0].bound: must be a nonnegative number, got nan",
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
            "error: weights: distance weights must be nonnegative numbers, got (nan, 1, 1)",
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
            "error: species.n_sites: must be positive, got 0", id="laws-zero-sites",
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
            "error: features: must be positive, got 0", id="worked-example-zero-features",
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
            "error: species.sigma: must be a nonnegative number, got nan",
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
            "error: species.channels: must be positive, got -1",
            id="laws-negative-channels",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3,
                         "species": {"n_sites": 2, "channels": 0}}]}, {},
            "error: species.channels: must be positive, got 0",
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
            "error: checks[0]: must be a JSON object, got str", id="laws-entry-not-object",
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
            "error: species: must be a JSON object, got int", id="laws-species-not-object",
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
            "error: checks[0].program: missing key 'pieces'",
            id="laws-program-without-pieces",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "compatibility", "pulses": 3, "psi_amplitude_scale": 2.0,
                         "expect": "fail", "species": {"n_sites": 2, "sigma": math.inf}}]},
            {}, "error: species.sigma: must be finite, got inf", id="laws-infinite-sigma",
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
            "error: species: could not convert string to float: 'abc'",
            id="laws-explicit-species-sigma-not-a-number",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "sigma": -1.0,
            }}]}, {},
            "error: species: sigma must be a finite nonnegative number, got -1.0",
            id="laws-explicit-species-negative-sigma",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "graph": {"nodes": ["site0"], "edges": []},
                "dynamics": {"drift": [[0.0]], "controls": [[[1.0]]]}, "sigma": -1.0,
            }}]}, {},
            "error: species: sigma must be a finite nonnegative number, got -1.0",
            id="laws-explicit-species-negative-sigma-one-node",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "graph": {"nodes": ["site0", "site1"], "edges": []},
            }}]}, {},
            "error: species: mycelial network must be connected",
            id="laws-explicit-species-disconnected",
        ),
        pytest.param(
            ["check-laws", CONFIG],
            {"checks": [{"law": "functor_laws", "samples": 3, "species": {
                **EXPLICIT_SPECIES, "features": 1.5,
            }}]}, {},
            "error: species.features: must be an integer, got 1.5",
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
            {}, "error: species.n_sites: must be an integer, got 2.5",
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
            "error: weights: distance weights must be finite, got (1, inf, 1)",
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
            "error: features: must be channels + 1 = 3, got 4",
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
            f"error: {CONFIG}: drift: must be a list of equally long rows of numbers",
            id="simulate-string-drift",
        ),
        pytest.param(
            ["simulate", CONFIG, PROGRAM, STATE],
            {"drift": [[0.0, 1.0], [0.0, 0.0]],
             "controls": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, "a"], [0.0, 0.0]]]}, {},
            f"error: {CONFIG}: controls[1]: must be a list of equally long rows of numbers",
            id="simulate-string-dynamics-control",
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


def test_huge_nilpotent_pulse_is_not_read_as_commuting(tmp_path, capsys):
    # the pulse flow is exact (the pulse is nilpotent), but the generator
    # estimate cannot take the log of a flow this far from I; the scan must
    # fail rather than report the pair as commuting
    path = write(tmp_path / "config.json",
                 {**SMALL_SPECIES, "pulse_p": {"channel": 0, "amplitude": 1e200}})
    code = run_cli(["order-scan", path, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "commuting" not in capsys.readouterr().out


def test_huge_pulse_prints_one_error_line_and_no_warning(tmp_path):
    # the log of the generator estimate refuses the flow before the sum of
    # squares of M - I can overflow with a numpy warning on stderr
    path = write(tmp_path / "config.json",
                 {**SMALL_SPECIES, "pulse_p": {"channel": 0, "amplitude": 1e200}})
    env = dict(os.environ)
    env.pop("MYCOCAT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mycocat.cli", "order-scan", path, "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: matrix log: ||M - I|| overflows float64"]
