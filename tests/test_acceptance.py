"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (past pytest's capture, so the lines
always appear) and then asserts. Run with plain ``pytest`` or
``pytest tests/test_acceptance.py -v``.
"""

import math
import random

import numpy as np

import conftest

from mycocat.cli import main as cli_main
from mycocat.envmyc import Constraints, EnvObject
from mycocat.experiments import (
    WorkedExampleConfig,
    initial_state,
    reference_species,
    run_worked_example,
)
from mycocat.graphs import pushout_along_monos, verify_pushout_universal_property
from mycocat.laws import (
    check_compatibility,
    check_functor_laws,
    check_naturality,
    direct_embedding,
    field_writeback,
    identity_transformation,
    matched_environment_evolution,
    non_causal_variant,
    perturbed_variant,
    scaled_environment_evolution,
    similarity_variant,
)
from mycocat.liealg import bch_truncated, commutator, matrix_exp, matrix_log
from mycocat.programs import InternalState, Program, concatenate, evolve

from conftest import make_random_mono_cospan
from test_graphs import extended, reference_verifier

UP = np.array([[0.0, 1.0], [0.0, 0.0]])
DOWN = np.array([[0.0, 0.0], [1.0, 0.0]])


def report(number: int, passed: bool, text: str) -> None:
    marker = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {marker} - {text}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert passed, f"criterion {number}: {text}"


def fit_slope(xs, ys):
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


def test_criterion_1_pushout_universal_property():
    # the bounded probe count of the test-side reference at bound 4, and the
    # exact map rule, on each pushout and on it plus an isolated node
    rng = random.Random(20240601)
    all_ok = True
    for _ in range(20):
        cospan = make_random_mono_cospan(rng, max_nodes=4)
        candidate = pushout_along_monos(cospan)
        padded = extended(candidate, nodes=("ghost",))
        if not (
            reference_verifier(cospan, candidate, 4)
            and verify_pushout_universal_property(cospan, candidate, 4)
            and not verify_pushout_universal_property(cospan, padded, 4)
        ):
            all_ok = False
            break
    report(
        1,
        all_ok,
        "20 random mono cospans: pushout passes exhaustive universal-property "
        "check at probe bound 4 with unique mediators, and the exact map rule",
    )


def test_criterion_2_functor_laws():
    species = reference_species(n_sites=3)
    good = check_functor_laws(species, sample_count=100, tol=1e-10, seed=2024)
    mutant = check_functor_laws(
        non_causal_variant(species), sample_count=100, tol=1e-10, seed=2024
    )
    identity_ok = species.on_program(
        initial_state(species.extraction.layout, 1), Program()
    ).is_identity()
    ok = good.passed and identity_ok and not mutant.passed
    report(
        2,
        ok,
        f"functor laws: identity exact, composition residual "
        f"{good.max_residual:.2e} < 1e-10 over 100 samples, "
        f"non-causal mutant flagged {mutant.verdict}",
    )


def test_criterion_3_causality():
    species = reference_species(n_sites=3)
    dyn = species.dynamics
    layout = species.extraction.layout
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        state = InternalState(rng.normal(size=layout.dim), layout)
        mk = lambda: Program(
            tuple(
                (float(rng.uniform(0.1, 0.7)), tuple(0.5 * rng.normal(size=2)))
                for _ in range(int(rng.integers(1, 3)))
            )
        )
        p, q = mk(), mk()
        joint = evolve(state, concatenate(p, q), dyn)
        stepwise = evolve(evolve(state, p, dyn), q, dyn)
        worst = max(worst, float(np.max(np.abs(joint.vector - stepwise.vector))))
    report(
        3,
        worst < 1e-12,
        f"causality: max concatenation residual {worst:.2e} < 1e-12 over 100 samples",
    )


def test_criterion_4_bch_truncation_orders():
    eps_grid = np.geomspace(1e-1, 1e-3, 5)
    errors = {1: [], 2: []}
    for eps in eps_grid:
        exact = matrix_log(matrix_exp(DOWN, eps) @ matrix_exp(UP, eps))
        for order in (1, 2):
            trunc = bch_truncated(UP, DOWN, eps, order).value
            errors[order].append(np.max(np.abs(trunc - exact)))
    slope1 = fit_slope(eps_grid, errors[1])
    slope2 = fit_slope(eps_grid, errors[2])
    ok = abs(slope1 - 2.0) <= 0.15 and abs(slope2 - 3.0) <= 0.15
    report(
        4,
        ok,
        f"truncation error orders: order-1 slope {slope1:.3f} (2.0 +/- 0.15), "
        f"order-2 slope {slope2:.3f} (3.0 +/- 0.15)",
    )


def test_criterion_5_order_asymmetry_prediction():
    default = run_worked_example()
    scan = default.scans["amplitude"]
    quad_ok = (
        scan.slope is not None
        and abs(scan.slope - 2.0) <= 0.1
        and scan.r_squared >= 0.999
    )
    commuting = run_worked_example(WorkedExampleConfig(coupling="commuting"))
    comm_ok = True
    for mode_scan in commuting.scans.values():
        below_floor = all(delta < 1e-12 for _, delta in mode_scan.rows)
        comm_ok &= below_floor or (
            mode_scan.slope is not None and mode_scan.slope >= 2.8
        )
    report(
        5,
        quad_ok and comm_ok,
        f"order asymmetry: default slope {scan.slope:.4f} (2.0 +/- 0.1) with "
        f"R^2 {scan.r_squared:.6f} >= 0.999; commuting variant at the floor "
        f"or slope >= 2.8",
    )


def test_criterion_6_lie_algebra_numerics():
    rng = np.random.default_rng(1234)
    jacobi_worst = 0.0
    for _ in range(100):
        x, y, z = (rng.normal(size=(4, 4)) for _ in range(3))
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        jacobi_worst = max(jacobi_worst, float(np.max(np.abs(total))))
    roundtrip_worst = 0.0
    for _ in range(100):
        x = rng.normal(size=(4, 4))
        x *= rng.uniform(0.05, 1.0) / np.linalg.norm(x, "fro")
        back = matrix_log(matrix_exp(x))
        roundtrip_worst = max(roundtrip_worst, float(np.max(np.abs(back - x))))
    canonical = np.array_equal(commutator(UP, DOWN), np.diag([1.0, -1.0]))
    ok = jacobi_worst < 1e-12 and roundtrip_worst < 1e-10 and canonical
    report(
        6,
        ok,
        f"Lie numerics: Jacobi residual {jacobi_worst:.2e} < 1e-12, exp/log "
        f"roundtrip {roundtrip_worst:.2e} < 1e-10, nilpotent commutator exact",
    )


def _pulses(count, seed, channels=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        control = [0.0] * channels
        control[int(rng.integers(0, channels))] = float(rng.uniform(0.05, 0.5))
        out.append(Program(((float(rng.uniform(0.1, 1.0)), tuple(control)),)))
    return out


def test_criterion_7_naturality():
    species = reference_species(n_sites=3)
    programs = _pulses(10, seed=55)
    similar, eta = similarity_variant(species, seed=21)
    good = check_naturality(species, similar, eta, programs, tol=1e-9, seed=5)
    perturbed = perturbed_variant(species, magnitude=0.1)
    bad = check_naturality(
        species, perturbed, identity_transformation(), programs, tol=1e-9, seed=5
    )
    ok = good.passed and (not bad.passed) and bad.max_residual > 0
    report(
        7,
        ok,
        f"naturality: similarity species residual {good.max_residual:.2e} < 1e-9; "
        f"perturbed species fails with sensitivity {bad.max_residual:.2e}",
    )


def test_criterion_8_compatibility_square():
    species = reference_species(n_sites=3)
    layout = species.extraction.layout
    iota = direct_embedding(layout, 2)
    chi = Constraints(phi_bounds=((-100.0, 100.0),) * 2, budget=math.inf)
    template = EnvObject(
        layout.graph,
        {v: 1.0 for v in layout.graph.nodes},
        {v: (0.0, 0.0) for v in layout.graph.nodes},
        chi,
    )
    env = field_writeback(template, initial_state(layout, 3))
    pulses = _pulses(50, seed=66)
    matched = check_compatibility(
        iota, matched_environment_evolution(species, iota), species, [env], pulses,
        tol=1e-8,
    )
    mutant = check_compatibility(
        iota, scaled_environment_evolution(species, iota, 1.1), species, [env],
        pulses, tol=1e-8,
    )
    ok = matched.passed and not mutant.passed
    report(
        8,
        ok,
        f"compatibility: matched construction residual {matched.max_residual:.2e} "
        f"< 1e-8 on 50 pulses; amplitude-mismatched evolution flagged "
        f"{mutant.verdict}",
    )


def test_criterion_9_determinism(tmp_path):
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        code = cli_main(
            ["worked-example", "--out-dir", str(d), "--seed", "20240601"]
        )
        assert code == 0
    names = (
        "worked_example.json",
        "order_scan_amplitude.csv",
        "order_scan_duration.csv",
    )
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names
    )
    report(
        9,
        identical,
        "determinism: repeated worked-example runs are byte-identical "
        "across JSON and CSV outputs",
    )
