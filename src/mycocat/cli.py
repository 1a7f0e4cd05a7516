"""Command-line interface: batch experiments with reproducible file outputs.

Subcommands::

    mycocat pushout <cospan.json>           glue two graphs along an apex
    mycocat simulate <dyn.json> <prog.json> <state.json>
    mycocat order-scan <experiment.json>    two-pulse asymmetry scan
    mycocat worked-example [--config p] [--scaling amplitude|duration]
    mycocat check-laws <suite.json>         run a configured law battery

Common flags: ``--seed``, ``--out-dir``, ``--tol``. The environment
variables ``MYCOCAT_SEED`` and ``MYCOCAT_OUT_DIR`` supply defaults when
the flags are absent. All files are written atomically (temp file then
rename); JSON is UTF-8 with sorted keys, CSV is RFC 4180. The exit code
is nonzero iff any check's verdict differs from its expectation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, ConstraintError, MycocatError, NumericError, ParameterError, ShapeError
)
from .experiments import (
    AsymmetryReport,
    ExposureExperiment,
    WorkedExampleConfig,
    random_pulses,
    run_order_asymmetry_scan,
    run_worked_example,
    species_from_config,
    wide_environment,
)
from .graphs import AttributedGraph, Cospan, GraphMorphism, pushout_along_monos
from .laws import (
    check_adjunction,
    check_compatibility,
    check_functor_laws,
    check_lipschitz,
    check_naturality,
    direct_embedding,
    field_writeback,
    identity_adjunction_instance,
    identity_transformation,
    matched_environment_evolution,
    non_causal_variant,
    perturbed_variant,
    scaled_environment_evolution,
    similarity_variant,
)
from .programs import InternalState, Program, ReferenceDynamics, evolve


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Path, payload) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_rows_csv(path: Path, rows) -> None:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)  # RFC 4180: CRLF line terminator
    writer.writerow(["eps", "delta"])
    for eps, delta in rows:
        writer.writerow([eps, delta])
    write_atomic(path, buffer.getvalue())


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")


def load_input(path: str, build):
    """``build`` applied to the JSON in ``path``; a missing key, a bad or a
    non-finite value becomes a :class:`ConfigError` that names the file."""
    data = load_json(path)
    try:
        return build(data)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}")
    except (TypeError, ValueError, ShapeError, ParameterError, NumericError) as exc:
        raise ConfigError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cospan_from_json(data) -> Cospan:
    apex = AttributedGraph.from_json(data["apex"])
    b = AttributedGraph.from_json(data["b"])
    c = AttributedGraph.from_json(data["c"])
    left = GraphMorphism.from_json(data["left"], apex, b)
    right = GraphMorphism.from_json(data["right"], apex, c)
    return Cospan(apex, left, right)


def cmd_pushout(args) -> int:
    obj, inj_b, inj_c = pushout_along_monos(
        load_input(args.cospan, cospan_from_json)
    )
    payload = {
        "object": obj.to_json(),
        "injection_b": inj_b.to_json(),
        "injection_c": inj_c.to_json(),
    }
    out = Path(args.out_dir) / "pushout.json"
    write_json(out, payload)
    print(f"pushout: {len(obj.nodes)} nodes, {len(obj.edges)} edges -> {out}")
    return 0


def cmd_simulate(args) -> int:
    dyn = load_input(args.dynamics, ReferenceDynamics.from_json)
    program = load_input(args.program, Program.from_json)
    state = load_input(args.state, InternalState.from_json)
    final = evolve(state, program, dyn)
    out = Path(args.out_dir) / "final_state.json"
    write_json(out, final.to_json())
    print(
        f"simulate: duration {program.duration}, "
        f"|S|_inf {float(np.max(np.abs(final.vector)))!r} -> {out}"
    )
    return 0


def _print_scan(report: AsymmetryReport, label: str) -> None:
    slope = "n/a" if report.slope is None else f"{report.slope:.4f}"
    r2 = "n/a" if report.r_squared is None else f"{report.r_squared:.6f}"
    print(
        f"{label}: slope {slope}, R^2 {r2}, "
        f"commutator norm {report.commutator_norm:.3g}, verdict: {report.verdict}"
    )


def cmd_order_scan(args) -> int:
    exp = ExposureExperiment.from_json(load_json(args.experiment), args.seed)
    report = run_order_asymmetry_scan(exp)
    out_dir = Path(args.out_dir)
    write_json(out_dir / "order_scan.json", report.to_json())
    write_rows_csv(out_dir / "order_scan_rows.csv", report.rows)
    _print_scan(report, f"order-scan[{report.scaling}]")
    return 0


def cmd_worked_example(args) -> int:
    if args.config:
        config = WorkedExampleConfig.from_json(load_json(args.config))
    else:
        config = WorkedExampleConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = run_worked_example(config, scaling=args.scaling)
    out_dir = Path(args.out_dir)
    write_json(out_dir / "worked_example.json", result.summary_json())
    for mode, report in result.scans.items():
        write_rows_csv(out_dir / f"order_scan_{mode}.csv", report.rows)
        _print_scan(report, f"worked-example[{mode}]")
    failures = 0
    for report in result.law_reports:
        print(
            f"worked-example[{report.law}]: residual {report.max_residual:.3g} "
            f"(tol {report.tolerance:.3g}) verdict: {report.verdict}"
        )
        failures += 0 if report.passed else 1
    return 1 if failures else 0


# Keys each suite law reads; any other key in an entry is rejected.
SUITE_KEYS = {
    "adjunction": {"law", "expect"},
    "functor_laws": {"law", "expect", "species", "seed", "tol", "samples", "mutant"},
    "naturality": {
        "law", "expect", "species", "seed", "tol", "variant", "programs", "magnitude"
    },
    "lipschitz": {"law", "expect", "species", "seed", "pairs", "bound", "program"},
    "compatibility": {
        "law", "expect", "species", "seed", "tol", "pulses", "psi_amplitude_scale"
    },
}
# Entry keys that count samples, and keys that hold a tolerance or a bound.
COUNT_KEYS = ("samples", "programs", "pairs", "pulses")
LIMIT_KEYS = ("tol", "bound")


def check_entry_values(check: dict, index: int) -> None:
    """Reject a count below 1, a negative or NaN tolerance or bound, and a
    negative seed: a law checked on no samples, or against no meaningful
    limit, would report a verdict that says nothing, and numpy takes no
    negative seed."""
    for key in COUNT_KEYS + LIMIT_KEYS + ("seed",):
        if key not in check:
            continue
        path = f"checks[{index}].{key}"
        try:
            value = float(check[key]) if key in LIMIT_KEYS else int(check[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: not a number: {check[key]!r}")
        if key in COUNT_KEYS and value < 1:
            raise ConfigError(f"{path}: must be positive, got {value}")
        if key in LIMIT_KEYS and not value >= 0:
            raise ConfigError(f"{path}: must be a nonnegative number, got {value}")
        if key == "seed" and value < 0:
            raise ConfigError(f"{path}: must be nonnegative, got {value}")


def run_suite_check(check: dict, default_tol: float | None, seed: int | None):
    """Run one suite entry; returns the LawReport."""
    law = check.get("law")
    tol = float(check["tol"]) if "tol" in check else default_tol
    the_seed = seed if seed is not None else int(check.get("seed", 0))

    if law == "adjunction":
        instance, bijection = identity_adjunction_instance()
        return check_adjunction(instance, bijection)

    species = species_from_config(check.get("species", {}))
    if law == "functor_laws":
        if check.get("mutant") == "non_causal":
            species = non_causal_variant(species)
        return check_functor_laws(
            species,
            sample_count=int(check.get("samples", 100)),
            tol=tol if tol is not None else 1e-10,
            seed=the_seed,
        )

    if law == "naturality":
        variant = check.get("variant", "similarity")
        if variant == "identity":
            other, eta = species, identity_transformation()
        elif variant == "similarity":
            other, eta = similarity_variant(species, seed=the_seed + 1)
        elif variant == "perturbed":
            other = perturbed_variant(
                species, magnitude=float(check.get("magnitude", 0.1))
            )
            eta = identity_transformation()
        else:
            raise ConfigError(f"naturality.variant: unknown {variant!r}")
        programs = random_pulses(
            species, int(check.get("programs", 10)), the_seed + 2
        )
        return check_naturality(
            species,
            other,
            eta,
            programs,
            tol=tol if tol is not None else 1e-9,
            seed=the_seed,
        )

    if law == "lipschitz":
        rng = np.random.default_rng(the_seed)
        layout = species.extraction.layout
        channels = layout.feature_count - 1
        base = wide_environment(species, the_seed)

        def jitter():
            # Redraw until admissible (a resource value can come out
            # negative); admissible draws are kept as drawn.
            while True:
                state = InternalState(
                    1.0 + 0.3 * rng.standard_normal(layout.dim), layout
                )
                try:
                    return field_writeback(base, state)
                except ConstraintError:
                    pass

        pairs = [(jitter(), jitter()) for _ in range(int(check.get("pairs", 10)))]
        program = (
            Program.from_json(check["program"]) if "program" in check else None
        )
        return check_lipschitz(
            species,
            pairs,
            bound=float(check.get("bound", 10.0)),
            iota=direct_embedding(layout, channels),
            program=program,
        )

    if law == "compatibility":
        layout = species.extraction.layout
        channels = layout.feature_count - 1
        iota = direct_embedding(layout, channels)
        scale = float(check.get("psi_amplitude_scale", 1.0))
        if scale == 1.0:
            psi = matched_environment_evolution(species, iota)
        else:
            psi = scaled_environment_evolution(species, iota, scale)
        env = wide_environment(species, the_seed)
        pulses = random_pulses(species, int(check.get("pulses", 50)), the_seed + 3)
        return check_compatibility(
            iota,
            psi,
            species,
            [env],
            pulses,
            tol=tol if tol is not None else 1e-8,
        )

    raise ConfigError(f"law: unknown check {law!r}")


def cmd_check_laws(args) -> int:
    suite = load_json(args.suite)
    checks = suite.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError(f"{args.suite}: checks: must be a non-empty list")
    reports = []
    mismatches = 0
    for index, check in enumerate(checks):
        # an unknown law is reported by run_suite_check
        known = SUITE_KEYS.get(check.get("law"), set(check))
        for key in check:
            if key not in known:
                raise ConfigError(f"checks[{index}].{key}: unknown configuration field")
        expected = check.get("expect", "pass")
        if expected not in ("pass", "fail"):
            raise ConfigError(f"checks[{index}].expect: must be 'pass' or 'fail'")
        mutant = check.get("mutant", "non_causal")
        if mutant != "non_causal":
            raise ConfigError(f"checks[{index}].mutant: unknown mutant {mutant!r}")
        check_entry_values(check, index)
        report = run_suite_check(check, args.tol, args.seed)
        matched = report.verdict == expected
        mismatches += 0 if matched else 1
        reports.append(
            {
                "check": check,
                "report": report.to_json(),
                "expected": expected,
                "as_expected": matched,
            }
        )
        marker = "ok" if matched else "MISMATCH"
        print(
            f"check-laws[{report.law}]: residual {report.max_residual:.3g} "
            f"(tol {report.tolerance:.3g}) verdict: {report.verdict} "
            f"expected: {expected} [{marker}]"
        )
    write_json(Path(args.out_dir) / "law_reports.json", {"results": reports})
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mycocat",
        description="Compositional mycelial-network experiments",
    )
    env_out = os.environ.get("MYCOCAT_OUT_DIR", ".")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the configured random seed (default: MYCOCAT_SEED)",
    )
    common.add_argument(
        "--out-dir",
        default=env_out,
        help="directory for report files (default: MYCOCAT_OUT_DIR or '.')",
    )
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="default tolerance for checks that do not set one",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pushout", parents=[common], help="glue two graphs along an apex")
    p.add_argument("cospan", help="cospan JSON file")
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("simulate", parents=[common], help="run a program from a state")
    p.add_argument("dynamics", help="dynamics JSON file")
    p.add_argument("program", help="program JSON file")
    p.add_argument("state", help="state JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("order-scan", parents=[common], help="order-asymmetry scan")
    p.add_argument("experiment", help="experiment JSON file")
    p.set_defaults(func=cmd_order_scan)

    p = sub.add_parser(
        "worked-example", parents=[common], help="two-pulse protocol end to end"
    )
    p.add_argument("--config", default=None, help="configuration JSON file")
    p.add_argument(
        "--scaling",
        choices=("amplitude", "duration"),
        default=None,
        help="restrict the scan to one scaling mode",
    )
    p.set_defaults(func=cmd_worked_example)

    p = sub.add_parser("check-laws", parents=[common], help="run a law suite")
    p.add_argument("suite", help="suite JSON file")
    p.set_defaults(func=cmd_check_laws)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env_seed = os.environ.get("MYCOCAT_SEED")
        seed_source = "--seed"
        if args.seed is None and env_seed:
            seed_source = "MYCOCAT_SEED"
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ConfigError(f"MYCOCAT_SEED: not an integer: {env_seed!r}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"{seed_source}: must be nonnegative, got {args.seed}")
        if args.tol is not None and not args.tol >= 0:
            raise ConfigError(f"--tol: must be a nonnegative number, got {args.tol}")
        return args.func(args)
    except MycocatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
