"""Command-line interface: batch experiments with reproducible file outputs.

Subcommands::

    mycocat pushout <cospan.json>           glue two graphs along an apex
    mycocat simulate <dyn.json> <prog.json> <state.json>
    mycocat order-scan <experiment.json>    two-pulse asymmetry scan
    mycocat worked-example [--config p] [--scaling amplitude|duration]
    mycocat check-laws <suite.json>         run a configured law battery

Every subcommand takes ``--out-dir``; ``order-scan``, ``worked-example``
and ``check-laws``, which draw random samples, take ``--seed``, which
replaces the seed of the config once it is read and checked; only
``check-laws`` takes ``--tol``. The environment variables
``MYCOCAT_OUT_DIR`` and ``MYCOCAT_SEED`` supply defaults when the flags
are absent. All files are written atomically (temp file then rename),
and a file that already holds the same bytes is left as it is. JSON is
UTF-8 with sorted keys, CSV is RFC 4180. The exit code is nonzero iff
any check's verdict differs from its expectation.

At module level this file imports only the standard library, ``errors``,
``graphs`` and ``readers``, none of which loads numpy, so ``--help`` and
``pushout`` run without it. ``simulate``, ``order-scan``,
``worked-example`` and ``check-laws`` import numpy and the numerical
modules they call inside their own functions, and ``csv`` is imported only
where a CSV file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, ConstraintError, MycocatError, ShapeError
from .graphs import AttributedGraph, Cospan, GraphMorphism, pushout_along_monos
from .readers import (
    _require_counts, _require_finite, _require_nonnegative, read_key, read_object, read_wire
)

if TYPE_CHECKING:
    from .experiments import AsymmetryReport


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temp file and a rename,
    or leave ``path`` as it is when it already holds those bytes: a re-run
    into the same out-dir rewrites nothing, and replacing an existing file
    can cost tens of milliseconds on some file systems."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass  # no such file (or none readable): write it
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def say(line: str) -> None:
    """Print one line of the run's report to stdout. Once the reader has
    closed stdout, this line and every later one are dropped, so the run
    still writes its artifacts and exits with its own code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Point stdout at devnull: later lines and the flush at exit then
        # go nowhere instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def write_json(path: Path, payload) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_rows_csv(path: Path, rows) -> None:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)  # RFC 4180: CRLF line terminator
    writer.writerow(["eps", "delta"])
    for eps, delta in rows:
        writer.writerow([eps, delta])
    write_atomic(path, buffer.getvalue())


def load_json(path: str) -> dict:
    """The JSON object in ``path``; every input file holds one."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})")
    except (ValueError, RecursionError) as exc:
        # not JSON, not UTF-8, an integer past the digit limit, or nested too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    try:
        return read_object(data, path)
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc


def load_input(path: str, build):
    """``build`` applied to the JSON in ``path``; a missing key, a bad or a
    non-finite value becomes a :class:`ConfigError` that names the file."""
    return read_wire(load_json(path), path, build)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cospan_from_json(data) -> Cospan:
    """The cospan ``{"apex", "b", "c", "left", "right"}``; a field of the
    wrong shape or a missing key raises :class:`ShapeError` naming it."""
    data = read_object(data, "cospan")
    apex, b, c = (AttributedGraph.from_json(read_key(data, k), f"{k}.") for k in ("apex", "b", "c"))
    left = GraphMorphism.from_json(read_key(data, "left"), apex, b, "left.")
    right = GraphMorphism.from_json(read_key(data, "right"), apex, c, "right.")
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
    say(f"pushout: {len(obj.nodes)} nodes, {len(obj.edges)} edges -> {out}")
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from .programs import InternalState, Program, ReferenceDynamics, evolve

    dyn = load_input(args.dynamics, ReferenceDynamics.from_json)
    program = load_input(args.program, Program.from_json)
    state = load_input(args.state, InternalState.from_json)
    if program.pieces and program.channels != dyn.channels:
        raise ConfigError(
            f"{args.program}: program has {program.channels} control channels, "
            f"dynamics {args.dynamics} has {dyn.channels}"
        )
    if state.vector.size != dyn.dim:
        raise ConfigError(
            f"{args.state}: state has dimension {state.vector.size}, "
            f"dynamics {args.dynamics} has dimension {dyn.dim}"
        )
    final = evolve(state, program, dyn)
    out = Path(args.out_dir) / "final_state.json"
    write_json(out, final.to_json())
    say(
        f"simulate: duration {program.duration}, "
        f"|S|_inf {float(np.max(np.abs(final.vector)))!r} -> {out}"
    )
    return 0


def _print_scan(report: AsymmetryReport, label: str) -> None:
    slope = "n/a" if report.slope is None else f"{report.slope:.4f}"
    r2 = "n/a" if report.r_squared is None else f"{report.r_squared:.6f}"
    say(
        f"{label}: slope {slope}, R^2 {r2}, "
        f"commutator norm {report.commutator_norm:.3g}, verdict: {report.verdict}"
    )


def cmd_order_scan(args) -> int:
    from .experiments import ExposureExperiment, run_order_asymmetry_scan

    exp = ExposureExperiment.from_json(load_json(args.experiment))
    if args.seed is not None:
        exp = exp.replace(seed=args.seed)
    report = run_order_asymmetry_scan(exp)
    out_dir = Path(args.out_dir)
    write_json(out_dir / "order_scan.json", report.to_json())
    write_rows_csv(out_dir / "order_scan_rows.csv", report.rows)
    _print_scan(report, f"order-scan[{report.scaling}]")
    return 0


def cmd_worked_example(args) -> int:
    from .experiments import WorkedExampleConfig, run_worked_example

    if args.config:
        config = WorkedExampleConfig.from_json(load_json(args.config))
    else:
        config = WorkedExampleConfig()
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    if args.scaling is not None:
        config = config.replace(scaling_modes=(args.scaling,))
    result = run_worked_example(config)
    out_dir = Path(args.out_dir)
    write_json(out_dir / "worked_example.json", result.summary_json())
    for mode, report in result.scans.items():
        write_rows_csv(out_dir / f"order_scan_{mode}.csv", report.rows)
        _print_scan(report, f"worked-example[{mode}]")
    failures = 0
    for report in result.law_reports:
        say(
            f"worked-example[{report.law}]: residual {report.max_residual:.3g} "
            f"(tol {report.tolerance:.3g}) verdict: {report.verdict}"
        )
        failures += 0 if report.passed else 1
    return 1 if failures else 0


@cache
def suite_defaults() -> dict:
    """Every key a suite entry may carry, per law, with the value it takes
    when absent; each value is read as the kind of its default. A law's
    ``tol`` falls back to --tol before its default here. Built on first use,
    so that the other subcommands do not load the numerical modules."""
    from .experiments import reference_species
    from .programs import Program

    common = {"law": "", "expect": "pass"}
    species = {"species": reference_species(), "seed": 0}
    return {
        "adjunction": common,
        "functor_laws": {**common, **species, "tol": 1e-10, "samples": 100, "mutant": ""},
        "naturality": {
            **common, **species, "tol": 1e-9, "variant": "similarity", "programs": 10,
            "magnitude": 0.1,
        },
        "lipschitz": {**common, **species, "pairs": 10, "bound": 10.0, "program": Program()},
        "compatibility": {
            **common, **species, "tol": 1e-8, "pulses": 50, "psi_amplitude_scale": 1.0
        },
    }


def read_suite_entry(check, where: str, tol: float | None, seed: int | None) -> dict:
    """A suite entry with every key of its law filled in. A count below 1,
    a negative, NaN or infinite limit, a non-finite scale and a program of
    another control width than the species are refused: the verdict would
    say nothing. ``tol`` and ``seed`` are the flags, or None."""
    from .experiments import _config_kwargs

    defaults = {}  # a non-object entry is refused by _config_kwargs
    if isinstance(check, dict):
        law = check.get("law")
        defaults = suite_defaults().get(law) if isinstance(law, str) else None
        if defaults is None:
            raise ConfigError(f"{where}law: unknown check {law!r}")
    if tol is not None and "tol" in defaults:
        defaults = {**defaults, "tol": tol}
    entry = {**defaults, **_config_kwargs(check, defaults, where)}
    if entry["expect"] not in ("pass", "fail"):
        raise ConfigError(f"{where}expect: must be 'pass' or 'fail'")
    if entry.get("mutant", "") not in ("", "non_causal"):
        raise ConfigError(f"{where}mutant: unknown mutant {entry['mutant']!r}")
    if entry.get("variant", "identity") not in ("identity", "similarity", "perturbed"):
        raise ConfigError(f"{where}variant: unknown variant {entry['variant']!r}")
    counts = ("samples", "programs", "pairs", "pulses")
    _require_counts(entry, [key for key in counts if key in entry], where)
    limits = ("tol", "bound", "seed")
    _require_nonnegative(entry, [key for key in limits if key in entry], where)
    scales = ("psi_amplitude_scale", "magnitude")
    _require_finite(entry, [key for key in scales if key in entry], where)
    if "program" in entry:
        program, channels = entry["program"], entry["species"].dynamics.channels
        if program.pieces and program.channels != channels:
            raise ConfigError(
                f"{where}program: program has {program.channels} control channels, "
                f"species has {channels}"
            )
    if seed is not None:
        entry["seed"] = seed
    return entry


def run_suite_check(entry: dict):
    """Run one entry read by :func:`read_suite_entry`; returns the LawReport."""
    import numpy as np

    from .experiments import random_pulses, wide_environment
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
        non_causal_variant,
        perturbed_variant,
        scaled_environment_evolution,
        similarity_variant,
    )
    from .programs import InternalState

    law = entry["law"]
    if law == "adjunction":
        instance, bijection = identity_adjunction_instance()
        return check_adjunction(instance, bijection)

    species, seed = entry["species"], entry["seed"]
    if law == "functor_laws":
        if entry["mutant"] == "non_causal":
            species = non_causal_variant(species)
        return check_functor_laws(
            species, sample_count=entry["samples"], tol=entry["tol"], seed=seed
        )

    if law == "naturality":
        variant = entry["variant"]
        if variant == "identity":
            other, eta = species, identity_transformation()
        elif variant == "similarity":
            other, eta = similarity_variant(species, seed=seed + 1)
        else:
            other = perturbed_variant(species, magnitude=entry["magnitude"])
            eta = identity_transformation()
        programs = random_pulses(species, entry["programs"], seed + 2)
        return check_naturality(
            species, other, eta, programs, tol=entry["tol"], seed=seed
        )

    layout = species.extraction.layout
    iota = direct_embedding(layout, layout.feature_count - 1)
    if law == "lipschitz":
        rng = np.random.default_rng(seed)
        base = wide_environment(species, seed)

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

        pairs = [(jitter(), jitter()) for _ in range(entry["pairs"])]
        return check_lipschitz(
            species, pairs, bound=entry["bound"], iota=iota, program=entry["program"]
        )

    psi = scaled_environment_evolution(species, iota, entry["psi_amplitude_scale"])
    env = wide_environment(species, seed)
    pulses = random_pulses(species, entry["pulses"], seed + 3)
    return check_compatibility(iota, psi, species, [env], pulses, tol=entry["tol"])


def cmd_check_laws(args) -> int:
    suite = load_json(args.suite)
    checks = suite.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError(f"{args.suite}: checks: must be a non-empty list")
    entries = [
        read_suite_entry(check, f"checks[{index}].", args.tol, args.seed)
        for index, check in enumerate(checks)
    ]
    reports = []
    mismatches = 0
    for check, entry in zip(checks, entries):
        report = run_suite_check(entry)
        expected = entry["expect"]
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
        say(
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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out-dir",
        default=os.environ.get("MYCOCAT_OUT_DIR", "."),
        help="directory for report files (default: MYCOCAT_OUT_DIR or '.')",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the configured random seed (default: MYCOCAT_SEED)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pushout", parents=[out], help="glue two graphs along an apex")
    p.add_argument("cospan", help="cospan JSON file")
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("simulate", parents=[out], help="run a program from a state")
    p.add_argument("dynamics", help="dynamics JSON file")
    p.add_argument("program", help="program JSON file")
    p.add_argument("state", help="state JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("order-scan", parents=[out, seeded], help="order-asymmetry scan")
    p.add_argument("experiment", help="experiment JSON file")
    p.set_defaults(func=cmd_order_scan)

    p = sub.add_parser(
        "worked-example", parents=[out, seeded], help="two-pulse protocol end to end"
    )
    p.add_argument("--config", default=None, help="configuration JSON file")
    p.add_argument(
        "--scaling",
        choices=("amplitude", "duration"),
        default=None,
        help="run the scan in this scaling mode only (replaces scaling_modes)",
    )
    p.set_defaults(func=cmd_worked_example)

    p = sub.add_parser("check-laws", parents=[out, seeded], help="run a law suite")
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="default tolerance for checks that do not set one",
    )
    p.add_argument("suite", help="suite JSON file")
    p.set_defaults(func=cmd_check_laws)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env_seed = os.environ.get("MYCOCAT_SEED")
        seed_source = "--seed"
        if "seed" in args and args.seed is None and env_seed:
            seed_source = "MYCOCAT_SEED"
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ConfigError(f"MYCOCAT_SEED: not an integer: {env_seed!r}")
        flags = {seed_source: getattr(args, "seed", None), "--tol": getattr(args, "tol", None)}
        _require_nonnegative(flags, [flag for flag, v in flags.items() if v is not None])
        return args.func(args)
    except MycocatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
