"""Run a catalogue of hand-written mutants against the tests meant to kill them.

Usage: python tools/mutants.py [name ...]

Each mutant in ``MUTANTS`` names one source file, a snippet that occurs
exactly once in it, the text that replaces the snippet, and the test files
expected to fail once it is replaced. For each mutant (all of them, or only
the ``name``s given) the tool copies ``src/``, ``tests/``, ``sample_inputs/``
and ``pyproject.toml`` of the checkout that holds this script into a
temporary directory, applies that one mutant there, and runs
``python -m pytest -x`` on the mutant's test files with the copy's ``src``
first on ``PYTHONPATH``. It prints one line per mutant: ``killed`` when the
tests fail, ``survived`` when they pass, and ``error`` with pytest's exit
code when they could not run; then ``<killed>/<total> killed``. The exit
code is 0 when every mutant was killed and 1 otherwise.

Before it runs anything it checks the catalogue against the checkout (see
:func:`check`) and exits 2, listing the problems, if a snippet does not
occur exactly once or a named test file is missing. A refactor that moves
a snippet must update its mutant. Needs only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "sample_inputs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout's root
    snippet: str  # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # test files expected to kill it


ENVMYC = "src/mycocat/envmyc.py"
EXPERIMENTS = "src/mycocat/experiments.py"
GRAPHS = "src/mycocat/graphs.py"
KERNELS = "src/mycocat/kernels.py"
LAWS = "src/mycocat/laws.py"
PROGRAMS = "src/mycocat/programs.py"
READERS = "src/mycocat/readers.py"
ENV_TESTS = ("tests/test_envmyc.py",)
EXPERIMENT_TESTS = ("tests/test_experiments.py",)
GRAPH_TESTS = ("tests/test_graphs.py",)
KERNEL_TESTS = ("tests/test_kernels.py",)
LAW_TESTS = ("tests/test_laws.py",)
PROGRAM_TESTS = ("tests/test_programs.py",)
RECORD_TESTS = ("tests/test_records.py",)

MUTANTS = (
    # the refusals of the environment layer
    Mutant(
        "field-rule-factor-unread", ENVMYC,
        '        factor = read_number(factor, "factor")\n', "",
        ENV_TESTS,
    ),
    Mutant(
        "field-rule-delta-unread", ENVMYC,
        'delta = {w: read_number(d, f"delta.{w}") for w, d in dict(delta or {}).items()}',
        "delta = dict(delta or {})",
        ENV_TESTS,
    ),
    Mutant(
        "field-rule-apply-unknown-source", ENVMYC,
        "        if not values.keys() <= node_map.keys():\n",
        "        if False:\n",
        ENV_TESTS,
    ),
    Mutant(
        "compose-unknown-first-delta", ENVMYC,
        "        if v not in second_fg.node_map:\n",
        "        if False:\n",
        ENV_TESTS,
    ),
    Mutant(
        "constraints-interval-unread", ENVMYC,
        '    return read_tuple(raw, field, "a [lo, hi] pair of numbers", read_number, read_number)\n',
        "    return tuple(raw)\n",
        ENV_TESTS,
    ),
    Mutant(
        "constraints-budget-unread", ENVMYC,
        '        budget = read_number(budget, "budget")\n', "",
        ENV_TESTS,
    ),
    Mutant(
        "env-rho-unread", ENVMYC,
        'read_number(rho[v], f"rho.{v}")', "float(rho[v])",
        ENV_TESTS,
    ),
    Mutant(
        "env-phi-unread", ENVMYC,
        'read_numbers(phi[v], f"phi.{v}")', "tuple(map(float, phi[v]))",
        ENV_TESTS,
    ),
    Mutant(
        "myc-sigma-unread", ENVMYC,
        'read_number(sigma[e], f"sigma.{e}")', "float(sigma[e])",
        ENV_TESTS,
    ),
    Mutant(
        "myc-omega-unread", ENVMYC,
        'read_numbers(omega[v], f"omega.{v}")', "tuple(map(float, omega[v]))",
        ENV_TESTS,
    ),
    Mutant(
        "constraints-unknown-key", ENVMYC,
        "            if key not in cls._fields:\n", "            if False:\n",
        ("tests/test_wire_formats.py",),
    ),
    Mutant(
        "distance-weights-unread", ENVMYC,
        "weights = tuple(map(read_number, (omega, sigma, structure), self._fields))",
        "weights = (omega, sigma, structure)",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "compose-different-constraint-maps", ENVMYC,
        "g.chi_map is not None and g.chi_map != f.chi_map:",
        "g.chi_map is not None and not g.chi_map.tightens(f.chi_map):",
        ENV_TESTS,
    ),
    Mutant(
        "transport-myc-from-another-graph", ENVMYC,
        "    if gt.source != m.graph:\n"
        '        raise ShapeError("graph map must start at the source network")\n',
        "",
        ENV_TESTS,
    ),
    # the environment row and the one affine field rule
    Mutant(
        "env-row-column-order", ENVMYC,
        "row = np.array([(rho[v], *phi[v]) for v in nodes]",
        "row = np.array([(*phi[v], rho[v]) for v in nodes]",
        ENV_TESTS,
    ),
    Mutant(
        "field-rule-apply-skips-factor", ENVMYC,
        "        pushed = {w: x * self.factor for w, x in pushed.items()}\n", "",
        ENV_TESTS,
    ),
    Mutant(
        "compose-drops-second-delta", ENVMYC,
        "pushed = second.apply(first.delta, second_fg)",
        "pushed = FieldRule(factor=second.factor).apply(first.delta, second_fg)",
        ENV_TESTS,
    ),
    Mutant(
        "compose-keeps-second-factor", ENVMYC,
        "factor=first.factor * second.factor", "factor=second.factor",
        ENV_TESTS,
    ),
    # code-built programs, layouts and experiments read their numbers
    Mutant(
        "program-numbers-unread", PROGRAMS,
        '(read_number(length, "pieces"), tuple(read_number(u, "pieces") for u in control))',
        "(float(length), tuple(float(u) for u in control))",
        PROGRAM_TESTS,
    ),
    Mutant(
        "layout-features-unread", PROGRAMS,
        '        feature_count = read_integer(feature_count, "feature_count")\n', "",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "pulse-channel-unread", EXPERIMENTS,
        '        channel = read_integer(channel, "channel")\n', "",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "pulse-amplitude-unread", EXPERIMENTS,
        'amplitude, duration = read_number(amplitude, "amplitude"), read_number(duration, "duration")',
        "amplitude, duration = amplitude, duration",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "eps-grid-unread", EXPERIMENTS,
        'grid = read_numbers(eps_grid, "eps_grid")', "grid = tuple(float(e) for e in eps_grid)",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "scan-seed-unread", EXPERIMENTS,
        'weights=weights, seed=read_integer(seed, "seed"),\n        )',
        "weights=weights, seed=seed,\n        )",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "worked-example-seed-unread", EXPERIMENTS,
        'seed=read_integer(seed, "seed"),\n            functor_samples',
        "seed=seed,\n            functor_samples",
        EXPERIMENT_TESTS,
    ),
    # --seed replaces the seed of a config already read, on every subcommand
    Mutant(
        "order-scan-ignores-seed", "src/mycocat/cli.py",
        "        exp = exp.replace(seed=args.seed)\n", "        pass\n",
        ("tests/test_cli.py",),
    ),
    # the exact pushout decision's conditions
    Mutant(
        "pushout-mono-injections", GRAPHS,
        "    if not (is_monomorphism(inj_b) and is_monomorphism(inj_c)):\n"
        "        return False\n",
        "",
        GRAPH_TESTS,
    ),
    Mutant(
        "pushout-node-surjectivity", GRAPHS,
        "        nodes_b | nodes_c == obj.node_set\n", "        True\n",
        GRAPH_TESTS,
    ),
    Mutant(
        "pushout-edge-surjectivity", GRAPHS,
        "        and edges_b | edges_c == obj.edge_set\n", "",
        GRAPH_TESTS,
    ),
    Mutant(
        "pushout-node-intersection", GRAPHS,
        "        and nodes_b & nodes_c == apex_nodes\n", "",
        GRAPH_TESTS,
    ),
    Mutant(
        "pushout-edge-intersection", GRAPHS,
        "        and edges_b & edges_c == apex_edges\n", "",
        GRAPH_TESTS,
    ),
    # the matrix exponential's refusals and its triangular 2 x 2 path
    Mutant(
        "expm-non-finite-member", KERNELS,
        "    if far.any() and not np.isfinite(a[far]).all():\n",
        "    if False:\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "expm-overflowing-result", KERNELS,
        "    if not np.isfinite(r).all():\n",
        "    if False:\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "expm-upper-triangular-only", KERNELS,
        "triangular = far & ((a[:, 0, 1] == 0) | (a[:, 1, 0] == 0))",
        "triangular = far & (a[:, 1, 0] == 0)",
        KERNEL_TESTS,
    ),
    # one flow per program: its k states share it, the functor law's
    # independent legs share one call, and a stack of near 2 x 2 members
    # takes the closed form whole
    Mutant(
        "flow-reaches-first-state-only", KERNELS,
        "    states = out if out.ndim == 3 else out[:, None]",
        "    states = out[:, :1] if out.ndim == 3 else out[:, None]",
        PROGRAM_TESTS,
    ),
    Mutant(
        "functor-legs-swapped", LAWS,
        "joint, first, unmoved = np.split(", "first, joint, unmoved = np.split(",
        LAW_TESTS,
    ),
    Mutant(
        "expm-near-2x2-shortcut-on-any", KERNELS,
        "    elif s == 2 and not far.any():\n", "    elif s == 2 and not far.all():\n",
        KERNEL_TESTS,
    ),
    # pulse programs built as arrays: the scan's orderings, the scaled
    # pulse, the seeded pulses and the reads of their counts and seeds
    Mutant(
        "scan-qp-rows-built-as-pq", EXPERIMENTS,
        "np.stack((np.concatenate((a, b)), np.concatenate((b, a))), axis=1)",
        "np.stack((np.concatenate((a, a)), np.concatenate((b, b))), axis=1)",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "pulse-duration-scaling-on-amplitude", EXPERIMENTS,
        '(eps, unit) if scaling == "amplitude" else (unit, eps)',
        '(eps, unit) if scaling == "amplitude" else (eps, unit)',
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "random-pulses-lengths-first", EXPERIMENTS,
        "    controls = np.zeros((count, channels))\n"
        "    if channels:\n"
        "        picked = rng.integers(0, channels, count)\n"
        "        controls[np.arange(count), picked] = rng.uniform(0.05, 0.5, count)\n"
        "    lengths = rng.uniform(0.1, 1.0, count)\n",
        "    lengths = rng.uniform(0.1, 1.0, count)\n"
        "    controls = np.zeros((count, channels))\n"
        "    if channels:\n"
        "        picked = rng.integers(0, channels, count)\n"
        "        controls[np.arange(count), picked] = rng.uniform(0.05, 0.5, count)\n",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "random-pulses-count-unread", EXPERIMENTS,
        'count, seed = read_count(count, "count"), read_count(seed, "seed")',
        'count, seed = count, read_count(seed, "seed")',
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "random-pulses-seed-unread", EXPERIMENTS,
        'count, seed = read_count(count, "count"), read_count(seed, "seed")',
        'count, seed = read_count(count, "count"), seed',
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "initial-state-seed-unread", EXPERIMENTS,
        'rng = np.random.default_rng(read_count(seed, "seed"))',
        "rng = np.random.default_rng(seed)",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "negative-seed-or-count-accepted", READERS,
        "    value = read_integer(raw, field)\n    if value < 0:\n",
        "    value = read_integer(raw, field)\n    if False:\n",
        EXPERIMENT_TESTS + LAW_TESTS,
    ),
    # the seeds and sizes that code passes to the law checkers and builders
    Mutant(
        "similarity-seed-unread", LAWS,
        'rng = np.random.default_rng(read_count(seed, "seed"))', "rng = np.random.default_rng(seed)",
        LAW_TESTS,
    ),
    Mutant(
        "functor-laws-seed-unread", LAWS,
        'rng = np.random.default_rng(seed := read_count(seed, "seed"))\n    dim, channels',
        "rng = np.random.default_rng(seed)\n    dim, channels",
        LAW_TESTS,
    ),
    Mutant(
        "naturality-seed-unread", LAWS,
        'rng = np.random.default_rng(seed := read_count(seed, "seed"))\n    states',
        "rng = np.random.default_rng(seed)\n    states",
        LAW_TESTS,
    ),
    Mutant(
        "embedding-channels-unread", LAWS,
        '        channels = read_count(channels, "channels")\n', "",
        LAW_TESTS,
    ),
    Mutant(
        "electrode-array-size-unread", EXPERIMENTS,
        'range(read_count(n_sites, "n_sites"))', "range(n_sites)",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "species-without-channels-accepted", EXPERIMENTS,
        '(("n_sites", n_sites), ("channels", channels), ("features", features))',
        '(("n_sites", n_sites), ("features", features))',
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "naturality-witness-first-program", LAWS,
        '"state": states[i].tolist(),\n            "program": table.program(pi).to_json(),',
        '"state": states[i].tolist(),\n            "program": table.program(0).to_json(),',
        LAW_TESTS,
    ),
    Mutant(
        "stacked-width-from-pieceless-tables", PROGRAMS,
        "width = max((t.channels for t in tables if len(t.lengths)), default=0)",
        "width = max(t.channels for t in tables)",
        PROGRAM_TESTS,
    ),
    Mutant(
        "from-programs-iterates-twice", PROGRAMS,
        "        programs = list(programs)\n        pieces = [piece for p in programs",
        "        pieces = [piece for p in programs",
        PROGRAM_TESTS,
    ),
    # every flow batch of the shipped workloads is one run
    Mutant(
        "flow-runs-of-one-program", KERNELS,
        "hi = max(lo + 1, bisect.bisect_right(edges, edges[lo] + limit) - 1)", "hi = lo + 1",
        EXPERIMENT_TESTS,
    ),
    # the block matvec sums each row's products in column order
    Mutant(
        "matvec-transposed-flow", KERNELS,
        "    out = matrices[..., 0] * vectors[..., 0, None]\n"
        "    for j in range(1, vectors.shape[-1]):\n"
        "        out += matrices[..., j] * vectors[..., j, None]\n",
        "    out = matrices[..., 0, :] * vectors[..., 0, None]\n"
        "    for j in range(1, vectors.shape[-1]):\n"
        "        out += matrices[..., j, :] * vectors[..., j, None]\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "matvec-columns-reversed", KERNELS,
        "    out = matrices[..., 0] * vectors[..., 0, None]\n"
        "    for j in range(1, vectors.shape[-1]):\n",
        "    out = matrices[..., -1] * vectors[..., -1, None]\n"
        "    for j in range(vectors.shape[-1] - 2, -1, -1):\n",
        KERNEL_TESTS,
    ),
    # the batch law checkers: the similarity map, the environment distances
    # and the compatibility witness
    Mutant(
        "similarity-map-reads-rows", LAWS,
        "state_map=lambda v: column_matvec(p, v)", "state_map=lambda v: column_matvec(p.T, v)",
        LAW_TESTS,
    ),
    Mutant(
        "similarity-map-columns-reversed", LAWS,
        "state_map=lambda v: column_matvec(p, v)",
        "state_map=lambda v: column_matvec(p[:, ::-1], v[..., ::-1])",
        LAW_TESTS,
    ),
    Mutant(
        "env-distances-without-phi", ENVMYC,
        "return _l1_distances(one[..., :1], two[..., :1]) + _l1_distances(one[..., 1:], two[..., 1:])",
        "return _l1_distances(one[..., :1], two[..., :1])",
        ENV_TESTS,
    ),
    # the one ordered-L1 kernel and the alignment of two maps
    Mutant(
        "aligned-drops-keys-only-second-has", ENVMYC,
        "keys = [*first, *(key for key in second if key not in first)]",
        "keys = [*first]",
        ENV_TESTS,
    ),
    Mutant(
        "aligned-truncates-to-shorter-vector", ENVMYC,
        "width = max(map(len, [*first.values(), *second.values()]), default=0)",
        "width = min(map(len, [*first.values(), *second.values()]), default=0)",
        ENV_TESTS,
    ),
    Mutant(
        "l1-adds-nodes-before-features", ENVMYC,
        "    gaps = np.abs(firsts - seconds)\n",
        "    gaps = np.abs(firsts - seconds).swapaxes(-1, -2)\n",
        ENV_TESTS + PROGRAM_TESTS,
    ),
    Mutant(
        "ordered-sums-keeps-negative-zero", ENVMYC,
        "return 0.0 + values.cumsum(-1)[..., -1]", "return values.cumsum(-1)[..., -1]",
        ENV_TESTS,
    ),
    Mutant(
        "writeback-graph-unchecked", LAWS,
        "    _require_observed(template.graph, layout)\n", "",
        LAW_TESTS,
    ),
    Mutant(
        "scale-amplitude-factor-unread", PROGRAMS,
        '        factor = read_number(factor, "factor")\n', "",
        PROGRAM_TESTS,
    ),
    Mutant(
        "reference-species-coupling-unread", EXPERIMENTS,
        '    coupling = read_string(coupling, "coupling")\n', "",
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "pulse-template-finite-unchecked", EXPERIMENTS,
        "            if not math.isfinite(value):\n"
        '                raise ParameterError(f"{name}: must be finite',
        "            if False:\n"
        '                raise ParameterError(f"{name}: must be finite',
        EXPERIMENT_TESTS,
    ),
    Mutant(
        "compatibility-witness-indices-swapped", LAWS,
        "ei, pi = divmod(i, len(table))", "pi, ei = divmod(i, len(table))",
        LAW_TESTS,
    ),
    Mutant(
        "perturbed-magnitude-unread", LAWS,
        'if not math.isfinite(magnitude := read_number(magnitude, "magnitude")):',
        "if not math.isfinite(magnitude):",
        LAW_TESTS,
    ),
    # records compare within one class only, and refuse assignment
    Mutant(
        "record-equality-across-classes", "src/mycocat/errors.py",
        "        if other.__class__ is self.__class__:\n",
        "        if isinstance(other, Record):\n",
        RECORD_TESTS,
    ),
    Mutant(
        "record-one-field-values-bare", "src/mycocat/errors.py",
        "get if len(cls._fields) > 1 else lambda r: (get(r),)", "get",
        RECORD_TESTS,
    ),
    Mutant(
        "record-assignment-allowed", "src/mycocat/errors.py",
        '        raise FrozenRecordError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        RECORD_TESTS,
    ),
)


def check(root: Path = ROOT) -> list[str]:
    """The catalogue's problems against the checkout at ``root``: a name
    used twice, a replacement equal to its snippet, a snippet that does
    not occur exactly once, a missing test file. Empty when it is sound."""
    problems = []
    names = [m.name for m in MUTANTS]
    problems += [f"{n}: name used twice" for n in sorted({n for n in names if names.count(n) > 1})]
    for m in MUTANTS:
        if m.snippet == m.replacement:
            problems.append(f"{m.name}: replacement equals the snippet")
        count = (root / m.file).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.file}")
        if not m.tests:
            problems.append(f"{m.name}: names no test file")
        problems += [f"{m.name}: no test file {t}" for t in m.tests if not (root / t).is_file()]
    return problems


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``error (exit N)`` for one mutant, run in
    a fresh temporary copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            elif source.is_file():
                shutil.copy2(source, copy / part)
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    if done.returncode == 0:
        return "survived"
    return "killed" if done.returncode == 1 else f"error (exit {done.returncode})"


def main(argv: list[str]) -> int:
    problems = check()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in argv if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in argv] if argv else list(MUTANTS)
    killed = 0
    for mutant in chosen:
        outcome = run(mutant)
        killed += outcome == "killed"
        print(f"{outcome:<10} {mutant.name}", flush=True)
    print(f"{killed}/{len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
