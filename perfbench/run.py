#!/usr/bin/env python3
"""mycocat benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload worked_example --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fusion --seed 1 --seconds 25 --trace 1 --out runs.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Workloads (one op each; see BENCHMARK.json for why each is there):
worked_example, scan_wide, law_suite, fusion.

``--trace 0`` reports the end-to-end metrics:

- ``op_p50_s``: median time of one op after one warm-up op.
- ``op_tail_s``: the highest percentile with at least 10 ops beyond it
  (the 11th slowest op); the percentile and op count are printed with it.
- ``setup_s``: median over 7 fresh workers of the time from spawning the
  worker to its workload being ready (interpreter start,
  ``import mycocat``, building the inputs).
- ``peak_rss_mb``: the measuring worker's peak RSS (``getrusage``).
- ``cli_s``: median of 11 cold ``python -m mycocat.cli`` processes doing
  this workload's job; for ``fusion`` that is ``pushout`` on its first
  cospan.

The ops run for ``--seconds``, rounded up to whole passes over the
workload's inputs, with the set-up spawns and CLI runs spread evenly among
them. Every timed sample is scaled by the host-speed probe timed on either
side of it (see ``probe.py``), so times read as seconds on a host that runs
the probe in ``PROBE_REF_S``; the unscaled medians are printed and kept in
``--out`` records under ``raw``.

Ops that raise or fail their output check, and CLI runs that exit non-zero
or write outputs that do not parse and check, are counted in ``failed``;
``failed / attempted`` is the failure fraction printed as ``fail_frac``.

``--trace 1`` alternates untraced and traced runs of every op and reports
per-layer metrics from spans recorded around the public functions of each
mycocat module (see ``spans.py``): calls per op and computed GFLOP per op,
counted over one pass of the workload's inputs so they repeat exactly;
self seconds per op, averaged over the traced ops; ``cli.import_s``, the
median of 7 fresh ``import mycocat`` processes; ``cli.overhead_s``,
``cli_s`` minus the same job timed in process; and ``trace.overhead_s``,
traced minus untraced median op time. The spans are written to
``perfbench/.work/``.

The load is one process at a time with BLAS capped at one thread.
``--out FILE`` appends the run, with its environment block, to a JSON-lines
file; ``--compare A B`` prints each side's median and quartiles per
workload and end-to-end metric and marks B against A as better, worse or
unresolved using the bounds in BENCHMARK.json. The last line of a run's
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from probe import adjusted

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("worked_example", "scan_wide", "law_suite", "fusion")
TAIL_BEYOND = 10


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One busy core: spinning BLAS threads on a shared host add noise, and
    # the largest matrices here (192x192) gain little from a second thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def spawn_worker(args, timeout: float) -> dict:
    """Run the measuring worker and return its JSON result."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if len(lines) < 2 or lines[0] != "ready":
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the op time with TAIL_BEYOND ops above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else float("nan")), 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    result = spawn_worker(args, timeout=args.seconds + 150)
    samples = result["samples"]
    ops = adjusted(samples["op"])
    value, pct, n = tail(ops)
    metrics = {
        "op_p50_s": (median_or_nan(ops), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (median_or_nan(adjusted(samples["setup"])), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "cli_s": (median_or_nan(adjusted(samples["cli"])), "s"),
    }
    raw = {kind: [wall for wall, _, _ in rows if wall is not None] for kind, rows in samples.items()}
    result["raw"] = {
        "op_p50_s": median_or_nan(raw["op"]),
        "op_tail_s": tail(raw["op"])[0],
        "setup_s": median_or_nan(raw["setup"]),
        "cli_s": median_or_nan(raw["cli"]),
        "probe_s": median_or_nan([before for _, before, _ in samples["op"]]),
    }
    notes = [
        f"op_tail_s is p{pct:.1f} of {n} ops",
        "unadjusted: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()),
    ]
    return metrics, result, notes


def per_layer(args) -> tuple[dict, dict, list[str]]:
    result = spawn_worker(args, timeout=args.seconds + 150)
    plain = median_or_nan(result["plain_times"])
    traced = median_or_nan(result["traced_times"])
    cli_s = median_or_nan(result["cli_times"])
    metrics = {}
    for entry in load_spec()["per_layer"]:
        name = entry["name"]
        # 0.0: the workload never reaches this layer
        value = result["counts"].get(name, result["self_s"].get(name, 0.0))
        metrics[name] = (value, entry["unit"])
    metrics["cli.import_s"] = (median_or_nan(result["import_times"]), "s")
    metrics["cli.overhead_s"] = (cli_s - result["cli_in_process_s"], "s")
    metrics["trace.op_p50_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    kernel_self = sum(
        result["self_s"].get(f"kernels.{k}.self_s", 0.0) for k in ("expm", "logm", "piecewise_flow")
    )
    mean_traced = statistics.fmean(result["traced_times"]) if result["traced_times"] else float("nan")
    notes = [
        f"{result['ops_traced']} ops traced, {result['spans']} spans; counts over "
        f"the first {result['pool']} traced op(s)",
        f"untraced op p50 {plain:.6f} s, traced {traced:.6f} s",
        f"kernel self time is {kernel_self / mean_traced:.1%} of the mean traced op",
        f"cli job in process {result['cli_in_process_s']:.6f} s, cli_s {cli_s:.6f} s",
    ]
    return metrics, result, notes


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(args) -> int:
    if not (ROOT / "src" / "mycocat" / "__init__.py").is_file():
        print(f"error: no mycocat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        metrics, result, notes = (per_layer if args.trace else end_to_end)(args)
    except (WorkerError, subprocess.TimeoutExpired, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for note in notes:
        print(f"note: {note}")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    # A metric with no successful sample is NaN, which JSON cannot carry.
    measured = all(math.isfinite(value) for value, _ in metrics.values())
    summary = {
        "correct": failed == 0 and measured,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": result["env"], "raw": result.get("raw"),
                  **summary}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = parser.parse_args()
    if args.compare:
        from compare import compare

        return compare(*args.compare, load_spec())
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
