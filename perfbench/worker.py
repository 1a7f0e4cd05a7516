"""Benchmark worker: one fresh process that builds a workload and measures it.

Started by ``run.py``, never by hand. It prints ``ready`` as soon as the
workload's inputs are built, then, unless ``--setup-only``, measures and
prints one JSON object as its last line. The measuring worker starts
``--setup-only`` workers itself and times them up to that line. See
``run.py`` for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from probe import probe

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
REPEATS = 7  # set-up spawns, and CLI runs and imports in a traced run
CLI_REPEATS = 11  # cold CLI runs in an untraced run: cli_s spread most


def blas_info(np) -> dict:
    """BLAS library name, version and the thread count it will use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def environment(seed: int) -> dict:
    import numpy as np

    import mycocat.kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "numba_enabled": mycocat.kernels.NUMBA_ENABLED,
        "seed": seed,
        **source_identity(),
    }


def timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - start, done


def run_cli(workload, k: int, failures: list[str]) -> float | None:
    """Seconds for one cold CLI process doing the workload's job; None if it failed."""
    out_dir = WORK / f"cli-{os.getpid()}-{k}"
    argv = [sys.executable, "-m", "mycocat.cli", *workload.cli_argv(), "--out-dir", str(out_dir)]
    try:
        elapsed, done = timed_subprocess(argv)
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        workload.check_cli(out_dir)
        return elapsed
    except Exception as exc:  # a failed run counts against fail_frac
        failures.append(f"cli: {type(exc).__name__}: {exc}")
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_setup(name: str, seed: int, failures: list[str]) -> float | None:
    """Seconds from spawning a fresh worker until its workload is ready."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready and proc.returncode == 0:
        return elapsed
    failures.append(f"setup: worker exited with code {proc.returncode}")
    return None


def run_op(workload, i: int, failures: list[str]) -> float | None:
    """One timed op plus its output check; None when it failed."""
    try:
        start = time.perf_counter()
        out = workload.op(i)
        elapsed = time.perf_counter() - start
        workload.check(i, out)
        return elapsed
    except Exception as exc:  # the op is counted as failed, the run goes on
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        return None


def measure(workload, name: str, seed: int, seconds: float) -> dict:
    """Ops for ``seconds``, rounded up to whole passes over the inputs,
    with REPEATS set-up spawns and CLI_REPEATS CLI runs spread evenly
    among them.

    Whole passes keep the mix of inputs the same in every run. Spreading
    the spawns over the run lets host-speed swings hit them as they hit
    the ops. Each sample is stored as [wall, probe before, probe after]
    (see probe.py); a failed sample has wall None.
    """
    failures: list[str] = []
    run_op(workload, 0, failures)  # warm-up: first-call costs stay out of the samples
    run_setup(name, seed, failures)  # the first spawn pays for cold file caches
    probe()
    schedule = sorted(
        [((k + 0.5) / REPEATS, "setup") for k in range(REPEATS)]
        + [((k + 0.5) / CLI_REPEATS, "cli") for k in range(CLI_REPEATS)]
    )
    samples: dict[str, list] = {"op": [], "setup": [], "cli": []}
    last = probe()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        ops = len(samples["op"])
        if schedule and (elapsed >= seconds * schedule[0][0] or elapsed >= seconds):
            kind = schedule.pop(0)[1]
            if kind == "setup":
                wall = run_setup(name, seed, failures)
            else:
                wall = run_cli(workload, len(samples["cli"]), failures)
        elif elapsed < seconds or ops == 0 or ops % workload.pool:
            kind = "op"
            wall = run_op(workload, ops, failures)
        else:
            break
        after = probe()
        samples[kind].append([wall, last, after])
        last = after
    return {
        "samples": samples,
        "attempted": 2 + sum(len(v) for v in samples.values()),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload, seconds: float, workload_name: str) -> dict:
    """Alternate untraced and traced runs of each op; summarise the spans.

    Counts come from the first ``workload.pool`` traced ops, which cover
    every input once, so two runs with one seed give identical counts.
    Self times are means per traced op.
    """
    from spans import Tracer, summarise

    failures: list[str] = []
    run_op(workload, 0, failures)
    tracer = Tracer()
    plain, traced = [], []
    i = 0
    deadline = time.perf_counter() + seconds
    while i < workload.pool or time.perf_counter() < deadline:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                tracer.install()
            try:
                elapsed = run_op(workload, i, failures)
            finally:
                tracer.remove()
            if elapsed is not None:
                (traced if with_trace else plain).append(elapsed)
        i += 1
    totals: dict[str, float] = defaultdict(float)
    for per_op in summarise(tracer, range(workload.pool)).values():
        for key, value in per_op.items():
            if not key.endswith(".self_s"):
                totals[key] += value
    samples = totals.pop("laws.check_functor_laws.samples", 0.0)
    evolves = totals.pop("laws.check_functor_laws.evolve", 0.0)
    counts = {key: value / workload.pool for key, value in totals.items()}
    counts["laws.check_functor_laws.evolve_per_sample"] = evolves / samples if samples else 0.0
    self_s: dict[str, float] = defaultdict(float)
    for per_op in summarise(tracer, range(i)).values():
        for key, value in per_op.items():
            if key.endswith(".self_s"):
                self_s[key] += value / i
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{workload_name}.jsonl")
    span_count = len(tracer)
    del tracer

    in_process = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        workload.cli_job()
        in_process.append(time.perf_counter() - start)
    import_times = []
    for _ in range(REPEATS):
        elapsed, done = timed_subprocess([sys.executable, "-c", "import mycocat"])
        if done.returncode == 0:
            import_times.append(elapsed)
        else:
            failures.append(f"import mycocat: {done.stderr.strip()[-300:]}")
    cli_walls = [run_cli(workload, k, failures) for k in range(REPEATS)]
    return {
        "attempted": 1 + 2 * i + 2 * REPEATS,
        "failed": len(failures),
        "failures": failures[:10],
        "pool": workload.pool,
        "ops_traced": i,
        "spans": span_count,
        "plain_times": plain,
        "traced_times": traced,
        "counts": counts,
        "self_s": self_s,
        "cli_in_process_s": statistics.median(in_process),
        "import_times": import_times,
        "cli_times": [wall for wall in cli_walls if wall is not None],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    work_dir = WORK / f"inputs-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(workload, args.seconds, args.workload)
        else:
            result = measure(workload, args.workload, args.seed, args.seconds)
        result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
