"""Run the mycocat CLI over a fixed set of commands and keep what each leaves.

Usage: python tools/cli_artifacts.py <out-dir> [name ...]

Each command of ``COMMANDS`` runs as ``python -m mycocat.cli`` from the root
of the checkout that holds this script, with that checkout's ``src`` first
on ``PYTHONPATH`` and ``MYCOCAT_SEED`` and ``MYCOCAT_OUT_DIR`` unset. Command
``<name>`` writes its artifacts to ``<out-dir>/<name>/artifacts/``; its
stdout and stderr, with that directory's path replaced by ``<out>``, go to
``stdout`` and ``stderr`` beside it, and its exit code to ``exit``. Two
out-dirs made from two checkouts then compare with ``diff -r``. Names, when
given, run only those commands. Needs only the standard library.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "pushout": ["pushout", "sample_inputs/cospan_star.json"],
    "simulate": [
        "simulate", "sample_inputs/dynamics_shear.json",
        "sample_inputs/program_pulse.json", "sample_inputs/state_pair.json",
    ],
    # one site of three features whose third slot no matrix touches
    "simulate-static-slot": [
        "simulate", "sample_inputs/dynamics_static_slot.json",
        "sample_inputs/program_two_piece.json", "sample_inputs/state_static_slot.json",
    ],
    "order-scan": ["order-scan", "sample_inputs/order_scan.json"],
    "order-scan-seed-5": ["order-scan", "sample_inputs/order_scan.json", "--seed", "5"],
    "worked-example": ["worked-example"],
    "worked-example-seed-5": ["worked-example", "--seed", "5"],
    "worked-example-amplitude": ["worked-example", "--scaling", "amplitude"],
    "worked-example-duration": ["worked-example", "--scaling", "duration"],
    "check-laws": ["check-laws", "sample_inputs/laws_suite.json"],
    "check-laws-seed-3": ["check-laws", "sample_inputs/laws_suite.json", "--seed", "3"],
    "check-laws-perfbench": ["check-laws", "perfbench/laws_suite.json"],
}


def run(out_dir: Path, names=None) -> None:
    """Run the commands ``names`` (all of ``COMMANDS`` when None) into
    ``out_dir``, one directory each."""
    env = {k: v for k, v in os.environ.items() if k not in ("MYCOCAT_SEED", "MYCOCAT_OUT_DIR")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in names or COMMANDS:
        here = Path(out_dir).resolve() / name
        artifacts = here / "artifacts"
        artifacts.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(
            [sys.executable, "-m", "mycocat.cli", *COMMANDS[name], "--out-dir", str(artifacts)],
            cwd=ROOT, env=env, capture_output=True,
        )
        for stream in ("stdout", "stderr"):
            text = getattr(done, stream).replace(bytes(artifacts), b"<out>")
            (here / stream).write_bytes(text)
        (here / "exit").write_text(f"{done.returncode}\n")


def main(argv: list[str]) -> int:
    if not argv or any(name not in COMMANDS for name in argv[1:]):
        print(__doc__.split("\n\n")[1], f"names: {' '.join(COMMANDS)}", sep="\n", file=sys.stderr)
        return 2
    run(Path(argv[0]), argv[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
