"""Span tracer that wraps mycocat's public functions from outside the package.

The package modules import each other's functions by name
(``from .programs import evolve``), so a function is wrapped in every
mycocat module that holds a reference to it, not only where it is defined.
Each call becomes a span (name, start, end, parent, op); spans stay in
memory until :meth:`Tracer.write` and are summarised into per-op self times
and call counts by :func:`summarise`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import defaultdict

# (defining module, function) pairs that are traced. The span name is
# "<layer>.<function>", with the layer the module name inside mycocat.
TRACED = (
    ("kernels", "expm"),
    ("kernels", "logm"),
    ("kernels", "piecewise_flow"),
    ("liealg", "matrix_log"),
    ("liealg", "estimate_generator"),
    ("programs", "flow_matrix"),
    ("programs", "evolve"),
    ("programs", "extract"),
    ("envmyc", "myc_distance"),
    ("envmyc", "env_distance"),
    ("laws", "check_functor_laws"),
    ("laws", "check_naturality"),
    ("laws", "check_compatibility"),
    ("laws", "check_lipschitz"),
    ("laws", "check_adjunction"),
    ("experiments", "run_order_asymmetry_scan"),
    ("experiments", "fit_loglog_slope"),
    ("experiments", "run_worked_example"),
    ("graphs", "pushout_along_monos"),
    ("graphs", "verify_pushout_universal_property"),
    ("graphs", "compose_graph_morphisms"),
)
# Generators: one span per next(), because the work happens there.
TRACED_GENERATORS = (("graphs", "enumerate_morphisms"),)
GENERATOR_NAMES = {f"{layer}.{func}" for layer, func in TRACED_GENERATORS}

# Frobenius-norm threshold of the degree-13 Pade approximant in
# mycocat.kernels; fixes the squaring count s of the computed flop model.
THETA_13 = 5.371920351148152


def expm_gflop(a) -> float:
    """Computed cost of one expm call: (6 + s) * 2n^3 + 8n^3/3 flops.

    Six matrix products for the Pade(13) numerator and denominator, s
    squarings, and one LU solve; s follows the kernel's squaring rule.
    """
    n = a.shape[0]
    norm = math.sqrt(float((a * a).sum()))
    s = math.ceil(math.log2(norm / THETA_13)) if norm > THETA_13 else 0
    return ((6 + s) * 2 * n**3 + 8 * n**3 / 3) / 1e9


class Tracer:
    """Records spans while installed; wrappers cost nothing once removed.

    Spans live in flat arrays (about 30 bytes each) because one traced
    fusion op opens several thousand of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(key, self.op)] += amount

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "kernels.expm":
                self.count("kernels.expm.gflop", expm_gflop(args[0]))
            elif name == "laws.check_functor_laws":
                samples = kwargs.get("sample_count", args[1] if len(args) > 1 else 100)
                self.count("laws.check_functor_laws.samples", samples)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.count(name + ".yielded")
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a mycocat module binds it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "mycocat" or k.startswith("mycocat."))
        ]
        for targets, wrap in ((TRACED, self._wrap), (TRACED_GENERATORS, self._wrap_generator)):
            for layer, func in targets:
                original = getattr(sys.modules["mycocat." + layer], func)
                wrapped = wrap(f"{layer}.{func}", original)
                for module in modules:
                    if getattr(module, func, None) is original:
                        self._patches.append((module, func, original))
                        setattr(module, func, wrapped)

    def remove(self) -> None:
        for module, func, original in reversed(self._patches):
            setattr(module, func, original)
        self._patches.clear()

    def rows(self):
        """Every span as (name, start, end, parent index, op), in opening order."""
        names = self.names
        return zip(
            (names[i] for i in self.name_id), self.start, self.end, self.parent, self.op_of
        )

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")


def summarise(tracer: Tracer, ops) -> dict:
    """Per-op totals for the given op indices.

    Returns {op: {"<name>.calls": n, "<name>.self_s": s, ...}} plus the
    extra counters. Self time is a span's duration minus the durations of
    its child spans (calls are strictly nested in one thread).
    """
    wanted = set(ops)
    child = defaultdict(float)
    for start, end, parent in zip(tracer.start, tracer.end, tracer.parent):
        if parent >= 0:
            child[parent] += end - start
    functor = tracer._name_ids.get("laws.check_functor_laws", -1)
    per_op: dict[int, dict[str, float]] = {op: defaultdict(float) for op in ops}
    for idx, (name, start, end, parent, op) in enumerate(tracer.rows()):
        if op not in wanted:
            continue
        per_op[op][name + ".self_s"] += end - start - child[idx]
        if name not in GENERATOR_NAMES:  # their calls are counted at creation
            per_op[op][name + ".calls"] += 1
        if name == "programs.evolve" and _has_ancestor(tracer, parent, functor):
            per_op[op]["laws.check_functor_laws.evolve"] += 1
    for (key, op), value in tracer.counts.items():
        if op in wanted:
            per_op[op][key] += value
    return per_op


def _has_ancestor(tracer: Tracer, idx: int, name_id: int) -> bool:
    while idx >= 0:
        if tracer.name_id[idx] == name_id:
            return True
        idx = tracer.parent[idx]
    return False
