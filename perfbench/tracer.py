"""Spans and counts recorded at the package's layer boundaries.

The traced pass wraps public functions and methods of sketchdescent, plus
the three dense kernels its linalg layer calls (Cholesky factor and solve,
symmetric eigendecomposition), at runtime and from the benchmark's own
files; nothing under src/ changes. Every wrapped call becomes a span with a
name, start, end, parent span and the id of the solve it belongs to. Spans
stay in compact arrays in memory and are written out when the run ends.
Counts (indices evaluated, zero losses, candidate-set sizes, bytes parsed)
are taken in the same wrappers, so ratios are measured where the work is.

Every span hangs under a root span, either "setup" or "pass". Per-layer
values are reported per set-up plus per pass: the work of one set-up
followed by one pass over the workload.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOTS = ("setup", "pass")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by each span's direct children
        self._stack: list[int] = []
        self._solve_id = -1
        self._n_solves = 0
        self.counts = {root: Counter() for root in ROOTS}
        self._counts = Counter()  # counts taken outside any root are dropped
        self.roots = Counter()
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, solve: bool) -> int:
        if solve:
            self._solve_id = self._n_solves
            self._n_solves += 1
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self._solve_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, solve: bool) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]
        if solve:
            self._solve_id = -1

    @contextmanager
    def root(self, kind: str):
        """Attribute the spans and counts inside to one set-up or one pass."""
        self.roots[kind] += 1
        self._counts = self.counts[kind]
        i = self._open(self._id(kind), False)
        try:
            yield
        finally:
            self._close(i, False)
            self._counts = Counter()

    def count(self, key: str, n=1) -> None:
        self._counts[key] += n

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, solve=False, skip=None, after=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return fn(*args, **kwargs)
            i = self._open(nid, solve)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, solve)
            if after is not None:
                after(self, out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Trace owner.attr, and every alias of it in the package's modules."""
        original = owner.__dict__[attr]
        traced = self._wrap(name, original, **kw)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [mod for key, mod in list(sys.modules.items())
                        if key.split(".")[0] == "sketchdescent"
                        and mod is not owner
                        and getattr(mod, attr, None) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @contextmanager
    def installed(self):
        install(self)
        try:
            yield
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.child, dtype=np.float64))

    def per_unit(self) -> dict:
        """name -> (calls, total_s, self_s), per set-up plus per pass."""
        name, parent, start, end, child = self._arrays()
        root = np.arange(name.size)
        while True:
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        dur = end - start
        k = len(self.names)
        out = {nm: [0.0, 0.0, 0.0] for nm in self.names}
        for kind in ROOTS:
            n_roots = self.roots[kind]
            if not n_roots or kind not in self._ids:
                continue
            mask = name[root] == self._ids[kind]
            calls = np.bincount(name[mask], minlength=k)
            total = np.bincount(name[mask], weights=dur[mask], minlength=k)
            own = np.bincount(name[mask], weights=(dur - child)[mask], minlength=k)
            for j, nm in enumerate(self.names):
                out[nm][0] += calls[j] / n_roots
                out[nm][1] += total[j] / n_roots
                out[nm][2] += own[j] / n_roots
        return out

    def count_per_unit(self, key: str) -> float:
        return sum(self.counts[kind][key] / self.roots[kind]
                   for kind in ROOTS if self.roots[kind])

    def save(self, path) -> None:
        name, parent, start, end, _ = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            solve=np.frombuffer(self.solve, dtype=np.int32),
            start=start, end=end)


def _file_bytes(t, out, path, *args, **kwargs):
    t.count("bytes_parsed", os.path.getsize(path))


def _select_counts(t, sel, *args, **kwargs):
    t.count("zero_losses", sel.zero_losses)
    t.count("losses_selected", sel.losses.size)


def install(t: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    import scipy.linalg
    from sketchdescent import (bench, cli, loaders, problems, sampling,
                               sketching, solvers, theory)

    System, Family = problems.LinearSystem, sketching.SketchFamily
    t.patch(problems, "generate", "problems.generate")
    t.patch(System, "__post_init__", "problems.system_build")
    t.patch(System, "residual_norm", "solvers.checkpoint")
    t.patch(System, "error_sq_b", "solvers.checkpoint_error")
    t.patch(System, "error_sq_g", "solvers.checkpoint_error")
    t.patch(loaders, "load_matrix_market", "loaders.load", after=_file_bytes)
    t.patch(loaders, "load_libsvm", "loaders.load", after=_file_bytes)
    t.patch(scipy.linalg, "cho_factor", "linalg.factor")
    t.patch(scipy.linalg, "cho_solve", "linalg.spd_solve")
    t.patch(np.linalg, "eigh", "linalg.eigh")
    t.patch(Family, "__init__", "sketching.family_build")
    t.patch(Family, "losses", "sketching.losses",
            after=lambda t, out, *a, **k: t.count("indices", out.size))
    t.patch(Family, "evaluate", "sketching.evaluate")
    t.patch(sampling, "select", "sampling.select", after=_select_counts)
    t.patch(sampling, "draw_sample", "sampling.draw_sample")
    t.patch(sampling, "rule_expectation", "sampling.rule_expectation")
    t.patch(sampling, "capped_candidates", "sampling.capped_candidates",
            after=lambda t, out, *a, **k: t.count("candidates", out.size))
    for runner in ("run_ssd", "run_ssdm"):
        t.patch(solvers, runner, "solvers.run", solve=True,
                after=lambda t, out, *a, **k: t.count("iterations", out.iterations))
    t.patch(theory, "spectral_report", "theory.report")
    t.patch(bench, "build_system", "bench.build_system")
    t.patch(bench, "run_experiment", "bench.run_experiment",
            after=lambda t, out, *a, **k: t.count("cells", len(out.rows)))
    t.patch(bench, "emit_csv", "bench.emit")
    t.patch(bench, "emit_plot_data", "bench.emit")
    t.patch(cli, "main", "cli.main")


def layer_metrics(t: Tracer) -> dict:
    """The per-layer metrics that come from spans and counts alone."""
    agg = t.per_unit()

    def calls(nm):
        return agg.get(nm, (0.0, 0.0, 0.0))[0]

    def total(nm):
        return agg.get(nm, (0.0, 0.0, 0.0))[1]

    def own(nm):
        return agg.get(nm, (0.0, 0.0, 0.0))[2]

    c = t.count_per_unit
    iters = c("iterations")
    return {
        "sampling.draw_sample_s": total("sampling.draw_sample"),
        "sampling.select_calls": calls("sampling.select"),
        "sampling.select_self_s": own("sampling.select"),
        "sketching.evaluate_calls": calls("sketching.evaluate"),
        "sketching.evaluate_s": total("sketching.evaluate"),
        "sketching.losses_calls": calls("sketching.losses"),
        "sketching.losses_s": total("sketching.losses"),
        "sketching.losses_per_iter": c("indices") / iters if iters else 0.0,
        "sampling.rule_expectation_s": total("sampling.rule_expectation"),
        "sampling.capped_candidates_mean":
            (c("candidates") / calls("sampling.capped_candidates")
             if calls("sampling.capped_candidates") else 0.0),
        "sampling.zero_loss_frac":
            (c("zero_losses") / c("losses_selected")
             if c("losses_selected") else 0.0),
        "linalg.spd_solve_calls": calls("linalg.spd_solve"),
        "linalg.spd_solve_s": total("linalg.spd_solve"),
        "loaders.load_calls": calls("loaders.load"),
        "loaders.load_s": total("loaders.load"),
        "loaders.bytes_parsed": c("bytes_parsed"),
        "bench.build_system_calls": calls("bench.build_system"),
        "bench.build_system_s": total("bench.build_system"),
        "sketching.family_builds": calls("sketching.family_build"),
        "sketching.family_build_s": total("sketching.family_build"),
        "linalg.factorizations": calls("linalg.factor"),
        "linalg.factor_s": total("linalg.factor"),
        "linalg.eigh_calls": calls("linalg.eigh"),
        "linalg.eigh_s": total("linalg.eigh"),
        "problems.system_builds": calls("problems.system_build"),
        "problems.system_build_s": total("problems.system_build"),
        "problems.generate_s": total("problems.generate"),
        "theory.report_calls": calls("theory.report"),
        "theory.report_s": total("theory.report"),
        "solvers.iterations": iters,
        "solvers.self_s": own("solvers.run"),
        "solvers.checkpoints": calls("solvers.checkpoint"),
        "solvers.checkpoint_s":
            total("solvers.checkpoint") + total("solvers.checkpoint_error"),
        "bench.cells": c("cells"),
        "bench.self_s": own("bench.run_experiment"),
        "bench.emit_s": total("bench.emit"),
        "cli.self_s": own("cli.main"),
    }
