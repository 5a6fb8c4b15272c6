"""Digest the solver traces of a fixed list of configurations.

    python3 tools/trace_gate.py [--seed N]

Run from the root of a checkout: the package is imported from ./src. Each
line names one configuration and gives its iteration count and one SHA-256
digest of the trace's iterations, ks, residuals, f_values, selected,
err_g_sq and x_final bytes. Equal lines on two checkouts mean the two ran
the same arithmetic, so a change that claims to keep traces is checked by
diffing this output against its parent's. The list covers the
sketchbench_grid benchmark instance (500-dim spectral), the
kaczmarz_fullscan instance (2000x200 rows), small row, column,
coordinate-descent and spectral instances under five rules at two
momentum values, and steepest descent and conjugate gradients. Each
instance then runs its second rule once with a checkpoint every iteration
(gamma 0) and once tracking the Cesaro average (gamma 0.3); the Cesaro
lines also digest cesaro_f and x_cesaro. --seed sets every solver seed. BLAS is pinned to one thread, as in the benchmark, so
the digests do not depend on the core count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS reads these once, when numpy loads it

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sketchdescent as skd  # noqa: E402
from sketchdescent.problems import loaded_arrays  # noqa: E402

GAMMAS = (0.0, 0.3)
SMALL_RULES = ("uniform", "greedy:5", "maxdist", "capped:0.5,1,m,exact",
               "capped:0.3,2,m,exact")
GRID_RULES = ("greedy:20", "greedy:100", "maxdist", "uniform",
              "capped:0.5,1,m,exact")
FULLSCAN_RULES = ("maxdist", "capped:0.5,1,m,exact", "greedy:5", "uniform")


def grid_system() -> skd.LinearSystem:
    """The sketchbench_grid matrix (benchmark seed 1) with B = G = A."""
    W = np.random.default_rng([1, 2]).standard_normal((1000, 500))
    A = W.T @ W
    A, x_star = loaded_arrays(0.5 * (A + A.T), seed=0)
    return skd.LinearSystem(A=A, b=A @ x_star, B=A, G=A, x_star=x_star)


def with_metric(base: skd.LinearSystem, W) -> skd.LinearSystem:
    return skd.LinearSystem(A=base.A, b=base.b, B=W, G=W, x_star=base.x_star)


def instances():
    """(name, system, family kind, rules) for every sketched configuration."""
    yield "grid", grid_system(), "spectral", GRID_RULES
    yield "fullscan", skd.generate(skd.GenSpec("gaussian", 2000, 200, seed=1)), \
        "row", FULLSCAN_RULES
    rows = skd.generate(skd.GenSpec("gaussian", 300, 60, seed=2))
    yield "row", rows, "row", SMALL_RULES
    AtA = rows.A.T @ rows.A
    yield "lsqcol", with_metric(rows, 0.5 * (AtA + AtA.T)), "lsqcol", SMALL_RULES
    spd = skd.generate(skd.GenSpec("gaussian-normal-equations", 600, 120, seed=3))
    yield "cd", with_metric(spd, spd.A), "row", SMALL_RULES
    yield "spectral", with_metric(spd, spd.A), "spectral", SMALL_RULES


def digest(trace, cesaro: bool = False) -> str:
    h = hashlib.sha256()
    h.update(np.int64(trace.iterations).tobytes())
    fields = [(trace.ks, np.int64), (trace.residuals, np.float64),
              (trace.f_values, np.float64), (trace.selected, np.int64),
              (trace.err_g_sq, np.float64), (trace.x_final, np.float64)]
    if cesaro:
        fields += [(trace.cesaro_f, np.float64), (trace.x_cesaro, np.float64)]
    for arr, dtype in fields:
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def run(method, system, family=None, rule=None, **cfg):
    cfg = {"tol": 1e-10, "max_iters": 100_000, **cfg}
    try:
        trace = skd.run_method(method, system, family, rule,
                               skd.SolverConfig(**cfg))
    except skd.DivergenceError as exc:
        trace = exc.trace
    return trace


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    seed = p.parse_args(argv).seed
    for name, system, kind, rules in instances():
        family = skd.SketchFamily(kind, system)
        for text in rules:
            for gamma in GAMMAS:
                trace = run("ssdm", system, family, skd.parse_rule(text),
                            gamma=gamma, seed=seed)
                label = f"{name}/{kind} {text} gamma={gamma:g}"
                print(f"{label:<48} {trace.iterations:>7} {digest(trace)}",
                      flush=True)
        rule = skd.parse_rule(rules[1])
        for tag, extra in (("check_every=1", {"check_every": 1}),
                           ("track_cesaro", {"gamma": 0.3, "track_cesaro": True})):
            trace = run("ssdm", system, family, rule, seed=seed, **extra)
            label = f"{name}/{kind} {rules[1]} {tag}"
            print(f"{label:<48} {trace.iterations:>7} "
                  f"{digest(trace, 'track_cesaro' in extra)}", flush=True)
        if name == "spectral":
            # Plain CG's true residual stalls near 2e-9 on this system.
            for method in ("sd", "cg"):
                trace = run(method, system, seed=seed, tol=1e-8)
                label = f"{name}/{method}"
                print(f"{label:<48} {trace.iterations:>7} {digest(trace)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
