"""Digest the solver traces of a fixed list of configurations.

    python3 tools/trace_gate.py [--seed N]

Run from the root of a checkout: the package is imported from ./src. Each
line names one configuration and gives its iteration count and one SHA-256
digest of the trace's iterations, ks, residuals, f_values, selected,
err_g_sq and x_final bytes, then its four step counts as integers in
COUNT_KEYS order (losses read, zero steps, full scans, capped candidates).
The counts stay out of the digest, so a change that moves only a count
shows as such. Equal lines on two checkouts mean the two ran the same
arithmetic and tallied the same steps, so a change that claims to keep
traces is checked by diffing this output against its parent's. The list
covers the sketchbench_grid benchmark instance (500-dim spectral, loaded
from a .mtx file through build_system as the benchmark loads it), the
kaczmarz_fullscan instance (2000x200 rows), small row, column,
coordinate-descent and spectral instances under five rules at two
momentum values, and steepest descent and conjugate gradients. Each
instance then runs its second rule once with a checkpoint every iteration
(gamma 0) and once tracking the Cesaro average (gamma 0.3); the Cesaro
lines also digest cesaro_f and x_cesaro. The last lines cover the block
and full families, whose moves are the public evaluate and apply_update
calls: blocks of 10 rows of the 300x60 row instance under the
five rules, and the full sketch of the 120-dim SPD instance with B = A,
G = I (the steepest descent geometry) at the steepest descent tolerance,
whose one rule stands in for its second. A block or full run checks every
iteration by default, so those instances skip the check_every=1 run. The
grid and spectral instances carry B = G = A, under which a spectral family
steps in eigen-coordinates; then come the 120-dim SPD instance's spectral
family under the identity geometry (B = G = I), which keeps its linear
values through the coupling, under the five small rules plus the two
extra runs. The last trace lines run the same way on two families whose
builds take their own branches: the 300x60 row instance's columns under
B = G = I (lsqcol-id, whose identity build sums W*W in a different order
than a solve would), and its blocks of 10 rows under B = G = A'A
(block-normal, a weighted G on a block family). --seed sets every solver
seed. BLAS is pinned to one thread, as in the benchmark, so the digests
do not depend on the core count.

After the trace lines come the theory lines: for every instance above, in
the same order, the SHA-256 of spectral_report(family, rule).to_text() for
each rule the instance runs, then of verify_inequalities(family,
trials=100, seed=--seed).to_text(). The whole script takes about 30 s on
one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS reads these once, when numpy loads it

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sketchdescent as skd  # noqa: E402
from sketchdescent.sketching import VECTOR_KINDS  # noqa: E402
from sketchdescent.solvers import COUNT_KEYS  # noqa: E402

GAMMAS = (0.0, 0.3)
SMALL_RULES = ("uniform", "greedy:5", "maxdist", "capped:0.5,1,m,exact",
               "capped:0.3,2,m,exact")
GRID_RULES = ("greedy:20", "greedy:100", "maxdist", "uniform",
              "capped:0.5,1,m,exact")
FULLSCAN_RULES = ("maxdist", "capped:0.5,1,m,exact", "greedy:5", "uniform")
FULL_RULES = ("maxdist",)  # one sketch: every rule picks it
SD_TOL = 1e-8  # plain CG's true residual stalls near 2e-9 on the SPD instance


def grid_system() -> skd.LinearSystem:
    """The sketchbench_grid system (benchmark seed 1), built as the
    benchmark builds it: the matrix written as a symmetric array .mtx with
    17 significant digits, then loaded by build_system for the spectral
    family, which gives B = G = A."""
    W = np.random.default_rng([1, 2]).standard_normal((1000, 500))
    A = W.T @ W
    A = 0.5 * (A + A.T)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.mtx")
        with open(path, "w", encoding="utf-8") as fh:
            # Symmetric array layout: the lower triangle, column by column.
            fh.write("%%MatrixMarket matrix array real symmetric\n")
            fh.write(f"{A.shape[0]} {A.shape[1]}\n")
            fh.write("\n".join(f"{v:.17g}" for j in range(A.shape[1])
                               for v in A[j:, j]) + "\n")
        dataset = skd.DatasetSpec(kind="mtx", path=path, data_seed=0)
        return skd.build_system(dataset, "spectral")


def with_metric(base: skd.LinearSystem, W) -> skd.LinearSystem:
    return skd.LinearSystem(A=base.A, b=base.b, B=W, G=W, x_star=base.x_star)


def instances():
    """(name, family, rules, run options) for every sketched configuration."""
    yield "grid", skd.SketchFamily("spectral", grid_system()), GRID_RULES, {}
    fullscan = skd.generate(skd.GenSpec("gaussian", 2000, 200, seed=1))
    yield "fullscan", skd.SketchFamily("row", fullscan), FULLSCAN_RULES, {}
    rows = skd.generate(skd.GenSpec("gaussian", 300, 60, seed=2))
    yield "row", skd.SketchFamily("row", rows), SMALL_RULES, {}
    AtA = rows.A.T @ rows.A
    normal = with_metric(rows, 0.5 * (AtA + AtA.T))
    yield "lsqcol", skd.SketchFamily("lsqcol", normal), SMALL_RULES, {}
    spd = skd.generate(skd.GenSpec("gaussian-normal-equations", 600, 120, seed=3))
    yield "cd", skd.SketchFamily("row", with_metric(spd, spd.A)), SMALL_RULES, {}
    yield "spectral", skd.SketchFamily(
        "spectral", with_metric(spd, spd.A)), SMALL_RULES, {}
    yield "block", skd.SketchFamily("block", rows, block_size=10), \
        SMALL_RULES, {}
    steepest = skd.LinearSystem(A=spd.A, b=spd.b, B=spd.A, x_star=spd.x_star)
    yield "full", skd.SketchFamily("full", steepest), FULL_RULES, \
        {"tol": SD_TOL}
    yield "spectral-id", skd.SketchFamily("spectral", spd), SMALL_RULES, {}
    yield "lsqcol-id", skd.SketchFamily("lsqcol", rows), SMALL_RULES, {}
    yield "block-normal", skd.SketchFamily("block", normal, block_size=10), \
        SMALL_RULES, {}


def theory_texts(insts, seed: int):
    """(label, text) of each instance's spectral reports and inequality
    checks."""
    for name, family, rules in insts:
        label = f"{name}/{family.kind}"
        for text in rules:
            report = skd.spectral_report(family, skd.parse_rule(text))
            yield f"{label} theory {text}", report.to_text()
        checks = skd.verify_inequalities(family, trials=100, seed=seed)
        yield f"{label} verify", checks.to_text()


def digest(trace, cesaro: bool = False) -> str:
    """SHA-256 of the trace fields, then the step counts."""
    h = hashlib.sha256()
    h.update(np.int64(trace.iterations).tobytes())
    fields = [(trace.ks, np.int64), (trace.residuals, np.float64),
              (trace.f_values, np.float64), (trace.selected, np.int64),
              (trace.err_g_sq, np.float64), (trace.x_final, np.float64)]
    if cesaro:
        fields += [(trace.cesaro_f, np.float64), (trace.x_cesaro, np.float64)]
    for arr, dtype in fields:
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    counts = " ".join(str(trace.counts[key]) for key in COUNT_KEYS)
    return f"{h.hexdigest()} {counts}"


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
    insts = []
    for name, family, rules, opts in instances():
        insts.append((name, family, rules))
        system, kind = family.system, family.kind
        for text in rules:
            for gamma in GAMMAS:
                trace = run("ssdm", system, family, skd.parse_rule(text),
                            gamma=gamma, seed=seed, **opts)
                label = f"{name}/{kind} {text} gamma={gamma:g}"
                print(f"{label:<48} {trace.iterations:>7} {digest(trace)}",
                      flush=True)
        second = rules[min(1, len(rules) - 1)]
        rule = skd.parse_rule(second)
        extras = [("track_cesaro", {"gamma": 0.3, "track_cesaro": True})]
        if kind in VECTOR_KINDS:
            extras.insert(0, ("check_every=1", {"check_every": 1}))
        for tag, extra in extras:
            trace = run("ssdm", system, family, rule, seed=seed,
                        **opts, **extra)
            label = f"{name}/{kind} {second} {tag}"
            print(f"{label:<48} {trace.iterations:>7} "
                  f"{digest(trace, 'track_cesaro' in extra)}", flush=True)
        if name == "spectral":
            for method in ("sd", "cg"):
                trace = run(method, system, seed=seed, tol=SD_TOL)
                label = f"{name}/{method}"
                print(f"{label:<48} {trace.iterations:>7} {digest(trace)}",
                      flush=True)
    for label, text in theory_texts(insts, seed):
        print(f"{label:<56} {hashlib.sha256(text.encode()).hexdigest()}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
