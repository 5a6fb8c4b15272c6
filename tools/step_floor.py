"""Microseconds per step of the grid's sketched runs, next to a lean floor.

    python3 tools/step_floor.py [--steps N] [--rounds R] [--seed S]

Run from the root of a checkout: the package is imported from ./src. The
instance is the trace gate's sketchbench_grid matrix (500-dim, B = G = A),
so the spectral family steps in eigen-coordinates y = U'x with its index
losses kept. Each of the trace gate's five grid rules runs run_ssd at
tol 0 for --steps steps with check_every = --steps, so the only
checkpoint is the last step's. Beside it runs a lean-numpy loop of the
same steps: y, lambda and U'b as Python floats, the kept losses as one
array, every draw of the run made up front in one block by the rng
module's pinned schemes, and per step only the rule's choice and the one
coordinate's update. It must end at the package's x_final bit for bit;
any difference is printed and the script exits 1. The timings are shown,
not checked: each is the median over --rounds rounds, package and floor
alternating, of the whole call (set-up, steps, the final U y) divided by
the steps. BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS reads these once, when numpy loads it

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from trace_gate import GRID_RULES, grid_system  # noqa: E402  (puts ./src first)

import sketchdescent as skd  # noqa: E402
from sketchdescent.rng import make_rng, uniform_subsets  # noqa: E402
from sketchdescent.solvers import resolve_x0  # noqa: E402


def floor_run(family, rule, x0: np.ndarray, steps: int, seed: int) -> np.ndarray:
    """x after the run's steps, by the least work that takes the same ones."""
    U, q = family.eigvecs, family.q
    lam, Utb = family.eigvals.tolist(), family.Utb.tolist()
    y0 = U.T @ x0
    c0 = family.eigvals * y0 - family.Utb
    L = 0.5 * c0 * c0 / family.eigvals
    y = y0.tolist()
    rng = make_rng(seed)
    capped = isinstance(rule, skd.CappedRule)
    tau = q if capped else rule.resolve_tau(q)
    if capped:
        if not rule.exact or (rule.tau1, rule.tau2) != (1, None):
            raise ValueError(f"the floor spells out capped:theta,1,m,exact "
                             f"(theta * mean + (1 - theta) * max), not {rule.label}")
        theta = rule.theta
        picks = rng.random(steps).tolist()
    elif tau == 1:
        order = uniform_subsets(rng, q, 1, steps).ravel().tolist()
    elif tau < q:
        samples = uniform_subsets(rng, q, tau, steps)
    for k in range(steps):
        if capped:
            top = L.max()
            if top == 0.0:
                break
            thr = theta * float(L.sum() / q) + (1.0 - theta) * float(top)
            cand = np.flatnonzero(L >= thr)
            if cand.size == 0:
                cand = [int(L.argmax())]
            i = int(cand[int(picks[k] * len(cand))])
        elif tau == 1:
            i = order[k]
        elif tau < q:
            s = samples[k]
            i = int(s[L[s].argmax()])
        else:
            i = int(L.argmax())
            if L[i] == 0.0:
                break
        di, bi, yi = lam[i], Utb[i], y[i]
        ci = di * yi - bi
        if ci != 0.0:
            y[i] = yi = yi - ci / di
            c = di * yi - bi
            L[i] = 0.5 * c * c / di
    return U @ np.array(y)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--rounds", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    family = skd.SketchFamily("spectral", grid_system())
    cfg = skd.SolverConfig(tol=0.0, max_iters=args.steps,
                           check_every=args.steps, seed=args.seed)
    x0 = resolve_x0(cfg.x0, family.system)
    print(f"{'rule':<24} {'package us/iter':>15} {'floor us/iter':>13} "
          f"{'ratio':>6}  x_final")
    failed = 0
    for text in GRID_RULES:
        rule = skd.parse_rule(text)
        times = {"package": [], "floor": []}
        out = {}
        for r in range(args.rounds):
            sides = ("package", "floor") if r % 2 == 0 else ("floor", "package")
            for side in sides:
                t0 = time.perf_counter()
                if side == "package":
                    x = skd.run_ssd(family.system, family, rule, cfg).x_final
                else:
                    x = floor_run(family, rule, x0, args.steps, args.seed)
                times[side].append((time.perf_counter() - t0) / args.steps * 1e6)
                out[side] = x
        same = out["package"].tobytes() == out["floor"].tobytes()
        failed += not same
        us = {side: statistics.median(v) for side, v in times.items()}
        print(f"{text:<24} {us['package']:>15.2f} {us['floor']:>13.2f} "
              f"{us['package'] / us['floor']:>6.2f}  "
              f"{'same bits' if same else 'DIFFERENT'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
