"""The two benchmark workloads: inputs, set-up, one pass, and checks.

Each workload makes its inputs from the benchmark seed and hands the
package only those inputs. A pass is the workload's fixed list of
operations; run.py repeats passes until the run's time is spent. The load
is a closed loop: one caller in one process, solves run one after another.

Every solve is checked independently of the solver's own trace: the
residual ||A x - b|| is recomputed from the final iterate and must meet the
tolerance, and the error against the generated solution must obey
||x - x*|| <= ||A (x - x*)|| / sigma_min(A). Both allow only the rounding
of the check's own arithmetic.
"""

from __future__ import annotations

import csv
import io
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import sketchdescent as skd
from sketchdescent import bench, cli, problems, solvers

TOL = 1e-10
EPS = np.finfo(np.float64).eps


@dataclass
class Solve:
    config: str
    seed: int
    seconds: float
    iterations: int
    failure: str | None
    replay: tuple | None = None  # (runner name, args, cfg) for the first pass


@dataclass
class Pass:
    wall: float
    solves: list
    bytes_written: int = 0


def solution_failure(trace, A, b, x_star, sigma_min) -> str | None:
    """Why a finished solve is wrong, or None when it is right."""
    if trace.diverged:
        return "diverged"
    if not trace.converged:
        return f"not converged after {trace.iterations} iterations"
    x = trace.x_final
    if not np.all(np.isfinite(x)):
        return "non-finite iterate"
    # Forward error of computing A x - b in float64, so the check never
    # fails on its own rounding.
    slack = EPS * np.sqrt(A.shape[1]) * np.linalg.norm(np.abs(A) @ np.abs(x) + np.abs(b))
    res = float(np.linalg.norm(A @ x - b))
    if res > TOL + slack:
        return f"residual {res:.3e} above tol {TOL:.1e}"
    gap = float(np.linalg.norm(A @ x_star - b))
    err = float(np.linalg.norm(x - x_star))
    bound = (res + gap + 2.0 * slack) / sigma_min * (1.0 + 1e-9)
    if err > bound:
        return f"error {err:.3e} above ||A(x-x*)||/sigma_min = {bound:.3e}"
    return None


def mark_nondeterminism(passes) -> None:
    """Fail any solve whose iterations differ from an earlier identical one.

    Passes repeat the same (config, seed) solves, traced and untraced, so
    every repeat must report the same iteration count.
    """
    first = {}
    for p in passes:
        for s in p.solves:
            known = first.setdefault((s.config, s.seed), s.iterations)
            if s.failure is None and s.iterations != known:
                s.failure = f"{s.iterations} iterations, {known} before with the same seed"


# ---------------------------------------------------------------------------
# Kaczmarz full-scan workload: one generated 2000x200 Gaussian system
# ---------------------------------------------------------------------------


class KaczmarzFullscan:
    """Sequential solves of one generated system, timed one by one.

    Every pass runs the same solves: maxdist at gamma 0 and 0.3, and
    capped-exact at gamma 0, each from its own fixed rep seed. Every step
    evaluates all m losses.
    """

    setups = 15
    min_passes = 7
    configs = (("maxdist", 0.0), ("maxdist", 0.3), ("capped:0.5,1,m,exact", 0.0))
    floor_label = "reference: lean-numpy full residual plus argmax each step"

    def __init__(self, seed: int, scale: str):
        self.m, self.n = (2000, 200) if scale == "full" else (200, 20)
        self.instance_seed = int(np.random.default_rng([seed, 0]).integers(2**31))
        rep_seeds = np.random.default_rng([seed, 1]).integers(2**31, size=len(self.configs))
        self.plan = []
        self.costs = {}
        for (rule, gamma), rep_seed in zip(self.configs, rep_seeds):
            label = f"{rule} gamma={gamma:g}"
            parsed = skd.parse_rule(rule)
            self.costs[label] = computed_costs(self.m, self.n, parsed, gamma)
            cfg = skd.SolverConfig(tol=TOL, max_iters=100_000, gamma=gamma,
                                   seed=int(rep_seed), x0="ones1000")
            self.plan.append((label, parsed, cfg))
        self.solves_per_pass = len(self.plan)

    def setup(self):
        """Generate the system (LinearSystem included) and the row family."""
        system = problems.generate(
            skd.GenSpec("gaussian", self.m, self.n, seed=self.instance_seed))
        return system, skd.SketchFamily("row", system)

    def prepare(self, state) -> None:
        system, _ = state
        self.sigma_min = float(np.linalg.svd(system.A, compute_uv=False)[-1])

    def one_pass(self, state, index: int) -> Pass:
        system, family = state
        done = []
        t0 = time.perf_counter()
        for label, rule, cfg in self.plan:
            t1 = time.perf_counter()
            try:
                trace = solvers.run_ssdm(system, family, rule, cfg)
            except skd.SketchDescentError as exc:
                trace = exc
            done.append((label, time.perf_counter() - t1, trace, rule, cfg))
        wall = time.perf_counter() - t0
        solves = []
        for label, dt, trace, rule, cfg in done:
            if isinstance(trace, Exception):
                solves.append(Solve(label, cfg.seed, dt, 0, f"raised {trace!r}"))
                continue
            fail = solution_failure(trace, system.A, system.b, system.x_star,
                                    self.sigma_min)
            replay = ("run_ssdm", (system, family, rule), cfg) if index == 0 else None
            solves.append(Solve(label, cfg.seed, dt, trace.iterations, fail, replay))
        return Pass(wall, solves)

    def references(self, state, passes) -> list:
        """Floor loop and computed per-iteration costs, with labels."""
        system, _ = state
        floors = [self.floor(system.A, system.b) for _ in range(3)]
        us, iters = sorted(floors)[1]
        weights = dict.fromkeys(self.costs, 0)
        for p in passes:
            for s in p.solves:
                weights[s.config] += s.iterations
        total = sum(weights.values())
        flops = sum(w * self.costs[k][0] for k, w in weights.items()) / total
        bytes_ = sum(w * self.costs[k][1] for k, w in weights.items()) / total
        return [
            ("floor.us_per_iter", us,
             f"{self.floor_label}; {iters} iterations; median of 3"),
            ("sketching.computed_flops_per_iter", flops,
             "computed from array shapes, arithmetic only; iteration-weighted"),
            ("sketching.computed_bytes_per_iter", bytes_,
             "computed from array shapes, operands read and written; "
             "iteration-weighted"),
        ]

    @staticmethod
    def floor(A, b):
        d = np.einsum("ij,ij->i", A, A)
        x = np.full(A.shape[1], 1000.0)
        iters = 0
        t0 = time.perf_counter()
        r = A @ x - b
        while np.linalg.norm(r) > TOL:
            i = int(np.argmax(r * r / d))
            x -= (r[i] / d[i]) * A[i]
            r = A @ x - b
            iters += 1
            if iters > 100_000:
                raise RuntimeError("floor loop did not reach the tolerance")
        return (time.perf_counter() - t0) / iters * 1e6, iters


def computed_costs(m: int, n: int, rule, gamma: float, check_every: int = 100):
    """Flops and bytes of one row-sketch iteration, from array shapes.

    Follows the package's code path: select gathers tau rows and forms tau
    losses; evaluate recomputes the chosen row's linear value and forms the
    direction; the update is one axpy, plus the heavy-ball term; the capped
    rule adds two order-statistic expectations over all q = m losses, made
    once for the candidates and once for the reported expectation; a
    checkpoint (residual and two error norms) is amortized over check_every.
    Sorts and index gathers move bytes but count no flops.
    """
    tau = m if isinstance(rule, skd.CappedRule) else rule.resolve_tau(m)
    flops = 2 * tau * n + 4 * tau + 3 * n + 2 * n
    bytes_ = 8 * (2 * tau * n + n + 4 * tau) + 8 * 5 * n + 8 * 3 * n
    if gamma:
        flops += 3 * n
        bytes_ += 8 * 5 * n
    if isinstance(rule, skd.CappedRule):
        flops += 2 * 2 * 3 * m
        bytes_ += 2 * 2 * 8 * 4 * m
    flops += (2 * m * n + 2 * m + 6 * n) / check_every
    bytes_ += 8 * (m * n + 2 * m + 4 * n) / check_every
    return float(flops), float(bytes_)


# ---------------------------------------------------------------------------
# sketchbench grid: the CLI on a seeded SPD Matrix Market file
# ---------------------------------------------------------------------------

RULES = ("greedy:20", "greedy:100", "maxdist")
REPS = 3


def strip_walltime(text: str) -> str:
    """CSV text without the columns whose header ends in ':walltime'."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text
    keep = [j for j, col in enumerate(rows[0]) if not col.endswith(":walltime")]
    return "\n".join(",".join(r[j] for j in keep) for r in rows)


class Grid:
    """One sketchbench grid per pass, run in-process through cli.main.

    The matrix is A = W'W with W a seeded Gaussian 1000x500, so with the
    spectral family (B = G = A) each step's cho_solve and loss scan are
    dense kernels on 500x500 arrays rather than interpreter overhead; on a
    shared host, interpreter-bound steps drift with other tenants' load by
    a third between minutes, dense kernels by a tenth or less. 500 is the
    largest size spectral_report accepts, so --theory still runs. Solves are
    timed by a wrapper around bench.run_method that only reads the clock;
    the grid's outputs are checked after each pass. Pass k runs with CLI
    seed k mod `rotations`, so a run covers several rep seeds per rule.
    """

    rotations = 4
    setups = 3
    min_passes = 5
    solves_per_pass = len(RULES) * REPS

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.wm, self.wn = (1000, 500) if scale == "full" else (240, 120)
        self.seed = seed
        self.cli_seeds = [int(s) for s in np.random.default_rng([seed, 3]).integers(
            2**31, size=self.rotations)]
        self.dir = workdir
        self.path = workdir / "grid.mtx"
        rng = np.random.default_rng([seed, 2])
        W = rng.standard_normal((self.wm, self.wn))
        A = W.T @ W
        self.A = 0.5 * (A + A.T)
        self.sigma_min = float(np.linalg.eigvalsh(self.A)[0])
        workdir.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            # Symmetric array layout: the lower triangle, column by column.
            fh.write("%%MatrixMarket matrix array real symmetric\n")
            fh.write(f"{self.wn} {self.wn}\n")
            fh.write("\n".join(f"{v:.17g}" for j in range(self.wn)
                               for v in self.A[j:, j]) + "\n")
        self.canonical = {}

    def setup(self):
        """What every grid cell pays today: load, geometry, family."""
        dataset = bench.DatasetSpec(kind="mtx", path=str(self.path),
                                    data_seed=self.cli_seeds[0])
        system = bench.build_system(dataset, "spectral")
        return system, skd.SketchFamily("spectral", system)

    def prepare(self, state) -> None:
        pass

    def one_pass(self, state, index: int) -> Pass:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = ["--matrix", str(self.path), "--method", "ssd",
                "--family", "spectral", "--reps", str(REPS), "--theory",
                "--seed", str(self.cli_seeds[index % self.rotations]), "--workers", "1",
                "--out", str(out / "grid.csv"), "--plot-data", str(out / "series")]
        for rule in RULES:
            argv += ["--rule", rule]
        captured = []
        run_method = bench.run_method

        def timed_run_method(method, system, family, rule, cfg):
            t0 = time.perf_counter()
            trace = run_method(method, system, family, rule, cfg)
            captured.append((time.perf_counter() - t0, trace, method, system,
                             family, rule, cfg))
            return trace

        bench.run_method = timed_run_method
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            wall = time.perf_counter() - t0
            bench.run_method = run_method
        failure = self._grid_failure(rc, out, index % self.rotations)
        solves = []
        for dt, trace, method, system, family, rule, cfg in captured:
            fail = failure
            if fail is None and not np.array_equal(system.A, self.A):
                fail = "loaded matrix differs from the generated one"
            if fail is None:
                fail = solution_failure(trace, system.A, system.b,
                                        trace.x_star, self.sigma_min)
            replay = (("run_method", (method, system, family, rule), cfg)
                      if index == 0 else None)
            solves.append(Solve(rule.label, cfg.seed, dt, trace.iterations, fail, replay))
        for _ in range(self.solves_per_pass - len(solves)):
            solves.append(Solve("missing", 0, 0.0, 0, f"grid ran {len(captured)} solves"))
        written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        return Pass(wall, solves, written)

    def _grid_failure(self, rc: int, out: Path, rotation: int) -> str | None:
        if rc != 0:
            return f"sketchbench exited {rc}"
        rows = list(csv.DictReader(io.StringIO((out / "grid.csv").read_text())))
        if len(rows) != len(RULES):
            return f"{len(rows)} summary rows, expected {len(RULES)}"
        for row in rows:
            if int(row["success"]) != REPS or int(row["diverged"]) != 0:
                return (f"cell {row['rule']}: success={row['success']} "
                        f"diverged={row['diverged']}")
        files = {str(f.relative_to(out)): f.read_text()
                 for f in sorted(out.rglob("*")) if f.is_file()}
        stripped = {k: strip_walltime(v) if k.endswith(".csv") else v
                    for k, v in files.items()}
        first = self.canonical.setdefault(rotation, stripped)
        if stripped != first:
            diff = sorted(k for k in set(stripped) | set(first)
                          if stripped.get(k) != first.get(k))
            return f"outputs differ from an earlier same-seed pass outside :walltime: {diff}"
        return None

    def references(self, state, passes) -> list:
        return []


def make(name: str, seed: int, scale: str, workdir: Path):
    if name == "kaczmarz_fullscan":
        return KaczmarzFullscan(seed, scale)
    return Grid(seed, scale, workdir)


def replay_exact(solves) -> float:
    """Exact first crossing over reported iterations, one solve per config.

    The replay re-runs the solve with the same seed and check_every=1, which
    draws the same indices, so it stops at the first iterate within tol.
    """
    seen = {}
    for s in solves:
        if s.replay is not None and s.failure is None and s.config not in seen:
            seen[s.config] = s
    exact = reported = 0
    for s in seen.values():
        runner, args, cfg = s.replay
        trace = getattr(solvers, runner)(*args, cfg=replace(cfg, check_every=1))
        exact += trace.iterations
        reported += s.iterations
    return exact / reported if reported else 0.0
