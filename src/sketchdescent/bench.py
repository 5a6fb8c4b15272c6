"""Benchmark driver: sweep coordinates, average repetitions, emit CSV.

A plan is a cross product of datasets, sampling rules and momentum values
for one method and sketch family. Every cell runs `reps` independent
repetitions whose seeds are derived from the base seed and the cell
coordinates, so results do not depend on execution order or worker count.
Within a cell, repetitions are averaged pointwise over the checkpoint grid;
runs that stop early hold their final value until the longest grid ends.

Each dataset's system and sketch family are built once per plan and shared
by its cells and spectral reports; with workers > 1 the cells run in one
process pool whose tasks receive the built system and family.

Output is a summary CSV (one line per cell), a .meta sidecar recording the
plan, derived seeds and averaging policy, and optionally one series file
per cell for plotting. Wall-time columns are flagged ":walltime" in the
header: they are the only non-deterministic fields in any output file.
"""

from __future__ import annotations

import csv
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DivergenceError,
    InvalidConfigError,
    InvalidInputError,
    NotSpdError,
    SizeLimitError,
)
from .linalg import SpdFactor, check_integer, is_bitwise_symmetric
from .loaders import load_libsvm, load_matrix_market
from .problems import GenSpec, LinearSystem, gen_arrays, loaded_arrays
from .rng import derive_seed
from .sampling import parse_rule
from .sketching import SketchFamily
from .solvers import SolverConfig, run_method
from .theory import spectral_report

METHODS = ("ssd", "ssdm", "sd", "cg")
METRICS = ("auto", "identity", "system", "normal")


@dataclass(frozen=True)
class DatasetSpec:
    """Where a system comes from: a generator recipe or a file."""

    kind: str  # gen | mtx | libsvm
    gen: GenSpec | None = None
    path: str | None = None
    m_limit: int | None = None
    data_seed: int = 0

    def __post_init__(self):
        if self.kind == "gen":
            if self.gen is None:
                raise InvalidConfigError("gen dataset needs a GenSpec")
            if self.m_limit is not None:
                raise InvalidConfigError("m_limit applies to file datasets only")
        elif self.kind in ("mtx", "libsvm"):
            if not self.path:
                raise InvalidConfigError(f"{self.kind} dataset needs a path")
        else:
            raise InvalidConfigError(f"unknown dataset kind {self.kind!r}")
        check_integer(self.m_limit, "m_limit", 1, optional=True)
        check_integer(self.data_seed, "data_seed", 0)

    @property
    def label(self) -> str:
        if self.kind == "gen":
            return self.gen.label
        return f"{self.kind}:{os.path.basename(self.path)}"


def parse_family(text: str) -> tuple[str, int | None]:
    """Family spelling from the CLI: row|lsqcol|block:<c>|spectral|full."""
    if text.startswith("block:"):
        try:
            size = int(text.split(":", 1)[1])
        except ValueError:
            raise InvalidConfigError(f"bad block size in {text!r}") from None
        if size < 1:
            raise InvalidConfigError(f"block size must be >= 1 in {text!r}")
        return "block", size
    if text in ("row", "lsqcol", "spectral", "full"):
        return text, None
    raise InvalidConfigError(f"unknown sketch family {text!r}")


def build_system(dataset: DatasetSpec, family_kind: str,
                 metric: str = "auto") -> LinearSystem:
    """Load or generate the matrix and attach the geometry for the family.

    The protocol keeps G = B throughout. metric "auto" picks the natural
    geometry: identity for row/block sketches on a general matrix, B = A
    for row sketches on an SPD matrix (coordinate descent) and for
    spectral/full sketches, B = A'A for column sketches. "identity",
    "system" and "normal" force those choices.
    """
    if metric not in METRICS:
        raise InvalidConfigError(f"unknown metric {metric!r}")
    if dataset.kind == "gen":
        A, x_star = gen_arrays(dataset.gen)
    else:
        if dataset.kind == "mtx":
            A = load_matrix_market(dataset.path)
            if dataset.m_limit is not None:
                A = A[: dataset.m_limit]
        else:
            A = load_libsvm(dataset.path, m_limit=dataset.m_limit)
        A, x_star = loaded_arrays(A, seed=dataset.data_seed)
    b = A @ x_star

    def system(W=None) -> LinearSystem:
        """The one system for this dataset, with B = G = W (None: identity)."""
        return LinearSystem(A=A, b=b, B=W, G=W, x_star=x_star,
                            label=dataset.label)

    needs = f"metric {metric!r}"
    if metric == "auto":
        needs = f"the {family_kind} family"
        if family_kind == "row":
            # B = A (coordinate descent) when building that system succeeds.
            try:
                return system(A)
            except (InvalidInputError, NotSpdError):
                return system()
        metric = {"spectral": "system", "full": "system",
                  "lsqcol": "normal"}.get(family_kind, "identity")
    if metric == "identity":
        return system()
    try:
        if metric == "normal":
            # numpy's A'A is bitwise symmetric, so B's one symmetry check
            # keeps it as it is: the half-sum would have the same bytes.
            return system(A.T @ A)
        # The spectral family reads A's eigendecomposition, so that is B's
        # SPD check, and no Cholesky is made until a solve. A factor of A's
        # half-sum (A not bitwise symmetric) would not serve as A's own, so
        # such an A is checked by Cholesky.
        if family_kind == "spectral" and is_bitwise_symmetric(A):
            return system(SpdFactor(A, eig_check=True))
        return system(A)
    except (InvalidInputError, NotSpdError):
        what = ("an SPD A'A (full column rank)" if metric == "normal"
                else "an SPD matrix")
        raise InvalidConfigError(
            f"{needs} needs {what}; {dataset.label} is not") from None


@dataclass
class ExperimentPlan:
    """Everything one benchmark invocation will run."""

    datasets: list
    method: str = "ssd"
    family: str = "row"
    rules: list = field(default_factory=lambda: [parse_rule("uniform")])
    gammas: list = field(default_factory=lambda: [0.0])
    omega: float = 1.0
    tol: float = 1e-10
    max_iters: int = 100_000
    reps: int = 10
    seed: int = 0
    x0: str = "ones1000"
    check_every: int | None = None
    metric: str = "auto"
    workers: int = 1
    theory: bool = False

    def validate(self) -> None:
        if self.method not in METHODS:
            raise InvalidConfigError(f"unknown method {self.method!r}")
        if not self.datasets:
            raise InvalidConfigError("plan has no datasets")
        if not self.rules:
            raise InvalidConfigError("plan has no sampling rules")
        if not self.gammas:
            raise InvalidConfigError("plan has no gamma values")
        check_integer(self.reps, "reps", 1)
        check_integer(self.workers, "workers", 1)
        check_integer(self.seed, "seed", 0)
        if self.method == "ssd" and any(g != 0.0 for g in self.gammas):
            raise InvalidConfigError(
                "method 'ssd' has no momentum; use 'ssdm' for gamma != 0"
            )
        parse_family(self.family)
        # Refused before any dataset is built: bad solver settings and cells
        # sharing a series file. sd and cg run at gamma 0 whatever the gammas.
        for gamma in dict.fromkeys(gamma for _, _, gamma in self.cells()):
            self._solver_config(gamma).validate()
        family = self.family if self.method in ("ssd", "ssdm") else "-"
        names = [_series_name(ds.label, self.method, family,
                              "-" if rule is None else rule.label, gamma)
                 for ds, rule, gamma in self.cells()]
        for name in names:
            if names.count(name) > 1:
                raise InvalidConfigError(f"cells share the series file {name}.csv")

    def _solver_config(self, gamma: float, seed: int = 0) -> SolverConfig:
        """The SolverConfig one repetition of a cell at gamma runs with."""
        return SolverConfig(omega=self.omega, gamma=gamma, tol=self.tol,
                            max_iters=self.max_iters, seed=seed, x0=self.x0,
                            check_every=self.check_every)

    def cells(self) -> list[tuple]:
        """(dataset, rule, gamma) coordinates in deterministic order."""
        if self.method in ("sd", "cg"):
            return [(ds, None, 0.0) for ds in self.datasets]
        return [(ds, rule, gamma) for ds in self.datasets
                for rule in self.rules for gamma in self.gammas]


@dataclass
class ResultRow:
    """Aggregated outcome of one (dataset, rule, gamma) cell."""

    dataset: str
    method: str
    family: str
    rule: str
    gamma: float
    omega: float
    reps: int
    seed: int
    rep_seeds: list
    success: int
    diverged: int
    mean_iters: float
    median_iters: float
    mean_final_residual: float
    mean_final_relerr: float
    mean_time: float
    series_k: np.ndarray
    series_residual: np.ndarray
    series_relerr: np.ndarray
    series_time: np.ndarray

    @property
    def series_name(self) -> str:
        return _series_name(self.dataset, self.method, self.family, self.rule,
                            self.gamma)


def _series_name(dataset: str, method: str, family: str, rule: str,
                 gamma: float) -> str:
    """One cell's series file stem; ':,/\\ ' each become '-'."""
    raw = f"{dataset}_{method}_{family}_{rule}_g{gamma:g}"
    for ch in ":,/\\ ":
        raw = raw.replace(ch, "-")
    return raw


def _pad(values: np.ndarray, length: int) -> np.ndarray:
    """Hold the final value until the target length."""
    if values.size >= length:
        return values[:length]
    out = np.empty(length)
    out[: values.size] = values
    out[values.size:] = values[-1]
    return out


def _aggregate(traces: list, diverged: int, coord, plan: ExperimentPlan,
               rep_seeds: list) -> ResultRow:
    dataset, rule_label, gamma = coord
    if traces:
        longest = max(traces, key=lambda t: t.ks.size)
        L = longest.ks.size
        series_k = longest.ks.copy()
        series_res = np.mean([_pad(t.residuals, L) for t in traces], axis=0)
        series_rel = np.mean([_pad(t.rel_errors, L) for t in traces], axis=0)
        series_time = np.mean([_pad(t.times, L) for t in traces], axis=0)
        iters = [t.iterations for t in traces if t.converged]
        success = len(iters)
        mean_iters = float(np.mean(iters)) if iters else float("nan")
        median_iters = float(np.median(iters)) if iters else float("nan")
        mean_final_res = float(np.mean([t.residuals[-1] for t in traces]))
        mean_final_rel = float(np.mean([t.rel_errors[-1] for t in traces]))
        mean_time = float(np.mean([t.times[-1] for t in traces]))
    else:
        series_k = np.array([], dtype=np.intp)
        series_res = series_rel = series_time = np.array([])
        success = 0
        mean_iters = median_iters = float("nan")
        mean_final_res = mean_final_rel = mean_time = float("nan")
    return ResultRow(
        dataset=dataset.label,
        method=plan.method,
        family=plan.family if plan.method in ("ssd", "ssdm") else "-",
        rule=rule_label,
        gamma=gamma,
        omega=plan.omega,
        reps=plan.reps,
        seed=plan.seed,
        rep_seeds=rep_seeds,
        success=success,
        diverged=diverged,
        mean_iters=mean_iters,
        median_iters=median_iters,
        mean_final_residual=mean_final_res,
        mean_final_relerr=mean_final_rel,
        mean_time=mean_time,
        series_k=series_k,
        series_residual=series_res,
        series_relerr=series_rel,
        series_time=series_time,
    )


def _run_cell(plan: ExperimentPlan, system: LinearSystem,
              family: SketchFamily | None, coord) -> ResultRow:
    """All repetitions of one cell. Runs in a worker process when asked."""
    dataset, rule, gamma = coord
    rule_label = rule.label if rule is not None else "-"
    traces = []
    diverged = 0
    rep_seeds = []
    for rep in range(plan.reps):
        rep_seed = derive_seed(plan.seed, dataset.label, rule_label,
                               repr(float(gamma)), rep)
        rep_seeds.append(rep_seed)
        cfg = plan._solver_config(gamma, rep_seed)
        try:
            traces.append(run_method(plan.method, system, family, rule, cfg))
        except DivergenceError:
            diverged += 1
    return _aggregate(traces, diverged, (dataset, rule_label, gamma), plan,
                      rep_seeds)


@dataclass
class BenchResult:
    plan: ExperimentPlan
    rows: list
    reports: dict

    @property
    def any_diverged(self) -> bool:
        return any(r.diverged > 0 for r in self.rows)


def _process_pool(workers: int):
    """A process pool of the given size. concurrent.futures (and with it
    multiprocessing) is imported here, by the first parallel run, so the
    package import loads neither."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_experiment(plan: ExperimentPlan) -> BenchResult:
    """Execute the full plan.

    Each dataset's system and sketch family are built once, then shared by
    all of that dataset's cells and its spectral reports, whose
    rule-independent spectra are computed once per dataset. workers > 1
    runs the cells in one process pool for the whole plan, of at most one
    worker per cell; the output is identical to the serial run because
    every repetition's seed is derived from its coordinates alone.
    """
    plan.validate()
    kind, block_size = parse_family(plan.family)
    sketched = plan.method in ("ssd", "ssdm")
    cells = plan.cells()
    per_dataset = len(cells) // len(plan.datasets)
    workers = min(plan.workers, len(cells))
    parallel = workers > 1
    rows = []
    reports: dict[str, str] = {}
    with _process_pool(workers) if parallel else nullcontext() as pool:
        mapper = pool.map if parallel else map
        for j, dataset in enumerate(plan.datasets):
            system = build_system(dataset, kind, plan.metric)
            family = (SketchFamily(kind, system, block_size=block_size)
                      if sketched else None)
            run = partial(_run_cell, plan, system, family)
            mine = cells[j * per_dataset:(j + 1) * per_dataset]
            rows += mapper(run, mine)
            if not (plan.theory and sketched):
                continue
            keys = [f"{dataset.label}|{rule.label}" for rule in plan.rules]
            try:
                base = spectral_report(family)
            except SizeLimitError as exc:
                reports.update(dict.fromkeys(keys, f"skipped: {exc}"))
                continue
            for key, rule in zip(keys, plan.rules):
                reports[key] = base.with_rule(rule).to_text()
    return BenchResult(plan=plan, rows=rows, reports=reports)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

SUMMARY_COLUMNS = [
    "dataset", "method", "family", "rule", "gamma", "omega", "reps", "seed",
    "success", "diverged", "mean_iters", "median_iters",
    "mean_final_residual", "mean_final_relerr", "mean_time_s:walltime",
]


def write_summary(result: BenchResult, fh) -> None:
    """Header plus one CSV line per cell. Floats use repr, the shortest
    round-trip decimal, so identical runs match byte for byte outside the
    :walltime columns; fields holding a comma (capped labels) are quoted."""
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(SUMMARY_COLUMNS)
    for r in result.rows:
        out.writerow([
            r.dataset, r.method, r.family, r.rule, repr(float(r.gamma)),
            repr(float(r.omega)), r.reps, r.seed, r.success, r.diverged,
            repr(r.mean_iters), repr(r.median_iters),
            repr(r.mean_final_residual), repr(r.mean_final_relerr),
            repr(r.mean_time),
        ])


def emit_csv(result: BenchResult, path) -> None:
    """Summary CSV (see :func:`write_summary`) plus a .meta sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_summary(result, fh)
    _emit_meta(result, str(path) + ".meta")


def _emit_meta(result: BenchResult, path) -> None:
    plan = result.plan
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("benchmark metadata\n")
        fh.write(f"method={plan.method}\nfamily={plan.family}\n")
        fh.write(f"omega={plan.omega!r}\ntol={plan.tol!r}\n")
        fh.write(f"max_iters={plan.max_iters}\nreps={plan.reps}\n")
        fh.write(f"seed={plan.seed}\nx0={plan.x0}\nmetric={plan.metric}\n")
        fh.write(f"datasets={[d.label for d in plan.datasets]}\n")
        fh.write(f"rules={[r.label for r in plan.rules]}\n")
        fh.write(f"gammas={[repr(float(g)) for g in plan.gammas]}\n")
        fh.write("averaging=pointwise over checkpoint grid; shorter runs "
                 "hold their final value\n")
        fh.write("nondeterministic_columns=mean_time_s:walltime,time:walltime\n")
        fh.write("rep_seeds: derived per cell as "
                 "base_seed xor blake2b(dataset,rule,gamma,rep)\n")
        for r in result.rows:
            fh.write(f"  {r.dataset}|{r.rule}|g={float(r.gamma)!r}: "
                     f"{r.rep_seeds}\n")
        for key, text in result.reports.items():
            fh.write(f"spectral_report[{key}]:\n")
            for line in text.strip().splitlines():
                fh.write(f"  {line}\n")


def emit_plot_data(result: BenchResult, dirpath) -> None:
    """One averaged series file per cell: k,residual,relerr,time:walltime."""
    os.makedirs(dirpath, exist_ok=True)
    for r in result.rows:
        target = os.path.join(dirpath, r.series_name + ".csv")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("k,residual,relerr,time:walltime\n")
            for j in range(r.series_k.size):
                fh.write(f"{int(r.series_k[j])},{float(r.series_residual[j])!r},"
                         f"{float(r.series_relerr[j])!r},{float(r.series_time[j])!r}\n")
