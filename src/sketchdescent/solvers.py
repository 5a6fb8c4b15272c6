"""Iterative solvers: sketched descent, heavy ball, steepest descent, CG.

Each iteration of a sketched method has a sampling rule pick an index, the
family evaluate its loss, G-gradient direction and exact step, and the
iterate move by omega times that step, optionally plus a heavy ball term
gamma * (x_k - x_{k-1}). One loop runs it for every sketch kind, through
the pick(x, c) and move(x, i) the family binds once per run
(SketchFamily.bind_step; see the sketching module notes). The loop adds
the heavy ball term and keeps the linear values c through the coupling
(below). On a diagonal family (spectral with B = G = A) x holds y = U'x,
and x = U y is formed only at checkpoints, at the all-zero stop, for the
Cesaro loss and at the end, unless the run ends at a checkpoint, whose x
the recorder keeps and the run returns.

The loop is tested against a step-by-step run through the public
evaluate and apply_update, with a selection written apart from
bind_choice.

Steepest descent and conjugate gradients get dedicated loops so they can
serve as independent references: steepest descent must coincide with the
full-sketch solver, and conjugate gradients is algebraically the heavy ball
iteration whose step and momentum coefficients are chosen adaptively
instead of held fixed.

Every solver keeps its books in one _Recorder: a list of checkpoint rows,
one per recorded iterate, from which finish builds the trace's arrays.
A checkpoint checks that the iterate is finite and within DIVERGENCE_NORM
of the problem's scale, max(1, ||x0||, ||x*||), records it, keeps its x,
and runs the stopping test ||A x - b|| <= tol; x0's own row, the first,
gives the reference error of rel_errors. Vector families default to a
checkpoint every 100 iterations, which spreads its O(m n) products over
100 O(n) iterations; everything else checks every iteration. A diagonal
step costs far less than O(n), so there the checkpoints (U y, the
residual, the B-norm error: three n x n products each) take about as long
as the steps between them. Every run that can take no further step at k
(every loss zero, or no curvature left along the steepest descent or CG
direction) ends by one rule, _Recorder.end: k is checkpointed unless it
has its checkpoint already, and the run converged only if that checkpoint
meets tol.

A rule that reads more than one loss per iteration (greedy tau > 1, max
distance, capped) on a family that caches its coupling K' keeps the q
linear values up to date, O(q) per step, instead of scanning A, A' or U:
each step moves them by a multiple of one row of K'. They are recomputed
exactly at every checkpoint that does not end the run, and before a run
ends because every maintained loss is zero. The chosen index's own value
is always computed exactly, and a selected loss that is NaN or infinite
stops the run at once. A full scan finds every loss zero when the largest
one is zero (losses are >= 0; a NaN maximum is not zero). A run whose
exact losses are all zero ends by the end rule: c_i can round to zero
while ||A x - b|| is still above tol.

Every run tallies its steps in IterationTrace.counts (losses read, zero
steps, full scans, capped candidates); the counts change no other field.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidConfigError, SizeLimitError
from .linalg import as_array, check_integer, pinv_psd
from .problems import PINV_SIZE_LIMIT, LinearSystem, resolve_x_star
from .rng import make_rng
from .sampling import CappedRule, DrawStream, rule_expectation, sample_size
from .sketching import VECTOR_KINDS, SketchFamily, check_omega

DIVERGENCE_NORM = 1e12

# Start-point presets: name -> the start it builds for a system.
X0_PRESETS = {
    "ones1000": lambda system: np.full(system.n, 1000.0),
    "zero": lambda system: np.zeros(system.n),
    "range": lambda system: project_onto_gradient_span(
        system, np.full(system.n, 1000.0)),
}

COUNT_KEYS = ("losses_read", "zero_steps", "full_scans", "candidates")


@dataclass
class SolverConfig:
    """Knobs shared by every solver.

    x0 is a preset name or an explicit start vector. "ones1000" is the
    far-away deterministic start 1000 * ones used by the benchmark
    protocol, "zero" is the origin, and "range" projects the far start
    onto range(G^{-1} A'), the subspace the momentum certificates assume.
    check_every = None picks 100 for vector sketch families and 1
    otherwise.
    """

    omega: float = 1.0
    gamma: float = 0.0
    tol: float = 1e-10
    max_iters: int = 100_000
    seed: int = 0
    x0: object = "ones1000"
    check_every: int | None = None
    track_cesaro: bool = False

    def validate(self) -> None:
        check_omega(self.omega)
        if not 0.0 <= self.gamma < math.inf:  # refuses NaN
            raise InvalidConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 <= self.tol < math.inf:
            raise InvalidConfigError(f"tol must be finite and >= 0, got {self.tol}")
        check_integer(self.seed, "seed", 0)
        check_integer(self.max_iters, "max_iters", 0)
        check_integer(self.check_every, "check_every", 1, optional=True)
        if isinstance(self.x0, str) and self.x0 not in X0_PRESETS:
            raise InvalidConfigError(
                f"unknown x0 preset {self.x0!r}; choose from {tuple(X0_PRESETS)}"
            )


@dataclass
class IterationTrace:
    """Checkpoint series plus final state for one solver run.

    Checkpoint j describes the iterate after ks[j] updates: its residual
    norm, its B-norm error relative to the start, its squared G-norm error,
    the loss that drove the latest update (or the rule-expected loss, see
    f_mode), and cumulative wall time. Wall times are the only
    non-deterministic fields. selected is -1 before the first update.
    cesaro_f tracks the rule-expected loss of the running iterate average
    when that was requested.

    counts tallies what a sketched run's steps did: losses_read, the index
    losses its selections evaluated; zero_steps, the steps whose exact
    linear value (or loss) was zero, so the update was skipped; full_scans,
    the exact scans of all q linear values (per full-scan pick, or at the
    start and checkpoints where c is maintained; a diagonal run without
    momentum makes one, which builds the losses it keeps); candidates, the
    capped candidate-set sizes, summed. Every count is 0 for sd and cg.
    """

    method: str
    ks: np.ndarray
    residuals: np.ndarray
    rel_errors: np.ndarray
    err_g_sq: np.ndarray
    f_values: np.ndarray
    times: np.ndarray
    selected: np.ndarray
    iterations: int
    converged: bool
    x_final: np.ndarray
    f_mode: str = "selected"
    cesaro_f: np.ndarray | None = None
    x_cesaro: np.ndarray | None = None
    x_star: np.ndarray | None = None
    x_star_is_projection: bool = False
    diverged: bool = False
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNT_KEYS, 0))

    def final_residual(self) -> float:
        return float(self.residuals[-1])


def resolve_x0(cfg_x0, system: LinearSystem) -> np.ndarray:
    """Start vector from a preset name (validated by SolverConfig) or an
    explicit array."""
    if isinstance(cfg_x0, str):
        return X0_PRESETS[cfg_x0](system)
    x0 = as_array(np.asarray(cfg_x0, dtype=np.float64).copy(), 1, "x0")
    if x0.shape != (system.n,):
        raise InvalidConfigError(f"x0 has length {x0.size}, expected {system.n}")
    return x0


def project_onto_gradient_span(system: LinearSystem, x: np.ndarray) -> np.ndarray:
    """G-orthogonal projection of x onto range(G^{-1} A').

    Every sketched gradient lives in that span, so iterates started inside
    it stay inside it; the momentum certificates assume exactly this.
    """
    if max(system.m, system.n) > PINV_SIZE_LIMIT:
        raise SizeLimitError("dense projection refused above desk scale")
    A = system.A
    M = A @ system.G_factor.solve(A.T)
    coeff = pinv_psd(0.5 * (M + M.T)) @ (A @ x)
    return system.G_factor.solve(A.T @ coeff)


# One checkpoint row, one field per IterationTrace array.
_Row = namedtuple("_Row", "k residual rel_error err_g_sq f_value time selected cesaro_f")


class _Recorder:
    """A run's books: its checkpoint rows, the x its latest checkpoint
    recorded, its step counts, and the trace they make.

    to_x forms x from the loop's own vector v (a diagonal run's y = U'x),
    which checkpoint, end and x_at take; record takes x itself.
    """

    def __init__(self, method: str, system: LinearSystem, x0: np.ndarray,
                 f_mode: str, track_cesaro: bool, to_x=None):
        self.method = method
        self.system = system
        self.f_mode = f_mode
        self.track_cesaro = track_cesaro
        self.to_x = to_x or (lambda v: v)
        try:
            self.x_star, self.is_proj = resolve_x_star(system, x0)
        except SizeLimitError:
            self.x_star, self.is_proj = None, False
        self.err0_b = np.nan  # x0's B-norm error, set by its record
        # Divergence is judged on the problem's own scale: the start and the
        # solution, or without one ||A'b|| / ||A||_F^2, which bounds below
        # the norm of every solution of A'A x = A'b, consistent or not.
        A = system.A
        scale = (np.linalg.norm(self.x_star) if self.x_star is not None
                 else np.linalg.norm(A.T @ system.b) / np.linalg.norm(A) ** 2)
        self.diverge_norm = DIVERGENCE_NORM * max(
            1.0, float(np.linalg.norm(x0)), float(scale))
        self.t0 = time.perf_counter()
        self.rows: list[_Row] = []
        self.last = (-1, None)  # (k, x) of the latest checkpoint
        self.counts = dict.fromkeys(COUNT_KEYS, 0)

    def record(self, k: int, x: np.ndarray, residual: float, f_value: float,
               sel_index: int, cesaro_f: float = np.nan) -> None:
        rel_error = err_g_sq = np.nan
        if self.x_star is not None:
            err_b = self.system.error_sq_b(x, self.x_star)
            if not self.rows:  # x0's own row: the reference error
                self.err0_b = err_b
            rel_error = np.sqrt(err_b / self.err0_b) if self.err0_b > 0.0 else 0.0
            err_g_sq = (err_b if self.system.g_equals_b
                        else self.system.error_sq_g(x, self.x_star))
        self.rows.append(_Row(k, residual, rel_error, err_g_sq, f_value,
                              time.perf_counter() - self.t0, sel_index, cesaro_f))

    def checkpoint(self, k: int, v: np.ndarray, tol: float,
                   residual: float | None = None, *, f_value: float,
                   sel_index: int, cesaro_f: float = np.nan) -> bool:
        """Form x from v, check it is finite, record and keep it, and say
        whether the run stops.

        residual defaults to ||A x - b||. Raises DivergenceError for an
        iterate that is not finite or whose norm exceeds DIVERGENCE_NORM
        times the largest of 1, ||x0|| and ||x*||.
        """
        x = self.to_x(v)
        norm = float(np.linalg.norm(x))
        if not np.isfinite(norm) or norm > self.diverge_norm:
            _diverge(self, k, x, f"iterate norm {norm:.3e} exceeds "
                     f"{self.diverge_norm:.3e} at iteration {k}")
        if residual is None:
            residual = self.system.residual_norm(x)
        self.record(k, x, residual, f_value, sel_index, cesaro_f)
        self.last = (k, x)
        return residual <= tol

    def end(self, k: int, v: np.ndarray, tol: float,
            residual: float | None = None, **row) -> bool:
        """End a run that can take no further step at k: checkpoint k
        unless it has its checkpoint already, and say whether the run
        converged, which it did only if that checkpoint meets tol."""
        return self.rows[-1].k != k and self.checkpoint(k, v, tol, residual, **row)

    def x_at(self, k: int, v: np.ndarray) -> np.ndarray:
        """The iterate after k updates: the x the latest checkpoint
        recorded if it was at k, else formed from v."""
        k_last, x = self.last
        return x if k_last == k else self.to_x(v)

    def finish(self, iterations: int, converged: bool, x: np.ndarray,
               x_cesaro: np.ndarray | None = None,
               diverged: bool = False) -> IterationTrace:
        ks, residuals, rel_errors, err_g_sq, f_values, times, selected, cesaro_f = (
            np.array(self.rows, dtype=np.float64).T.copy())
        return IterationTrace(
            method=self.method,
            ks=ks.astype(np.intp),
            residuals=residuals,
            rel_errors=rel_errors,
            err_g_sq=err_g_sq,
            f_values=f_values,
            times=times,
            selected=selected.astype(np.intp),
            iterations=iterations,
            converged=converged,
            x_final=x.copy(),
            f_mode=self.f_mode,
            cesaro_f=cesaro_f if self.track_cesaro else None,
            x_cesaro=None if x_cesaro is None else x_cesaro.copy(),
            x_star=self.x_star,
            x_star_is_projection=self.is_proj,
            diverged=diverged,
            counts=dict(self.counts),
        )


def _diverge(rec: _Recorder, k: int, x: np.ndarray, why: str) -> None:
    """Raise DivergenceError carrying the trace of the first k updates."""
    trace = rec.finish(k, False, np.nan_to_num(x, posinf=0.0, neginf=0.0),
                       diverged=True)
    raise DivergenceError(why, trace=trace)


def _run_sketched(method: str, system: LinearSystem, family: SketchFamily,
                  rule, cfg: SolverConfig, gamma: float) -> IterationTrace:
    """Iterations of a sketched run, every kind; see the module notes."""
    cfg.validate()
    if family.system is not system:
        raise InvalidConfigError("family was built for a different system")
    x0 = resolve_x0(cfg.x0, system)
    vector = family.kind in VECTOR_KINDS
    check_every = cfg.check_every or (100 if vector else 1)
    tau = sample_size(rule, family.q)  # the one rule check, every kind
    exact_f = isinstance(rule, CappedRule)
    track_cesaro = cfg.track_cesaro
    # A diagonal family runs in eigen-coordinates: x below holds y = U'x,
    # and x = U y is formed only where an iterate is recorded or returned.
    U = family.eigvecs if family.diagonal else None

    def to_x(v):
        return v if U is None else U @ v

    rec = _Recorder(method, system, x0, "expected" if exact_f else "selected",
                    track_cesaro, to_x)

    def cesaro_loss(xsum, k):
        if not track_cesaro or k == 0:
            return np.nan
        return rule_expectation(family.losses(to_x(xsum / k)), rule)

    res0 = system.residual_norm(x0)
    rec.record(0, x0, res0, np.nan, -1)
    if res0 <= cfg.tol:
        return rec.finish(0, True, x0, x0.copy() if track_cesaro else None)
    x = x0 if U is None else U.T @ x0
    counts = rec.counts
    stream = DrawStream(make_rng(cfg.seed))
    tol, max_iters = cfg.tol, cfg.max_iters
    heavy = gamma != 0.0
    pick, move = family.bind_step(rule, tau, stream, counts, cfg.omega, x, heavy)
    linear_values = family.linear_values
    # Maintain c only where it saves work: a rule reading one loss pays no
    # scan, and a checkpoint every step recomputes c anyway. Block, full and
    # diagonal families have no coupling.
    coupling = family.coupling
    if check_every == 1 or (tau == 1 and not exact_f):
        coupling = None
    c = c_prev = None
    if coupling is not None:
        counts["full_scans"] += 1
        c = c_prev = linear_values(x)

    x_prev = x.copy()
    x_sum = np.zeros_like(x)
    last_sel = -1
    last_f = np.nan
    k = 0
    converged = False
    while k < max_iters:
        k += 1
        chosen = pick(x, c)
        if chosen is None and c is not None:
            counts["full_scans"] += 1
            c = linear_values(x)
            chosen = pick(x, c)
        if chosen is None:
            # Every loss is exactly zero, but the run has converged only if
            # the true residual meets tol: c can round to zero first.
            k -= 1
            converged = rec.end(k, x, tol, f_value=0.0, sel_index=last_sel,
                                cesaro_f=cesaro_loss(x_sum, k))
            break
        i, loss, last_f, _, candidates = chosen
        counts["candidates"] += candidates
        if not math.isfinite(loss):
            _diverge(rec, k - 1, to_x(x), f"selected loss {loss} at iteration {k}")
        last_sel = i
        x_next, t = move(x, i)
        if heavy:
            x_next = x_next + gamma * (x - x_prev)
        if c is not None:
            c_next = c if t is None else c - t * coupling[i]
            if heavy:
                c_next = c_next + gamma * (c - c_prev)
            c_prev, c = c, c_next
        x_prev = x
        x = x_next
        if track_cesaro:
            x_sum += x
        if k % check_every and k < max_iters:
            continue
        if rec.checkpoint(k, x, tol, f_value=last_f, sel_index=last_sel,
                          cesaro_f=cesaro_loss(x_sum, k)):
            converged = True
            break
        if c is not None and k < max_iters:
            counts["full_scans"] += 1
            c = linear_values(x)
            if heavy:
                counts["full_scans"] += 1
                c_prev = linear_values(x_prev)
    x = rec.x_at(k, x)
    x_cesaro = None
    if track_cesaro:
        x_cesaro = to_x(x_sum / k) if k > 0 else x.copy()
    return rec.finish(k, converged, x, x_cesaro)


def run_ssd(system: LinearSystem, family: SketchFamily, rule,
            cfg: SolverConfig | None = None) -> IterationTrace:
    """Sketched descent with exact per-index steps. No momentum.

    Any gamma in cfg is ignored; use :func:`run_ssdm` for heavy ball.
    """
    cfg = cfg or SolverConfig()
    return _run_sketched("ssd", system, family, rule, cfg, 0.0)


def run_ssdm(system: LinearSystem, family: SketchFamily, rule,
             cfg: SolverConfig | None = None) -> IterationTrace:
    """Sketched descent plus heavy ball momentum gamma * (x_k - x_{k-1}).

    The first iteration sees a zero momentum term (both history points
    start at x0). gamma = 0 reproduces :func:`run_ssd` bit for bit.
    """
    cfg = cfg or SolverConfig()
    return _run_sketched("ssdm", system, family, rule, cfg, cfg.gamma)


def run_sd(system: LinearSystem, cfg: SolverConfig | None = None) -> IterationTrace:
    """Steepest descent on an SPD system, exact line search.

    Fixes the geometry B = A, G = I regardless of what the system carries:
    the direction is the residual and the step is the classical
    ||res||^2 / ||res||^2_A ratio. Coincides with the full-sketch solver;
    kept separate so the two can be cross-checked.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A = system.A
    Af = system.A_factor
    x = resolve_x0(cfg.x0, system)
    check_every = cfg.check_every or 1
    rec = _Recorder("sd", system, x, "selected", False)

    def f_of(res):
        return 0.5 * float(res @ Af.solve(res))

    res = A @ x - system.b
    res_norm = float(np.linalg.norm(res))
    rec.record(0, x, res_norm, f_of(res), -1)
    if res_norm <= cfg.tol:
        return rec.finish(0, True, x)
    k = 0
    converged = False
    while k < cfg.max_iters:
        k += 1
        Ares = A @ res
        den = float(res @ Ares)
        if den <= 0.0:
            # No descent left: res is zero, or A is not positive along it.
            k -= 1
            converged = rec.end(k, x, cfg.tol, float(np.linalg.norm(res)),
                                f_value=f_of(res), sel_index=0)
            break
        alpha = float(res @ res) / den
        x = x - (cfg.omega * alpha) * res
        res = A @ x - system.b
        if (k % check_every == 0 or k == cfg.max_iters) and rec.checkpoint(
                k, x, cfg.tol, float(np.linalg.norm(res)), f_value=f_of(res),
                sel_index=0):
            converged = True
            break
    return rec.finish(k, converged, x)


def run_cg_momentum(system: LinearSystem, cfg: SolverConfig | None = None) -> IterationTrace:
    """Conjugate gradients on an SPD system.

    Algebraically this is the heavy ball update with the step and momentum
    coefficients re-optimized every iteration; with exact arithmetic it
    terminates in at most n steps.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    A = system.A
    Af = system.A_factor
    x = resolve_x0(cfg.x0, system)
    check_every = cfg.check_every or 1
    rec = _Recorder("cg", system, x, "selected", False)

    def f_of(x_):
        res_ = A @ x_ - system.b
        return 0.5 * float(res_ @ Af.solve(res_))

    u = system.b - A @ x
    res_norm = float(np.linalg.norm(u))
    rec.record(0, x, res_norm, f_of(x), -1)
    if res_norm <= cfg.tol:
        return rec.finish(0, True, x)
    p = u.copy()
    uu = float(u @ u)
    k = 0
    converged = False
    while k < cfg.max_iters:
        k += 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # No curvature left along p, as in run_sd.
            k -= 1
            converged = rec.end(k, x, cfg.tol, f_value=f_of(x), sel_index=0)
            break
        alpha = uu / pAp
        x = x + alpha * p
        u = u - alpha * Ap
        uu_new = float(u @ u)
        # The recurrence residual can underflow to zero while the true one
        # stalls above tol; the run ends there, at a checkpoint.
        stalled = uu_new == 0.0
        if (k % check_every == 0 or k == cfg.max_iters or stalled) and \
                rec.checkpoint(k, x, cfg.tol, f_value=f_of(x), sel_index=0):
            converged = True
            break
        if stalled:
            break
        beta = uu_new / uu
        p = u + beta * p
        uu = uu_new
    return rec.finish(k, converged, x)


def run_method(method: str, system: LinearSystem,
               family: SketchFamily | None = None, rule=None,
               cfg: SolverConfig | None = None) -> IterationTrace:
    """Dispatch on a method name: ssd, ssdm, sd or cg."""
    if method == "ssd":
        return run_ssd(system, family, rule, cfg)
    if method == "ssdm":
        return run_ssdm(system, family, rule, cfg)
    if method == "sd":
        return run_sd(system, cfg)
    if method == "cg":
        return run_cg_momentum(system, cfg)
    raise InvalidConfigError(f"unknown method {method!r}")
