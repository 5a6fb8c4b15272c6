"""Iterative solvers: sketched descent, heavy ball, steepest descent, CG.

Each iteration of a sketched method has a sampling rule pick an index, the
family evaluate its loss, G-gradient direction and exact step, and the
iterate move by omega times that step, optionally plus a heavy ball term
gamma * (x_k - x_{k-1}). Two loops run it:

- The vector kinds (row, lsqcol, spectral) run one loop that binds the
  family's arrays (d, D, the coupling K', the exact steps), the rule's
  tau, the run's DrawStream and omega once per run. A step then does only
  the arithmetic of sampling.select, SketchFamily.evaluate and
  apply_update, expression for expression: draw, gather the losses
  0.5 c_s^2 / d_s, one argmax, the chosen index's exact c_i from one dot,
  x <- x - (omega step) ((c_i / d_i) D[:, i]). Those public one-step
  functions stay the reference the loop is tested against.
- Block and full families have no scalar c_i; their loop calls select,
  evaluate and apply_update each step.

Steepest descent and conjugate gradients get dedicated loops so they can
serve as independent references: steepest descent must coincide with the
full-sketch solver, and conjugate gradients is algebraically the heavy ball
iteration whose step and momentum coefficients are chosen adaptively
instead of held fixed.

Residuals, errors and wall times are recorded at checkpoints; the stopping
test ||A x - b|| <= tol runs at the same granularity. Vector families
default to a checkpoint every 100 iterations so the O(m n) residual never
dominates the O(n) iteration; everything else checks every iteration.

A rule that reads more than one loss per iteration (greedy tau > 1, max
distance, capped) on a family that caches its coupling K' keeps the q
linear values up to date, O(q) per step, instead of scanning A, A' or U:
each step moves them by a multiple of one row of K'. They are recomputed
exactly at every checkpoint, and before a run ends because every maintained
loss is zero. The chosen index's own value is always computed exactly, and
a selected loss that is NaN or infinite stops the run at once. A full scan
finds every loss zero when the largest one is zero (losses are >= 0).

Every run tallies its steps in IterationTrace.counts (losses read, zero
steps, full scans, capped candidates); the counts change no other field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidConfigError, SizeLimitError
from .linalg import as_vector, pinv_psd
from .problems import LinearSystem, resolve_x_star
from .rng import make_rng
from . import sampling
from .sampling import CappedRule, DrawStream, GreedyRule, rule_expectation, select
from .sketching import VECTOR_KINDS, SketchFamily, apply_update

DIVERGENCE_NORM = 1e12

X0_PRESETS = ("ones1000", "zero", "range")

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
        if not 0.0 < self.omega < 2.0:
            raise InvalidConfigError(f"omega must be in (0, 2), got {self.omega}")
        if self.gamma < 0.0:
            raise InvalidConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.tol < 0.0:
            raise InvalidConfigError(f"tol must be >= 0, got {self.tol}")
        if self.max_iters < 0:
            raise InvalidConfigError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.check_every is not None and self.check_every < 1:
            raise InvalidConfigError("check_every must be >= 1")
        if isinstance(self.x0, str) and self.x0 not in X0_PRESETS:
            raise InvalidConfigError(
                f"unknown x0 preset {self.x0!r}; choose from {X0_PRESETS}"
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
    the exact recomputes of all q linear values; candidates, the capped
    candidate-set sizes, summed. Every count is 0 for sd and cg.
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
    """Start vector from a preset name or an explicit array."""
    n = system.n
    if isinstance(cfg_x0, str):
        if cfg_x0 == "zero":
            return np.zeros(n)
        if cfg_x0 == "ones1000":
            return 1000.0 * np.ones(n)
        if cfg_x0 == "range":
            base = 1000.0 * np.ones(n)
            return project_onto_gradient_span(system, base)
        raise InvalidConfigError(f"unknown x0 preset {cfg_x0!r}")
    x0 = as_vector(np.asarray(cfg_x0, dtype=np.float64).copy(), "x0")
    if x0.shape != (n,):
        raise InvalidConfigError(f"x0 has length {x0.size}, expected {n}")
    return x0


def project_onto_gradient_span(system: LinearSystem, x: np.ndarray) -> np.ndarray:
    """G-orthogonal projection of x onto range(G^{-1} A').

    Every sketched gradient lives in that span, so iterates started inside
    it stay inside it; the momentum certificates assume exactly this.
    """
    if max(system.m, system.n) > 2000:
        raise SizeLimitError("dense projection refused above desk scale")
    A = system.A
    M = A @ system.G_factor.solve(A.T)
    coeff = pinv_psd(0.5 * (M + M.T)) @ (A @ x)
    return system.G_factor.solve(A.T @ coeff)


class _Recorder:
    """Accumulates checkpoint rows and assembles the trace."""

    def __init__(self, method: str, system: LinearSystem, x0: np.ndarray,
                 f_mode: str, track_cesaro: bool):
        self.method = method
        self.system = system
        self.f_mode = f_mode
        self.track_cesaro = track_cesaro
        try:
            self.x_star, self.is_proj = resolve_x_star(system, x0)
        except SizeLimitError:
            self.x_star, self.is_proj = None, False
        self.err0_b = (system.error_sq_b(x0, self.x_star)
                       if self.x_star is not None else np.nan)
        self.t0 = time.perf_counter()
        self.ks: list[int] = []
        self.residuals: list[float] = []
        self.rel_errors: list[float] = []
        self.err_g_sq: list[float] = []
        self.f_values: list[float] = []
        self.times: list[float] = []
        self.selected: list[int] = []
        self.cesaro_f: list[float] = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)

    def record(self, k: int, x: np.ndarray, residual: float, f_value: float,
               sel_index: int, cesaro_f: float = np.nan) -> None:
        self.ks.append(k)
        self.residuals.append(residual)
        if self.x_star is None:
            self.rel_errors.append(np.nan)
            self.err_g_sq.append(np.nan)
        else:
            err_b = self.system.error_sq_b(x, self.x_star)
            self.rel_errors.append(
                np.sqrt(err_b / self.err0_b) if self.err0_b > 0.0 else 0.0)
            self.err_g_sq.append(err_b if self.system.g_equals_b
                                 else self.system.error_sq_g(x, self.x_star))
        self.f_values.append(f_value)
        self.selected.append(sel_index)
        self.cesaro_f.append(cesaro_f)
        self.times.append(time.perf_counter() - self.t0)

    def finish(self, iterations: int, converged: bool, x: np.ndarray,
               x_cesaro: np.ndarray | None = None,
               diverged: bool = False) -> IterationTrace:
        return IterationTrace(
            method=self.method,
            ks=np.asarray(self.ks, dtype=np.intp),
            residuals=np.asarray(self.residuals),
            rel_errors=np.asarray(self.rel_errors),
            err_g_sq=np.asarray(self.err_g_sq),
            f_values=np.asarray(self.f_values),
            times=np.asarray(self.times),
            selected=np.asarray(self.selected, dtype=np.intp),
            iterations=iterations,
            converged=converged,
            x_final=x.copy(),
            f_mode=self.f_mode,
            cesaro_f=np.asarray(self.cesaro_f) if self.track_cesaro else None,
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


def _check_finite(x: np.ndarray, rec: _Recorder, k: int) -> None:
    norm = float(np.linalg.norm(x))
    if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
        _diverge(rec, k, x, f"iterate norm {norm:.3e} at iteration {k}")


def _run_sketched(method: str, system: LinearSystem, family: SketchFamily,
                  rule, cfg: SolverConfig, gamma: float) -> IterationTrace:
    cfg.validate()
    if family.system is not system:
        raise InvalidConfigError("family was built for a different system")
    x = resolve_x0(cfg.x0, system)
    vector = family.kind in VECTOR_KINDS
    check_every = cfg.check_every or (100 if vector else 1)
    exact_f = isinstance(rule, CappedRule)
    rec = _Recorder(method, system, x, "expected" if exact_f else "selected",
                    cfg.track_cesaro)

    def cesaro_loss(xsum, k):
        if not cfg.track_cesaro or k == 0:
            return np.nan
        return rule_expectation(family.losses(xsum / k), rule)

    res0 = system.residual_norm(x)
    rec.record(0, x, res0, np.nan, -1, cesaro_loss(None, 0))
    if res0 <= cfg.tol:
        return rec.finish(0, True, x, x.copy() if cfg.track_cesaro else None)
    loop = _vector_loop if vector else _generic_loop
    k, converged, x, x_sum = loop(family, rule, cfg, gamma, x,
                                  DrawStream(make_rng(cfg.seed)), rec,
                                  check_every, cesaro_loss)
    x_cesaro = (x_sum / k) if (cfg.track_cesaro and k > 0) else (
        x.copy() if cfg.track_cesaro else None)
    return rec.finish(k, converged, x, x_cesaro)


def _vector_picker(rule, family: SketchFamily, stream: DrawStream,
                   counts: dict):
    """One run's selection step on a vector family, bound once.

    Returns pick(x, c) -> (index, chosen loss, f value), or None when a
    full scan finds every loss zero. c holds the maintained linear values
    at x, or is None; without it a full scan recomputes them exactly. The
    arithmetic is select's: the same gathers, losses and argmax.
    """
    q = family.q
    d = family.denominators
    linear_values = family.linear_values
    if isinstance(rule, GreedyRule):
        tau = rule.resolve_tau(q)
        if tau < q:
            sample = stream.sample

            def pick(x, c):
                counts["losses_read"] += tau
                s = sample(q, tau)
                cs = linear_values(x, s) if c is None else c[s]
                losses = 0.5 * cs * cs / d[s]
                j = losses.argmax()
                loss = float(losses[j])
                return int(s[j]), loss, loss
            return pick

        def pick(x, c):
            counts["losses_read"] += q
            if c is None:
                counts["full_scans"] += 1
                c = linear_values(x)
            losses = 0.5 * c * c / d
            i = int(losses.argmax())
            loss = float(losses[i])
            # Losses are >= 0, so a zero maximum means all are zero; a NaN
            # is its own argmax and is caught by the caller.
            return None if loss == 0.0 else (i, loss, loss)
        return pick
    if isinstance(rule, CappedRule):
        # Read through the module, as select does, so that a wrapper of
        # sampling.capped_candidates (perfbench's tracer) sees every step.
        def pick(x, c):
            counts["losses_read"] += q
            if c is None:
                counts["full_scans"] += 1
                c = linear_values(x)
            losses = 0.5 * c * c / d
            if not np.any(losses > 0.0):
                return None
            cand = sampling.capped_candidates(
                losses, rule, sampling.capped_threshold(losses, rule))
            counts["candidates"] += cand.size
            i = int(cand[stream.pick(cand.size)])
            return i, float(losses[i]), float(np.mean(losses[cand]))
        return pick
    raise InvalidConfigError(f"unknown rule type {type(rule).__name__}")


def _vector_loop(family, rule, cfg, gamma, x, stream, rec, check_every,
                 cesaro_loss):
    """Iterations of a row, lsqcol or spectral run; see the module notes."""
    system = family.system
    counts = rec.counts
    linear_values = family.linear_values
    d = family.denominators
    dirs = family.direction_matrix
    steps = family.steps
    omega, tol, max_iters = cfg.omega, cfg.tol, cfg.max_iters
    heavy = gamma != 0.0
    track_cesaro = cfg.track_cesaro
    pick = _vector_picker(rule, family, stream, counts)
    # Maintain c only where it saves work: a rule reading one loss pays no
    # scan, and a checkpoint every step recomputes c anyway.
    coupling = family.coupling
    if check_every == 1 or (isinstance(rule, GreedyRule)
                            and rule.resolve_tau(family.q) == 1):
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
            # Every loss is exactly zero: already solved.
            converged = True
            rec.record(k - 1, x, system.residual_norm(x), 0.0, last_sel,
                       cesaro_loss(x_sum, k - 1))
            k -= 1
            break
        i, loss, last_f = chosen
        if not math.isfinite(loss):
            _diverge(rec, k - 1, x, f"selected loss {loss} at iteration {k}")
        last_sel = i
        ci = float(linear_values(x, i))
        if ci == 0.0:
            # Zero loss: the exact line search is 0/0, so x stays.
            counts["zero_steps"] += 1
            x_next = x
        else:
            scale = omega if steps is None else omega * steps[i]
            coef = ci / d[i]
            direction = coef * dirs[:, i]
            # Scaling by exactly 1 (omega = 1 with G = B) changes no bit.
            x_next = x - (direction if scale == 1.0 else scale * direction)
        if heavy:
            x_next = x_next + gamma * (x - x_prev)
        if c is not None:
            c_next = c
            if ci != 0.0:
                c_next = c - (scale * coef) * coupling[i]
            if heavy:
                c_next = c_next + gamma * (c - c_prev)
            c_prev, c = c, c_next
        x_prev = x
        x = x_next
        if track_cesaro:
            x_sum += x
        if k % check_every == 0 or k == max_iters:
            _check_finite(x, rec, k)
            res = system.residual_norm(x)
            rec.record(k, x, res, last_f, last_sel, cesaro_loss(x_sum, k))
            if res <= tol:
                converged = True
                break
            if c is not None:
                counts["full_scans"] += 1
                c = linear_values(x)
                if heavy:
                    counts["full_scans"] += 1
                    c_prev = linear_values(x_prev)
    return k, converged, x, x_sum


def _generic_loop(family, rule, cfg, gamma, x, stream, rec, check_every,
                  cesaro_loss):
    """Iterations of a block or full run, one public step at a time."""
    system = family.system
    counts = rec.counts
    exact_f = isinstance(rule, CappedRule)
    x_prev = x.copy()
    x_sum = np.zeros_like(x)
    last_sel = -1
    last_f = np.nan
    k = 0
    converged = False
    while k < cfg.max_iters:
        k += 1
        sel = select(rule, family, x, stream)
        counts["losses_read"] += sel.losses.size
        counts["candidates"] += sel.candidates
        if sel.index is None:
            # Every loss is exactly zero: already solved.
            converged = True
            rec.record(k - 1, x, system.residual_norm(x), 0.0, last_sel,
                       cesaro_loss(x_sum, k - 1))
            k -= 1
            break
        if not math.isfinite(sel.chosen_loss):
            _diverge(rec, k - 1, x,
                     f"selected loss {sel.chosen_loss} at iteration {k}")
        last_sel = sel.index
        last_f = sel.expected_loss if exact_f else sel.chosen_loss
        ev = family.evaluate(sel.index, x)
        if ev.step is None:
            counts["zero_steps"] += 1
        x_next = apply_update(x, ev, cfg.omega)
        if gamma != 0.0:
            x_next = x_next + gamma * (x - x_prev)
        x_prev = x
        x = x_next
        if cfg.track_cesaro:
            x_sum += x
        if k % check_every == 0 or k == cfg.max_iters:
            _check_finite(x, rec, k)
            res = system.residual_norm(x)
            rec.record(k, x, res, last_f, last_sel, cesaro_loss(x_sum, k))
            if res <= cfg.tol:
                converged = True
                break
    return k, converged, x, x_sum


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
            break
        alpha = float(res @ res) / den
        x = x - (cfg.omega * alpha) * res
        res = A @ x - system.b
        if k % check_every == 0 or k == cfg.max_iters:
            _check_finite(x, rec, k)
            res_norm = float(np.linalg.norm(res))
            rec.record(k, x, res_norm, f_of(res), 0)
            if res_norm <= cfg.tol:
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
            break
        alpha = uu / pAp
        x = x + alpha * p
        u = u - alpha * Ap
        uu_new = float(u @ u)
        # The recurrence residual can underflow to zero while the true one
        # stalls above tol; the run ends there, at a checkpoint.
        stalled = uu_new == 0.0
        if k % check_every == 0 or k == cfg.max_iters or stalled:
            _check_finite(x, rec, k)
            res_norm = float(np.linalg.norm(A @ x - system.b))
            rec.record(k, x, res_norm, f_of(x), 0)
            if res_norm <= cfg.tol:
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
