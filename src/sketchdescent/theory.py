"""Spectral constants, certified rates, and a numerical inequality checker.

Write r = G^{1/2} (x - x*). Each sketch index i contributes the whitened
curvature operator

    T_i = G^{-1/2} Z_i G^{-1/2},    Z_i = A' H_i A,

so the index loss is f_i(x) = 1/2 r' T_i r. Every convergence certificate
in this package is a function of a handful of eigenvalue statistics of the
T_i and of their sum: the per-index extremes, the global extremes, and two
rule-dependent constants (lam_lo, lam_hi) that sandwich the expected
selected loss,

    lam_lo * ||r||^2  <=  2 E[f_selected(x)]  <=  lam_hi * ||r||^2.

:func:`spectral_report` computes all of these (desk scale only) by one of
two routes:

- the closed form: a diagonal family (spectral, B = G = A) has
  T_i = u_i u_i', which sum to the identity, so every per-index and summed
  eigenvalue is exactly 1 and nothing is decomposed;
- one dense pass over the family's own arrays, for every other family: it
  takes G^{-1/2} once, reads the rank-one T_i's eigenvalues off W = A'S,
  the denominators and the direction matrix (row, lsqcol, spectral), or
  decomposes each whitened block or full T_i, and decomposes the summed
  operator, all n x n.

:func:`predicted_rates` and :func:`momentum_rate` turn the constants into
per-step contraction factors, averaged-iterate bounds and the heavy ball
Lyapunov rate, and :func:`verify_inequalities` hammers the underlying
matrix inequalities with randomized trials, reporting the worst relative
violation of each. It always takes the dense route, which it needs for its
range bases, so it also checks the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NumericalFailureError,
    SizeLimitError,
)
from .linalg import DEFAULT_EIG_CUTOFF, sym_eig
from .problems import resolve_x_star
from .rng import make_rng, standard_normal
from .sampling import CappedRule, GreedyRule, rule_expectation
from .sketching import VECTOR_KINDS, SketchFamily, check_omega

# Dense eigendecompositions get expensive and inaccurate past desk scale.
MAX_THEORY_DIM = 500


def _qbar(q: int, tau: int, zero_losses: int) -> int:
    """Effective divisor for the greedy lower sandwich constant."""
    return max(q - zero_losses, q - tau + 1)


def sandwich_constants(tsum_min_pos: float, tsum_max: float, mu_hi: float,
                       q: int, rule, zero_losses: int = 0) -> tuple[float, float]:
    """(lam_lo, lam_hi) for one sampling rule.

    zero_losses is the number of indices whose loss vanishes at the current
    iterate; more zeros make the greedy lower constant stronger. The capped
    constants assume the exact-expectation threshold.
    """
    if isinstance(rule, GreedyRule):
        tau = rule.resolve_tau(q)
        lam_lo = tsum_min_pos / _qbar(q, tau, zero_losses)
        lam_hi = min(mu_hi, tau * tsum_max / q)
        return lam_lo, lam_hi
    if isinstance(rule, CappedRule):
        tau1 = GreedyRule(rule.tau1).resolve_tau(q)
        tau2 = GreedyRule(rule.tau2).resolve_tau(q)
        lam_lo = (rule.theta * tsum_min_pos / _qbar(q, tau1, zero_losses)
                  + (1.0 - rule.theta) * tsum_min_pos / _qbar(q, tau2, zero_losses))
        return lam_lo, mu_hi
    raise InvalidConfigError(f"unknown rule type {type(rule).__name__}")


@dataclass
class SpectralReport:
    """Eigenvalue statistics of the whitened curvature operators.

    Per-index arrays are indexed like the family. cond is the ratio of the
    largest to the smallest positive eigenvalue of T_i; for a rank-one T_i
    it is exactly 1. all_pd records whether every T_i is positive definite,
    which unlocks the sharper condition-number rates.

    rule_label, zero_losses, lam_lo and lam_hi depend on the rule, every
    other field on the family alone; a report for another rule is
    :meth:`with_rule`. A report holds constants only: the range bases that
    :func:`verify_inequalities` draws from come with its own pass.
    """

    kind: str
    q: int
    n: int
    eig_max: np.ndarray
    eig_min_pos: np.ndarray
    eig_min: np.ndarray
    rank: np.ndarray
    cond: np.ndarray
    mu_hi: float
    mu_lo: float
    all_pd: bool
    tsum_eig_max: float
    tsum_eig_min_pos: float
    tsum_rank: int
    rule_label: str
    zero_losses: int
    lam_lo: float
    lam_hi: float

    def with_rule(self, rule, zero_losses: int = 0) -> "SpectralReport":
        """The same family's report for another rule: new sandwich constants."""
        lam_lo, lam_hi = sandwich_constants(
            self.tsum_eig_min_pos, self.tsum_eig_max, self.mu_hi, self.q,
            rule, zero_losses,
        )
        return replace(self, rule_label=getattr(rule, "label", str(rule)),
                       zero_losses=zero_losses, lam_lo=lam_lo, lam_hi=lam_hi)

    def to_text(self) -> str:
        """Flat key=value dump, one line per scalar, for report files."""
        lines = [
            f"kind={self.kind}",
            f"q={self.q}",
            f"n={self.n}",
            f"rule={self.rule_label}",
            f"zero_losses={self.zero_losses}",
            f"mu_hi={self.mu_hi!r}",
            f"mu_lo={self.mu_lo!r}",
            f"all_pd={self.all_pd}",
            f"tsum_eig_max={self.tsum_eig_max!r}",
            f"tsum_eig_min_pos={self.tsum_eig_min_pos!r}",
            f"tsum_rank={self.tsum_rank}",
            f"lam_lo={self.lam_lo!r}",
            f"lam_hi={self.lam_hi!r}",
            f"cond_max={float(self.cond.max())!r}",
            f"cond_mean={float(self.cond.mean())!r}",
        ]
        return "\n".join(lines) + "\n"


def _whiten(Z: np.ndarray, Gih: np.ndarray | None) -> np.ndarray:
    """G^{-1/2} Z G^{-1/2}, symmetrized; Gih is G^{-1/2}, None when G = I."""
    if Gih is not None:
        Z = Gih @ Z @ Gih
    return 0.5 * (Z + Z.T)


def _check_size(family: SketchFamily) -> None:
    """Refuse a system past desk scale, before any work on it."""
    sys = family.system
    if sys.n > MAX_THEORY_DIM or sys.m > 10 * MAX_THEORY_DIM:
        raise SizeLimitError(
            f"{sys.m}x{sys.n} exceeds the desk-scale limit of the spectral "
            f"theory (n <= {MAX_THEORY_DIM}, m <= {10 * MAX_THEORY_DIM})"
        )


def _positive(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above the relative rank cutoff."""
    return w > DEFAULT_EIG_CUTOFF * max(1.0, w[-1])


def _rank_one(family: SketchFamily, eig_max: np.ndarray) -> tuple:
    """(eig_max, eig_min_pos, eig_min, rank) of rank-one T_i whose one
    nonzero eigenvalue is eig_max."""
    q = family.q
    eig_min = eig_max.copy() if family.system.n == 1 else np.zeros(q)
    return eig_max, eig_max.copy(), eig_min, np.ones(q, dtype=np.intp)


def _summary(family: SketchFamily, index: tuple,
             wT: np.ndarray) -> SpectralReport:
    """The family's report, without a rule, from the per-index arrays
    (eig_max, eig_min_pos, eig_min, rank) and the ascending eigenvalues wT
    of the summed operator."""
    eig_max, eig_min_pos, eig_min, rank = index
    posT = wT[_positive(wT)]
    if posT.size == 0:
        raise InvalidInputError("summed whitened operator is zero")
    return SpectralReport(
        kind=family.kind,
        q=family.q,
        n=family.system.n,
        eig_max=eig_max,
        eig_min_pos=eig_min_pos,
        eig_min=eig_min,
        rank=rank,
        cond=eig_max / eig_min_pos,
        mu_hi=float(eig_max.max()),
        mu_lo=float(eig_min_pos.min()),
        all_pd=bool(np.all(eig_min > 0.0)),
        tsum_eig_max=float(wT[-1]),
        tsum_eig_min_pos=float(posT[0]),
        tsum_rank=int(posT.size),
        rule_label="",
        zero_losses=0,
        lam_lo=np.nan,
        lam_hi=np.nan,
    )


def _dense_pass(family: SketchFamily, keep: bool = False) -> tuple:
    """(report, held): the family's report, without a rule, from one dense
    pass over its whitened operators, made once per public call.

    G^{-1/2} comes from one inv_sqrt (None when G = I). The vector kinds
    read W = A'S once: their rank-one T_i need no eigh, and their sum is
    W D^{-1} W'. Block and full families build each Z_i once, add it into
    the sum and decompose its T_i. held is None, or with keep
    (Gih, W, T_i list, range bases of the T_i, range basis of the summed
    operator), where the vector kinds have W and no T_i or bases, and block
    and full no W. Without keep each array is dropped after its last use,
    so none is held through the summed operator's eigh.
    """
    sys = family.system
    n, q = sys.n, family.q
    Gih = None if sys.G_factor.is_identity else sys.G_factor.inv_sqrt()
    W = ops = bases = None
    if family.kind in VECTOR_KINDS:
        W = family.w_matrix
        d = family.denominators
        zsum = (W / d) @ W.T
        # Rank-one T_i: the one nonzero eigenvalue is w_i'G^{-1}w_i / d_i.
        e = np.einsum("ij,ij->j", W, family.direction_matrix)
        index = _rank_one(family, e / d)
        if not keep:
            W = None
    else:
        zsum = np.zeros((n, n))
        eig_max, eig_min_pos, eig_min = np.empty((3, q))
        rank = np.empty(q, dtype=np.intp)
        index = (eig_max, eig_min_pos, eig_min, rank)
        ops, bases = [], []
        for i in range(q):
            Z = family.curvature_matrix(i)
            np.add(zsum, Z, out=zsum)
            Z = _whiten(Z, Gih)  # T_i; the raw Z_i is freed before its eigh
            w, V = sym_eig(Z)
            mask = _positive(w)
            pos = w[mask]
            if pos.size == 0:
                raise InvalidInputError(f"sketch index {i} has a zero operator")
            eig_max[i] = w[-1]
            eig_min_pos[i] = pos[0]
            rank[i] = pos.size
            eig_min[i] = w[0] if pos.size == n else 0.0
            if keep:
                ops.append(Z)
                bases.append(V[:, mask])
    if ops is not None and q == 1:  # one matrix sketch: T_0 is the sum
        wT, VT = w, V
    else:
        tsum = _whiten(zsum, Gih)
        zsum = None
        if not keep:
            Gih = None
        wT, VT = sym_eig(tsum)
    report = _summary(family, index, wT)
    return report, ((Gih, W, ops, bases, VT[:, _positive(wT)]) if keep
                    else None)


def spectral_report(family: SketchFamily, rule=None,
                    zero_losses: int = 0) -> SpectralReport:
    """Compute every spectral constant for a family and a sampling rule.

    rule defaults to uniform sampling. zero_losses feeds the effective
    divisor in the greedy lower constant; 0 is the safe generic value.
    A diagonal family takes the closed form (module notes); every other
    family one dense pass that holds one whitened n x n operator at a
    time.
    """
    _check_size(family)
    if family.diagonal:
        base = _summary(family, _rank_one(family, np.ones(family.q)),
                        np.ones(family.system.n))
    else:
        base = _dense_pass(family)[0]
    return base.with_rule(GreedyRule(1) if rule is None else rule, zero_losses)


# ---------------------------------------------------------------------------
# Rates for the plain (no momentum) solver
# ---------------------------------------------------------------------------


@dataclass
class RateBundle:
    """Certified decay factors and averaged-iterate coefficients.

    step_factor is the guaranteed per-step factor for the expected squared
    G-error. step_factor_pd sharpens it through the per-index condition
    numbers and exists only when every T_i is positive definite.
    fdecay_factor bounds the one-step decay of the expected loss. The
    condition-number expectations are taken under the uniform distribution
    over indices (a documented surrogate for state-dependent rules); the
    _worst variants use the most pessimistic index and are certified for
    any rule.
    """

    omega: float
    step_factor: float
    step_factor_pd: float | None
    step_factor_pd_worst: float | None
    fdecay_factor: float
    fdecay_factor_worst: float
    cesaro_error_coeff: float
    cesaro_loss_coeff: float
    cond_mean: float
    cond_sq_mean: float
    cond_max: float

    def cesaro_error_bound(self, k: int, err0_g_sq: float) -> float:
        """Bound on the expected squared G-error of the running average."""
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        return self.cesaro_error_coeff * err0_g_sq / k

    def cesaro_loss_bound(self, k: int, err0_g_sq: float) -> float:
        """Bound on the expected loss of the running average."""
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        return self.cesaro_loss_coeff * err0_g_sq / k


def predicted_rates(report: SpectralReport, omega: float = 1.0) -> RateBundle:
    """Turn a spectral report into certified decay factors."""
    check_omega(omega)
    accel = 2.0 * omega - omega * omega
    cond = report.cond
    shape = 4.0 * cond / (1.0 + cond) ** 2
    pd = report.all_pd
    cond_mean = float(cond.mean())
    cond_sq_mean = float((cond * cond).mean())
    cond_max = float(cond.max())
    fdecay = 1.0 - 4.0 * accel / min(4.0 * cond_mean, 4.0 + cond_sq_mean)
    fdecay_worst = 1.0 - 4.0 * accel / min(4.0 * cond_max, 4.0 + cond_max ** 2)
    return RateBundle(
        omega=omega,
        step_factor=1.0 - accel * report.lam_lo / report.mu_hi,
        step_factor_pd=(1.0 - accel * float(shape.mean())) if pd else None,
        step_factor_pd_worst=(1.0 - accel * float(shape.min())) if pd else None,
        fdecay_factor=fdecay,
        fdecay_factor_worst=fdecay_worst,
        cesaro_error_coeff=report.mu_hi / (omega * (2.0 - omega) * report.lam_lo),
        cesaro_loss_coeff=report.mu_hi / (2.0 * omega * (2.0 - omega)),
        cond_mean=cond_mean,
        cond_sq_mean=cond_sq_mean,
        cond_max=cond_max,
    )


# ---------------------------------------------------------------------------
# Heavy ball rates
# ---------------------------------------------------------------------------


@dataclass
class MomentumRate:
    """Lyapunov contraction certificate for the heavy ball iteration.

    The certified recursion is

        E[V_{k+1}] <= rate * E[V_k],
        V_k = ||r_k||^2 + prev_weight * ||r_{k-1}||^2
              + (2 * loss_weight * omega / mu_hi) * f(x_{k-1}),

    where f is the rule-expected loss. coef_cur and coef_prev are the raw
    coefficients of the two-term error recursion behind the certificate;
    the certificate is vacuous unless admissible (coef_cur + coef_prev < 1),
    in which case coef_cur + coef_prev <= rate < 1.
    """

    gamma: float
    omega: float
    loss_weight: float
    loss_slack: float
    coef_cur: float
    coef_prev: float
    rate: float
    prev_weight: float
    admissible: bool
    mu_hi: float
    mu_lo: float
    lam_lo: float
    lam_hi: float

    def lyapunov(self, err_g_sq_cur: float, err_g_sq_prev: float,
                 expected_loss_prev: float = 0.0) -> float:
        """V_k from its three ingredients."""
        val = err_g_sq_cur + self.prev_weight * err_g_sq_prev
        if self.loss_weight > 0.0:
            val += (2.0 * self.loss_weight * self.omega / self.mu_hi) \
                * expected_loss_prev
        return val


def momentum_rate(report: SpectralReport, gamma: float, omega: float = 1.0,
                  loss_weight: float = 0.0,
                  loss_slack: float = 0.0) -> MomentumRate:
    """Certified heavy ball rate for one (gamma, omega) and free parameters.

    loss_weight and loss_slack are the two free parameters of the Lyapunov
    analysis; (0, 0) is the standard choice and any admissible pair gives a
    valid certificate. Requires gamma >= max(loss_slack, loss_weight - 2 +
    omega) and, when loss_weight > 0, loss_slack < loss_weight * mu_lo /
    mu_hi.
    """
    check_omega(omega)
    zeta, xi = float(loss_weight), float(loss_slack)
    if not (0.0 <= zeta < math.inf and 0.0 <= xi < math.inf):  # refuses NaN
        raise InvalidConfigError(
            f"loss_weight and loss_slack must be finite and >= 0, got {zeta}, {xi}")
    if zeta == 0.0 and xi > 0.0:
        raise InvalidConfigError("loss_slack > 0 requires loss_weight > 0")
    if zeta > 0.0 and xi >= zeta * report.mu_lo / report.mu_hi:
        raise InvalidConfigError(
            f"need loss_slack < loss_weight * mu_lo / mu_hi = "
            f"{zeta * report.mu_lo / report.mu_hi:.6g}, got {xi}"
        )
    floor = max(xi, zeta - 2.0 + omega)
    if not floor <= gamma < math.inf:
        raise InvalidConfigError(
            f"gamma must be >= max(loss_slack, loss_weight - 2 + omega) "
            f"= {floor:.6g} and finite, got {gamma}"
        )
    coef_cur = (1.0 + 3.0 * gamma + 2.0 * gamma * gamma
                - ((gamma + 2.0 - omega - zeta) * omega / report.mu_hi)
                * report.lam_lo)
    coef_prev = (gamma + 2.0 * gamma * gamma
                 + ((gamma - xi) * omega / report.mu_lo) * report.lam_hi)
    branch = 0.5 * (coef_cur + math.sqrt(coef_cur * coef_cur + 4.0 * coef_prev))
    if zeta > 0.0:
        branch = max(branch, xi * report.mu_hi / (zeta * report.mu_lo))
    admissible = coef_cur + coef_prev < 1.0
    if admissible:
        # Both orderings are theorems; a violation means a broken formula.
        if coef_cur + coef_prev > branch + 1e-12:
            raise NumericalFailureError("rate fell below coefficient sum")
        if branch >= 1.0 + 1e-12:
            raise NumericalFailureError("admissible parameters gave rate >= 1")
    return MomentumRate(
        gamma=gamma,
        omega=omega,
        loss_weight=zeta,
        loss_slack=xi,
        coef_cur=coef_cur,
        coef_prev=coef_prev,
        rate=branch,
        prev_weight=branch - coef_cur,
        admissible=admissible,
        mu_hi=report.mu_hi,
        mu_lo=report.mu_lo,
        lam_lo=report.lam_lo,
        lam_hi=report.lam_hi,
    )


def momentum_cesaro_admissible(report: SpectralReport, gamma: float,
                               omega: float) -> bool:
    """Parameter test for the averaged-iterate momentum bound."""
    check_omega(omega)
    if not 0.0 <= gamma < math.inf:
        raise InvalidConfigError(f"gamma must be finite and >= 0, got {gamma}")
    return (omega / report.mu_hi
            + gamma * (1.0 + report.mu_hi / report.mu_lo)) < 2.0


def cesaro_bound(report: SpectralReport, gamma: float, omega: float,
                 k: int, err0_g_sq: float, loss0: float) -> float:
    """Bound on the expected loss of the k-th running average under momentum.

    err0_g_sq is the squared G-error of the start point and loss0 its
    rule-expected loss. Requires the parameters to pass
    :func:`momentum_cesaro_admissible`; gamma = 0 gives the plain averaged
    bound with the momentum terms dropped.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if not momentum_cesaro_admissible(report, gamma, omega):
        raise InvalidConfigError(
            f"averaged momentum bound needs omega/mu_hi + gamma * "
            f"(1 + mu_hi/mu_lo) < 2 (gamma={gamma}, omega={omega})"
        )
    lo, hi = report.mu_lo, report.mu_hi
    num = lo * hi * (1.0 - gamma) ** 2 * err0_g_sq + 2.0 * gamma * omega * hi * loss0
    den = 2.0 * omega * k * (2.0 * lo * hi - gamma * lo * hi
                             - gamma * hi * hi - omega * lo)
    assert den > 0.0  # admissibility guarantees this
    return num / den


# ---------------------------------------------------------------------------
# Randomized inequality verification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Worst relative violation of one inequality. update records each
    check while verify_inequalities runs; finish then sets passed."""

    name: str
    checked: int = 0
    worst: float = -np.inf
    passed: bool = False
    where: tuple | None = None

    def update(self, where, *chain) -> None:
        """Record violations of chain[0] <= chain[1] <= ..., pair by pair
        (arrays or scalars)."""
        for lhs, rhs in zip(chain, chain[1:]):
            lhs = np.atleast_1d(np.asarray(lhs, dtype=np.float64))
            rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            v = (lhs - rhs) / scale
            self.checked += v.size
            j = int(np.argmax(v))
            if v[j] > self.worst:
                self.worst = float(v[j])
                self.where = (where, j) if v.size > 1 else (where,)

    def finish(self, rtol: float) -> "CheckResult":
        """Pass when something was checked and no violation exceeds rtol;
        worst reads 0 when nothing was checked."""
        self.passed = self.checked > 0 and self.worst <= rtol
        if not np.isfinite(self.worst):
            self.worst = 0.0
        return self


@dataclass
class InequalityReport:
    trials: int
    rtol: float
    entries: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]

    def to_text(self) -> str:
        lines = [f"trials={self.trials} rtol={self.rtol!r}"]
        for e in self.entries:
            tag = "ok" if e.passed else "VIOLATED"
            lines.append(
                f"{e.name}: {tag} checked={e.checked} worst={e.worst:.3e}"
                + (f" at {e.where}" if e.where is not None else "")
            )
        return "\n".join(lines) + "\n"


# verify_inequalities' checks, in report order; the two pd_ checks are
# reported only when every T_i is positive definite.
_CHECKS = (
    "quad2_within_eig_bounds_of_quad1", "quad3_within_eig_bounds_of_quad2",
    "rayleigh_bounds_on_operator_range", "step_within_inverse_eig_brackets",
    "step_matches_quadratic_ratio", "fast_loss_matches_whitened_quadratic",
    "product_ratio_at_least_one", "product_ratio_gap_bound",
    "pd_cross_ratio_bound", "pd_product_ratio_bound",
    "constant_chain_consistency",
)


def verify_inequalities(family: SketchFamily, rules=None, trials: int = 1000,
                        seed: int = 0, rtol: float = 1e-9) -> InequalityReport:
    """Randomized check of every spectral inequality behind the rates.

    Draws error vectors r in the range of the summed whitened operator,
    forms the point x = x* + G^{-1/2} r, and verifies per index i:

    - the order sandwiches between r'T_i r, r'T_i^2 r, r'T_i^3 r;
    - the Rayleigh bounds on the range of T_i;
    - the exact step against 1/eigenvalue brackets and the quadratic ratio;
    - the product-ratio (Kantorovich-type) bounds, including the sharper
      positive definite variants when they apply;
    - agreement of the family's fast loss path with the whitened quadratic;

    and per sampling rule, the expected-loss sandwich with the constants of
    :func:`sandwich_constants` evaluated at that trial's zero-loss count.

    Returns a report whose entries carry the worst relative violation seen;
    a violation above rtol marks the entry failed.
    """
    sys = family.system
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    _check_size(family)
    if rules is None:
        rules = [GreedyRule(1)] + ([
            GreedyRule(2), GreedyRule(None), CappedRule(0.5, 1, None, exact=True)
        ] if family.q >= 2 else [])
    for rule in rules:
        if isinstance(rule, CappedRule) and not rule.exact:
            raise InvalidConfigError(
                "the sandwich certificate assumes the exact capped "
                "threshold; pass exact-mode capped rules"
            )
    report, (Gih, W, T_list, index_bases, Q) = _dense_pass(family, keep=True)

    rng = make_rng(seed)
    x_star, _ = resolve_x_star(sys, np.zeros(sys.n))
    lo, hi, mu_lo, mu_hi = (report.eig_min_pos, report.eig_max,
                            report.mu_lo, report.mu_hi)
    table = [CheckResult(name) for name in _CHECKS]
    (quad21, quad32, rayleigh, step, step_ratio, loss, prod_lo, prod_hi,
     pd_cross, pd_prod, chain) = table
    sandwich = {r.label: CheckResult(f"expected_loss_sandwich[{r.label}]")
                for r in rules}

    def lift(v):
        """G^{-1/2} v: a whitened error as x - x*."""
        return v if Gih is None else Gih @ v

    # Index-constant parts of the chains, checked once.
    gap_mid = (hi - report.eig_min) ** 2 / (4.0 * lo ** 2)
    chain.update("setup", 1.0 + gap_mid, 1.0 + report.cond ** 2 / 4.0)
    chain.update("setup", mu_lo, lo)
    chain.update("setup", hi, mu_hi)
    vector = T_list is None
    if vector:
        d = family.denominators
        V = lift(W)
        e = hi * d  # ||v_i||^2
        steps = d / e
        # The exact step never depends on x for rank-one sketches.
        step.update("setup", 1.0 / mu_hi, 1.0 / hi, steps, 1.0 / lo, 1.0 / mu_lo)
        probe = x_star + lift(Q[:, 0])
        for i in range(min(family.q, 8)):
            ev = family.evaluate(i, probe)
            if ev.step is not None:
                step_ratio.update("setup", ev.step, steps[i], ev.step)

    tiny = 1e-140
    for t in range(trials):
        r = Q @ standard_normal(rng, Q.shape[1])
        rr = float(r @ r)
        x = x_star + lift(r)
        losses = family.losses(x)
        zeros = int(np.count_nonzero(losses == 0.0))

        if vector:
            p = V.T @ r
            q1 = p * p / d
            q2 = q1 * hi
            q3 = q2 * hi
            rp_sq = p * p / e
            rayleigh.update(t, lo * rp_sq, q1, hi * rp_sq)
        else:
            q1, q2, q3 = np.empty((3, family.q))
            for i, T in enumerate(T_list):
                Tr = T @ r
                q1[i] = float(r @ Tr)
                q2[i] = float(Tr @ Tr)
                q3[i] = float(Tr @ (T @ Tr))
                basis = index_bases[i]
                rp = basis @ (basis.T @ r)
                rp_sq = float(rp @ rp)
                rayleigh.update((t, i), lo[i] * rp_sq, float(rp @ (T @ rp)),
                                hi[i] * rp_sq)
                s = family.evaluate(i, x).step
                if s is None:
                    continue
                step.update((t, i), 1.0 / mu_hi, 1.0 / hi[i], s,
                            1.0 / lo[i], 1.0 / mu_lo)
                if q3[i] > tiny:
                    step_ratio.update((t, i), s, q2[i] / q3[i], s)

        quad21.update(t, lo * q1, q2, hi * q1)
        quad32.update(t, lo * q2, q3, hi * q2)
        loss.update(t, losses, 0.5 * q1, losses)
        mask = (q1 > tiny) & (q2 > tiny) & (q3 > tiny)
        if np.any(mask):
            ratio = q1[mask] * q3[mask] / (q2[mask] * q2[mask])
            prod_lo.update(t, 1.0, ratio)
            prod_hi.update(t, ratio, 1.0 + gap_mid[mask])
            if report.all_pd:
                cross = rr * q3[mask] / (q1[mask] * q2[mask])
                kanto = ((hi[mask] + report.eig_min[mask]) ** 2
                         / (4.0 * hi[mask] * report.eig_min[mask]))
                pd_cross.update(t, cross, kanto)
                pd_prod.update(t, ratio, kanto)

        for rule in rules:
            lam_lo, lam_hi = sandwich_constants(
                report.tsum_eig_min_pos, report.tsum_eig_max, mu_hi,
                family.q, rule, zeros)
            exp_loss = rule_expectation(losses, rule)
            sandwich[rule.label].update(t, lam_lo * rr, 2.0 * exp_loss,
                                        lam_hi * rr)

    checks = [c for c in table if report.all_pd or not c.name.startswith("pd_")]
    checks += sandwich.values()
    return InequalityReport(trials, rtol, [c.finish(rtol) for c in checks])
