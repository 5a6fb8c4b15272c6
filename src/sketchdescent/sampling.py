"""Index selection rules: uniform, greedy over a random subset, capped.

The greedy rule draws tau of the q indices uniformly without replacement and
picks the one with the largest index loss; a run's draws come from its
DrawStream, by the schemes the rng module pins. tau = 1 is plain uniform
sampling, tau = q always picks the globally worst index (max distance), and
intermediate tau interpolates. The capped rule computes every loss, keeps
the indices whose loss clears a threshold blended from two greedy-rule
expected losses, and picks uniformly among the survivors.

The expected value of the largest loss in a uniform tau-subset has a closed
form over the ascending order statistics: the j-th smallest value is the
subset maximum with probability C(tau-1+j, tau-1) / C(q, tau) for
j = tau-1 .. q-1 (0-based sort position tau-1+j above uses j = 0 .. q-tau).
Those weights drive both the capped threshold and the rate certificates in
the theory module, so they are computed carefully and tested against exact
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidConfigError
from .linalg import is_integer
from .rng import subset_uniforms, uniform_subsets

__all__ = [
    "GreedyRule", "CappedRule", "Selection",
    "uniform", "greedy", "max_distance", "capped", "parse_rule",
    "gs_expectation_weights", "subset_max_expectation",
    "capped_threshold", "capped_candidates", "rule_expectation",
    "draw_sample", "DrawStream", "sample_size", "choose", "select",
]

# Uniforms one DrawStream refill may draw, at most: 128 KiB of doubles.
BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class GreedyRule:
    """Pick the largest loss among a uniform subset of tau indices.

    tau = None means the whole family, whatever its size.
    """

    tau: int | None = 1

    def __post_init__(self):
        _check_tau(self.tau)

    def resolve_tau(self, q: int) -> int:
        tau = q if self.tau is None else self.tau
        if tau > q:
            raise InvalidConfigError(f"tau={tau} exceeds family size q={q}")
        return tau

    @property
    def label(self) -> str:
        if self.tau == 1:
            return "uniform"
        if self.tau is None:
            return "maxdist"
        return f"greedy:{self.tau}"


@dataclass(frozen=True)
class CappedRule:
    """Uniform choice among indices whose loss clears a blended threshold.

    The threshold is theta * E1 + (1 - theta) * E2 where E1, E2 are the
    expected subset-max losses for tau1 and tau2. In exact mode those
    expectations are evaluated from the order statistics of the current
    losses; otherwise both are replaced by the mean loss, a cheaper lower
    bound. The worst index always clears the threshold, so the candidate
    set is never empty.
    """

    theta: float = 0.5
    tau1: int | None = 1
    tau2: int | None = None
    exact: bool = False

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidConfigError(f"theta must be in [0, 1], got {self.theta}")
        _check_tau(self.tau1)
        _check_tau(self.tau2)

    @property
    def label(self) -> str:
        def show(tau):
            return "m" if tau is None else str(tau)

        tag = f"capped:{self.theta:g},{show(self.tau1)},{show(self.tau2)}"
        return tag + (",exact" if self.exact else "")


def _check_tau(tau) -> None:
    """Refuse a subset size that is neither None (the whole family) nor an
    integer >= 1; a float or a bool is not an integer."""
    if tau is not None and not (is_integer(tau) and tau >= 1):
        raise InvalidConfigError(f"tau must be an integer >= 1, got {tau!r}")


def uniform() -> GreedyRule:
    return GreedyRule(1)


def greedy(tau: int) -> GreedyRule:
    return GreedyRule(tau)


def max_distance() -> GreedyRule:
    return GreedyRule(None)


def capped(theta: float = 0.5, tau1: int | None = 1, tau2: int | None = None,
           exact: bool = False) -> CappedRule:
    return CappedRule(theta, tau1, tau2, exact)


def parse_rule(text: str):
    """Rule from its CLI spelling.

    uniform | maxdist | greedy:<tau> | capped:<theta>,<tau1>,<tau2>[,exact]
    where a tau of "m" means the whole family.
    """

    def parse_tau(tok: str):
        if tok == "m":
            return None
        try:
            return int(tok)
        except ValueError:
            raise InvalidConfigError(f"bad tau {tok!r} in rule {text!r}") from None

    if text == "uniform":
        return uniform()
    if text == "maxdist":
        return max_distance()
    if text.startswith("greedy:"):
        tau = parse_tau(text.split(":", 1)[1])
        return max_distance() if tau is None else greedy(tau)
    if text.startswith("capped:"):
        body = text.split(":", 1)[1].split(",")
        if len(body) not in (3, 4):
            raise InvalidConfigError(f"capped rule needs 3 or 4 fields: {text!r}")
        exact = False
        if len(body) == 4:
            if body[3] != "exact":
                raise InvalidConfigError(f"unknown capped flag {body[3]!r}")
            exact = True
        try:
            theta = float(body[0])
        except ValueError:
            raise InvalidConfigError(f"bad theta in rule {text!r}") from None
        return capped(theta, parse_tau(body[1]), parse_tau(body[2]), exact)
    raise InvalidConfigError(f"unknown sampling rule {text!r}")


def gs_expectation_weights(q: int, tau: int) -> np.ndarray:
    """Probability that each ascending order statistic is a subset maximum.

    Entry j (for j = 0 .. q - tau) is the probability that the value in
    ascending sort position tau - 1 + j is the largest of a uniform random
    tau-subset of q values: C(tau-1+j, tau-1) / C(q, tau). Computed by the
    multiplicative recurrence w[j+1] = w[j] * (tau+j) / (j+1), which keeps
    full relative accuracy; the entries sum to 1.
    """
    if not 1 <= tau <= q:
        raise InvalidConfigError(f"need 1 <= tau <= q, got tau={tau}, q={q}")
    k = q - tau + 1
    w = np.empty(k)
    w[0] = 1.0 / math.comb(q, tau)
    if k > 1:
        j = np.arange(k - 1)
        w[1:] = w[0] * np.cumprod((tau + j) / (j + 1.0))
    return w


@lru_cache(maxsize=16)
def _shared_weights(q: int, tau: int) -> np.ndarray:
    """gs_expectation_weights(q, tau), kept read-only for every later call:
    rule_expectation asks for the same (q, tau) at every Cesaro checkpoint,
    and a capped-exact run once for all its steps."""
    w = gs_expectation_weights(q, tau)
    w.flags.writeable = False
    return w


def subset_max_expectation(values: np.ndarray, tau: int) -> float:
    """Expected maximum of a uniform tau-subset of the given values."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(_shared_weights(v.size, tau) @ v[tau - 1:])


def capped_threshold(losses: np.ndarray, rule: CappedRule) -> float:
    """Admission threshold for the capped rule at the current losses."""
    losses = np.asarray(losses, dtype=np.float64)
    return _bind_threshold(rule, losses.size)(losses)


def _bind_threshold(rule: CappedRule, q: int):
    """capped_threshold on q losses, tau1 and tau2 resolved once.

    The bound threshold(losses, top=None) takes top = losses.max() from a
    caller that has it. Exact mode takes tau = 1 as the mean loss and
    tau = q as the largest, and sorts the losses once for any other tau,
    so capped:theta,1,m,exact sorts nothing. The mean is losses.sum() / q,
    np.mean's bits without its per-call overhead.
    """
    theta = rule.theta
    taus = [GreedyRule(tau).resolve_tau(q)
            for tau in (rule.tau1, rule.tau2)] if rule.exact else []
    weights = {tau: _shared_weights(q, tau) for tau in taus if 1 < tau < q}

    def threshold(losses: np.ndarray, top=None) -> float:
        mean = float(losses.sum() / q)
        if not taus:
            return mean
        top = losses.max() if top is None else top
        v = np.sort(losses) if weights else None
        e1, e2 = [mean if tau == 1 else float(top) if tau == q
                  else float(weights[tau] @ v[tau - 1:]) for tau in taus]
        return theta * e1 + (1.0 - theta) * e2
    return threshold


def capped_candidates(losses: np.ndarray, rule: CappedRule,
                      threshold: float | None = None) -> np.ndarray:
    """Indices whose loss reaches the threshold. Never empty.

    The threshold defaults to capped_threshold(losses, rule); the bound
    choice passes the one it has computed, so a capped step sorts once.
    """
    thr = capped_threshold(losses, rule) if threshold is None else threshold
    cand = np.nonzero(losses >= thr)[0]
    if cand.size == 0:
        # The max always clears the threshold in exact arithmetic; this
        # guards the few-ulp case where the blend rounds above it.
        cand = np.array([int(np.argmax(losses))])
    return cand


def rule_expectation(losses: np.ndarray, rule) -> float:
    """Expected selected loss under a rule, given all q current losses."""
    if isinstance(rule, GreedyRule):
        return subset_max_expectation(losses, rule.resolve_tau(losses.size))
    if isinstance(rule, CappedRule):
        return float(np.mean(losses[capped_candidates(losses, rule)]))
    raise InvalidConfigError(f"unknown rule type {type(rule).__name__}")


def draw_sample(q: int, tau: int, rng: np.random.Generator,
                draws: int | None = None) -> np.ndarray:
    """Uniform tau-subset of range(q), ascending.

    With draws given, a (draws, tau) block of such subsets whose first row
    is the subset draw_sample(q, tau, rng) returns; the scheme is pinned in
    the rng module.
    """
    if not 1 <= tau <= q:
        raise InvalidConfigError(f"need 1 <= tau <= q, got tau={tau}, q={q}")
    block = uniform_subsets(rng, q, tau, 1 if draws is None else draws)
    return block[0] if draws is None else block


class DrawStream:
    """One run's index draws, served row by row from blocks.

    A refill draws the uniforms of several steps in one call: draw_sample
    blocks for greedy samples, plain uniforms for picks. The first refill
    serves one step and each later one twice as many as the last, up to
    BLOCK_VALUES uniforms, so a short run draws little it never serves.
    Every draw consumes a fixed share of the generator's stream, so the
    draws equal those of one refill per step, whatever the block size,
    provided the stream has no other consumer. A stream serves one kind of
    draw, a fixed (q, tau) or picks, as one rule in one run does.
    """

    __slots__ = ("rng", "_kind", "_block", "_next")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._kind = None
        self._block = ()
        self._next = 0

    def _steps(self, kind, per_step: int) -> int:
        """Steps the next refill serves: double the last one's, capped."""
        if self._kind is None:
            self._kind = kind
        elif kind != self._kind:
            raise InvalidConfigError(
                f"a draw stream serves one kind of draw: {self._kind}, not {kind}")
        return max(1, min(2 * len(self._block), BLOCK_VALUES // per_step))

    def sample(self, q: int, tau: int) -> np.ndarray:
        """The next uniform tau-subset of range(q), ascending."""
        if self._next == len(self._block) or self._kind != (q, tau):
            steps = self._steps((q, tau), subset_uniforms(q, tau))
            self._block = draw_sample(q, tau, self.rng, steps)
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]

    def pick(self, n: int) -> int:
        """The next uniform index in range(n): floor(u * n)."""
        if self._next == len(self._block) or self._kind != "pick":
            self._block = self.rng.random(self._steps("pick", 1)).tolist()
            self._next = 0
        self._next += 1
        return int(self._block[self._next - 1] * n)


@dataclass
class Selection:
    """Outcome of one selection step.

    index is None only when the rule evaluated every loss and the largest
    was exactly zero, i.e. the iterate already solves the system. A greedy
    sample of tau < q indices whose losses are all zero still returns its
    smallest index; the update there is a no-op. losses holds the evaluated
    losses: all q of them for full scans, else those of the ascending
    sample. zero_losses counts exact zeros among them; the rate
    certificates use it. chosen_loss is the loss of the selected index at
    selection time. The capped rule also reports its admission threshold,
    the size of its candidate set and its rule-expected loss, the mean loss
    over the candidates, which equals rule_expectation(losses, rule).
    """

    index: int | None
    losses: np.ndarray
    zero_losses: int
    threshold: float | None = None
    chosen_loss: float | None = None
    expected_loss: float | None = None
    candidates: int = 0


def sample_size(rule, q: int) -> int:
    """Losses one step of the rule reads on a family of q: tau, or q for
    capped. Refuses a tau above q and a rule of unknown type."""
    if isinstance(rule, GreedyRule):
        return rule.resolve_tau(q)
    if isinstance(rule, CappedRule):
        return q
    raise InvalidConfigError(f"unknown rule type {type(rule).__name__}")


def choose(rule, losses: np.ndarray, stream: DrawStream, sample=None):
    """bind_choice(rule, q) applied once to the losses of the ascending
    sample, or of all q indices when sample is None (a full scan)."""
    return bind_choice(rule, losses.size)(losses, stream, sample)


def bind_choice(rule, q: int):
    """The rule's choice on a family of q indices, bound once per run.

    choice(losses, stream, sample=None) returns (index, loss, f, threshold,
    candidates): f is the value a trace records, the chosen loss or for
    capped the candidates' mean loss, lc.sum() / lc.size (np.mean's bits);
    threshold and candidates are None and 0 for greedy. It returns None
    when a full scan's largest loss is exactly zero: losses are >= 0, so
    the iterate solves the system. A NaN is its own argmax, never read as
    solved. Greedy ties break to the smallest index. capped_candidates is
    looked up by its module name, so a wrapper of it sees every step.
    """
    if isinstance(rule, GreedyRule):
        def choice(losses, stream, sample=None):
            j = losses.argmax()  # methods: no np.argmax or float() dispatch
            loss = losses.item(j)
            if sample is not None:
                return int(sample[j]), loss, loss, None, 0
            return None if loss == 0.0 else (int(j), loss, loss, None, 0)
        return choice
    if isinstance(rule, CappedRule):
        threshold = _bind_threshold(rule, q)

        def choice(losses, stream, sample=None):
            top = losses.max()
            if top == 0.0:
                return None
            thr = threshold(losses, top)
            cand = capped_candidates(losses, rule, thr)
            i = int(cand[stream.pick(cand.size)])
            lc = losses[cand]
            return i, float(losses[i]), float(lc.sum() / lc.size), thr, cand.size
        return choice
    raise InvalidConfigError(f"unknown rule type {type(rule).__name__}")


def select(rule, family, x: np.ndarray,
           rng: np.random.Generator | DrawStream) -> Selection:
    """Run one selection step of the rule on the family at x.

    Draws the sample (none for a full scan), evaluates its losses, counts
    their zeros and hands them to :func:`choose`. rng is the run's
    DrawStream, or a generator that this step alone draws from; both give
    the same draws.
    """
    q = family.q
    stream = rng if isinstance(rng, DrawStream) else DrawStream(rng)
    tau = sample_size(rule, q)
    sample = None if tau == q else stream.sample(q, tau)
    losses = family.losses(x, sample)
    zero = losses.size - int(np.count_nonzero(losses))  # a NaN is nonzero
    chosen = choose(rule, losses, stream, sample)
    if chosen is None:
        return Selection(None, losses, zero)
    i, loss, f, thr, cand = chosen
    expected = f if isinstance(rule, CappedRule) else None
    return Selection(i, losses, zero, thr, loss, expected, cand)
