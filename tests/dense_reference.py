"""Slow references for the package's fast paths.

It materializes S_i and H_i = S_i (S_i' A B^{-1} A' S_i)^+ S_i' as dense
matrices, from first principles, so tests can pin SketchFamily.evaluate
against it. It reads only the family's kind, its system, its blocks and its
eigenvectors, none of the cached arrays the fast path uses.

whitened_operator forms T_i with its own G^{-1/2}, for the theory tests,
and dense_report takes every rule-free SpectralReport field from those T_i
and their sum by np.linalg.eigh, whatever route spectral_report takes.

reference_choose writes out the selection rules' choice among evaluated
losses apart from sampling.bind_choice, threshold included, so the solver
loop can be pinned against selection code it does not share.
"""

import numpy as np

from sketchdescent.errors import InvalidInputError
from sketchdescent.linalg import DEFAULT_EIG_CUTOFF, pinv_psd
from sketchdescent.sampling import GreedyRule, subset_max_expectation
from sketchdescent.sketching import SketchEval


def sketch_matrix(fam, i: int) -> np.ndarray:
    """S_i as a dense m x k matrix."""
    if not 0 <= i < fam.q:
        raise InvalidInputError(f"index {i} out of range for q={fam.q}")
    A = fam.system.A
    m = fam.system.m
    if fam.kind == "row":
        S = np.zeros((m, 1))
        S[i, 0] = 1.0
        return S
    if fam.kind == "lsqcol":
        return A[:, i:i + 1].copy()
    if fam.kind == "spectral":
        return fam.eigvecs[:, i:i + 1].copy()
    if fam.kind == "block":
        C = fam.blocks[i]
        S = np.zeros((m, C.size))
        S[C, np.arange(C.size)] = 1.0
        return S
    return A.copy()


def residual_weight(fam, i: int) -> np.ndarray:
    """H_i as a dense m x m matrix."""
    sys = fam.system
    S = sketch_matrix(fam, i)
    AtS = sys.A.T @ S
    K = AtS.T @ sys.B_factor.solve(AtS)
    return S @ pinv_psd(0.5 * (K + K.T)) @ S.T


def generic_evaluate(fam, i: int, x: np.ndarray) -> SketchEval:
    """Same contract as SketchFamily.evaluate, via dense H_i."""
    sys = fam.system
    H = residual_weight(fam, i)
    res = sys.A @ x - sys.b
    loss = 0.5 * float(res @ (H @ res))
    grad = sys.A.T @ (H @ res)
    direction = sys.G_factor.solve(grad)
    if loss == 0.0:
        return SketchEval(i, loss, direction, None)
    num = float(direction @ sys.G_factor.apply(direction))
    v = H @ (sys.A @ direction)
    den = float(direction @ (sys.A.T @ v))
    return SketchEval(i, loss, direction, num / den)


def whitened_operator(fam, i: int) -> np.ndarray:
    """T_i = G^{-1/2} Z_i G^{-1/2}, symmetrized, as a dense n x n matrix.

    G^{-1/2} comes from one np.linalg.eigh of the symmetric part of the
    system's G (no whitening when G is the identity), not from the
    system's factors.
    """
    Z = fam.curvature_matrix(i)
    G = fam.system.G
    if G is not None:
        w, V = np.linalg.eigh(0.5 * (G + G.T))
        Gih = (V / np.sqrt(w)) @ V.T
        Z = Gih @ Z @ Gih
    return 0.5 * (Z + Z.T)


def dense_report(fam) -> dict:
    """Every rule-free SpectralReport field of fam, by name, from n x n
    whitened operators: one np.linalg.eigh per T_i and one of their sum.
    An eigenvalue counts as positive above DEFAULT_EIG_CUTOFF times the
    largest (at least 1); eig_min is the smallest eigenvalue of a full-rank
    T_i and 0 otherwise."""
    n, q = fam.system.n, fam.q
    eig_max, eig_min_pos, eig_min = np.empty((3, q))
    rank = np.empty(q, dtype=np.intp)
    total = np.zeros((n, n))
    for i in range(q):
        T = whitened_operator(fam, i)
        total += T
        w = np.linalg.eigh(T)[0]
        pos = w[w > DEFAULT_EIG_CUTOFF * max(1.0, w[-1])]
        eig_max[i], eig_min_pos[i], rank[i] = w[-1], pos[0], pos.size
        eig_min[i] = w[0] if pos.size == n else 0.0
    w = np.linalg.eigh(total)[0]
    pos = w[w > DEFAULT_EIG_CUTOFF * max(1.0, w[-1])]
    return {
        "kind": fam.kind, "q": q, "n": n,
        "eig_max": eig_max, "eig_min_pos": eig_min_pos, "eig_min": eig_min,
        "rank": rank, "cond": eig_max / eig_min_pos,
        "mu_hi": eig_max.max(), "mu_lo": eig_min_pos.min(),
        "all_pd": bool(np.all(eig_min > 0.0)),
        "tsum_eig_max": w[-1], "tsum_eig_min_pos": pos[0],
        "tsum_rank": pos.size,
    }


def reference_threshold(losses: np.ndarray, rule) -> float:
    """The capped admission threshold from np.mean and
    subset_max_expectation: theta E1 + (1 - theta) E2, or the mean loss
    when the rule is not exact."""
    mean = float(np.mean(losses))
    if not rule.exact:
        return mean

    def expectation(tau):
        tau = losses.size if tau is None else tau
        return mean if tau == 1 else subset_max_expectation(losses, tau)

    return (rule.theta * expectation(rule.tau1)
            + (1.0 - rule.theta) * expectation(rule.tau2))


def reference_choose(rule, losses: np.ndarray, stream, sample=None):
    """(index, loss, f, candidates) for the losses of the ascending sample,
    or of all q indices when sample is None; None when that full scan's
    largest loss is zero. The top is the first NaN if there is one, else
    the first position holding the largest loss. Greedy takes the top,
    mapped through the sample, and f is its loss. Capped keeps the losses
    at or above reference_threshold (the top alone if none is), picks one
    with the stream and takes f as np.mean over them."""
    nan = np.flatnonzero(np.isnan(losses))
    top = losses.max()
    first_top = int(nan[0] if nan.size else np.flatnonzero(losses == top)[0])
    if sample is None and top == 0.0:
        return None
    if isinstance(rule, GreedyRule):
        index = first_top if sample is None else int(sample[first_top])
        return index, float(top), float(top), 0
    cand = np.flatnonzero(losses >= reference_threshold(losses, rule))
    if cand.size == 0:
        cand = np.array([first_top])
    index = int(cand[stream.pick(cand.size)])
    return index, float(losses[index]), float(np.mean(losses[cand])), cand.size
