"""A slow reference for the sketch families' fast paths.

It materializes S_i and H_i = S_i (S_i' A B^{-1} A' S_i)^+ S_i' as dense
matrices, from first principles, so tests can pin SketchFamily.evaluate
against it. It reads only the family's kind, its system, its blocks and its
eigenvectors, none of the cached arrays the fast path uses.
"""

import numpy as np

from sketchdescent.errors import InvalidInputError
from sketchdescent.linalg import pinv_psd
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
