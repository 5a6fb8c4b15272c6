"""Dense symmetric linear algebra kernels.

Thin, validated wrappers around numpy/scipy factorizations plus an SpdFactor
class that caches a Cholesky factorization (and, lazily, an eigendecomposition
for matrix square roots) per matrix. Everything here is desk scale: dense
float64, dimensions in the hundreds.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    InvalidInputError,
    NotPsdError,
    NotSpdError,
    NumericalFailureError,
)

# Relative eigenvalue cutoff used when deciding rank questions.
DEFAULT_EIG_CUTOFF = 1e-12


def as_matrix(M, name: str = "M") -> np.ndarray:
    """Coerce to a 2-d float64 ndarray, rejecting non-finite entries."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-d, got ndim={A.ndim}")
    if A.size and not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return A


def as_vector(v, name: str = "v") -> np.ndarray:
    A = np.asarray(v, dtype=np.float64)
    if A.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-d, got ndim={A.ndim}")
    if A.size and not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return A


def check_symmetric(M, rtol: float = 1e-12, name: str = "M") -> np.ndarray:
    """Validate that M is square and symmetric to relative tolerance rtol.

    Returns the symmetrized matrix (M + M.T)/2 so downstream eigensolvers
    see an exactly symmetric array.
    """
    A = as_matrix(M, name)
    m, n = A.shape
    if m != n:
        raise InvalidInputError(f"{name} must be square, got {m}x{n}")
    scale = np.abs(A).max() if A.size else 0.0
    if scale > 0.0:
        skew = np.abs(A - A.T).max()
        if skew > rtol * scale:
            raise InvalidInputError(
                f"{name} is not symmetric: max asymmetry {skew:.3e} "
                f"exceeds {rtol:.1e} * max entry {scale:.3e}"
            )
    return 0.5 * (A + A.T)


def sym_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (w, V) with eigenvalues w ascending and V orthonormal so that
    M = V @ diag(w) @ V.T.
    """
    A = check_symmetric(M)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return w, V


def pinv_psd(M, tol: float = DEFAULT_EIG_CUTOFF) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Eigenvalues below tol * max(eigenvalue) are treated as zero. An
    eigenvalue more negative than that cutoff means the input was not PSD.
    """
    w, V = sym_eig(M)
    scale = w[-1] if w.size else 0.0
    if scale <= 0.0:
        if w.size and w[0] < -tol * max(1.0, abs(scale)):
            raise NotPsdError(f"matrix has negative eigenvalue {w[0]:.3e}")
        return np.zeros_like(np.asarray(M, dtype=np.float64))
    cutoff = tol * scale
    if w[0] < -cutoff:
        raise NotPsdError(
            f"matrix has negative eigenvalue {w[0]:.3e} below -{cutoff:.3e}"
        )
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (V * inv_w) @ V.T


class SpdFactor:
    """The factorizations of one SPD matrix (or the identity), each made once.

    The Cholesky factor is made at construction, which doubles as the SPD
    check; the eigendecomposition behind :meth:`eig` and :meth:`inv_sqrt`
    is made on first use and kept. M = None with a dimension n stands for
    the identity, stored without a matrix so that solves and products are
    free; B = G = identity is the common case for row-action solvers and
    must not cost O(n^2) per iteration.
    """

    def __init__(self, M=None, n: int | None = None):
        self._eig = None
        if M is None:
            if n is None:
                raise InvalidInputError("identity factor needs a dimension")
            self.n = int(n)
            self.is_identity = True
            self._cho = None
            self.matrix = None
            return
        A = check_symmetric(M, name="SPD matrix")
        self.n = A.shape[0]
        self.is_identity = False
        self.matrix = A
        try:
            self._cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpdError(f"Cholesky failed, matrix not SPD: {exc}") from exc

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) with w ascending and M = V diag(w) V', computed once."""
        if self.is_identity:
            return np.ones(self.n), np.eye(self.n)
        if self._eig is None:
            w, V = np.linalg.eigh(self.matrix)
            if w[0] <= 0.0:
                raise NotSpdError(f"matrix not SPD: min eigenvalue {w[0]:.3e}")
            self._eig = (w, V)
        return self._eig

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M @ v (v may be a matrix of columns)."""
        return v if self.is_identity else self.matrix @ v

    def solve(self, v: np.ndarray) -> np.ndarray:
        """M^{-1} v via the cached Cholesky factor."""
        if self.is_identity:
            return v
        return scipy.linalg.cho_solve(self._cho, v, check_finite=False)

    def dense(self) -> np.ndarray:
        return np.eye(self.n) if self.is_identity else self.matrix

    def inv_sqrt(self) -> np.ndarray:
        w, V = self.eig()
        return (V / np.sqrt(w)) @ V.T

    def quad(self, v: np.ndarray) -> float:
        """v.T @ M @ v, clamped at zero."""
        val = float(v @ v) if self.is_identity else float(v @ (self.matrix @ v))
        return val if val > 0.0 else max(val, 0.0)
