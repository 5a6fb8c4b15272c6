"""Dense symmetric linear algebra kernels.

Input checks and numpy eigendecompositions, plus an SpdFactor class that
caches the Cholesky factorization and the eigendecomposition of one matrix,
each made once: one of them at construction as the SPD check, the other on
first use.
Everything here is desk scale: dense float64, dimensions in the hundreds.

The Cholesky factor is scipy's. scipy.linalg, which brings its own LAPACK
and a second BLAS (tens of MB resident), is imported by the first Cholesky
in the process, not by the package: runs that never factor (identity
geometries, B = G = A spectral runs) never load it, and that first
Cholesky pays for the import (a few tenths of a second) inside whatever
region is being timed. cho_factor, cho_solve and LinAlgError are looked up
on the scipy.linalg module at each call, so a wrapper patched onto that
module sees every call.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NotPsdError,
    NotSpdError,
    NumericalFailureError,
)

# Relative eigenvalue cutoff used when deciding rank questions.
DEFAULT_EIG_CUTOFF = 1e-12


def as_array(v, ndim: int, name: str) -> np.ndarray:
    """Coerce to an ndim-d float64 ndarray, rejecting non-finite entries."""
    A = np.asarray(v, dtype=np.float64)
    if A.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-d, got ndim={A.ndim}")
    if A.size and not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return A


def is_integer(v) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_integer(value, name: str, low: int, optional: bool = False) -> None:
    """Refuse a setting unless it is an integer >= low, or None if optional."""
    if not (optional and value is None
            or is_integer(value) and value >= low):
        raise InvalidConfigError(
            f"{name} must be an integer >= {low}, got {value!r}")


def is_bitwise_symmetric(A: np.ndarray) -> bool:
    """True when the float64 array A is square, C-ordered and bitwise
    symmetric: its int64 view equals its transpose's, so a +0/-0 pair is
    not."""
    return (A.ndim == 2 and A.shape[0] == A.shape[1] and A.flags.c_contiguous
            and bool((A.view(np.int64) == A.T.view(np.int64)).all()))


def check_symmetric(M, rtol: float = 1e-12, name: str = "M") -> np.ndarray:
    """Validate that M is square and symmetric to relative tolerance rtol.

    Returns an exactly symmetric array for the eigensolvers: M itself when
    it is bitwise symmetric (:func:`is_bitwise_symmetric`), else the
    C-ordered half-sum 0.5 M + 0.5 M.T, which never overflows and has the
    bits of (M + M.T)/2 wherever a half-entry is not subnormal.
    """
    A = as_array(M, 2, name)
    m, n = A.shape
    if m != n:
        raise InvalidInputError(f"{name} must be square, got {m}x{n}")
    if is_bitwise_symmetric(A):
        return A
    scale = np.abs(A).max() if A.size else 0.0
    if scale > 0.0:
        skew = np.abs(A - A.T).max()
        if skew > rtol * scale:
            raise InvalidInputError(
                f"{name} is not symmetric: max asymmetry {skew:.3e} "
                f"exceeds {rtol:.1e} * max entry {scale:.3e}"
            )
    S = np.multiply(A, 0.5, order="C")
    S += 0.5 * A.T
    return S


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

    One factorization is made at construction as the SPD check: the
    Cholesky factor behind :meth:`solve`, or with eig_check the
    eigendecomposition behind :meth:`eig` and :meth:`inv_sqrt`, which
    refuses a smallest eigenvalue <= 0. The other is made on first use and
    kept, so a run that only reads the eigendecomposition (a diagonal
    spectral run) never holds a Cholesky factor, nor loads scipy: the first
    Cholesky in the process imports scipy.linalg and pays for it (module
    note). M = None with a dimension n stands for the identity, stored
    without a matrix so that solves and products are free and no factor is
    ever made; B = G = identity is the common case for row-action solvers
    and must not cost O(n^2) per iteration. matrix is what
    check_symmetric returns, so it may be the caller's own array (B = A
    shares one); no code writes into it.
    """

    def __init__(self, M=None, n: int | None = None, *,
                 eig_check: bool = False):
        self._eig = self._cho = None
        if M is None:
            if n is None:
                raise InvalidInputError("identity factor needs a dimension")
            self.n = int(n)
            self.is_identity = True
            self.matrix = None
            return
        A = check_symmetric(M, name="SPD matrix")
        self.n = A.shape[0]
        self.is_identity = False
        self.matrix = A
        if eig_check:
            self.eig()
        else:
            self._cholesky()

    def _cholesky(self):
        """The Cholesky factor of matrix, made once (module note)."""
        if self._cho is None:
            import scipy.linalg
            try:
                self._cho = scipy.linalg.cho_factor(self.matrix, lower=True,
                                                    check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise NotSpdError(
                    f"Cholesky failed, matrix not SPD: {exc}") from exc
        return self._cho

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
        """M^{-1} v via the Cholesky factor, made on the first solve."""
        if self.is_identity:
            return v
        import scipy.linalg
        return scipy.linalg.cho_solve(self._cholesky(), v, check_finite=False)

    def dense(self) -> np.ndarray:
        """M as an n x n array; a read-only view, as matrix may be shared."""
        if self.is_identity:
            return np.eye(self.n)
        view = self.matrix.view()
        view.flags.writeable = False
        return view

    def inv_sqrt(self) -> np.ndarray:
        w, V = self.eig()
        return (V / np.sqrt(w)) @ V.T

    def quad(self, v: np.ndarray) -> float:
        """v.T @ M @ v, clamped at zero."""
        val = float(v @ v) if self.is_identity else float(v @ (self.matrix @ v))
        return val if val > 0.0 else max(val, 0.0)
