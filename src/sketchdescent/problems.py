"""Linear systems, weighted geometries, and reproducible test instances.

A LinearSystem bundles a consistent system A x = b with the two SPD weight
matrices that fix its geometry: B defines the projection norm used by the
sketches and G defines the norm the solver descends in. Both default to the
identity, which is stored implicitly so that the common unweighted case
costs nothing per iteration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SizeLimitError
from .linalg import (SpdFactor, as_matrix, as_vector, check_symmetric,
                     is_integer)
from .rng import make_rng, standard_normal

# Consistency of b with a stored exact solution is checked to this slack.
CONSISTENCY_TOL = 1e-10

# Largest dimension for which we will compute a dense pseudoinverse when a
# solution has to be reconstructed after the fact.
PINV_SIZE_LIMIT = 2000


def _factor(W, n: int) -> SpdFactor:
    """W itself when it is a made SpdFactor, else W factored by Cholesky;
    either way n x n."""
    F = W if isinstance(W, SpdFactor) else SpdFactor(W, n)
    if F.n != n:
        raise InvalidInputError(f"weight is {F.n}x{F.n}, expected {n}x{n}")
    return F


@dataclass
class LinearSystem:
    """A consistent linear system with its sketching and descent geometries.

    Parameters
    ----------
    A : (m, n) ndarray
        Coefficient matrix. Zero rows are rejected; :func:`loaded_arrays`
        drops them from a loaded matrix and draws its solution.
    b : (m,) ndarray
        Right-hand side. Must be consistent with x_star when one is stored.
    B : (n, n) ndarray, SpdFactor or None
        SPD projection weight. None means identity. A made SpdFactor is
        used as is, and B then holds its matrix.
    G : (n, n) ndarray, SpdFactor or None
        SPD descent weight, read as B is.
    x_star : (n,) ndarray or None
        A known exact solution, if the instance was built from one.
    label : str
        Short human-readable tag used in benchmark output.
    """

    A: np.ndarray
    b: np.ndarray
    B: np.ndarray | None = None
    G: np.ndarray | None = None
    x_star: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.b = as_vector(self.b, "b")
        m, n = self.A.shape
        if m == 0 or n == 0:
            raise InvalidInputError("A must have at least one row and one column")
        if self.b.shape != (m,):
            raise InvalidInputError(f"b has length {self.b.size}, expected {m}")
        # Squared row norms with no m x n temporary: zero where the norm is.
        row_sq = np.einsum("ij,ij->i", self.A, self.A)
        if np.any(row_sq == 0.0):
            bad = int(np.argmin(row_sq))
            raise InvalidInputError(f"A has an exactly zero row (index {bad})")
        # The factors of B and G are their SPD checks: a made factor is
        # taken as it is checked, an array is factored by Cholesky here. A G
        # equal to B (None, the identity, equals only None) shares B's
        # factor, and A's factor is B's when B (a made factor's matrix) is A.
        self._B_factor = _factor(self.B, n)
        self._G_factor = (self._B_factor if self.G is self.B
                          or np.array_equal(self.G, self.B)
                          else _factor(self.G, n))
        if isinstance(self.B, SpdFactor):
            self.B = self._B_factor.matrix
        if isinstance(self.G, SpdFactor):
            self.G = self._G_factor.matrix
        self._A_factor = self._B_factor if self.B is self.A else None
        if self.x_star is not None:
            self.x_star = as_vector(self.x_star, "x_star")
            if self.x_star.shape != (n,):
                raise InvalidInputError(
                    f"x_star has length {self.x_star.size}, expected {n}"
                )
            gap = np.linalg.norm(self.A @ self.x_star - self.b)
            if gap > CONSISTENCY_TOL * (1.0 + np.linalg.norm(self.b)):
                raise InvalidInputError(
                    f"system inconsistent with stored solution: |Ax*-b| = {gap:.3e}"
                )

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def B_factor(self) -> SpdFactor:
        return self._B_factor

    @property
    def G_factor(self) -> SpdFactor:
        return self._G_factor

    @property
    def A_factor(self) -> SpdFactor:
        """Factor of A itself (square SPD A only), made on first use."""
        return self._a_factor()

    def _a_factor(self, eig_check: bool = False) -> SpdFactor:
        """A's factor, whose SPD check is what its first reader needs: the
        eigendecomposition with eig_check (a spectral family), else the
        Cholesky factor (solvers and the full family solve with A)."""
        if self._A_factor is None:
            self._A_factor = SpdFactor(self.A, eig_check=eig_check)
        return self._A_factor

    @property
    def g_equals_b(self) -> bool:
        """True when descent and projection geometries coincide exactly."""
        return self._G_factor is self._B_factor

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.A @ x - self.b))

    def error_sq_g(self, x: np.ndarray, x_star: np.ndarray | None = None) -> float:
        """Squared error in the G norm (against the stored solution by default)."""
        target = self.x_star if x_star is None else x_star
        if target is None:
            raise InvalidInputError("system stores no solution; pass x_star")
        return self._G_factor.quad(x - target)

    def error_sq_b(self, x: np.ndarray, x_star: np.ndarray | None = None) -> float:
        """Squared error in the B norm (against the stored solution by default)."""
        target = self.x_star if x_star is None else x_star
        if target is None:
            raise InvalidInputError("system stores no solution; pass x_star")
        return self._B_factor.quad(x - target)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a synthetic instance.

    kind is "gaussian" (dense iid standard normal A) or
    "gaussian-normal-equations" (A = W.T W for an m x n Gaussian W, giving an
    n x n SPD system). The right-hand side is always synthesized from a drawn
    solution, so generated systems are consistent by construction.
    """

    kind: str
    m: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "gaussian-normal-equations"):
            raise InvalidInputError(f"unknown generator kind {self.kind!r}")
        if not (is_integer(self.m) and is_integer(self.n)):
            raise InvalidInputError(
                f"m and n must be integers, got {self.m!r}, {self.n!r}")
        if self.m < 1 or self.n < 1:
            raise InvalidInputError("m and n must be at least 1")
        if self.kind == "gaussian-normal-equations" and self.m < self.n:
            raise InvalidInputError(
                "gaussian-normal-equations needs m >= n for an SPD product"
            )

    @property
    def label(self) -> str:
        suffix = ":spd" if self.kind == "gaussian-normal-equations" else ""
        return f"gen:{self.m}x{self.n}{suffix}"


def gen_arrays(spec: GenSpec) -> tuple[np.ndarray, np.ndarray]:
    """(A, x*) for the spec, A drawn first from the seeded stream.

    "gaussian" gives A with iid N(0,1) entries. "gaussian-normal-equations"
    gives the n x n product A = W.T W of an m x n Gaussian W, SPD with
    probability one for m >= n; m controls the conditioning (m = n is the
    nastiest).
    """
    rng = make_rng(spec.seed)
    A = standard_normal(rng, (spec.m, spec.n))
    if spec.kind == "gaussian-normal-equations":
        A = check_symmetric(A.T @ A)
    return A, standard_normal(rng, spec.n)


def generate(spec: GenSpec) -> LinearSystem:
    """Synthetic instance A x* = b for the spec (see :func:`gen_arrays`)."""
    A, x_star = gen_arrays(spec)
    return LinearSystem(A=A, b=A @ x_star, x_star=x_star, label=spec.label)


def loaded_arrays(A, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(A without its zero rows, x*) for an externally loaded matrix.

    Zero rows carry no information and break row sketches, so they are
    dropped with a warning. x* is drawn from the seeded normal stream.
    """
    A = as_matrix(A, "A")
    keep = np.einsum("ij,ij->i", A, A) > 0.0
    dropped = int(A.shape[0] - keep.sum())
    if dropped:
        warnings.warn(f"dropping {dropped} zero row(s) from loaded matrix")
        A = A[keep]
    if A.shape[0] == 0:
        raise InvalidInputError("matrix has no nonzero rows")
    return A, standard_normal(make_rng(seed), A.shape[1])


def resolve_x_star(system: LinearSystem, x0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Exact solution used for error metrics.

    Returns (x_star, is_projection). When the system stores a solution it is
    returned as-is. Otherwise the limit point of a descent started at x0 is
    reconstructed as x0 + pinv(A) (b - A x0), which is flagged so downstream
    consumers know the metric target was inferred. Dense pseudoinverses are
    refused above PINV_SIZE_LIMIT.
    """
    if system.x_star is not None:
        return system.x_star, False
    if max(system.m, system.n) > PINV_SIZE_LIMIT:
        raise SizeLimitError(
            f"cannot reconstruct a solution for a {system.m}x{system.n} system; "
            "store x_star on the instance"
        )
    correction = np.linalg.pinv(system.A) @ (system.b - system.A @ x0)
    return x0 + correction, True
