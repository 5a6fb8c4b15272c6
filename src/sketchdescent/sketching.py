"""Sketch families and the per-index loss/direction/step evaluations.

A sketch family turns the system A x = b into q scalar subproblems. Picking
index i restricts the residual to the span of a sketch matrix S_i and
measures it through the weight H_i = S_i (S_i' A B^{-1} A' S_i)^+ S_i',
giving the index loss

    f_i(x) = 1/2 (A x - b)' H_i (A x - b).

Minimizing f_i exactly along its G-gradient reproduces the classical
sketch-and-project update; the families below cover single rows (Kaczmarz),
least-squares columns (coordinate descent on the normal equations),
contiguous row blocks, eigenvector sketches of an SPD matrix, and the full
sketch S_1 = A that yields plain steepest descent.

The vector families (row, lsqcol, spectral) do their setup once, at
construction: the scalar denominators d_i, and the direction matrix
D = G^{-1} W, where column i of W is w_i = A' S_i. The G-gradient of f_i
is (c_i / d_i) D[:, i] with c_i = S_i' (A x - b). When G = I, D is W. One
iteration then costs the losses its rule reads plus an O(n) update, and no
solve with G. A scan over all q indices reads A, A' or U in place, with no
gathered copy. One index's value c_i comes from one dot of two contiguous
vectors: row A[i], or a copy of column A[:, i] or U[:, i]. The copy keeps
the value equal to the batched product's: with OpenBLAS a dot over the
strided column differed in the last bit on 436 of 500 eigenvectors of a
500-dim instance, and the copy on none of them.

A step along D[:, i] moves every linear value by a fixed vector: c changes
by -t K'[i] for a step of length t, where K' = D' W is the q x q coupling.
When q <= n the family caches K' (never larger than D), so a solver whose
rule reads many losses can keep c up to date in O(q) per step and read
its losses from c instead of paying a scan.

Spectral sketches with B = G = A (B's factor is A's, G's is B's) are
sketch-and-project with B = A, which in the eigen-coordinates y = U' x is
coordinate descent on the diagonal system Lambda y = U' b. Such a family
is ``diagonal``: it takes the closed form D = U (the eigenvector array
itself), d = lambda and K' = Lambda, with no solve and no product, caches
no coupling, and keeps U' b as ``Utb`` beside ``eigvals`` and ``eigvecs``,
so a solver can read c = lambda y - U' b elementwise and step one
coordinate of y at a time.

A run binds its step once, for every kind: bind_step returns pick(x, c),
which chooses the index, and move(x, i), which returns the next iterate
and the length t of the step taken along D[:, i].

- pick draws the rule's sample of tau indices from the run's DrawStream
  (none when tau is q) and hands their losses to sampling.bind_choice, the
  one code that makes a rule's choice. A vector family's losses are
  0.5 c_s^2 / d_s, read from the run's maintained linear values c when it
  has them, else from exact ones; a block family's come from losses. The
  full family's one loss comes from evaluate, whose result its move then
  applies, so a full step solves with A once.
- move on a vector family is the arithmetic of evaluate and apply_update,
  x - (omega step) ((c_i / d_i) D[:, i]) with c_i exact, and t is
  omega step c_i / d_i; block and full moves are apply_update of
  evaluate. A zero c_i (or loss) leaves x as it is and counts a zero step.
  t is None there, and on block, full and diagonal families, which have
  no coupling to move c by.
- On a diagonal family x holds y = U'x, and move writes the one
  coordinate y_i -= omega c_i / lambda_i in Python floats (lambda and U'b
  bound as lists, y_i read once): numpy's IEEE operations in the same
  order, without its scalar dispatch. Without momentum a step changes loss
  i alone, so the run keeps its losses L = 0.5 c c / lambda, built by one
  scan of the start: pick reads L, or L_s for a sample, as it is, and move
  rewrites L_i from the new y_i in the scan's expression order, so L
  equals a fresh scan bit for bit and is never recomputed (a correction
  of U'b within a run would change every c_i and have to rebuild L).
  Heavy ball moves every coordinate, so its pick reads c elementwise
  every step (O(tau) for a sample, no product) and nothing is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .linalg import is_integer, pinv_psd
from .problems import LinearSystem
from .sampling import bind_choice

VECTOR_KINDS = ("row", "lsqcol", "spectral")
KINDS = ("row", "lsqcol", "block", "spectral", "full")


@dataclass
class SketchEval:
    """One index evaluated at one point.

    step is None when the index loss is exactly zero there; the exact line
    search is 0/0 in that case and the update must be skipped. linear is
    the index's linear value c_i = S_i' (A x - b), computed exactly, for the
    vector kinds; the loss is 1/2 c_i^2 / d_i.
    """

    index: int
    loss: float
    direction: np.ndarray
    step: float | None
    linear: float | None = None


class SketchFamily:
    """All q sketches of one kind for a fixed system.

    Parameters
    ----------
    kind : str
        One of "row", "lsqcol", "block", "spectral", "full".
    system : LinearSystem
        The system whose geometry (B, G) the sketches use.
    block_size : int, optional
        Row-block size for kind "block". Blocks are contiguous, cover every
        row, and only the last one may be short.

    Attributes
    ----------
    denominators : ndarray (q,)
        d_i = w_i' B^{-1} w_i; a diagonal family's is ``eigvals`` itself.
    direction_matrix : ndarray (n, q)
        D = G^{-1} W; a diagonal family's is ``eigvecs`` itself.
    steps : ndarray (q,) or None
        The exact step d_i / (w_i' D[:, i]) along D[:, i]; None when G = B,
        where every step is 1.
    coupling : ndarray (q, q) or None
        K' = D' W, row i of which is how all q linear values move per unit
        step along D[:, i]; kept only when q <= n, so it is never larger
        than D, and None on a diagonal family, whose K' is Lambda.

    All four are set at construction for the vector kinds and are None on
    block and full families.

    Notes
    -----
    The exactness requirement sum_i H_i > 0 on range(A) holds structurally
    for every kind here: rows, columns and eigenvectors give diagonal or
    null(A')-supported sums, contiguous blocks partition the rows, and the
    full sketch is a single positive definite weight.
    """

    def __init__(self, kind: str, system: LinearSystem,
                 block_size: int | None = None):
        if kind not in KINDS:
            raise InvalidConfigError(f"unknown sketch kind {kind!r}")
        self.kind = kind
        self.system = system
        self.g_equals_b = system.g_equals_b
        self.diagonal = False
        self.denominators = self.direction_matrix = None
        self.steps = self.coupling = None
        A = system.A
        m, n = A.shape
        Bf = system.B_factor
        self._Gf = system.G_factor

        # The vector kinds set W, whose column i is w_i = A' S_i, the
        # denominators d and B^{-1} W. W itself is not kept: see w_matrix.
        if kind == "row":
            self.q = m
            W = A.T  # w_i = A' e_i is row i of A
            if Bf.is_identity:
                Binv_W = W
                d = np.einsum("ij,ij->i", A, A)
            else:
                Binv_W = Bf.solve(W)
                d = np.einsum("ij,ij->i", A, Binv_W.T)
        elif kind == "lsqcol":
            self.q = n
            W = A.T @ A  # column i is A' A e_i
            if Bf.is_identity:
                Binv_W = W
                d = np.einsum("ij,ij->i", W, W)
            else:
                Binv_W = Bf.solve(W)
                d = np.einsum("ji,ji->i", W, Binv_W)
        elif kind == "spectral":
            self.q = n
            Af = system._a_factor(eig_check=True)
            lam, U = Af.eig()
            self.eigvals = lam
            self.eigvecs = U
            self.Utb = U.T @ system.b
            # Told by identity, not by a numeric test (module notes).
            self.diagonal = Bf is Af and self.g_equals_b
            W = None if self.diagonal else U * lam  # w_i = lambda_i u_i
            if self.diagonal:
                Binv_W = U  # B^{-1} W = A^{-1} U Lambda = U
                d = lam
            elif Bf.is_identity:
                Binv_W = W
                d = lam * lam
            else:
                Binv_W = Bf.solve(U)  # B^{-1} U until scaled by lam below
                d = lam * lam * np.einsum("ij,ij->j", U, Binv_W)
                Binv_W *= lam
        elif kind == "block":
            if not (is_integer(block_size) and block_size >= 1):
                raise InvalidConfigError(
                    f"block sketches need an integer block_size >= 1, "
                    f"got {block_size!r}")
            if block_size > m:
                raise InvalidConfigError(
                    f"block_size {block_size} exceeds row count {m}"
                )
            self.block_size = int(block_size)
            self.blocks = [np.arange(s, min(s + block_size, m))
                           for s in range(0, m, block_size)]
            self.q = len(self.blocks)
            self._pinvs = []
            for C in self.blocks:
                Ac = A[C]
                K = Ac @ (Ac.T if Bf.is_identity else Bf.solve(Ac.T))
                self._pinvs.append(pinv_psd(0.5 * (K + K.T)))
        else:  # full
            self.q = 1
            self._Af = system.A_factor

        if kind in VECTOR_KINDS:
            if np.any(d <= 0.0):
                raise InvalidInputError(
                    f"{kind} sketch has a zero denominator; "
                    "the system has a degenerate row or column"
                )
            self.denominators = d
            # D = G^{-1} W: one batched solve, or none when G = B (it is
            # B^{-1} W, solved above) or G = I (it is W itself, uncopied).
            D = self.direction_matrix = (Binv_W if self.g_equals_b
                                         else self._Gf.solve(W))
            if not self.g_equals_b:
                self.steps = d / np.einsum("ij,ij->j", W, D)
            if self.q <= n and not self.diagonal:
                self.coupling = D.T @ W

    # -- fast paths --------------------------------------------------------

    def linear_values(self, x: np.ndarray, indices=None) -> np.ndarray | float:
        """c_i = s_i' (A x - b) for the vector kinds, batched over indices.

        indices = None means all q, read straight from the matrices; an
        integer index gives its one value as a scalar, from one dot.
        """
        A, b = self.system.A, self.system.b
        if self.kind == "row":
            if indices is None:
                return A @ x - b
            return A[indices] @ x - b[indices]
        if self.kind == "lsqcol":
            return _column_dots(A, indices, A @ x - b)
        c = _column_dots(self.eigvecs, indices, x)
        if indices is None:
            return self.eigvals * c - self.Utb
        return self.eigvals[indices] * c - self.Utb[indices]

    def losses(self, x: np.ndarray, indices=None) -> np.ndarray:
        """Index losses f_i(x) for the given indices (all q by default)."""
        if indices is not None:
            indices = np.asarray(indices)
            if indices.size and indices.dtype.kind not in "iu":
                raise InvalidInputError(
                    f"indices must be integers, got dtype {indices.dtype}")
            indices = indices.astype(np.intp, copy=False)
            # One argmax pass over the indices read as unsigned (-1 is huge).
            unsigned = indices.view(np.uintp)
            if unsigned.size and unsigned[unsigned.argmax()] >= self.q:
                raise InvalidInputError(f"index out of range for q={self.q}")
        if self.kind in VECTOR_KINDS:
            c = self.linear_values(x, indices)
            d = self.denominators
            return 0.5 * c * c / (d if indices is None else d[indices])
        if indices is None:
            indices = np.arange(self.q)
        A, b = self.system.A, self.system.b
        out = np.empty(indices.size)
        if self.kind == "block":
            for j, i in enumerate(indices):
                C = self.blocks[i]
                res_c = A[C] @ x - b[C]
                out[j] = 0.5 * float(res_c @ (self._pinvs[i] @ res_c))
            return out
        # full
        res = A @ x - b
        u = self._Af.solve(res)
        val = 0.5 * self.system.B_factor.quad(u)
        out[:] = val
        return out

    def evaluate(self, i: int, x: np.ndarray) -> SketchEval:
        """Loss, G-gradient direction and exact step for index i at x.

        The step is the exact one-dimensional minimizer along the direction;
        when G = B it is identically 1 and is returned as 1.0 without
        touching the matrices.
        """
        if not is_integer(i):
            raise InvalidInputError(f"index must be an integer, got {i!r}")
        if not 0 <= i < self.q:
            raise InvalidInputError(f"index {i} out of range for q={self.q}")
        sys = self.system
        if self.kind in VECTOR_KINDS:
            c = float(self.linear_values(x, i))
            d = self.denominators[i]
            loss = 0.5 * c * c / d
            if c == 0.0:
                return SketchEval(i, 0.0, np.zeros(sys.n), None, 0.0)
            direction = (c / d) * self.direction_matrix[:, i]
            step = 1.0 if self.g_equals_b else self.steps[i]
            return SketchEval(i, loss, direction, step, c)
        if self.kind == "block":
            C = self.blocks[i]
            A = sys.A
            res_c = A[C] @ x - sys.b[C]
            y = self._pinvs[i] @ res_c
            loss = 0.5 * float(res_c @ y)
            w = A[C].T @ y
            if loss == 0.0:
                return SketchEval(i, 0.0, np.zeros(sys.n), None)
            direction = self._Gf.solve(w)
            if self.g_equals_b:
                step = 1.0
            else:
                num = float(w @ direction)
                v = A[C] @ direction
                step = num / float(v @ (self._pinvs[i] @ v))
            return SketchEval(i, loss, direction, step)
        # full
        res = sys.A @ x - sys.b
        u = self._Af.solve(res)
        Bu = sys.B_factor.apply(u)
        loss = 0.5 * max(float(u @ Bu), 0.0)  # clamped as B_factor.quad is
        if loss == 0.0:
            return SketchEval(i, 0.0, np.zeros(sys.n), None)
        if self.g_equals_b:  # G^{-1} B u is u itself
            direction = u
            step = 1.0
        else:
            direction = self._Gf.solve(Bu)
            num = float(Bu @ direction)
            den = float(direction @ sys.B_factor.apply(direction))
            step = num / den
        return SketchEval(i, loss, direction, step)

    def bind_step(self, rule, tau: int, stream, counts: dict, omega: float,
                  x: np.ndarray, heavy: bool):
        """One run's (pick, move), bound once (module notes).

        tau is the rule's sample size and stream the run's DrawStream; the
        steps tally into counts (solvers.COUNT_KEYS). x is the start, as
        y = U'x on a diagonal family, and heavy says the run adds a heavy
        ball term, so a diagonal family keeps no losses.
        """
        q = self.q
        sample = stream.sample if tau < q else None
        choose = bind_choice(rule, q)
        kept = held = None
        if self.kind == "block":
            def read(x, c, s):
                return self.losses(x, s)
        elif self.kind == "full":
            held = []

            def read(x, c, s):
                held.append(self.evaluate(0, x))
                return np.array([held[-1].loss])
        else:
            d = self.denominators  # a diagonal family's is eigvals itself
            if self.diagonal:
                Utb = self.Utb

                def linear_values(y, s=None):
                    return d * y - Utb if s is None else d[s] * y[s] - Utb[s]
            else:
                linear_values = self.linear_values

            def read(x, c, s):
                if s is not None:
                    cs = linear_values(x, s) if c is None else c[s]
                    return 0.5 * cs * cs / d[s]
                if c is None:
                    counts["full_scans"] += 1
                    c = linear_values(x)
                return 0.5 * c * c / d
            if self.diagonal and not heavy:
                kept = read(x, None, None)

        def pick(x, c):
            counts["losses_read"] += tau
            if sample is None:
                return choose(read(x, c, None) if kept is None else kept, stream)
            s = sample(q, tau)
            return choose(read(x, c, s) if kept is None else kept[s], stream, s)

        if self.kind not in VECTOR_KINDS:
            def move(x, i):
                ev = self.evaluate(i, x) if held is None else held.pop()
                if ev.step is None:
                    counts["zero_steps"] += 1
                return apply_update(x, ev, omega), None
        elif self.diagonal:
            lam, Utb_list = d.tolist(), Utb.tolist()

            def move(y, i):
                di, bi, yi = lam[i], Utb_list[i], y.item(i)
                ci = di * yi - bi
                if ci == 0.0:
                    counts["zero_steps"] += 1
                    return y, None
                if kept is None:
                    y = y.copy()
                y[i] = yi = yi - omega * (ci / di)
                if kept is not None:
                    c = di * yi - bi
                    kept[i] = 0.5 * c * c / di
                return y, None
        else:
            dirs, steps = self.direction_matrix, self.steps

            def move(x, i):
                ci = float(linear_values(x, i))
                if ci == 0.0:
                    # Zero loss: the exact line search is 0/0, so x stays.
                    counts["zero_steps"] += 1
                    return x, None
                scale = omega if steps is None else omega * steps[i]
                coef = ci / d[i]
                direction = coef * dirs[:, i]
                # Scaling by exactly 1 (omega = 1 with G = B) changes no bit.
                return (x - (direction if scale == 1.0 else scale * direction),
                        scale * coef)
        return pick, move

    # -- theory hooks ------------------------------------------------------

    @property
    def w_matrix(self) -> np.ndarray:
        """n x q matrix whose column i is A' S_i, for the vector kinds.

        Formed on every call (A' for rows, A'A for columns, U Lambda for
        eigenvectors), so a family holds no n x q array besides the cached
        directions.
        """
        if self.kind not in VECTOR_KINDS:
            raise InvalidInputError(f"w_matrix undefined for kind {self.kind!r}")
        A = self.system.A
        if self.kind == "row":
            return A.T
        if self.kind == "lsqcol":
            return A.T @ A
        return self.eigvecs * self.eigvals

    def curvature_matrix(self, i: int) -> np.ndarray:
        """Z_i = A' H_i A, the Hessian of f_i, as a dense n x n matrix."""
        sys = self.system
        if self.kind in VECTOR_KINDS:
            if self.kind == "row":
                w = sys.A[i]
            elif self.kind == "lsqcol":
                w = sys.A.T @ sys.A[:, i]
            else:
                w = self.eigvecs[:, i] * self.eigvals[i]
            return np.outer(w, w) / self.denominators[i]
        if self.kind == "block":
            Ac = sys.A[self.blocks[i]]
            return Ac.T @ self._pinvs[i] @ Ac
        # full: Z_1 = A H_1 A = B for any SPD B
        return sys.B_factor.dense()


def _column_dots(M: np.ndarray, indices, v: np.ndarray):
    """M[:, indices]' v. One integer index copies its column (module notes)
    and calls .dot, which costs less per call than @."""
    if indices is None:
        return M.T @ v
    cols = M[:, indices]
    return cols.copy().dot(v) if cols.ndim == 1 else cols.T @ v


def check_omega(omega: float) -> None:
    """Refuse a relaxation outside the open interval (0, 2), NaN included:
    there the one-step contraction guarantees are void."""
    if not 0.0 < omega < 2.0:
        raise InvalidConfigError(f"omega must be in (0, 2), got {omega}")


def apply_update(x: np.ndarray, ev: SketchEval, omega: float = 1.0) -> np.ndarray:
    """Relaxed exact-step update x - omega * step * direction.

    omega must lie in (0, 2) (:func:`check_omega`). A zero-loss evaluation
    has no defined step and leaves x untouched.
    """
    check_omega(omega)
    if ev.step is None:
        return x
    return x - (omega * ev.step) * ev.direction

