import math
import warnings

import numpy as np
import pytest

from sketchdescent.errors import InvalidInputError, NotPsdError, NotSpdError
from sketchdescent.linalg import (SpdFactor, as_array, check_symmetric,
                                  pinv_psd, sym_eig)


def random_symmetric(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (M + M.T)


def random_spd(n, seed, lo=0.5, hi=3.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(lo, hi, n)
    return Q @ np.diag(lam) @ Q.T


class TestSymEig:
    def test_diagonal(self):
        lam, V = sym_eig(np.diag([2.0, 3.0]))
        assert np.allclose(lam, [2.0, 3.0])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_identity(self):
        lam, _ = sym_eig(np.eye(2))
        assert np.allclose(lam, [1.0, 1.0])

    def test_offdiagonal_hand_solved(self):
        # characteristic polynomial of [[0,1],[1,0]] is x^2 - 1
        lam, V = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(lam, [-1.0, 1.0])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(V[:, 0]), [s, s])
        assert np.allclose(np.abs(V[:, 1]), [s, s])

    def test_ascending_and_reconstruction(self):
        for seed in range(5):
            M = random_symmetric(50, seed)
            lam, V = sym_eig(M)
            assert np.all(np.diff(lam) >= 0)
            assert np.allclose(V @ np.diag(lam) @ V.T, M, atol=1e-8)
            assert np.allclose(V.T @ V, np.eye(50), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.ones((2, 3)))


class TestPinvPsd:
    def test_diagonal(self):
        assert np.allclose(pinv_psd(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_zero(self):
        assert np.allclose(pinv_psd(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rank_one(self):
        M = np.ones((2, 2))
        assert np.allclose(pinv_psd(M), np.full((2, 2), 0.25))

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(0)
        for rank in (1, 3, 5):
            W = rng.standard_normal((5, rank))
            M = W @ W.T
            P = pinv_psd(M)
            assert np.allclose(M @ P @ M, M, atol=1e-8)
            assert np.allclose(P @ M @ P, P, atol=1e-8)
            assert np.allclose(P, P.T, atol=1e-12)

    def test_double_pinv_restricted_to_range(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((6, 3))
        M = W @ W.T
        MM = pinv_psd(pinv_psd(M))
        proj = M @ pinv_psd(M)
        assert np.allclose(MM @ proj, M @ proj, atol=1e-7)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            pinv_psd(np.diag([1.0, -1.0]))

    def test_tiny_negative_tolerated(self):
        M = np.diag([1.0, -1e-15])
        P = pinv_psd(M)
        assert P[1, 1] == 0.0


class TestSqrts:
    """SpdFactor.sqrt and SpdFactor.inv_sqrt on hand-checkable inputs."""

    def test_inv_sqrt_diagonal(self):
        assert np.allclose(SpdFactor(np.diag([4.0, 9.0])).inv_sqrt(),
                           np.diag([0.5, 1.0 / 3.0]))

    def test_inv_sqrt_identity(self):
        assert np.allclose(SpdFactor(np.eye(3)).inv_sqrt(), np.eye(3))

    def test_inv_sqrt_whitens(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3
        R = SpdFactor(M).inv_sqrt()
        assert np.allclose(R @ M @ R, np.eye(2), atol=1e-8)
        assert np.allclose(R, R.T)

    def test_inv_sqrt_squares_to_inverse(self):
        for seed in range(3):
            M = random_spd(7, seed)
            R = SpdFactor(M).inv_sqrt()
            assert np.allclose(R @ R @ M, np.eye(7), atol=1e-9)

    def test_inv_sqrt_rejects_semidefinite(self):
        with pytest.raises(NotSpdError):
            SpdFactor(np.diag([1.0, 0.0])).inv_sqrt()


class TestSpdFactor:
    def test_identity_paths(self):
        f = SpdFactor(None, n=4)
        v = np.arange(4.0)
        assert np.array_equal(f.solve(v), v)
        assert np.array_equal(f.apply(v), v)
        assert np.allclose(f.dense(), np.eye(4))
        assert f.quad(v) == float(v @ v)

    def test_identity_needs_a_dimension(self):
        with pytest.raises(InvalidInputError, match="needs a dimension"):
            SpdFactor()

    def test_identity_eig(self):
        w, V = SpdFactor(None, 3).eig()
        assert np.array_equal(w, np.ones(3)) and np.array_equal(V, np.eye(3))

    def test_solve_diagonal(self):
        f = SpdFactor(np.diag([2.0, 4.0]))
        assert np.allclose(f.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_solve_hand_system(self):
        f = SpdFactor(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(f.solve(np.array([3.0, 3.0])), [1.0, 1.0])

    def test_roundtrip_and_whitening(self):
        M = random_spd(8, 5)
        f = SpdFactor(M)
        v = np.random.default_rng(9).standard_normal(8)
        assert np.allclose(f.solve(f.apply(v)), v, rtol=1e-10, atol=1e-12)
        R = f.inv_sqrt()
        assert np.allclose(R @ M @ R, np.eye(8), atol=1e-8)
        w, V = np.linalg.eigh(M)
        root = (V * np.sqrt(w)) @ V.T  # reference M^{1/2}
        assert np.allclose(root @ R, np.eye(8), atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            SpdFactor(np.diag([1.0, -2.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SpdFactor(np.array([[1.0, 5.0], [0.0, 1.0]]))


class TestEigCheckedFactor:
    """eig_check: the eigendecomposition is the SPD check, the Cholesky
    factor is made on the first solve and kept."""

    def test_no_cholesky_until_the_first_solve(self, kernel_counts):
        M = random_spd(8, 5)
        f = SpdFactor(M, eig_check=True)
        assert kernel_counts == {"cho_factor": 0, "cho_solve": 0, "eigh": 1}
        f.eig()
        f.inv_sqrt()
        f.quad(np.ones(8))
        assert kernel_counts["cho_factor"] == 0
        f.solve(np.ones(8))
        f.solve(np.eye(8))
        assert kernel_counts == {"cho_factor": 1, "cho_solve": 2, "eigh": 1}

    def test_same_bits_as_the_cholesky_checked_factor(self):
        M = random_spd(9, 4)
        M = 0.5 * (M + M.T)
        by_eig, by_cho = SpdFactor(M, eig_check=True), SpdFactor(M)
        assert by_eig.matrix is M and by_cho.matrix is M
        for a, b in zip(by_eig.eig(), by_cho.eig()):
            assert a.tobytes() == b.tobytes()
        V = np.random.default_rng(2).standard_normal((9, 3))
        assert by_eig.solve(V).tobytes() == by_cho.solve(V).tobytes()

    @pytest.mark.parametrize("w", [[1.0, -2.0], [0.0, 3.0], [-1e-300, 1.0]])
    def test_refuses_a_smallest_eigenvalue_not_above_zero(self, w):
        with pytest.raises(NotSpdError, match="min eigenvalue"):
            SpdFactor(np.diag(w), eig_check=True)

    def test_refuses_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SpdFactor(np.array([[1.0, 5.0], [0.0, 1.0]]), eig_check=True)


class TestWeightedNorm:
    """SpdFactor.quad, the weighted squared norm v' M v."""

    def test_identity_metric(self):
        x = np.array([3.0, 4.0])
        assert SpdFactor(np.eye(2)).quad(x) == pytest.approx(25.0)

    def test_zero_vector(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert SpdFactor(M).quad(np.zeros(2)) == 0.0

    def test_hand_value(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert SpdFactor(M).quad(np.ones(2)) == pytest.approx(6.0)


def test_check_symmetric_symmetrizes():
    M = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = check_symmetric(M)
    assert np.array_equal(out, out.T)


class TestSharedMatrix:
    """check_symmetric keeps a bitwise-symmetric C array, copies the rest."""

    @staticmethod
    def exact_spd(n, seed):
        M = random_spd(n, seed)
        return 0.5 * (M + M.T)

    def test_bitwise_symmetric_c_array_is_kept(self):
        M = self.exact_spd(6, 3)
        assert np.array_equal(M.view(np.int64), M.T.view(np.int64))
        assert SpdFactor(M).matrix is M
        assert check_symmetric(M) is M

    def test_f_ordered_array_gets_a_c_copy(self):
        F = np.asfortranarray(self.exact_spd(6, 3))
        out = SpdFactor(F).matrix
        assert out is not F and out.flags.c_contiguous
        assert out.tobytes() == np.ascontiguousarray(F).tobytes()

    def test_near_symmetric_array_gets_the_half_sum(self):
        M = self.exact_spd(6, 3)
        M[0, 1] = np.nextafter(M[0, 1], np.inf)
        out = SpdFactor(M).matrix
        assert out is not M and out.flags.c_contiguous
        assert out.tobytes() == (0.5 * (M + M.T)).tobytes()
        assert np.array_equal(out, out.T)

    def test_signed_zero_pair_is_not_bitwise_symmetric(self):
        Z = np.array([[1.0, -0.0], [0.0, 1.0]])
        out = check_symmetric(Z)
        assert out is not Z
        assert not np.signbit(out[0, 1]) and not np.signbit(out[1, 0])

    def test_dense_is_a_read_only_view_of_the_shared_array(self):
        M = self.exact_spd(5, 2)
        D = SpdFactor(M).dense()
        assert np.shares_memory(D, M) and not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 0.0
        assert M.flags.writeable

    def test_large_entries_stay_finite(self):
        # (M + M.T) / 2 would overflow to inf here; the half-sum is
        # 0.5 M + 0.5 M.T, and no warning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SpdFactor(np.diag([1e308, 2.0])).matrix[0, 0] == 1e308
            F = np.asfortranarray(np.diag([1e308, 2.0]))
            out = SpdFactor(F).matrix
            assert out.flags.c_contiguous and out[0, 0] == 1e308
            M = np.array([[1.5e308, 1.0], [np.nextafter(1.0, 2.0), 2.0]])
            out = check_symmetric(M)
        assert np.isfinite(out).all() and np.array_equal(out, out.T)
        assert out.tobytes() == (0.5 * M + 0.5 * M.T).tobytes()


class TestAsArray:
    @pytest.mark.parametrize("value, ndim, name, message", [
        (np.ones(3), 2, "A", "A must be 2-d, got ndim=1"),
        (np.ones((2, 2)), 1, "x0", "x0 must be 1-d, got ndim=2"),
        ([[1.0, np.nan]], 2, "A", "A contains NaN or Inf"),
        ([1.0, -np.inf], 1, "b", "b contains NaN or Inf"),
    ])
    def test_refusals(self, value, ndim, name, message):
        with pytest.raises(InvalidInputError) as info:
            as_array(value, ndim, name)
        assert str(info.value) == message

    def test_coerces_to_float64(self):
        out = as_array([[1, 2], [3, 4]], 2, "A")
        assert out.dtype == np.float64 and out.shape == (2, 2)


class TestPinvRefusal:
    def test_negative_definite_is_not_psd(self):
        with pytest.raises(NotPsdError):
            pinv_psd(-np.eye(3))
