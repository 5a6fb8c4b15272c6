import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.errors import InvalidConfigError, InvalidInputError, NotSpdError
from sketchdescent.rng import make_rng
from sketchdescent.sampling import DrawStream
from sketchdescent.sketching import KINDS, VECTOR_KINDS
from sketchdescent.solvers import COUNT_KEYS

from conftest import family_on, gaussian_system
from dense_reference import generic_evaluate


def diag_system(diag, b=None, BG=None, steepest=False):
    A = np.diag(np.asarray(diag, dtype=np.float64))
    if b is None:
        b = np.zeros(A.shape[0])
    x_star = np.linalg.solve(A, b)
    B = A if (BG == "system" or steepest) else (BG if isinstance(BG, np.ndarray) else None)
    G = A if BG == "system" else None
    return skd.LinearSystem(A=A, b=np.asarray(b, dtype=np.float64), B=B, G=G,
                            x_star=x_star)


class TestWorkedExamples:
    def test_row_loss_half(self):
        # single-row loss is the squared scaled residual: (0 - 1)^2 / (2 * 1)
        system = diag_system([1.0, 2.0], b=[1.0, 2.0])
        fam = skd.SketchFamily("row", system)
        assert fam.evaluate(0, np.zeros(2)).loss == pytest.approx(0.5)

    def test_spectral_loss_nine_halves(self):
        system = diag_system([1.0, 2.0], BG="system")
        fam = skd.SketchFamily("spectral", system)
        # eigenvector e1 with eigenvalue 1 at x = (3, 0): (1*3 - 0)^2 / (2*1)
        i = int(np.argmin(fam.eigvals))
        assert fam.evaluate(i, np.array([3.0, 0.0])).loss == pytest.approx(4.5)

    def test_row_direction_hand_value(self):
        A = np.array([[1.0, 0.0]])
        system = skd.LinearSystem(A=A, b=np.array([1.0]))
        fam = skd.SketchFamily("row", system)
        assert np.allclose(fam.evaluate(0, np.zeros(2)).direction, [-1.0, 0.0])

    def test_full_direction_is_residual(self):
        # generating sketch S = A with metric weight B = A and G = I turns
        # the direction into the plain residual A x - b
        system = diag_system([1.0, 2.0], b=[1.0, 1.0], steepest=True)
        fam = skd.SketchFamily("full", system)
        x = np.array([3.0, -2.0])
        assert np.allclose(fam.evaluate(0, x).direction, system.A @ x - system.b)

    def test_full_step_five_ninths_and_update(self):
        system = diag_system([1.0, 2.0], steepest=True)
        fam = skd.SketchFamily("full", system)
        x = np.array([1.0, 1.0])
        ev = fam.evaluate(0, x)
        assert ev.step == pytest.approx(5.0 / 9.0)
        x1 = skd.apply_update(x, ev, omega=1.0)
        assert np.allclose(x1, [4.0 / 9.0, -1.0 / 9.0])

    def test_zero_residual_gives_zero_loss_everywhere(self):
        # b stores A @ x_star, so the residual at x_star is pure roundoff;
        # sliced row products can differ from the stored matmul by a few ulp
        for kind in KINDS:
            system, fam = family_on(kind, 12, 5, seed=3,
                                    block_size=3 if kind == "block" else None)
            for i in range(fam.q):
                ev = fam.evaluate(i, system.x_star)
                assert ev.loss <= 1e-24
                assert np.abs(ev.direction).max() <= 1e-12
                if ev.loss == 0.0:
                    assert ev.step is None

    def test_loss_zero_iff_direction_zero(self):
        system, fam = family_on("row", 10, 4, seed=17)
        rng = np.random.default_rng(7)
        for trial in range(30):
            x = rng.standard_normal(4)
            i = int(rng.integers(fam.q))
            ev = fam.evaluate(i, x)
            if ev.loss == 0.0:
                assert np.all(ev.direction == 0.0)
            else:
                assert np.abs(ev.direction).max() > 0.0


class TestStepIdentity:
    def test_step_exactly_one_when_metrics_match(self):
        rng = np.random.default_rng(0)
        for kind in KINDS:
            system, fam = family_on(kind, 14, 6, seed=7,
                                    block_size=2 if kind == "block" else None)
            assert system.g_equals_b
            for trial in range(20):
                x = rng.standard_normal(system.n)
                i = int(rng.integers(fam.q))
                step = fam.evaluate(i, x).step
                if step is not None:
                    assert step == 1.0  # exact, not approximate

    def test_step_sandwich_for_mismatched_metrics(self):
        # steepest-descent geometry: step is the Rayleigh-quotient ratio and
        # must land between the reciprocal extreme eigenvalues of T_i
        system = gaussian_system(10, 5, seed=1, spd=True, metric="steepest")
        fam = skd.SketchFamily("full", system)
        rep = skd.spectral_report(fam)
        rng = np.random.default_rng(2)
        for trial in range(50):
            x = rng.standard_normal(5)
            step = fam.evaluate(0, x).step
            assert 1.0 / rep.eig_max[0] - 1e-12 <= step <= 1.0 / rep.eig_min_pos[0] + 1e-12

    def test_rank_one_step_is_reciprocal_eig(self):
        # vector sketches have rank-one curvature: the ratio collapses
        system = gaussian_system(8, 4, seed=5, spd=True, metric="steepest")
        fam = skd.SketchFamily("row", system)
        rep = skd.spectral_report(fam)
        rng = np.random.default_rng(3)
        for i in range(fam.q):
            x = rng.standard_normal(4)
            step = fam.evaluate(i, x).step
            if step is not None:
                assert step == pytest.approx(1.0 / rep.eig_max[i], rel=1e-12)


class TestClosedFormMatchesGeneric:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_instances(self, kind):
        rng = np.random.default_rng(11)
        for seed in range(3):
            m, n = (30, 20) if kind in ("row", "lsqcol", "block") else (30, 12)
            system, fam = family_on(kind, m, n, seed=seed,
                                    block_size=4 if kind == "block" else None)
            for trial in range(5):
                x = rng.standard_normal(system.n)
                i = int(rng.integers(fam.q))
                fast = fam.evaluate(i, x)
                slow = generic_evaluate(fam, i, x)
                scale = max(1.0, abs(slow.loss))
                assert abs(fast.loss - slow.loss) <= 1e-9 * scale
                assert np.allclose(fast.direction, slow.direction,
                                   rtol=1e-9, atol=1e-9)
                if fast.step is not None and slow.step is not None:
                    assert fast.step == pytest.approx(slow.step, rel=1e-9)

    # Row sketches under the identity metric run on a 15 x 6 Gaussian
    # instance; the square SPD instances carry the system (B = G = A),
    # normal (B = G = A'A) and steepest (B = A, G = I, so G != B)
    # geometries. losses(x) scans in place, losses(x, arange(q)) gathers.
    @pytest.mark.parametrize("kind", VECTOR_KINDS)
    @pytest.mark.parametrize("metric", ["identity", "system", "normal", "steepest"])
    def test_losses_batch_matches_evaluate(self, kind, metric):
        spd = kind == "spectral" or metric in ("system", "steepest")
        m, n = (20, 8) if spd else (15, 6)
        system = gaussian_system(m, n, seed=9, spd=spd, metric=metric)
        fam = skd.SketchFamily(kind, system)
        x = np.random.default_rng(4).standard_normal(system.n)
        batch = fam.losses(x)
        gathered = fam.losses(x, np.arange(fam.q))
        np.testing.assert_allclose(batch, gathered, rtol=1e-13, atol=0.0)
        c = fam.linear_values(x)
        assert np.array_equal(0.5 * c * c / fam.denominators, batch)
        for i in range(fam.q):
            fast = fam.evaluate(i, x)
            assert batch[i] == pytest.approx(fast.loss, rel=1e-12)
            assert fast.loss == 0.5 * fast.linear ** 2 / fam.denominators[i]
            assert gathered[i] == pytest.approx(fast.loss, rel=1e-12)
            slow = generic_evaluate(fam, i, x)
            assert np.allclose(fast.direction, slow.direction,
                               rtol=1e-9, atol=1e-9)
            if fast.step is not None and slow.step is not None:
                assert fast.step == pytest.approx(slow.step, rel=1e-9)


class TestCoupling:
    # Square instances (q <= n) under each geometry; steepest has G != B.
    @pytest.mark.parametrize("kind", VECTOR_KINDS)
    @pytest.mark.parametrize("metric", ["identity", "system", "normal", "steepest"])
    def test_diagonal_is_step_denominator(self, kind, metric):
        spd = kind in ("row", "spectral") or metric in ("system", "steepest")
        system = gaussian_system(20, 8, seed=10, spd=spd, metric=metric)
        fam = skd.SketchFamily(kind, system)
        K = fam.coupling
        if kind == "spectral" and metric == "system":
            # B = G = A: K' = Lambda and D = U in closed form, no coupling.
            assert fam.diagonal
            assert K is None
            assert fam.direction_matrix is fam.eigvecs
            assert np.array_equal(fam.denominators, fam.eigvals)
            return
        assert not fam.diagonal
        assert K.shape == (fam.q, fam.q)
        e = np.einsum("ij,ij->j", fam.w_matrix, fam.direction_matrix)
        np.testing.assert_allclose(np.diag(K), e, rtol=1e-12, atol=0.0)
        # one step along D[:, i] moves every linear value by K'[i]
        x = np.random.default_rng(5).standard_normal(system.n)
        i = fam.q // 2
        moved = fam.linear_values(x - fam.direction_matrix[:, i])
        scale = np.abs(fam.linear_values(x)).max() + np.abs(K[i]).max()
        np.testing.assert_allclose(moved, fam.linear_values(x) - K[i],
                                   rtol=0.0, atol=1e-12 * scale)

    def test_absent_when_larger_than_directions(self):
        tall = gaussian_system(12, 5, seed=1)
        assert skd.SketchFamily("row", tall).coupling is None
        assert skd.SketchFamily("block", tall, block_size=3).coupling is None
        assert skd.SketchFamily("lsqcol", tall).coupling.shape == (5, 5)
        wide = gaussian_system(4, 9, seed=1)
        assert skd.SketchFamily("row", wide).coupling.shape == (4, 4)
        _, full = family_on("full", 12, 5, seed=1)
        assert full.coupling is None


class TestApplyUpdate:
    def test_omega_domain(self):
        ev = skd.SketchEval(0, 1.0, np.ones(2), 1.0)
        for omega in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(InvalidConfigError):
                skd.apply_update(np.zeros(2), ev, omega)

    def test_zero_loss_leaves_x(self):
        ev = skd.SketchEval(0, 0.0, np.zeros(2), None)
        x = np.array([1.0, 2.0])
        assert np.array_equal(skd.apply_update(x, ev, 1.0), x)

    def test_row_projection_zeroes_loss(self):
        # one Kaczmarz step lands exactly on the chosen hyperplane
        system = gaussian_system(10, 6, seed=13)
        fam = skd.SketchFamily("row", system)
        rng = np.random.default_rng(5)
        for trial in range(30):
            x = rng.standard_normal(6)
            i = int(rng.integers(fam.q))
            ev = fam.evaluate(i, x)
            if ev.step is None:
                continue
            x1 = skd.apply_update(x, ev, omega=1.0)
            assert fam.evaluate(i, x1).loss <= 1e-20

    def test_unit_relaxation_decreases_selected_loss(self):
        for kind in KINDS:
            system, fam = family_on(kind, 12, 5, seed=21,
                                    block_size=3 if kind == "block" else None)
            rng = np.random.default_rng(6)
            for trial in range(10):
                x = rng.standard_normal(5)
                i = int(rng.integers(fam.q))
                ev = fam.evaluate(i, x)
                if ev.loss <= 1e-14:
                    continue
                x1 = skd.apply_update(x, ev, omega=1.0)
                assert fam.evaluate(i, x1).loss < ev.loss


def bound_step(fam, omega, x):
    """The family's (pick, move) for a uniform run, and its counts."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    stream = DrawStream(make_rng(0))
    return fam.bind_step(skd.uniform(), 1, stream, counts, omega, x,
                         False), counts


class TestBoundStep:
    """move(x, i) is apply_update(x, evaluate(i, x), omega) bit for bit."""

    @pytest.mark.parametrize("omega", [1.0, 0.9])
    @pytest.mark.parametrize("kind, metric", [
        ("row", "identity"), ("row", "steepest"), ("lsqcol", "normal"),
        ("lsqcol", "steepest"), ("spectral", "identity"),
        ("spectral", "steepest"),
    ])
    def test_vector_move_is_evaluate_and_apply_update(self, kind, metric,
                                                      omega):
        spd = kind == "spectral" or metric == "steepest"
        system = gaussian_system(14, 8 if spd else 6, seed=41, spd=spd,
                                 metric=metric)
        fam = skd.SketchFamily(kind, system)
        assert not fam.diagonal
        assert fam.g_equals_b == (metric != "steepest")
        x = np.random.default_rng(9).standard_normal(system.n)
        (_, move), counts = bound_step(fam, omega, x)
        for i in range(fam.q):
            ev = fam.evaluate(i, x)
            x_next, t = move(x, i)
            assert x_next.tobytes() == skd.apply_update(x, ev, omega).tobytes()
            assert t == (omega * ev.step) * (ev.linear / fam.denominators[i])
        assert counts["zero_steps"] == 0

    @pytest.mark.parametrize("omega", [1.0, 0.9])
    @pytest.mark.parametrize("kind, metric", [
        ("block", "identity"), ("block", "steepest"), ("full", "system"),
        ("full", "steepest"),
    ])
    def test_block_and_full_moves_apply_evaluate(self, kind, metric, omega):
        system = gaussian_system(12, 12, seed=42, spd=True, metric=metric)
        fam = skd.SketchFamily(kind, system,
                               block_size=5 if kind == "block" else None)
        x = np.random.default_rng(10).standard_normal(system.n)
        (pick, move), counts = bound_step(fam, omega, x)
        for i in range(fam.q):
            ev = fam.evaluate(i, x)
            if kind == "full":  # the move applies the pick's evaluation
                assert pick(x, None)[:2] == (0, ev.loss)
            x_next, t = move(x, i)
            assert x_next.tobytes() == skd.apply_update(x, ev, omega).tobytes()
            assert t is None
        assert counts["zero_steps"] == 0

    @pytest.mark.parametrize("kind", ["row", "lsqcol", "spectral", "block"])
    def test_zero_index_keeps_x_and_counts_a_zero_step(self, kind):
        base = gaussian_system(12, 12, seed=43, spd=True)
        system = skd.LinearSystem(A=base.A, b=np.zeros(12))
        fam = skd.SketchFamily(kind, system,
                               block_size=4 if kind == "block" else None)
        x = np.zeros(12)
        (_, move), counts = bound_step(fam, 0.9, x)
        assert fam.evaluate(1, x).step is None
        x_next, t = move(x, 1)
        assert np.array_equal(x_next, x) and t is None
        assert counts["zero_steps"] == 1


class TestFamilyStructure:
    def test_family_sizes(self):
        system = gaussian_system(12, 5, seed=1)
        assert skd.SketchFamily("row", system).q == 12
        assert skd.SketchFamily("lsqcol", system).q == 5
        assert skd.SketchFamily("block", system, block_size=5).q == 3
        spd = gaussian_system(10, 6, seed=2, spd=True, metric="system")
        assert skd.SketchFamily("spectral", spd).q == 6
        assert skd.SketchFamily("full", spd).q == 1

    def test_block_partition_covers_rows(self):
        system = gaussian_system(11, 4, seed=3)
        fam = skd.SketchFamily("block", system, block_size=4)
        seen = np.concatenate(fam.blocks)
        assert np.array_equal(np.sort(seen), np.arange(11))

    @pytest.mark.parametrize("size", [2.5, 3.0, True, None, 0])
    def test_block_size_must_be_a_positive_integer(self, size):
        system = gaussian_system(12, 5, seed=1)
        with pytest.raises(InvalidConfigError, match="block_size"):
            skd.SketchFamily("block", system, block_size=size)

    def test_numpy_integer_block_size_accepted(self):
        system = gaussian_system(12, 5, seed=1)
        fam = skd.SketchFamily("block", system, block_size=np.int64(5))
        assert fam.q == 3 and fam.block_size == 5

    @pytest.mark.parametrize("kind", ["block", "full"])
    def test_vector_arrays_are_none_on_matrix_sketches(self, kind):
        _, fam = family_on(kind, 12, 6, seed=2, block_size=4)
        assert fam.denominators is None
        assert fam.direction_matrix is None
        assert fam.steps is None
        assert fam.coupling is None

    def test_spectral_requires_spd(self):
        system = gaussian_system(8, 4, seed=4)  # rectangular
        with pytest.raises((InvalidInputError, NotSpdError)):
            skd.SketchFamily("spectral", system)

    def test_full_requires_spd(self):
        system = gaussian_system(8, 4, seed=4)
        with pytest.raises((InvalidInputError, NotSpdError)):
            skd.SketchFamily("full", system)

    def test_unknown_kind(self):
        system = gaussian_system(6, 3, seed=0)
        with pytest.raises(InvalidConfigError):
            skd.SketchFamily("diagonal", system)

    def test_index_out_of_range(self):
        system, fam = family_on("row", 6, 3, seed=0)
        with pytest.raises(InvalidInputError):
            fam.evaluate(6, np.zeros(3))
        with pytest.raises(InvalidInputError):
            fam.evaluate(-1, np.zeros(3)).loss

    @pytest.mark.parametrize("kind", ["row", "spectral", "block"])
    def test_non_integer_index_refused(self, kind):
        system, fam = family_on(kind, 8, 4, seed=1,
                                block_size=3 if kind == "block" else None)
        x = np.ones(system.n)
        for bad in ([1.7], [True], np.array([0.0, 1.0]), [0, 2.5]):
            with pytest.raises(InvalidInputError):
                fam.losses(x, bad)
        for bad in (2.5, 1.0, True, np.float64(1.0)):
            with pytest.raises(InvalidInputError):
                fam.evaluate(bad, x)
        assert fam.losses(x, []).shape == (0,)
        assert fam.losses(x, np.array([1], dtype=np.uint64)) == \
            fam.losses(x, [1])
        assert fam.evaluate(np.int64(1), x).loss == fam.evaluate(1, x).loss

    @pytest.mark.parametrize("kind", ["row", "spectral", "block"])
    def test_losses_index_out_of_range(self, kind):
        system, fam = family_on(kind, 8, 4, seed=1,
                                block_size=3 if kind == "block" else None)
        x = np.ones(system.n)
        for bad in ([-1], [fam.q], [0, fam.q], [-1, fam.q - 1]):
            with pytest.raises(InvalidInputError):
                fam.losses(x, np.array(bad))
        assert fam.losses(x, np.array([0, fam.q - 1])).shape == (2,)

    def test_curvature_matrix_full_equals_metric_weight(self):
        # the generating sketch S = A compresses nothing: its curvature is
        # exactly the metric weight, independent of which SPD B is chosen
        system = gaussian_system(9, 5, seed=6, spd=True, metric="steepest")
        fam = skd.SketchFamily("full", system)
        assert np.allclose(fam.curvature_matrix(0), system.B_factor.dense())

    def test_exactness_sum_of_curvatures(self):
        # summed curvature must see every direction A' can produce
        for kind in ("row", "lsqcol", "block"):
            system, fam = family_on(kind, 10, 4, seed=8,
                                    block_size=3 if kind == "block" else None)
            Z = sum(fam.curvature_matrix(i) for i in range(fam.q))
            assert np.linalg.matrix_rank(Z, tol=1e-10) == np.linalg.matrix_rank(
                system.A, tol=1e-10)


class TestOneIndexLinearValue:
    """linear_values(x, i) and evaluate agree with the batched product.

    They are different float64 reductions, so the allowance is the
    classical dot-product bound, not equality: each evaluation of a sum of
    k terms is within gamma_k * sum|terms| of the exact value, with
    gamma_k = k u / (1 - k u) and u the unit roundoff; the two therefore
    differ by at most twice that.
    """

    @staticmethod
    def allowance(magnitudes, k):
        u = np.finfo(np.float64).eps / 2
        return 2.0 * (k * u / (1.0 - k * u)) * magnitudes

    @pytest.mark.parametrize("kind, metric", [
        ("row", "identity"), ("lsqcol", "identity"), ("lsqcol", "normal"),
        ("spectral", "system"),
    ])
    def test_every_index_matches_batched(self, kind, metric):
        spd = kind == "spectral"
        system = gaussian_system(30, 12, seed=12, spd=spd, metric=metric)
        fam = skd.SketchFamily(kind, system)
        A, b = system.A, system.b
        x = np.random.default_rng(8).standard_normal(system.n)
        # sums of |terms| of each c_i, and the number of roundings in it
        if kind == "row":
            size, k = np.abs(A) @ np.abs(x) + np.abs(b), system.n + 1
        elif kind == "lsqcol":
            size, k = np.abs(A).T @ np.abs(A @ x - b), system.m
        else:
            U, lam = fam.eigvecs, fam.eigvals
            size = np.abs(lam) * (np.abs(U).T @ np.abs(x)) + np.abs(U.T @ b)
            k = system.n + 2
        tol = self.allowance(size, k)
        for i in range(fam.q):
            want = fam.linear_values(x, np.array([i]))[0]
            one = fam.linear_values(x, i)
            assert np.ndim(one) == 0
            assert abs(one - want) <= tol[i]
            assert abs(fam.evaluate(i, x).linear - want) <= tol[i]
