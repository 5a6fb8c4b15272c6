import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.errors import InvalidInputError, NotSpdError
from sketchdescent.linalg import SpdFactor, pinv_psd
from sketchdescent.problems import CONSISTENCY_TOL, gen_arrays, loaded_arrays
from sketchdescent.rng import make_rng, standard_normal

from conftest import consistent


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            skd.GenSpec("gaussian", 0, 3)
        with pytest.raises(InvalidInputError):
            skd.GenSpec("gaussian", 3, 0)
        with pytest.raises(InvalidInputError):
            skd.GenSpec("nonsense", 3, 3)
        with pytest.raises(InvalidInputError):
            # m < n would give a singular Gram matrix
            skd.GenSpec("gaussian-normal-equations", 2, 5)

    @pytest.mark.parametrize("m, n", [(2.5, 3), (3, 3.0), (True, 3),
                                      (4, False)])
    def test_non_integer_sizes_refused(self, m, n):
        with pytest.raises(InvalidInputError, match="must be integers"):
            skd.GenSpec("gaussian", m, n)

    def test_numpy_integer_sizes_accepted(self):
        spec = skd.GenSpec("gaussian", np.int64(4), np.int32(3))
        assert skd.generate(spec).A.shape == (4, 3)

    def test_labels(self):
        assert skd.GenSpec("gaussian", 4, 3).label == "gen:4x3"
        assert skd.GenSpec("gaussian-normal-equations", 9, 4).label == "gen:9x4:spd"


class TestGenGaussian:
    def test_consistent_by_construction(self):
        system = skd.generate(skd.GenSpec("gaussian", 3, 2, seed=7))
        assert np.linalg.norm(system.A @ system.x_star - system.b) == 0.0

    def test_deterministic(self):
        spec = skd.GenSpec("gaussian", 5, 4, seed=11)
        a, b = skd.generate(spec), skd.generate(spec)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x_star, b.x_star)

    def test_shape_and_seed_sensitivity(self):
        big = skd.generate(skd.GenSpec("gaussian", 200, 60, seed=0))
        assert big.A.shape == (200, 60)
        other = skd.generate(skd.GenSpec("gaussian", 200, 60, seed=1))
        assert not np.array_equal(big.A, other.A)


class TestGenGaussianSpd:
    def test_spd_output(self):
        system = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 10, 4, seed=1))
        A = system.A
        assert A.shape == (4, 4)
        assert np.allclose(A, A.T, atol=1e-12)
        assert np.linalg.eigvalsh(A).min() > 0.0

    def test_solution_recovery_via_pinv(self):
        system = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 12, 5, seed=3))
        x = pinv_psd(system.A) @ system.b
        assert np.allclose(x, system.x_star, atol=1e-8)

    def test_generate_dispatch(self):
        spec = skd.GenSpec("gaussian-normal-equations", 8, 4, seed=2)
        W = standard_normal(make_rng(2), (8, 4))
        WtW = W.T @ W
        assert np.array_equal(skd.generate(spec).A,
                              0.5 * (WtW + WtW.T))

    @pytest.mark.parametrize("m, n", [(8, 4), (60, 60), (300, 120), (1000, 500)])
    def test_product_has_the_half_sums_bytes(self, m, n):
        # W.T @ W is bitwise symmetric, so the one symmetry check returns it
        # as it is: the same bytes as the half-sum 0.5 * (W'W + (W'W)').
        for seed in range(3):
            W = standard_normal(make_rng(seed), (m, n))
            WtW = W.T @ W
            A, _ = gen_arrays(
                skd.GenSpec("gaussian-normal-equations", m, n, seed=seed))
            assert A.flags.c_contiguous
            assert A.tobytes() == (0.5 * (WtW + WtW.T)).tobytes()


class TestLinearSystem:
    def test_consistency_invariant(self):
        for seed in range(5):
            system = skd.generate(skd.GenSpec("gaussian", 7, 4, seed=seed))
            res = np.linalg.norm(system.A @ system.x_star - system.b)
            assert res <= CONSISTENCY_TOL * (1.0 + np.linalg.norm(system.b))

    def test_rejects_inconsistent_x_star(self):
        A = np.eye(2)
        with pytest.raises(InvalidInputError):
            skd.LinearSystem(A=A, b=np.array([1.0, 0.0]),
                             x_star=np.array([0.0, 5.0]))

    def test_rejects_zero_rows(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            skd.LinearSystem(A=A, b=np.zeros(2))

    def test_rejects_non_spd_metric(self):
        A = np.eye(2)
        with pytest.raises(NotSpdError):
            skd.LinearSystem(A=A, b=np.ones(2), B=np.diag([1.0, -1.0]))

    def test_accepts_spd_metric(self):
        system = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 9, 4, seed=5))
        wrapped = skd.LinearSystem(A=system.A, b=system.b, B=system.A,
                                   G=system.A, x_star=system.x_star)
        assert wrapped.g_equals_b

    def test_made_factor_is_used_as_is(self, kernel_counts):
        spd = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 9, 4, seed=5))
        F = SpdFactor(spd.A, eig_check=True)
        system = skd.LinearSystem(A=spd.A, b=spd.b, B=F, G=F,
                                  x_star=spd.x_star)
        assert system.B_factor is F and system.G_factor is F
        assert system.A_factor is F
        assert system.B is system.A and system.G is system.A
        assert kernel_counts["cho_factor"] == 0

    def test_made_factor_of_another_matrix_is_not_a_factor_of_a(self):
        spd = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 9, 4, seed=5))
        F = SpdFactor(np.diag([1.0, 2.0, 3.0, 4.0]), eig_check=True)
        system = skd.LinearSystem(A=spd.A, b=spd.b, B=F, G=F)
        assert system.B_factor is F and system.g_equals_b
        assert system.A_factor is not F

    @pytest.mark.parametrize("made", [False, True])
    def test_weight_of_the_wrong_size_refused(self, made):
        A = np.random.default_rng(0).standard_normal((5, 3))
        W = np.eye(4)
        if made:
            W = SpdFactor(W, eig_check=True)
        for geometry in ({"B": W}, {"G": W}):
            with pytest.raises(InvalidInputError, match="expected 3x3"):
                skd.LinearSystem(A=A, b=A @ np.ones(3), **geometry)

    def test_metric_helpers(self):
        system = skd.generate(skd.GenSpec("gaussian", 6, 3, seed=0))
        x = np.zeros(3)
        assert system.residual_norm(x) == pytest.approx(
            float(np.linalg.norm(system.b)))
        assert system.error_sq_b(system.x_star) == pytest.approx(0.0, abs=1e-20)


class TestSharedGeometry:
    """B = A keeps one n x n array, and no set-up or run writes into it."""

    def test_b_equal_a_shares_the_array(self):
        spd = skd.generate(skd.GenSpec("gaussian-normal-equations", 40, 12, seed=3))
        system = skd.LinearSystem(A=spd.A, b=spd.b, B=spd.A, G=spd.A,
                                  x_star=spd.x_star)
        assert system.B_factor.matrix is system.A
        assert system.A_factor is system.B_factor
        before = system.A.tobytes()
        rule = skd.parse_rule("capped:0.5,1,m,exact")
        cfg = skd.SolverConfig(max_iters=60, check_every=5, seed=1)
        for kind, block_size in (("row", None), ("spectral", None),
                                 ("full", None), ("block", 4)):
            family = skd.SketchFamily(kind, system, block_size=block_size)
            skd.spectral_report(family, rule)
            skd.verify_inequalities(family, trials=5, seed=2)
            skd.run_ssd(system, family, rule, cfg)
            assert system.A.tobytes() == before, kind

    def test_zero_rows_are_those_of_zero_norm(self):
        # A square that underflows counts as zero, as in np.linalg.norm.
        A = np.array([[1e-200, 0.0], [1e-160, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning, match="dropping 1 zero row"):
            kept, _ = loaded_arrays(A)
        assert np.array_equal(kept, A[np.linalg.norm(A, axis=1) > 0.0])
        assert np.array_equal(kept, A[1:])
        with pytest.raises(InvalidInputError, match="zero row \\(index 0\\)"):
            skd.LinearSystem(A=A, b=np.ones(3))


class TestMakeConsistent:
    """A consistent system made from a loaded matrix: loaded_arrays wrapped
    in a LinearSystem, as bench.build_system does."""

    def test_drops_zero_rows_with_warning(self):
        A = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        with pytest.warns(UserWarning):
            system = consistent(A, seed=1)
        assert system.m == 2

    def test_identity_gives_b_equal_x_star(self):
        system = consistent(np.eye(3), seed=4)
        assert np.array_equal(system.b, system.x_star)

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidInputError):
            with pytest.warns(UserWarning):
                consistent(np.zeros((2, 2)), seed=0)

    def test_metric_passthrough(self):
        system = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 8, 3, seed=7))
        wrapped = consistent(system.A, seed=2, B=system.A, G=system.A)
        assert wrapped.g_equals_b
        assert np.linalg.norm(wrapped.A @ wrapped.x_star - wrapped.b) < 1e-12


class TestResolveXStar:
    def test_projection_formula_matches_pinv_oracle(self):
        # x* seen from x0 is x0 plus the minimum-norm correction
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 6))  # wide: many solutions
        x_true = rng.standard_normal(6)
        system = skd.LinearSystem(A=A, b=A @ x_true)
        x0 = rng.standard_normal(6)
        star, projected = skd.resolve_x_star(system, x0)
        assert projected
        oracle = x0 + np.linalg.pinv(A) @ (system.b - A @ x0)
        assert np.allclose(star, oracle, atol=1e-8)
        assert np.linalg.norm(A @ star - system.b) < 1e-8

    def test_stored_solution_wins_when_unique(self):
        system = skd.generate(skd.GenSpec("gaussian", 9, 4, seed=2))
        star, projected = skd.resolve_x_star(system, np.zeros(4))
        assert not projected
        assert np.array_equal(star, system.x_star)
