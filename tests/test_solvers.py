import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.errors import (
    DivergenceError,
    InvalidConfigError,
    InvalidInputError,
    SizeLimitError,
)
from sketchdescent import solvers
from sketchdescent.linalg import SpdFactor
from sketchdescent.solvers import _Recorder, resolve_x0

from conftest import consistent, family_on, gaussian_system


def steepest_pair(n, seed=0):
    """SPD system carrying B = A, G = I, with its full-sketch family."""
    system = gaussian_system(2 * n, n, seed=seed, spd=True, metric="steepest")
    return system, skd.SketchFamily("full", system)


def textbook_cg_iterates(A, b, x0, iters):
    """Independent conjugate-gradient reference, the classical recurrence:
    r = b - A x, p = r, alpha = r'r / p'Ap, beta = r+'r+ / r'r."""
    x = x0.copy()
    r = b - A @ x
    p = r.copy()
    rs = float(r @ r)
    out = [x.copy()]
    for _ in range(iters):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        out.append(x.copy())
        if rs_new == 0.0:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return out


class TestConfig:
    def test_validation_errors(self):
        bad = [dict(omega=0.0), dict(omega=2.0), dict(omega=-0.5),
               dict(gamma=-0.1), dict(tol=-1e-3), dict(max_iters=-1),
               dict(check_every=0), dict(x0="nowhere"), dict(omega=np.nan),
               dict(gamma=np.nan), dict(gamma=np.inf), dict(tol=np.nan),
               dict(tol=np.inf)]
        for kwargs in bad:
            with pytest.raises(InvalidConfigError):
                skd.SolverConfig(**kwargs).validate()

    def test_defaults_valid(self):
        skd.SolverConfig().validate()

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, -1, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InvalidConfigError, match="seed"):
            skd.SolverConfig(seed=seed).validate()
        system, fam = family_on("row", 12, 4, seed=1)
        with pytest.raises(InvalidConfigError, match="seed"):
            skd.run_ssd(system, fam, skd.uniform(), skd.SolverConfig(seed=seed))

    def test_numpy_integer_seed_runs_as_its_value(self):
        system, fam = family_on("row", 12, 4, seed=1)
        cfg = dict(tol=0.0, max_iters=20)
        a = skd.run_ssd(system, fam, skd.uniform(),
                        skd.SolverConfig(seed=np.int64(2), **cfg))
        b = skd.run_ssd(system, fam, skd.uniform(),
                        skd.SolverConfig(seed=2, **cfg))
        assert np.array_equal(a.selected, b.selected)

    def test_counts_must_be_integers(self):
        for kwargs in (dict(max_iters=2.5), dict(max_iters=3.0),
                       dict(max_iters=True), dict(check_every=2.5),
                       dict(check_every=True)):
            with pytest.raises(InvalidConfigError):
                skd.SolverConfig(**kwargs).validate()
        skd.SolverConfig(max_iters=np.int64(7),
                         check_every=np.int32(2)).validate()
        system = gaussian_system(8, 5, seed=1)
        fam = skd.SketchFamily("row", system)
        cfg = skd.SolverConfig(tol=0.0, max_iters=np.int64(7),
                               check_every=np.int64(3))
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert trace.iterations == 7
        assert trace.ks.tolist() == [0, 3, 6, 7]


class TestResolveX0:
    def test_presets(self):
        system = gaussian_system(8, 5, seed=1)
        assert np.array_equal(resolve_x0("zero", system), np.zeros(5))
        assert np.array_equal(resolve_x0("ones1000", system),
                              1000.0 * np.ones(5))

    def test_explicit_vector_is_copied(self):
        system = gaussian_system(8, 5, seed=1)
        v = np.arange(5.0)
        out = resolve_x0(v, system)
        assert np.array_equal(out, v)
        out[0] = 99.0
        assert v[0] == 0.0

    def test_explicit_vector_wrong_length(self):
        system = gaussian_system(8, 5, seed=1)
        with pytest.raises(InvalidConfigError):
            resolve_x0(np.ones(4), system)

    def test_range_projection_idempotent(self):
        system = gaussian_system(6, 9, seed=2)  # wide: proper subspace
        x1 = resolve_x0("range", system)
        x2 = skd.project_onto_gradient_span(system, x1)
        assert np.linalg.norm(x2 - x1) <= 1e-9 * (1 + np.linalg.norm(x1))

    def test_range_projection_identity_when_full_rank(self):
        # Square invertible A: the span is everything, projection changes
        # nothing.
        system = gaussian_system(7, 7, seed=3, spd=True)
        x = np.linspace(-2, 2, 7)
        out = skd.project_onto_gradient_span(system, x)
        assert np.allclose(out, x, atol=1e-9)


class TestSketchedSolver:
    def test_single_row_converges_in_one_step(self):
        A = np.array([[3.0, 4.0, 0.0]])
        system = consistent(A, seed=0)
        fam = skd.SketchFamily("row", system)
        cfg = skd.SolverConfig(x0="zero", check_every=1)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert trace.converged
        assert trace.iterations == 1
        assert trace.final_residual() <= cfg.tol

    def test_identity_system_maxdist_fixes_each_coordinate_once(self):
        n = 6
        b = np.array([5.0, -3.0, 2.0, 7.0, -1.0, 4.0])
        system = skd.LinearSystem(A=np.eye(n), b=b, x_star=b.copy())
        fam = skd.SketchFamily("row", system)
        cfg = skd.SolverConfig(x0="zero", tol=0.0, check_every=1)
        trace = skd.run_ssd(system, fam, skd.max_distance(), cfg)
        assert trace.converged
        assert trace.iterations <= n
        assert np.array_equal(trace.x_final, b)

    def test_start_at_solution_is_zero_iterations(self):
        system, fam = family_on("row", 10, 4, seed=4)
        cfg = skd.SolverConfig(x0=system.x_star)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.final_residual() == 0.0

    def test_gamma_zero_momentum_is_bitwise_plain(self):
        system, fam = family_on("row", 20, 8, seed=5)
        cfg = skd.SolverConfig(seed=11, max_iters=300, check_every=25,
                               x0="ones1000")
        a = skd.run_ssd(system, fam, skd.greedy(3), cfg)
        b = skd.run_ssdm(system, fam, skd.greedy(3),
                         skd.SolverConfig(seed=11, gamma=0.0, max_iters=300,
                                          check_every=25, x0="ones1000"))
        assert np.array_equal(a.residuals, b.residuals)
        assert np.array_equal(a.rel_errors, b.rel_errors)
        assert np.array_equal(a.f_values[1:], b.f_values[1:])
        assert np.array_equal(a.selected, b.selected)
        assert np.array_equal(a.x_final, b.x_final)
        assert a.method == "ssd" and b.method == "ssdm"

    def test_same_seed_reproduces_run(self):
        system, fam = family_on("row", 15, 6, seed=6)
        cfg = skd.SolverConfig(seed=7, max_iters=200, check_every=50)
        a = skd.run_ssd(system, fam, skd.greedy(4), cfg)
        b = skd.run_ssd(system, fam, skd.greedy(4), cfg)
        assert np.array_equal(a.x_final, b.x_final)
        assert np.array_equal(a.selected, b.selected)

    @pytest.mark.parametrize("rule", ["uniform", "greedy:4", "greedy:12",
                                      "capped:0.5,1,m,exact"])
    def test_trace_does_not_depend_on_the_draw_block(self, monkeypatch, rule):
        from sketchdescent import sampling

        system, fam = family_on("row", 40, 10, seed=6)
        cfg = skd.SolverConfig(seed=3, max_iters=400, check_every=10, tol=0.0)
        traces = []
        for values in (1, 7, 100, 1 << 14):
            monkeypatch.setattr(sampling, "BLOCK_VALUES", values)
            traces.append(skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg))
        for t in traces[1:]:
            assert np.array_equal(t.selected, traces[0].selected)
            assert np.array_equal(t.residuals, traces[0].residuals)
            assert np.array_equal(t.f_values, traces[0].f_values, equal_nan=True)
            assert np.array_equal(t.x_final, traces[0].x_final)

    def test_first_greedy_sample_is_draw_sample_of_the_seed(self):
        system, fam = family_on("row", 30, 6, seed=4)
        x0 = np.zeros(6)
        for seed in range(10):
            sample = skd.draw_sample(30, 5, skd.make_rng(seed))
            want = sample[np.argmax(fam.losses(x0, sample))]
            cfg = skd.SolverConfig(seed=seed, x0=x0, max_iters=1, check_every=1)
            assert skd.run_ssd(system, fam, skd.greedy(5), cfg).selected[-1] == want

    def test_uniform_on_kept_losses_picks_floor_u_q(self):
        # A diagonal run at gamma 0 keeps its losses; its uniform picks are
        # floor(u q) over the seed's uniforms, one per step.
        system, fam = family_on("spectral", 30, 12, seed=4)
        assert fam.diagonal
        steps = 40
        cfg = skd.SolverConfig(seed=9, max_iters=steps, check_every=1, tol=0.0)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        u = skd.make_rng(9).random(steps)
        assert trace.selected[1:].tolist() == (u * fam.q).astype(int).tolist()
        assert trace.counts["losses_read"] == steps

    def test_projection_error_is_monotone(self):
        # Unit relaxation makes each row update a projection, so the B-norm
        # error never increases.
        system, fam = family_on("row", 25, 10, seed=8)
        cfg = skd.SolverConfig(omega=1.0, max_iters=150, check_every=1,
                               tol=0.0, x0="ones1000")
        trace = skd.run_ssd(system, fam, skd.max_distance(), cfg)
        rel = trace.rel_errors
        assert np.all(rel[1:] <= rel[:-1] * (1 + 1e-12))

    def test_family_must_match_system(self):
        system, fam = family_on("row", 8, 4, seed=9)
        other = gaussian_system(8, 4, seed=9)
        with pytest.raises(InvalidConfigError):
            skd.run_ssd(other, fam, skd.uniform())

    def test_divergence_carries_partial_trace(self):
        system, fam = family_on("row", 12, 5, seed=10)
        cfg = skd.SolverConfig(gamma=1.5, max_iters=5000, check_every=10)
        with pytest.raises(DivergenceError) as exc:
            skd.run_ssdm(system, fam, skd.uniform(), cfg)
        trace = exc.value.trace
        assert trace is not None
        assert trace.diverged and not trace.converged
        assert np.all(np.isfinite(trace.x_final))

    @pytest.mark.parametrize("x_star_known", [True, False])
    def test_divergence_guard_scales_with_the_solution(self, monkeypatch,
                                                       x_star_known):
        # ||x*|| is about 4e13, so a converging run passes an absolute 1e12
        # on its way there. Without x*, ||b|| / ||A||_F sets the scale.
        A = gaussian_system(60, 20, seed=36).A
        x_star = np.random.default_rng(36).standard_normal(20) * 1e13
        system = skd.LinearSystem(A=A, b=A @ x_star, x_star=x_star)
        if not x_star_known:
            def refuse(*args):
                raise SizeLimitError("no solution")
            monkeypatch.setattr(solvers, "resolve_x_star", refuse)
        cfg = skd.SolverConfig(tol=1e-10 * np.linalg.norm(system.b),
                               max_iters=5000)
        trace = skd.run_ssd(system, skd.SketchFamily("row", system),
                            skd.max_distance(), cfg)
        assert trace.converged and not trace.diverged
        assert np.linalg.norm(trace.x_final) > 1e13
        assert np.isnan(trace.rel_errors[-1]) != x_star_known

    def test_divergence_scale_without_a_solution_is_a_lower_bound(
            self, monkeypatch):
        # An inconsistent system whose b is mostly outside range(A): there
        # ||b|| / ||A||_F is far above ||x_ls||, while the guard's scale
        # must not exceed the least-squares solution's norm.
        rng = np.random.default_rng(38)
        A = rng.standard_normal((60, 20))
        Q = np.linalg.qr(A, mode="complete")[0]
        b = A @ rng.standard_normal(20) + 1e6 * Q[:, 20:] @ rng.standard_normal(40)
        system = skd.LinearSystem(A=A, b=b)
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]

        def refuse(*args):
            raise SizeLimitError("no solution")
        monkeypatch.setattr(solvers, "resolve_x_star", refuse)
        rec = _Recorder("ssd", system, np.zeros(20), "selected", False)
        assert np.linalg.norm(x_ls) > 1.0
        assert rec.diverge_norm <= solvers.DIVERGENCE_NORM * np.linalg.norm(x_ls)

    def test_non_converged_run_reports_honestly(self):
        system, fam = family_on("row", 40, 20, seed=11)
        cfg = skd.SolverConfig(max_iters=3, check_every=1, tol=1e-12)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert not trace.converged
        assert trace.iterations == 3
        assert trace.final_residual() > cfg.tol

    def test_all_zero_greedy_sample_skips_update_without_converging(self):
        # Only row 0 is violated at x0 = 0; a first sample that misses it
        # sees only zero losses. That step must be a no-op, and the run
        # must not call itself converged while the residual is still 1.
        system = skd.LinearSystem(A=np.eye(6), b=np.eye(6)[0])
        fam = skd.SketchFamily("row", system)
        seed = next(s for s in range(100)
                    if 0 not in skd.draw_sample(6, 2, skd.make_rng(s)))
        cfg = skd.SolverConfig(seed=seed, x0=np.zeros(6), max_iters=1,
                               check_every=1, tol=1e-12)
        trace = skd.run_ssd(system, fam, skd.greedy(2), cfg)
        assert not trace.converged
        assert trace.iterations == 1
        assert trace.selected[-1] not in (-1, 0)
        assert trace.f_values[-1] == 0.0
        assert np.array_equal(trace.x_final, np.zeros(6))
        assert trace.final_residual() == 1.0
        cfg.max_iters = 1000
        trace = skd.run_ssd(system, fam, skd.greedy(2), cfg)
        assert trace.converged
        assert trace.iterations > 1
        assert trace.final_residual() <= cfg.tol
        assert np.all(trace.residuals[:-1] > cfg.tol)

    def test_checkpoint_spacing(self):
        system, fam = family_on("row", 30, 12, seed=12)
        cfg = skd.SolverConfig(max_iters=50, check_every=7, tol=0.0)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert list(trace.ks) == [0, 7, 14, 21, 28, 35, 42, 49, 50]

    def test_capped_rule_reports_expected_loss(self):
        system, fam = family_on("row", 10, 4, seed=13)
        cfg = skd.SolverConfig(max_iters=20, check_every=5, tol=0.0)
        rule = skd.capped(theta=0.5, tau1=1, tau2=None, exact=True)
        trace = skd.run_ssd(system, fam, rule, cfg)
        assert trace.f_mode == "expected"
        assert np.all(trace.f_values[1:] >= 0.0)

    def test_cesaro_average_matches_replayed_iterates(self):
        system, fam = family_on("row", 12, 5, seed=14)
        k = 10
        cfg = skd.SolverConfig(seed=21, max_iters=k, check_every=1, tol=0.0,
                               track_cesaro=True)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        # Replay prefixes of the same deterministic run to recover each
        # iterate, then average them in the same order.
        x_sum = np.zeros(5)
        for j in range(1, k + 1):
            sub = skd.SolverConfig(seed=21, max_iters=j, check_every=1,
                                   tol=0.0)
            x_sum += skd.run_ssd(system, fam, skd.uniform(), sub).x_final
        assert np.allclose(trace.x_cesaro, x_sum / k, rtol=0, atol=1e-12)
        assert trace.cesaro_f is not None
        assert np.isnan(trace.cesaro_f[0])
        assert np.all(trace.cesaro_f[1:] >= 0.0)

    def test_x_star_projection_flag_for_wide_systems(self):
        A = np.random.default_rng(3).standard_normal((4, 9))
        system = skd.LinearSystem(A=A, b=A @ np.ones(9))
        fam = skd.SketchFamily("row", system)
        cfg = skd.SolverConfig(x0="zero", max_iters=400, check_every=50)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert trace.x_star_is_projection
        assert trace.converged


def maintained_instances():
    """(label, system, family) triples whose families cache a coupling."""
    # Spectral sketches keep a coupling under the identity geometry; with
    # B = G = A they step in eigen-coordinates and keep none.
    plain = gaussian_system(24, 12, seed=31, spd=True)
    yield "spectral", plain, skd.SketchFamily("spectral", plain)
    spd = gaussian_system(24, 12, seed=31, spd=True, metric="system")
    yield "cd", spd, skd.SketchFamily("row", spd)
    for metric in ("normal", "identity"):
        system = gaussian_system(30, 12, seed=32, metric=metric)
        yield f"lsqcol-{metric}", system, skd.SketchFamily("lsqcol", system)


class TestMaintainedLinearValues:
    """Full-scan rules on a family with a coupling keep c = S'(A x - b)
    up to date instead of recomputing it every step."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_maintained_values_track_exact_ones(self, monkeypatch, gamma):
        bind = skd.SketchFamily.bind_step
        for label, system, fam in maintained_instances():
            seen = []

            def recording(*args):
                pick, move = bind(*args)

                def step(x, linear):
                    seen.append((x.copy(),
                                 None if linear is None else linear.copy()))
                    return pick(x, linear)
                return step, move

            monkeypatch.setattr(skd.SketchFamily, "bind_step", recording)
            cfg = skd.SolverConfig(gamma=gamma, tol=0.0, max_iters=300,
                                   check_every=10_000)
            trace = skd.run_ssdm(system, fam, skd.max_distance(), cfg)
            assert trace.iterations == 300 and len(seen) == 300, label
            c0 = np.linalg.norm(fam.linear_values(seen[0][0]))
            for x, c in seen:
                assert c is not None, label
                np.testing.assert_allclose(c, fam.linear_values(x), rtol=0.0,
                                           atol=1e-10 * c0, err_msg=label)

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("rule", ["uniform", "greedy:4"])
    def test_exact_path_is_bitwise_unchanged(self, gamma, rule):
        # Uniform never maintains c, and neither does any rule with a
        # checkpoint every step: their traces equal the exact path's.
        for label, system, fam in maintained_instances():
            every = 1 if rule != "uniform" else None
            cfg = skd.SolverConfig(gamma=gamma, tol=0.0, max_iters=200,
                                   seed=3, check_every=every)
            a = skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
            coupling, fam.coupling = fam.coupling, None
            try:
                b = skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
            finally:
                fam.coupling = coupling
            for field in ("residuals", "rel_errors", "f_values", "selected",
                          "x_final"):
                assert np.array_equal(getattr(a, field), getattr(b, field),
                                      equal_nan=field == "f_values"), label

    def test_full_scans_only_at_start_and_checkpoints(self, monkeypatch):
        system = gaussian_system(60, 30, seed=33, spd=True)
        fam = skd.SketchFamily("spectral", system)
        scans = []
        exact = fam.linear_values

        def counting(x, indices=None):
            if indices is None:
                scans.append(1)
            return exact(x, indices)

        monkeypatch.setattr(fam, "linear_values", counting)
        cfg = skd.SolverConfig(tol=0.0, max_iters=1000, check_every=100)
        trace = skd.run_ssd(system, fam, skd.greedy(20), cfg)
        checkpoints = len(trace.ks) - 1
        assert checkpoints == 10
        assert len(scans) == checkpoints

    def test_all_zero_maintained_losses_are_confirmed_exactly(self):
        # The true coupling of A = I is I. With row 0 replaced by ones, the
        # first step (index 0, c = -2 everywhere) zeroes every maintained
        # value while n - 1 rows are still violated. The run may end only
        # once an exact recompute agrees.
        n = 6
        system = skd.LinearSystem(A=np.eye(n), b=np.full(n, 2.0),
                                  x_star=np.full(n, 2.0))
        fam = skd.SketchFamily("row", system)
        assert np.array_equal(fam.coupling, np.eye(n))
        fam.coupling = np.eye(n)
        fam.coupling[0] = 1.0
        cfg = skd.SolverConfig(x0="zero", tol=1e-12, check_every=1000)
        trace = skd.run_ssd(system, fam, skd.max_distance(), cfg)
        assert trace.converged
        assert trace.iterations == n
        assert trace.final_residual() == 0.0
        assert np.array_equal(trace.x_final, system.b)

    @pytest.mark.parametrize("rule", ["capped:0.5,1,m", "capped:0.5,1,m,exact",
                                      "capped:0.5,2,m,exact"])
    def test_nan_among_zero_maintained_losses_is_not_solved(self, rule):
        # A = I, b = 2, x0 = 0: every exact c_i is -2. With every coupling
        # row set to ones and column 5 to NaN, the first step (any index,
        # t = -2) leaves the maintained c zero everywhere but a NaN at 5.
        # The capped scan must raise there, not read the zeros as solved.
        n = 6
        system = skd.LinearSystem(A=np.eye(n), b=np.full(n, 2.0),
                                  x_star=np.full(n, 2.0))
        fam = skd.SketchFamily("row", system)
        fam.coupling = np.ones((n, n))
        fam.coupling[:, 5] = np.nan
        cfg = skd.SolverConfig(x0="zero", tol=1e-12, check_every=1000)
        with pytest.raises(DivergenceError) as exc:
            skd.run_ssd(system, fam, skd.parse_rule(rule), cfg)
        assert exc.value.trace.iterations == 1

    @pytest.mark.parametrize("rule", ["maxdist", "capped:0.5,1,m"])
    def test_nan_linear_value_caught_within_one_iteration(self, rule):
        system = gaussian_system(24, 12, seed=34, spd=True)
        fam = skd.SketchFamily("spectral", system)
        fam.coupling = fam.coupling.copy()
        fam.coupling[:, 5] = np.nan  # c[5] is NaN after the first step
        cfg = skd.SolverConfig(tol=0.0, max_iters=500, check_every=100)
        with pytest.raises(DivergenceError) as exc:
            skd.run_ssd(system, fam, skd.parse_rule(rule), cfg)
        trace = exc.value.trace
        assert trace.diverged and not trace.converged
        assert trace.iterations == 1
        assert np.all(np.isfinite(trace.x_final))


class TestSteepestDescent:
    def test_hand_step_on_diagonal_system(self):
        # A = diag(1, 2), b = 0, x0 = (1, 1): residual (1, 2), exact step
        # 5/9, next iterate (4/9, -1/9).
        A = np.diag([1.0, 2.0])
        system = skd.LinearSystem(A=A, b=np.zeros(2), x_star=np.zeros(2))
        cfg = skd.SolverConfig(x0=np.array([1.0, 1.0]), max_iters=1, tol=0.0)
        trace = skd.run_sd(system, cfg)
        assert np.allclose(trace.x_final, [4.0 / 9.0, -1.0 / 9.0], atol=1e-15)

    def test_identity_system_one_step(self):
        b = np.array([2.0, -1.0, 3.0])
        system = skd.LinearSystem(A=np.eye(3), b=b, x_star=b.copy())
        trace = skd.run_sd(system, skd.SolverConfig(x0="zero"))
        assert trace.converged and trace.iterations == 1
        assert np.allclose(trace.x_final, b, atol=1e-14)

    def test_requires_spd_shape(self):
        system = gaussian_system(8, 5, seed=15)
        with pytest.raises(InvalidInputError):
            skd.run_sd(system)

    def test_matches_full_sketch_solver(self):
        system, fam = steepest_pair(20, seed=16)
        cfg = skd.SolverConfig(omega=1.0, max_iters=400, check_every=1,
                               tol=1e-10, x0="ones1000")
        sd = skd.run_sd(system, cfg)
        full = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert sd.iterations == full.iterations
        n_common = min(sd.residuals.size, full.residuals.size)
        scale = sd.residuals[0]
        assert np.all(np.abs(sd.residuals[:n_common] -
                             full.residuals[:n_common]) <= 1e-12 * scale)
        assert np.linalg.norm(sd.x_final - full.x_final) <= 1e-10


def assert_same_run(a, b):
    """Equal traces, wall times aside."""
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    for name in ("ks", "residuals", "rel_errors", "f_values", "selected",
                 "x_final"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestStopsBetweenCheckpoints:
    """A run that can take no further step ends at its last iterate with a
    checkpoint, whatever check_every is."""

    def test_sd_solved_between_checkpoints(self):
        # Step 1 solves 2 x = 4 exactly; step 2 finds res' A res = 0.
        system = skd.LinearSystem(A=np.array([[2.0]]), b=np.array([4.0]),
                                  x_star=np.array([2.0]))
        runs = [skd.run_sd(system, skd.SolverConfig(x0="zero", check_every=every))
                for every in (5, 1)]
        assert runs[0].converged and runs[0].iterations == 1
        assert list(runs[0].ks) == [0, 1] and runs[0].final_residual() == 0.0
        assert_same_run(*runs)

    def test_cg_curvature_underflow_between_checkpoints(self):
        # After step 1 the search direction is about (1e-200, 1e-100), so
        # p' A p is about 1e-350 and underflows to 0 at step 2.
        A = np.diag([1.0, 1e-150])
        system = skd.LinearSystem(A=A, b=np.array([1.0, 1e-100]),
                                  x_star=np.array([1.0, 1e50]))
        runs = [skd.run_cg_momentum(system, skd.SolverConfig(
            x0="zero", check_every=every)) for every in (5, 1)]
        assert runs[0].converged and runs[0].iterations == 1
        assert runs[0].ks[-1] == 1
        assert_same_run(*runs)

    @pytest.mark.parametrize("run", [skd.run_sd, skd.run_cg_momentum])
    def test_no_step_taken_counts_no_iteration(self, run):
        # r' A r = 1e-350 underflows before the first update: the run
        # reports zero iterations and records x0 once.
        system = skd.LinearSystem(A=np.array([[1e-150]]),
                                  b=np.array([1e-100]),
                                  x_star=np.array([1e50]))
        for every in (1, 5):
            trace = run(system, skd.SolverConfig(x0="zero", tol=0.0,
                                                 check_every=every))
            assert trace.iterations == 0 and not trace.converged
            assert list(trace.ks) == [0]
            assert np.array_equal(trace.x_final, [0.0])


class TestConjugateGradients:
    def test_identity_system_one_step(self):
        b = np.array([1.0, 2.0, 3.0])
        system = skd.LinearSystem(A=np.eye(3), b=b, x_star=b.copy())
        trace = skd.run_cg_momentum(system, skd.SolverConfig(x0="zero"))
        assert trace.converged and trace.iterations == 1

    def test_two_distinct_eigenvalues_two_steps(self):
        A = np.diag([1.0, 2.0, 2.0, 1.0])
        system = consistent(A, seed=17)
        cfg = skd.SolverConfig(x0="zero", tol=1e-12)
        trace = skd.run_cg_momentum(system, cfg)
        assert trace.converged and trace.iterations <= 2

    def test_matches_textbook_recurrence_per_iterate(self):
        system = gaussian_system(40, 20, seed=18, spd=True)
        x0 = np.zeros(20)
        oracle = textbook_cg_iterates(system.A, system.b, x0, 20)
        for j in range(1, len(oracle)):
            cfg = skd.SolverConfig(x0=x0, max_iters=j, tol=0.0)
            got = skd.run_cg_momentum(system, cfg).x_final
            assert np.linalg.norm(got - oracle[j], np.inf) <= 1e-10

    def test_terminates_within_n(self):
        # Finite termination is an exact-arithmetic property; starting at
        # zero makes the target relative to the initial residual, which is
        # what survives roundoff.
        system = gaussian_system(60, 30, seed=19, spd=True)
        tol = 1e-8 * float(np.linalg.norm(system.b))
        cfg = skd.SolverConfig(x0="zero", tol=tol, max_iters=1000)
        trace = skd.run_cg_momentum(system, cfg)
        assert trace.converged
        assert trace.iterations <= 30

    def test_requires_spd_shape(self):
        system = gaussian_system(8, 5, seed=20)
        with pytest.raises(InvalidInputError):
            skd.run_cg_momentum(system)

    def test_underflowed_recurrence_returns_unconverged_trace(self):
        # The true residual stalls near 2.6e-9 while the recurrence
        # residual u keeps shrinking until u'u underflows to 0; the run
        # must stop there, checked, instead of dividing by zero.
        base = skd.generate(skd.GenSpec("gaussian-normal-equations", 400, 200,
                                        seed=3))
        system = skd.LinearSystem(A=base.A, b=base.b, B=base.A, G=base.A,
                                  x_star=base.x_star)
        for every in (1, 7):
            cfg = skd.SolverConfig(tol=1e-10, check_every=every)
            trace = skd.run_cg_momentum(system, cfg)
            assert not trace.converged and not trace.diverged
            assert trace.iterations < cfg.max_iters
            assert trace.ks[-1] == trace.iterations
            res = np.linalg.norm(system.A @ trace.x_final - system.b)
            assert trace.final_residual() == res > cfg.tol


class TestDispatch:
    def test_run_method_routes(self):
        system, fam = family_on("row", 8, 4, seed=21)
        t = skd.run_method("ssd", system, fam, skd.uniform(),
                           skd.SolverConfig(max_iters=5, check_every=1))
        assert t.method == "ssd"
        spd = gaussian_system(8, 4, seed=21, spd=True)
        assert skd.run_method("sd", spd).method == "sd"
        assert skd.run_method("cg", spd).method == "cg"

    def test_unknown_method(self):
        system = gaussian_system(8, 4, seed=22)
        with pytest.raises(InvalidConfigError):
            skd.run_method("gradient", system)


class TestCheckpointErrors:
    # "system" shares one factor for B and G; "steepest" has B = A, G = I.
    @pytest.mark.parametrize("metric, quads", [("system", 1), ("steepest", 2)])
    def test_one_quad_per_checkpoint_when_g_is_b(self, monkeypatch, metric,
                                                 quads):
        system = gaussian_system(12, 5, seed=4, spd=True, metric=metric)
        x0 = np.full(system.n, 3.0)
        x = np.linspace(-1.0, 2.0, system.n)
        rec = _Recorder("ssd", system, x0, "selected", False)
        calls = []
        quad = SpdFactor.quad

        def counting(self, v):
            calls.append(self)
            return quad(self, v)

        monkeypatch.setattr(SpdFactor, "quad", counting)
        rec.record(1, x, 0.5, 0.25, 0)
        assert len(calls) == quads
        monkeypatch.setattr(SpdFactor, "quad", quad)
        assert rec.err_g_sq[-1] == system.error_sq_g(x, rec.x_star)

    @pytest.mark.parametrize("rule, cfg", [
        ("greedy:5", skd.SolverConfig(check_every=10)),
        ("maxdist", skd.SolverConfig(check_every=10, tol=0.0, max_iters=25)),
    ])
    def test_diagonal_run_forms_each_product_once(self, monkeypatch, rule, cfg):
        # x0's row is the reference of rel_errors, so error_sq_b runs once
        # per row; U y is formed once per later row, and the run's end
        # returns the x its last checkpoint formed.
        system, fam = family_on("spectral", 60, 30, seed=2)
        assert fam.diagonal
        want = skd.run_ssd(system, fam, skd.parse_rule(rule), cfg)
        errors, products = [], []
        error_sq_b = skd.LinearSystem.error_sq_b

        def counting(self, x, x_star=None):
            errors.append(x)
            return error_sq_b(self, x, x_star)

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append("U" if self is U else "U'")
                return np.asarray(self) @ other

        U = fam.eigvecs.view(Counted)
        monkeypatch.setattr(fam, "eigvecs", U)
        monkeypatch.setattr(skd.LinearSystem, "error_sq_b", counting)
        trace = skd.run_ssd(system, fam, skd.parse_rule(rule), cfg)
        assert len(errors) == len(trace.ks)
        assert products == ["U'"] + ["U"] * (len(trace.ks) - 1)
        assert trace.ks[-1] == trace.iterations
        assert trace.x_final.tobytes() == want.x_final.tobytes()
        assert np.array_equal(trace.rel_errors, want.rel_errors)
