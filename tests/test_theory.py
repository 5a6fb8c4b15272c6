import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.errors import (
    InvalidConfigError,
    InvalidInputError,
    SizeLimitError,
)
from sketchdescent.linalg import SpdFactor
from sketchdescent.sampling import rule_expectation
from sketchdescent import theory
from sketchdescent.theory import sandwich_constants

from conftest import family_on, gaussian_system
from dense_reference import dense_report, whitened_operator


def spy(monkeypatch, calls, owner, name):
    """Count the calls of owner.name, or a property's reads, in calls[name]."""
    original = vars(owner)[name]
    is_property = isinstance(original, property)
    target = original.fget if is_property else original

    def counted(*args, **kwargs):
        calls[name] += 1
        return target(*args, **kwargs)
    monkeypatch.setattr(owner, name, property(counted) if is_property else counted)


def diag_full_family():
    """Full-sketch family whose single whitened operator is diag(1, 4)."""
    A = np.diag([1.0, 4.0])
    system = skd.LinearSystem(A=A, b=np.array([1.0, 4.0]),
                              x_star=np.array([1.0, 1.0]), B=A)
    return system, skd.SketchFamily("full", system)


def identity_row_family(n=3):
    """Row family on A = I: every whitened operator is e_i e_i'."""
    b = np.arange(1.0, n + 1.0)
    system = skd.LinearSystem(A=np.eye(n), b=b, x_star=b.copy())
    return system, skd.SketchFamily("row", system)


class TestWhitenedOperators:
    def test_identity_metric_row(self):
        system, fam = identity_row_family(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.allclose(whitened_operator(fam, i),
                               np.outer(e, e), atol=1e-14)

    def test_matches_direct_construction_under_metric(self):
        system, fam = family_on("spectral", 12, 6, seed=1)
        w, V = np.linalg.eigh(system.G)
        Gih = (V / np.sqrt(w)) @ V.T  # G^{-1/2}
        for i in range(fam.q):
            Z = fam.curvature_matrix(i)
            direct = Gih @ Z @ Gih
            direct = 0.5 * (direct + direct.T)
            assert np.allclose(whitened_operator(fam, i), direct,
                               atol=1e-10)

    def test_full_family_whitened_is_curvature_metric(self):
        system, fam = diag_full_family()
        assert np.allclose(whitened_operator(fam, 0),
                           np.diag([1.0, 4.0]), atol=1e-12)


class TestSpectralReport:
    def test_identity_row_values(self):
        system, fam = identity_row_family(4)
        rep = skd.spectral_report(fam)
        assert rep.q == 4 and rep.n == 4
        assert np.allclose(rep.eig_max, 1.0, atol=1e-14)
        assert np.allclose(rep.cond, 1.0, atol=1e-14)
        assert rep.mu_hi == pytest.approx(1.0)
        assert rep.mu_lo == pytest.approx(1.0)
        assert not rep.all_pd  # rank-one operators in dimension 4
        assert rep.tsum_eig_max == pytest.approx(1.0)
        assert rep.tsum_eig_min_pos == pytest.approx(1.0)
        assert rep.tsum_rank == 4
        # uniform rule: lam_lo = tsum_min_pos / q, lam_hi = tsum_max / q
        assert rep.lam_lo == pytest.approx(0.25, rel=1e-12)
        assert rep.lam_hi == pytest.approx(0.25, rel=1e-12)

    def test_diag_full_values(self):
        system, fam = diag_full_family()
        rep = skd.spectral_report(fam)
        assert rep.all_pd
        assert rep.mu_hi == pytest.approx(4.0)
        assert rep.mu_lo == pytest.approx(1.0)
        assert rep.cond[0] == pytest.approx(4.0)
        assert rep.rank[0] == 2
        assert rep.lam_lo == pytest.approx(1.0)
        assert rep.lam_hi == pytest.approx(4.0)

    def test_rank_one_kinds_have_unit_cond(self):
        for kind in ("row", "lsqcol"):
            _, fam = family_on(kind, 10, 5, seed=2)
            rep = skd.spectral_report(fam)
            assert np.allclose(rep.cond, 1.0, atol=1e-12)
            assert np.all(rep.rank == 1)

    def test_mu_and_lam_orderings(self):
        for kind in ("row", "lsqcol", "block", "spectral", "full"):
            _, fam = family_on(kind, 12, 6, seed=3, block_size=3)
            rep = skd.spectral_report(fam)
            assert 0.0 < rep.mu_lo <= rep.mu_hi
            assert 0.0 < rep.lam_lo <= rep.lam_hi * (1 + 1e-12)

    def test_greedy_lam_hi_monotone_in_tau(self):
        _, fam = family_on("row", 10, 5, seed=4)
        vals = [skd.spectral_report(fam, skd.greedy(t)).lam_hi
                for t in (1, 2, 5, 10)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_zero_losses_strengthen_greedy_lower_constant(self):
        lo0, _ = sandwich_constants(1.0, 3.0, 1.0, 10, skd.greedy(4), 0)
        lo2, _ = sandwich_constants(1.0, 3.0, 1.0, 10, skd.greedy(4), 2)
        lo3, _ = sandwich_constants(1.0, 3.0, 1.0, 10, skd.greedy(4), 3)
        lo5, _ = sandwich_constants(1.0, 3.0, 1.0, 10, skd.greedy(4), 5)
        assert lo0 <= lo2 <= lo3
        assert lo3 == lo5  # floored at q - tau + 1 once tau-1 losses vanish

    def test_constants_refuse_what_is_not_a_rule(self):
        with pytest.raises(InvalidConfigError, match="unknown rule type object"):
            sandwich_constants(1.0, 3.0, 1.0, 10, object())

    def test_size_limit(self):
        A = np.random.default_rng(5).standard_normal((5, 501))
        system = skd.LinearSystem(A=A, b=A @ np.ones(501))
        fam = skd.SketchFamily("row", system)
        with pytest.raises(SizeLimitError):
            skd.spectral_report(fam)

    def test_to_text_round_trips_scalars(self):
        _, fam = family_on("row", 8, 4, seed=6)
        rep = skd.spectral_report(fam)
        text = rep.to_text()
        fields = dict(line.split("=", 1) for line in text.strip().split("\n"))
        assert float(fields["mu_hi"]) == rep.mu_hi
        assert float(fields["lam_lo"]) == rep.lam_lo
        assert fields["kind"] == "row"


class TestPredictedRates:
    def test_diag_full_hand_values(self):
        # cond = 4: the sharpened factor is ((4-1)/(4+1))^2 = 9/25 and the
        # generic factor 1 - lam_lo/mu_hi = 3/4.
        _, fam = diag_full_family()
        rates = skd.predicted_rates(skd.spectral_report(fam), omega=1.0)
        assert rates.step_factor == pytest.approx(0.75, rel=1e-12)
        assert rates.step_factor_pd == pytest.approx(9.0 / 25.0, rel=1e-12)
        assert rates.step_factor_pd_worst == pytest.approx(9.0 / 25.0,
                                                           rel=1e-12)
        assert rates.fdecay_factor == pytest.approx(0.75, rel=1e-12)
        assert rates.cesaro_error_coeff == pytest.approx(4.0, rel=1e-12)
        assert rates.cesaro_loss_coeff == pytest.approx(2.0, rel=1e-12)

    def test_orthonormal_rows_pd_factor(self):
        # Every per-index cond is 1, so the sharpened factor collapses to
        # 1 - (2w - w^2).
        system, fam = diag_full_family()
        rep = skd.spectral_report(fam)
        rep.cond = np.array([1.0])
        rep.all_pd = True
        for omega in (0.5, 1.0, 1.5):
            rates = skd.predicted_rates(rep, omega)
            assert rates.step_factor_pd == pytest.approx(
                1.0 - (2 * omega - omega * omega), rel=1e-12)

    def test_factors_in_unit_interval(self):
        for kind in ("row", "lsqcol", "block", "spectral", "full"):
            _, fam = family_on(kind, 12, 6, seed=7, block_size=3)
            rates = skd.predicted_rates(skd.spectral_report(fam), 1.0)
            assert 0.0 <= rates.step_factor < 1.0
            assert 0.0 <= rates.fdecay_factor < 1.0
            assert rates.fdecay_factor <= rates.fdecay_factor_worst < 1.0
            if rates.step_factor_pd is not None:
                assert 0.0 <= rates.step_factor_pd < 1.0
                assert rates.step_factor_pd <= rates.step_factor_pd_worst

    def test_boundary_omega_no_progress(self):
        _, fam = diag_full_family()
        rep = skd.spectral_report(fam)
        for omega in (1e-9, 2.0 - 1e-9):
            rates = skd.predicted_rates(rep, omega)
            assert rates.step_factor == pytest.approx(1.0, abs=1e-6)

    def test_invalid_omega(self):
        _, fam = diag_full_family()
        rep = skd.spectral_report(fam)
        for omega in (0.0, 2.0, -1.0):
            with pytest.raises(InvalidConfigError):
                skd.predicted_rates(rep, omega)

    def test_cesaro_bounds_scale_as_one_over_k(self):
        _, fam = family_on("row", 10, 5, seed=8)
        rates = skd.predicted_rates(skd.spectral_report(fam), 1.0)
        b1 = rates.cesaro_error_bound(10, 2.0)
        b2 = rates.cesaro_error_bound(20, 2.0)
        assert b1 == pytest.approx(2 * b2, rel=1e-12)
        with pytest.raises(InvalidInputError):
            rates.cesaro_loss_bound(0, 1.0)


class TestMomentumRate:
    def test_gamma_zero_recovers_plain_rate(self):
        for kind in ("row", "full"):
            _, fam = family_on(kind, 12, 6, seed=9)
            rep = skd.spectral_report(fam)
            for omega in (0.5, 1.0, 1.5):
                mr = skd.momentum_rate(rep, gamma=0.0, omega=omega)
                plain = skd.predicted_rates(rep, omega)
                assert mr.coef_prev == 0.0
                assert mr.coef_cur == pytest.approx(plain.step_factor,
                                                    rel=1e-12)
                assert mr.rate == pytest.approx(plain.step_factor, rel=1e-12)
                assert mr.admissible
                assert mr.prev_weight == pytest.approx(0.0, abs=1e-15)

    def test_admissible_rate_brackets(self):
        # Halfway to the admissibility boundary is always admissible.
        _, fam = family_on("row", 20, 8, seed=10)
        rep = skd.spectral_report(fam)
        l1, l2 = rep.lam_lo, rep.lam_hi
        c = 4.0 - l1 + l2
        gamma_b = (-c + math.sqrt(c * c + 16.0 * l1)) / 8.0
        mr = skd.momentum_rate(rep, gamma=0.5 * gamma_b, omega=1.0)
        assert mr.admissible
        assert mr.coef_cur + mr.coef_prev <= mr.rate < 1.0

    def test_remark_boundary_gamma_closed_form(self):
        # G = B geometry (mu_hi = mu_lo = 1); at the closed-form boundary
        #   gamma = (-c + sqrt(c^2 + 16 xi w l2 + 16 w (2-w-zeta) l1)) / 8,
        #   c = 4 - w l1 + w l2,
        # the two recursion coefficients sum to exactly one.
        _, fam = family_on("row", 8, 5, seed=11)
        rep = skd.spectral_report(fam)
        assert rep.mu_hi == pytest.approx(1.0, abs=1e-12)
        l1, l2 = rep.lam_lo, rep.lam_hi

        def boundary(omega, zeta, xi):
            c = 4.0 - omega * l1 + omega * l2
            return (-c + math.sqrt(
                c * c + 16.0 * xi * omega * l2
                + 16.0 * omega * (2.0 - omega - zeta) * l1)) / 8.0

        for omega, zeta in ((1.0, 0.0), (0.7, 0.3), (1.3, 0.0)):
            # Keep xi below both its admissibility cap and half the
            # boundary so the gamma >= xi floor cannot bind.
            xi = min(0.4 * zeta * l1 / l2, 0.5 * boundary(omega, zeta, 0.0))
            gamma_b = boundary(omega, zeta, xi)
            mr = skd.momentum_rate(rep, gamma=gamma_b, omega=omega,
                                   loss_weight=zeta, loss_slack=xi)
            assert mr.coef_cur + mr.coef_prev == pytest.approx(1.0, abs=1e-9)
            below = skd.momentum_rate(rep, gamma=0.9 * gamma_b, omega=omega,
                                      loss_weight=zeta, loss_slack=xi)
            assert below.admissible

    def test_positive_free_parameters_do_not_worsen_rate(self):
        # With xi/zeta < lam_lo/lam_hi <= 4 xi/zeta the certified rate with
        # free parameters is at least as good as the baseline.
        _, fam = family_on("row", 10, 6, seed=12)
        rep = skd.spectral_report(fam)
        ratio = rep.lam_lo / rep.lam_hi
        zeta = 0.5
        xi = 0.5 * zeta * ratio
        omega = 1.0
        base_boundary = skd.momentum_rate(rep, gamma=0.0, omega=omega)
        assert base_boundary.admissible
        for frac in (0.0, 0.25, 0.5):
            gamma = max(xi, frac * 0.05)
            tuned = skd.momentum_rate(rep, gamma=gamma, omega=omega,
                                      loss_weight=zeta, loss_slack=xi)
            plain = skd.momentum_rate(rep, gamma=gamma, omega=omega)
            if tuned.admissible and plain.admissible:
                assert tuned.rate <= plain.rate + 1e-12
                assert (tuned.coef_cur + tuned.coef_prev
                        <= plain.coef_cur + plain.coef_prev + 1e-12)

    def test_precondition_violations_named(self):
        _, fam = family_on("row", 8, 4, seed=13)
        rep = skd.spectral_report(fam)
        with pytest.raises(InvalidConfigError, match="loss_weight"):
            skd.momentum_rate(rep, 0.1, loss_weight=-1.0)
        with pytest.raises(InvalidConfigError, match="loss_slack"):
            skd.momentum_rate(rep, 0.1, loss_weight=0.0, loss_slack=0.1)
        with pytest.raises(InvalidConfigError, match="loss_slack <"):
            skd.momentum_rate(rep, 0.1, loss_weight=0.1, loss_slack=0.5)
        with pytest.raises(InvalidConfigError, match="gamma must be >="):
            skd.momentum_rate(rep, 0.01, loss_weight=0.2, loss_slack=0.05)
        with pytest.raises(InvalidConfigError, match="omega"):
            skd.momentum_rate(rep, 0.1, omega=2.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_refused(self, bad):
        _, fam = family_on("row", 8, 4, seed=13)
        rep = skd.spectral_report(fam)
        for kwargs in ({"gamma": bad},
                       {"gamma": 0.1, "loss_weight": bad},
                       {"gamma": 0.1, "loss_weight": 0.2, "loss_slack": bad}):
            with pytest.raises(InvalidConfigError):
                skd.momentum_rate(rep, **kwargs)
        with pytest.raises(InvalidConfigError, match="finite"):
            skd.momentum_cesaro_admissible(rep, bad, 1.0)
        with pytest.raises(InvalidConfigError):
            skd.cesaro_bound(rep, bad, 1.0, 1, 1.0, 1.0)

    def test_lyapunov_assembly(self):
        _, fam = family_on("row", 8, 4, seed=14)
        rep = skd.spectral_report(fam)
        mr = skd.momentum_rate(rep, gamma=0.05, omega=1.0,
                               loss_weight=0.2, loss_slack=0.0)
        v = mr.lyapunov(2.0, 1.0, 0.5)
        want = 2.0 + mr.prev_weight * 1.0 + (2 * 0.2 * 1.0 / rep.mu_hi) * 0.5
        assert v == pytest.approx(want, rel=1e-12)


class TestCesaroBound:
    def test_unit_spectrum_closed_form(self):
        _, fam = identity_row_family(3)
        rep = skd.spectral_report(fam)
        assert rep.mu_hi == pytest.approx(1.0)
        for k in (1, 5, 40):
            got = skd.cesaro_bound(rep, gamma=0.0, omega=1.0, k=k,
                                   err0_g_sq=3.0, loss0=9.9)
            assert got == pytest.approx(3.0 / (2 * k), rel=1e-12)

    def test_hand_value_with_momentum(self):
        _, fam = identity_row_family(3)
        rep = skd.spectral_report(fam)
        got = skd.cesaro_bound(rep, gamma=0.4, omega=1.0, k=1,
                               err0_g_sq=1.0, loss0=1.0)
        # num = (1-0.4)^2 + 2*0.4 = 1.16; den = 2*(2-0.4-0.4-1) = 0.4
        assert got == pytest.approx(2.9, rel=1e-12)

    def test_error_bound_needs_a_step(self):
        _, fam = identity_row_family(3)
        with pytest.raises(InvalidInputError, match="k must be >= 1"):
            skd.predicted_rates(skd.spectral_report(fam)).cesaro_error_bound(
                0, 1.0)

    def test_k_doubling_halves(self):
        _, fam = family_on("row", 10, 5, seed=15)
        rep = skd.spectral_report(fam)
        b1 = skd.cesaro_bound(rep, 0.05, 1.0, 100, 2.0, 0.3)
        b2 = skd.cesaro_bound(rep, 0.05, 1.0, 200, 2.0, 0.3)
        assert b1 == pytest.approx(2 * b2, rel=1e-12)

    def test_boundary_blowup_and_rejection(self):
        _, fam = identity_row_family(3)
        rep = skd.spectral_report(fam)
        # admissibility: omega + 2 gamma < 2, boundary at gamma = 0.5
        near = skd.cesaro_bound(rep, gamma=0.5 - 1e-10, omega=1.0, k=1,
                                err0_g_sq=1.0, loss0=1.0)
        assert near > 1e8
        assert not skd.momentum_cesaro_admissible(rep, 0.5, 1.0)
        with pytest.raises(InvalidConfigError):
            skd.cesaro_bound(rep, gamma=0.5, omega=1.0, k=1,
                             err0_g_sq=1.0, loss0=1.0)
        with pytest.raises(InvalidInputError):
            skd.cesaro_bound(rep, gamma=0.0, omega=1.0, k=0,
                             err0_g_sq=1.0, loss0=1.0)
        with pytest.raises(InvalidConfigError):
            skd.cesaro_bound(rep, gamma=-0.1, omega=1.0, k=1,
                             err0_g_sq=1.0, loss0=1.0)

    def test_admissibility_predicate(self):
        _, fam = identity_row_family(3)
        rep = skd.spectral_report(fam)
        assert skd.momentum_cesaro_admissible(rep, 0.4, 1.0)
        assert not skd.momentum_cesaro_admissible(rep, 0.6, 1.0)


class TestProductRatioExample:
    def test_diag_1_4_integers(self):
        # T = diag(1, 4), r = (1, 1): the three quadratics are 5, 17, 65;
        # the product ratio 325/289 stays below the PD bound 25/16.
        _, fam = diag_full_family()
        T = whitened_operator(fam, 0)
        r = np.ones(2)
        t1 = float(r @ T @ r)
        t2 = float(r @ T @ T @ r)
        t3 = float(r @ T @ T @ T @ r)
        assert (t1, t2, t3) == (5.0, 17.0, 65.0)
        ratio = t1 * t3 / t2 ** 2
        assert ratio == pytest.approx(325.0 / 289.0, rel=1e-14)
        assert 1.0 <= ratio <= 25.0 / 16.0


class TestVerifyInequalities:
    @pytest.mark.parametrize("kind", ["row", "lsqcol", "block", "spectral",
                                      "full"])
    def test_families_pass(self, kind):
        _, fam = family_on(kind, 12, 6, seed=16, block_size=3)
        report = skd.verify_inequalities(fam, trials=60, seed=1)
        assert report.all_passed, report.to_text()
        assert report.failures() == []
        names = {e.name for e in report.entries}
        assert "quad2_within_eig_bounds_of_quad1" in names
        assert any(n.startswith("expected_loss_sandwich") for n in names)

    def test_report_text_lists_entries(self):
        _, fam = family_on("row", 8, 4, seed=17)
        report = skd.verify_inequalities(fam, trials=20, seed=2)
        text = report.to_text()
        assert "trials=20" in text
        assert ": ok" in text

    def test_rejects_inexact_capped_rule(self, monkeypatch):
        # Refused before the dense pass does any work.
        _, fam = family_on("row", 8, 4, seed=18)
        calls = collections.Counter()
        spy(monkeypatch, calls, theory, "_dense_pass")
        with pytest.raises(InvalidConfigError):
            skd.verify_inequalities(fam, rules=[skd.capped(exact=False)],
                                    trials=5)
        assert not calls

    def test_size_limit(self):
        A = np.random.default_rng(19).standard_normal((5, 501))
        system = skd.LinearSystem(A=A, b=A @ np.ones(501))
        fam = skd.SketchFamily("row", system)
        with pytest.raises(SizeLimitError):
            skd.verify_inequalities(fam, trials=1)

    def test_trial_count_validation(self):
        _, fam = family_on("row", 8, 4, seed=20)
        with pytest.raises(InvalidInputError):
            skd.verify_inequalities(fam, trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, 3.0])
    def test_trial_count_must_be_an_integer(self, trials):
        _, fam = family_on("row", 8, 4, seed=20)
        with pytest.raises(InvalidInputError,
                           match="trials must be an integer >= 1"):
            skd.verify_inequalities(fam, trials=trials)


class TestSharedSpectra:
    RULES = ("uniform", "greedy:3", "maxdist", "capped:0.5,1,m,exact")

    @pytest.mark.parametrize("kind", ["row", "block", "spectral"])
    @pytest.mark.parametrize("zero_losses", [0, 2])
    def test_with_rule_matches_spectral_report(self, kind, zero_losses):
        _, fam = family_on(kind, 12, 6, seed=22, block_size=3)
        base = skd.spectral_report(fam)
        for text in self.RULES:
            rule = skd.parse_rule(text)
            derived = base.with_rule(rule, zero_losses)
            direct = skd.spectral_report(fam, rule, zero_losses)
            for f in dataclasses.fields(direct):
                a, b = getattr(derived, f.name), getattr(direct, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name
            assert derived.to_text() == direct.to_text()

    @pytest.mark.parametrize("kind, block_size, most", [
        ("row", None, 1),
        ("spectral", None, 1),  # A's own decomposition is the family's
        ("block", 2, 7),        # q = 6 block operators plus their sum
    ])
    def test_verify_decomposes_each_operator_once(self, kernel_counts, kind,
                                                  block_size, most):
        _, fam = family_on(kind, 12, 6, seed=23, block_size=block_size)
        before = kernel_counts["eigh"]
        report = skd.verify_inequalities(fam, trials=10, seed=1)
        assert report.all_passed, report.to_text()
        assert kernel_counts["eigh"] - before <= most
        if kind == "block":
            assert fam.q == 6
            assert kernel_counts["eigh"] - before == fam.q + 1

    def test_full_family_decomposes_its_operator_once(self, kernel_counts):
        # q = 1: T_0 is the summed operator, so one eigh serves both; the
        # other is A's own, for G^{-1/2}.
        _, fam = family_on("full", 12, 6, seed=24)
        before = kernel_counts["eigh"]
        report = skd.spectral_report(fam)
        assert kernel_counts["eigh"] - before == 2
        w, V = np.linalg.eigh(whitened_operator(fam, 0))
        keep = theory._positive(w)
        assert report.tsum_eig_max == w[-1]
        assert report.tsum_eig_min_pos == w[keep][0]
        assert report.tsum_rank == int(keep.sum())
        _, (*_, tsum_basis) = theory._dense_pass(fam, keep=True)
        assert np.array_equal(tsum_basis, V[:, keep])


    @pytest.mark.parametrize("kind", ["row", "lsqcol"])
    def test_vector_family_reads_its_arrays_once_per_call(self, monkeypatch,
                                                          kind):
        # One dense pass per public call: W = A'S is formed once and
        # G^{-1/2} taken once, under B = G = A'A.
        system = gaussian_system(28, 10, seed=115, metric="normal")
        fam = skd.SketchFamily(kind, system)
        calls = collections.Counter()
        spy(monkeypatch, calls, skd.SketchFamily, "w_matrix")
        spy(monkeypatch, calls, SpdFactor, "inv_sqrt")
        report = skd.verify_inequalities(fam, trials=3, seed=0)
        assert report.all_passed, report.to_text()
        assert calls == {"w_matrix": 1, "inv_sqrt": 1}
        calls.clear()
        skd.spectral_report(fam)
        assert calls == {"w_matrix": 1, "inv_sqrt": 1}

    def test_each_operator_built_once_per_call(self, monkeypatch):
        # Seven blocks under B = G = A'A: each public call builds each Z_i
        # once, takes G^{-1/2} once and whitens each Z_i and their sum once.
        system = gaussian_system(28, 10, seed=114, metric="normal")
        fam = skd.SketchFamily("block", system, block_size=4)
        assert fam.q == 7
        calls = collections.Counter()
        for owner, name in ((skd.SketchFamily, "curvature_matrix"),
                            (SpdFactor, "inv_sqrt"), (theory, "_whiten")):
            spy(monkeypatch, calls, owner, name)
        report = skd.verify_inequalities(fam, trials=5, seed=1)
        assert report.all_passed, report.to_text()
        assert calls == {"curvature_matrix": 7, "inv_sqrt": 1, "_whiten": 8}
        calls.clear()
        skd.spectral_report(fam)
        assert calls == {"curvature_matrix": 7, "inv_sqrt": 1, "_whiten": 8}


class TestEnumeratedSandwich:
    def test_greedy_and_capped_expectations_within_sandwich(self):
        # Tall full-rank A with B = G = I: every error direction is in
        # range, so the sandwich must hold at arbitrary points. The
        # expectation is enumerated over all C(q, tau) samples.
        system, fam = family_on("row", 6, 4, seed=21)
        rep = skd.spectral_report(fam)
        rng = np.random.default_rng(3)
        rules = [skd.greedy(t) for t in (1, 2, 4, 6)]
        rules.append(skd.capped(0.5, 1, None, exact=True))
        for trial in range(25):
            x = system.x_star + rng.standard_normal(4)
            r_sq = float(np.sum((x - system.x_star) ** 2))
            losses = fam.losses(x)
            zeros = int(np.count_nonzero(losses == 0.0))
            for rule in rules:
                if isinstance(rule, skd.GreedyRule):
                    tau = rule.resolve_tau(6)
                    combos = list(itertools.combinations(range(6), tau))
                    expected = np.mean([losses[list(c)].max()
                                        for c in combos])
                    assert rule_expectation(losses, rule) == pytest.approx(
                        expected, rel=1e-12)
                else:
                    expected = rule_expectation(losses, rule)
                lo, hi = sandwich_constants(
                    rep.tsum_eig_min_pos, rep.tsum_eig_max, rep.mu_hi,
                    6, rule, zeros)
                assert lo * r_sq <= 2 * expected * (1 + 1e-9) + 1e-12
                assert 2 * expected <= hi * r_sq * (1 + 1e-9) + 1e-12


def _spd_copy_geometry(seed):
    """30-dim SPD system with B = G = A held as a separate array: the
    spectral family is not diagonal (told by identity)."""
    base = gaussian_system(60, 30, seed=seed, spd=True)
    BG = base.A.copy()
    return skd.LinearSystem(A=base.A, b=base.b, B=BG, G=BG,
                            x_star=base.x_star)


# (kind, system, route spectral_report takes) over identity, A and A'A
# geometries; "A" on a spectral family is the diagonal one.
ROUTE_CASES = [
    ("row", lambda: gaussian_system(40, 60, seed=1), "dense"),
    ("row", lambda: gaussian_system(60, 40, seed=2), "dense"),
    ("row", lambda: gaussian_system(60, 40, seed=3, metric="normal"), "dense"),
    ("row", lambda: gaussian_system(60, 30, seed=4, spd=True,
                                    metric="system"), "dense"),
    ("row", lambda: gaussian_system(60, 30, seed=5, spd=True,
                                    metric="normal"), "dense"),
    ("lsqcol", lambda: gaussian_system(60, 40, seed=6), "dense"),
    ("lsqcol", lambda: gaussian_system(60, 40, seed=7, metric="normal"),
     "dense"),
    ("lsqcol", lambda: gaussian_system(60, 30, seed=8, spd=True,
                                       metric="system"), "dense"),
    ("spectral", lambda: gaussian_system(60, 30, seed=9, spd=True),
     "dense"),
    ("spectral", lambda: gaussian_system(60, 30, seed=10, spd=True,
                                         metric="normal"), "dense"),
    ("spectral", lambda: _spd_copy_geometry(11), "dense"),
    ("spectral", lambda: gaussian_system(60, 30, seed=12, spd=True,
                                         metric="steepest"), "dense"),
    ("spectral", lambda: gaussian_system(60, 30, seed=13, spd=True,
                                         metric="system"), "diagonal"),
]


def _route(fam):
    return "diagonal" if fam.diagonal else "dense"


class TestReportRoutes:
    # Every eigenvalue may differ from the dense reference by at most
    # 32 n eps ||T||, with ||T|| the largest eigenvalue of its kind (mu_hi
    # for the per-index values, tsum_eig_max for the summed ones); the
    # largest seen over these cases is about 5 n eps ||T||.
    C = 32

    @pytest.mark.parametrize("kind, make, route", ROUTE_CASES)
    def test_every_field_matches_dense_reference(self, kind, make, route):
        system = make()
        fam = skd.SketchFamily(kind, system)
        assert _route(fam) == route
        report = skd.spectral_report(fam)
        ref = dense_report(fam)
        eps = np.finfo(np.float64).eps
        tol_index = self.C * system.n * eps * ref["mu_hi"]
        tol_sum = self.C * system.n * eps * ref["tsum_eig_max"]
        for name in ("kind", "q", "n", "all_pd", "tsum_rank"):
            assert getattr(report, name) == ref[name], name
        assert np.array_equal(report.rank, ref["rank"])
        for name in ("eig_max", "eig_min_pos", "eig_min", "mu_hi", "mu_lo"):
            assert np.allclose(getattr(report, name), ref[name], rtol=0.0,
                               atol=tol_index), name
        # cond = eig_max / eig_min_pos, so its error scales with cond.
        assert np.allclose(report.cond, ref["cond"], rtol=0.0,
                           atol=tol_index * ref["cond"].max()
                           / ref["eig_min_pos"].min())
        for name in ("tsum_eig_max", "tsum_eig_min_pos"):
            assert abs(getattr(report, name) - ref[name]) <= tol_sum, name
        for text in ("uniform", "greedy:3", "capped:0.5,1,m,exact"):
            rule = skd.parse_rule(text)
            ruled = report.with_rule(rule, zero_losses=1)
            lo, hi = sandwich_constants(ref["tsum_eig_min_pos"],
                                        ref["tsum_eig_max"], ref["mu_hi"],
                                        fam.q, rule, 1)
            assert (ruled.rule_label, ruled.zero_losses) == (rule.label, 1)
            assert ruled.lam_lo == pytest.approx(lo, rel=0.0, abs=tol_sum)
            assert ruled.lam_hi == pytest.approx(hi, rel=0.0,
                                                 abs=max(tol_sum, tol_index))

    def test_diagonal_route_is_exact_and_decomposes_nothing(
            self, monkeypatch, kernel_counts):
        system, fam = family_on("spectral", 24, 12, seed=30)
        assert fam.diagonal
        calls = collections.Counter()
        spy(monkeypatch, calls, theory, "sym_eig")
        spy(monkeypatch, calls, SpdFactor, "inv_sqrt")
        spy(monkeypatch, calls, np.linalg, "eigvalsh")
        before = kernel_counts["eigh"]
        report = skd.spectral_report(fam, skd.max_distance())
        assert not calls and kernel_counts["eigh"] == before
        assert np.array_equal(report.eig_max, np.ones(12))
        assert np.array_equal(report.cond, np.ones(12))
        assert np.array_equal(report.rank, np.ones(12, dtype=np.intp))
        assert np.array_equal(report.eig_min, np.zeros(12))
        assert (report.mu_hi, report.mu_lo) == (1.0, 1.0)
        assert (report.tsum_eig_max, report.tsum_eig_min_pos) == (1.0, 1.0)
        assert report.tsum_rank == 12 and not report.all_pd
        assert (report.lam_lo, report.lam_hi) == (1.0 / 12, 1.0)

    def test_one_dimensional_diagonal_family_is_positive_definite(self):
        A = np.array([[3.0]])
        system = skd.LinearSystem(A=A, b=np.array([6.0]), B=A, G=A,
                                  x_star=np.array([2.0]))
        report = skd.spectral_report(skd.SketchFamily("spectral", system))
        assert report.all_pd and report.eig_min[0] == 1.0
        assert report.tsum_rank == 1

    @pytest.mark.parametrize("kind, block_size", [
        ("row", None),     # q > n
        ("lsqcol", None),  # caches its coupling K'
        ("block", 4),
    ])
    def test_other_families_take_the_dense_route(self, monkeypatch, kind,
                                                 block_size):
        system = gaussian_system(28, 10, seed=34, metric="normal")
        fam = skd.SketchFamily(kind, system, block_size=block_size)
        calls = collections.Counter()
        for owner, name in ((SpdFactor, "inv_sqrt"), (theory, "_dense_pass")):
            spy(monkeypatch, calls, owner, name)
        skd.spectral_report(fam)
        assert calls == {"inv_sqrt": 1, "_dense_pass": 1}

    @pytest.mark.parametrize("kind, shape", [
        ("spectral", (501, 501)),  # diagonal route
        ("row", (5, 501)),         # dense route, n too large
        ("row", (5001, 2)),        # dense route, m too large
    ])
    def test_size_refusal_precedes_every_route(self, monkeypatch, kind,
                                               shape):
        m, n = shape
        if kind == "spectral":
            A = np.diag(np.arange(1.0, n + 1.0))
            system = skd.LinearSystem(A=A, b=np.ones(n), B=A, G=A)
        else:
            A = np.random.default_rng(35).standard_normal(shape)
            system = skd.LinearSystem(A=A, b=A @ np.ones(n))
        fam = skd.SketchFamily(kind, system)
        calls = collections.Counter()
        for owner, name in ((theory, "_dense_pass"), (theory, "_summary")):
            spy(monkeypatch, calls, owner, name)
        for call in (skd.spectral_report, skd.verify_inequalities):
            with pytest.raises(SizeLimitError, match="desk-scale limit") as exc:
                call(fam)
            assert "dense" not in str(exc.value)
        assert not calls
