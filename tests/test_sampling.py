import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import sketchdescent as skd
from sketchdescent import sampling
from sketchdescent.errors import InvalidConfigError
from sketchdescent.rng import make_rng
from sketchdescent.sampling import (
    DrawStream,
    capped_candidates,
    capped_threshold,
    rule_expectation,
    subset_max_expectation,
)

from conftest import family_on
from dense_reference import reference_choose, reference_threshold


class FixedLosses:
    """Family stand-in whose losses are given; select only reads those."""

    def __init__(self, losses):
        self.q = losses.size
        self._losses = losses

    def losses(self, x, indices=None):
        return self._losses if indices is None else self._losses[indices]


def exact_weights(q, tau):
    """Big-rational binomial evaluation, independent of the recurrence."""
    return [Fraction(math.comb(tau - 1 + j, tau - 1), math.comb(q, tau))
            for j in range(q - tau + 1)]


def enumerated_subset_max_mean(values, tau):
    """Average of the max over every tau-subset, the direct definition."""
    combos = list(itertools.combinations(values, tau))
    return sum(max(c) for c in combos) / len(combos)


class TestExpectationWeights:
    def test_q3_tau2(self):
        w = skd.gs_expectation_weights(3, 2)
        assert np.allclose(w, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_tau1_is_uniform(self):
        for q in (1, 4, 9):
            assert np.allclose(skd.gs_expectation_weights(q, 1),
                               np.full(q, 1.0 / q), rtol=1e-15)

    def test_tau_q_is_point_mass(self):
        assert np.array_equal(skd.gs_expectation_weights(6, 6), [1.0])

    def test_sum_to_one_up_to_200(self):
        for q in (1, 2, 5, 17, 63, 128, 200):
            for tau in {t for t in (1, 2, q // 2, q) if 1 <= t <= q}:
                w = skd.gs_expectation_weights(q, tau)
                assert abs(float(w.sum()) - 1.0) <= 1e-12

    def test_matches_big_rational_oracle(self):
        for q in (3, 7, 20, 45):
            for tau in range(1, q + 1):
                w = skd.gs_expectation_weights(q, tau)
                exact = exact_weights(q, tau)
                for wf, we in zip(w, exact):
                    assert abs(wf - float(we)) <= 1e-12

    def test_invalid_tau(self):
        with pytest.raises(InvalidConfigError):
            skd.gs_expectation_weights(4, 5)
        with pytest.raises(InvalidConfigError):
            skd.gs_expectation_weights(4, 0)

    def test_steps_share_read_only_weights(self):
        from sketchdescent import sampling
        shared = sampling._shared_weights(50, 7)
        assert sampling._shared_weights(50, 7) is shared
        assert not shared.flags.writeable
        assert np.array_equal(shared, skd.gs_expectation_weights(50, 7))
        # the public function still hands out a fresh, writable array
        fresh = skd.gs_expectation_weights(50, 7)
        fresh[0] = 99.0
        assert skd.gs_expectation_weights(50, 7)[0] == shared[0] != 99.0
        assert sampling._shared_weights.cache_info().maxsize is not None
        # capped_threshold through the cache equals the uncached formula
        losses = make_rng(4).random(50)
        v = np.sort(losses)
        rule = skd.capped(0.3, 7, None, exact=True)
        uncached = (0.3 * float(skd.gs_expectation_weights(50, 7) @ v[6:])
                    + 0.7 * float(skd.gs_expectation_weights(50, 50) @ v[49:]))
        assert capped_threshold(losses, rule) == uncached


class TestSubsetMaxExpectation:
    def test_matches_enumeration_small_q(self):
        rng = np.random.default_rng(0)
        for q in range(1, 9):
            values = rng.random(q)
            for tau in range(1, q + 1):
                got = subset_max_expectation(values, tau)
                want = enumerated_subset_max_mean(list(values), tau)
                assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_tau(self):
        values = np.random.default_rng(1).random(12)
        prev = -np.inf
        for tau in range(1, 13):
            e = subset_max_expectation(values, tau)
            assert e >= prev - 1e-15
            prev = e


class TestGreedySelect:
    # select draws its sample first, so a twin stream replays it
    def test_argmax_over_sample(self):
        losses = np.array([0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6])
        for seed in range(20):
            sample = skd.draw_sample(8, 3, make_rng(seed))
            sel = skd.select(skd.greedy(3), FixedLosses(losses), None,
                             make_rng(seed))
            assert sel.index == sample[np.argmax(losses[sample])]

    def test_ties_break_to_smallest(self):
        for seed in range(20):
            sample = skd.draw_sample(8, 3, make_rng(seed))
            sel = skd.select(skd.greedy(3), FixedLosses(np.full(8, 0.5)), None,
                             make_rng(seed))
            assert sel.index == sample[0] == sample.min()

    def test_singleton(self):
        losses = np.arange(1.0, 9.0)
        for seed in range(20):
            sample = skd.draw_sample(8, 1, make_rng(seed))
            sel = skd.select(skd.uniform(), FixedLosses(losses), None,
                             make_rng(seed))
            assert sel.index == sample[0]
            assert sel.chosen_loss == losses[sample[0]]

    def test_full_scan_without_sample(self):
        # position in losses is the family index itself; ties to the first
        sel = skd.select(skd.max_distance(),
                         FixedLosses(np.array([0.4, 0.9, 0.9, 0.1])), None,
                         make_rng(0))
        assert sel.index == 1

    def test_empty_losses_rejected(self):
        with pytest.raises(InvalidConfigError):
            skd.select(skd.uniform(), FixedLosses(np.array([])), None,
                       make_rng(0))


class TestCapped:
    def test_hand_threshold_and_candidates(self):
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        rule = skd.capped(theta=0.5, tau1=1, tau2=4, exact=True)
        # mean = 2.5, max = 4 -> blended threshold 3.25, admits only index 3
        assert capped_threshold(losses, rule) == pytest.approx(3.25)
        assert np.array_equal(capped_candidates(losses, rule), [3])

    def test_theta_zero_tau2_full_is_max_distance(self):
        losses = np.array([0.5, 2.0, 1.5])
        rule = skd.capped(theta=0.0, tau1=1, tau2=None, exact=True)
        assert np.array_equal(capped_candidates(losses, rule), [1])

    def test_equal_losses_admit_everyone(self):
        losses = np.full(5, 0.7)
        rule = skd.capped(theta=0.5, tau1=1, tau2=None, exact=True)
        assert np.array_equal(capped_candidates(losses, rule), np.arange(5))

    def test_lower_bound_mode_uses_mean(self):
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        rule = skd.capped(theta=0.5, tau1=1, tau2=4, exact=False)
        assert capped_threshold(losses, rule) == pytest.approx(2.5)

    def test_select_none_when_all_zero(self):
        rule = skd.capped(exact=True)
        sel = skd.select(rule, FixedLosses(np.zeros(4)), None, make_rng(0))
        assert sel.index is None

    def test_selected_clears_threshold(self):
        rng = make_rng(3)
        rule = skd.capped(theta=0.3, tau1=2, tau2=None, exact=True)
        for trial in range(50):
            losses = np.random.default_rng(trial).random(9)
            thr = capped_threshold(losses, rule)
            pick = skd.select(rule, FixedLosses(losses), None, rng).index
            assert losses[pick] >= thr - 1e-12

    def test_argmax_always_admitted(self):
        for trial in range(30):
            losses = np.random.default_rng(100 + trial).random(7)
            rule = skd.capped(theta=1.0, tau1=7, tau2=7, exact=True)
            cand = capped_candidates(losses, rule)
            assert int(np.argmax(losses)) in cand

    def test_rule_expectation_is_mean_over_candidates(self):
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        rule = skd.capped(theta=0.5, tau1=1, tau2=4, exact=True)
        assert rule_expectation(losses, rule) == pytest.approx(4.0)

    def test_select_reports_threshold_and_expectation(self):
        # one sort per step must give what the standalone functions give
        for exact in (True, False):
            rule = skd.capped(theta=0.3, tau1=2, tau2=None, exact=exact)
            for trial in range(20):
                losses = np.random.default_rng(200 + trial).random(9)
                sel = skd.select(rule, FixedLosses(losses), None, make_rng(0))
                assert sel.threshold == capped_threshold(losses, rule)
                assert sel.expected_loss == rule_expectation(losses, rule)

    def test_theta_domain(self):
        with pytest.raises(InvalidConfigError):
            skd.capped(theta=1.5)

    def test_closed_forms_for_tau_one_and_q_sort_nothing(self, monkeypatch):
        losses = np.random.default_rng(5).random(40)
        rule = skd.capped(theta=0.3, tau1=1, tau2=None, exact=True)
        want = 0.3 * float(np.mean(losses)) + 0.7 * float(np.max(losses))

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted")

        monkeypatch.setattr(np, "sort", no_sort)
        assert capped_threshold(losses, rule) == want
        assert capped_threshold(losses, skd.capped(0.3, 40, 1, exact=True)) \
            == 0.3 * float(np.max(losses)) + 0.7 * float(np.mean(losses))

    def test_closed_forms_agree_with_order_statistics(self):
        for trial in range(20):
            losses = np.random.default_rng(300 + trial).random(9)
            for tau1, tau2 in ((1, None), (2, None), (1, 3), (9, 9)):
                rule = skd.capped(theta=0.4, tau1=tau1, tau2=tau2, exact=True)
                t1 = 9 if tau1 is None else tau1
                t2 = 9 if tau2 is None else tau2
                want = (0.4 * subset_max_expectation(losses, t1)
                        + 0.6 * subset_max_expectation(losses, t2))
                assert capped_threshold(losses, rule) == pytest.approx(want, rel=1e-14)

    def test_pick_frozen_values(self):
        # The capped pick is floor(u * |candidates|), one uniform per step.
        losses = np.full(7, 0.5)  # every index is a candidate
        rule = skd.capped(exact=True)
        stream = DrawStream(make_rng(7))
        picks = [skd.select(rule, FixedLosses(losses), None, stream).index
                 for _ in range(6)]
        assert picks == [4, 6, 5, 1, 2, 6]


class TestDrawStream:
    @pytest.mark.parametrize("q,tau", [(500, 1), (500, 20), (500, 100), (40, 9)])
    def test_stream_equals_single_draws_whatever_the_block(self, monkeypatch,
                                                           q, tau):
        rng = make_rng(3)
        want = [skd.draw_sample(q, tau, rng) for _ in range(40)]
        for values in (1, 5, 3 * tau, 1000):
            monkeypatch.setattr(sampling, "BLOCK_VALUES", values)
            stream = DrawStream(make_rng(3))
            got = [stream.sample(q, tau) for _ in range(40)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), values

    def test_block_starts_with_the_single_draw(self):
        for q, tau in ((500, 1), (500, 20), (12, 5)):
            block = skd.draw_sample(q, tau, make_rng(8), 9)
            assert block.shape == (9, tau)
            assert np.array_equal(block[0], skd.draw_sample(q, tau, make_rng(8)))

    def test_picks_equal_whatever_the_block(self, monkeypatch):
        want = None
        for values in (1, 3, 4096):
            monkeypatch.setattr(sampling, "BLOCK_VALUES", values)
            stream = DrawStream(make_rng(4))
            got = [stream.pick(n) for n in range(1, 30)]
            assert want is None or got == want
            want = got
        assert all(0 <= i < n for n, i in enumerate(want, start=1))

    def test_one_kind_of_draw_per_stream(self):
        stream = DrawStream(make_rng(0))
        stream.sample(10, 2)
        with pytest.raises(InvalidConfigError):
            stream.sample(10, 3)
        stream = DrawStream(make_rng(0))
        stream.pick(5)
        with pytest.raises(InvalidConfigError):
            stream.sample(10, 2)

    def test_refills_double_up_to_the_cap(self, monkeypatch):
        # Greedy:20 on q = 500 takes 40 uniforms a sample, so a cap of 400
        # uniforms holds 10 steps; a pick takes one, so a cap of 16 holds 16.
        q, tau, ns = 500, 20, [7 + k % 5 for k in range(100)]
        rng = make_rng(5)
        want_samples = [skd.draw_sample(q, tau, rng) for _ in range(100)]
        rng = make_rng(6)
        want_picks = [int(rng.random() * n) for n in ns]

        class Recorder:
            def __init__(self, rng):
                self.rng, self.sizes = rng, []

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        drawn = []
        real = sampling.draw_sample

        def counted(q, tau, rng, draws=None):
            drawn.append(draws)
            return real(q, tau, rng, draws)

        monkeypatch.setattr(sampling, "draw_sample", counted)
        monkeypatch.setattr(sampling, "BLOCK_VALUES", 400)
        stream = DrawStream(make_rng(5))
        got = [stream.sample(q, tau) for _ in range(100)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want_samples))
        assert drawn == [1, 2, 4, 8] + [10] * 9
        monkeypatch.setattr(sampling, "BLOCK_VALUES", 16)
        recorder = Recorder(make_rng(6))
        stream = DrawStream(recorder)
        assert [stream.pick(n) for n in ns] == want_picks
        assert recorder.sizes == [1, 2, 4, 8] + [16] * 6

    def test_select_on_a_generator_draws_one_step(self):
        losses = np.random.default_rng(2).random(50)
        rng, stream = make_rng(6), DrawStream(make_rng(6))
        for _ in range(30):
            a = skd.select(skd.greedy(4), FixedLosses(losses), None, rng)
            b = skd.select(skd.greedy(4), FixedLosses(losses), None, stream)
            assert a.index == b.index


class TestDrawSample:
    def test_full_sample(self):
        assert np.array_equal(skd.draw_sample(5, 5, make_rng(0)), np.arange(5))

    def test_invalid_tau(self):
        with pytest.raises(InvalidConfigError):
            skd.draw_sample(4, 5, make_rng(0))

    def test_deterministic_given_seed(self):
        a = skd.draw_sample(20, 6, make_rng(9))
        b = skd.draw_sample(20, 6, make_rng(9))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)  # ascending, distinct

    def test_singleton_uniformity_chi_square(self):
        q, draws = 6, 100_000
        rng = make_rng(17)
        counts = np.zeros(q)
        for _ in range(draws):
            counts[skd.draw_sample(q, 1, rng)[0]] += 1
        p = stats.chisquare(counts).pvalue
        assert p > 0.01

    def test_pair_subset_frequencies(self):
        q, tau, draws = 4, 2, 60_000
        rng = make_rng(23)
        counts = {}
        for _ in range(draws):
            key = tuple(skd.draw_sample(q, tau, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expect = draws / 6.0
        sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
        for key, c in counts.items():
            assert abs(c - expect) <= 3.0 * sigma


class TestRules:
    def test_normalization_of_degenerate_rules(self):
        assert skd.uniform().label == "uniform"
        assert skd.greedy(1) == skd.uniform()
        assert skd.max_distance().tau is None
        assert skd.greedy(5).label == "greedy:5"
        assert skd.max_distance().label == "maxdist"

    def test_parse_rule_round_trips(self):
        for text in ("uniform", "maxdist", "greedy:7",
                     "capped:0.5,1,m", "capped:0.25,2,5,exact"):
            assert skd.parse_rule(text).label == text

    def test_parse_rule_errors(self):
        for text in ("nope", "greedy:x", "capped:0.5", "capped:a,1,2",
                     "capped:0.5,1,2,fast"):
            with pytest.raises(InvalidConfigError):
                skd.parse_rule(text)

    def test_greedy_m_means_max_distance(self):
        assert skd.parse_rule("greedy:m") == skd.max_distance()

    @pytest.mark.parametrize("tau", [2.5, 3.0, True, "2"])
    def test_non_integer_tau_refused(self, tau):
        with pytest.raises(InvalidConfigError, match="tau must be an integer"):
            skd.GreedyRule(tau)
        for taus in ((tau, None), (1, tau)):
            with pytest.raises(InvalidConfigError,
                               match="tau must be an integer"):
                skd.CappedRule(0.5, *taus, exact=True)

    def test_numpy_integer_and_none_tau_accepted(self):
        assert skd.GreedyRule(np.int64(3)).resolve_tau(5) == 3
        assert skd.GreedyRule(None).resolve_tau(5) == 5
        rule = skd.CappedRule(0.5, np.int32(2), None, exact=True)
        assert rule.label == "capped:0.5,2,m,exact"

    def test_resolve_tau_guard(self):
        with pytest.raises(InvalidConfigError):
            skd.greedy(10).resolve_tau(4)


class TestSelect:
    def test_greedy_full_sample_is_deterministic_argmax(self):
        system, fam = family_on("row", 8, 4, seed=5)
        x = np.full(4, 2.0)
        losses = fam.losses(x)
        sel = skd.select(skd.max_distance(), fam, x, make_rng(0))
        assert sel.index == int(np.argmax(losses))
        assert sel.chosen_loss == pytest.approx(float(losses.max()))

    def test_uniform_distribution_over_indices(self):
        system, fam = family_on("row", 5, 3, seed=6)
        x = np.full(3, 1.5)
        rng = make_rng(31)
        counts = np.zeros(5)
        for _ in range(20_000):
            counts[skd.select(skd.uniform(), fam, x, rng).index] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_greedy_mean_selected_loss_dominates_uniform(self):
        system, fam = family_on("row", 9, 4, seed=7)
        x = np.linspace(0.5, 1.5, 4)
        losses = fam.losses(x)
        rng = make_rng(41)
        mean3 = np.mean([skd.select(skd.greedy(3), fam, x, rng).chosen_loss
                         for _ in range(4000)])
        # enumeration oracle for the tau-subset maximum expectation
        want3 = enumerated_subset_max_mean(list(losses), 3)
        uniform_mean = float(np.mean(losses))
        assert mean3 == pytest.approx(want3, rel=0.05)
        assert want3 >= uniform_mean
        assert mean3 > uniform_mean

    def test_capped_selection_state(self):
        system, fam = family_on("row", 7, 3, seed=8)
        x = np.full(3, 3.0)
        rule = skd.capped(theta=0.5, tau1=1, tau2=None, exact=True)
        sel = skd.select(rule, fam, x, make_rng(2))
        assert sel.threshold is not None
        assert sel.losses.size == 7
        assert sel.chosen_loss >= sel.threshold - 1e-12

    def test_converged_signal(self):
        system, fam = family_on("row", 6, 3, seed=9)
        sel = skd.select(skd.max_distance(), fam, system.x_star, make_rng(0))
        # residual at the solution is roundoff; every loss may be zero or a
        # few ulp above it, so either outcome is coherent
        if sel.index is None:
            assert sel.zero_losses == fam.q

    def test_zero_loss_count_recorded(self):
        A = np.eye(4)
        system = skd.LinearSystem(A=A, b=np.array([1.0, 0.0, 0.0, 0.0]))
        fam = skd.SketchFamily("row", system)
        x = np.zeros(4)
        sel = skd.select(skd.max_distance(), fam, x, make_rng(0))
        assert sel.index == 0
        assert sel.zero_losses == 3

    def test_greedy_all_zero_sample_still_picks(self):
        # Only row 0 has a nonzero loss at x = 0, so most 2-subsets see only
        # zeros. Such a sample is not a proof of convergence: select must
        # still return an index (the smallest sampled one).
        system = skd.LinearSystem(A=np.eye(6), b=np.eye(6)[0])
        fam = skd.SketchFamily("row", system)
        x = np.zeros(6)
        rng = make_rng(3)
        all_zero = 0
        for _ in range(50):
            sel = skd.select(skd.greedy(2), fam, x, rng)
            assert sel.index is not None
            if sel.zero_losses == 2:
                all_zero += 1
                assert sel.index != 0
                assert sel.chosen_loss == 0.0
            else:
                assert sel.index == 0
        assert all_zero > 0


class TestSelectContract:
    def test_zero_losses_counts_exact_zeros_not_nans(self):
        fam = FixedLosses(np.array([0.0, np.nan, 0.0, 2.0, 0.5]))
        for rule in (skd.max_distance(), skd.capped(exact=True)):
            sel = skd.select(rule, fam, None, make_rng(0))
            assert sel.zero_losses == 2
            assert type(sel.zero_losses) is int

    def test_all_nan_scan_is_not_solved(self):
        sel = skd.select(skd.max_distance(), FixedLosses(np.full(3, np.nan)),
                         None, make_rng(0))
        assert sel.zero_losses == 0
        assert sel.index is not None
        assert math.isnan(sel.chosen_loss)

    @pytest.mark.parametrize("rule", ["maxdist", "capped:0.5,1,m",
                                      "capped:0.5,1,m,exact"])
    def test_nan_among_zero_losses_is_not_solved(self, rule):
        fam = FixedLosses(np.array([0.0, 0.0, np.nan, 0.0]))
        sel = skd.select(skd.parse_rule(rule), fam, None, make_rng(0))
        assert sel.index == 2
        assert math.isnan(sel.chosen_loss)

    def test_full_scan_chosen_loss_and_ties(self):
        losses = np.array([0.3, 0.9, 0.1, 0.9, 0.9, 0.2])
        sel = skd.select(skd.max_distance(), FixedLosses(losses), None,
                         make_rng(0))
        assert sel.index == 1
        assert sel.chosen_loss == losses[sel.index]

    def test_sampled_chosen_loss_and_ties(self):
        losses = np.array([0.3, 0.9, 0.1, 0.9, 0.9, 0.2, 0.9, 0.4])
        fam = FixedLosses(losses)
        for seed in range(40):
            # select draws its sample first, so a twin stream replays it
            sample = skd.draw_sample(8, 3, make_rng(seed))
            sel = skd.select(skd.greedy(3), fam, None, make_rng(seed))
            top = losses[sample].max()
            assert sel.index == min(i for i in sample if losses[i] == top)
            assert sel.chosen_loss == losses[sel.index]
            assert np.array_equal(sel.losses, losses[sample])


class TestChoose:
    """sampling.choose on hand-made loss vectors."""

    RULES = ["maxdist", "capped:0.5,1,m", "capped:0.5,1,m,exact",
             "capped:0.3,2,m,exact"]

    @pytest.mark.parametrize("rule", RULES)
    def test_full_scan_of_zeros_is_solved(self, rule):
        stream = DrawStream(make_rng(0))
        assert sampling.choose(skd.parse_rule(rule), np.zeros(5), stream) is None

    @pytest.mark.parametrize("rule", RULES)
    def test_nan_among_zeros_is_chosen(self, rule):
        losses = np.array([0.0, 0.0, np.nan, 0.0])
        chosen = sampling.choose(skd.parse_rule(rule), losses,
                                 DrawStream(make_rng(0)))
        assert chosen[0] == 2 and math.isnan(chosen[1])

    def test_nan_in_a_sample_is_chosen(self):
        chosen = sampling.choose(skd.greedy(3), np.array([0.0, np.nan, 0.0]),
                                 DrawStream(make_rng(0)), np.array([1, 4, 6]))
        assert chosen[0] == 4 and math.isnan(chosen[1])

    def test_all_zero_sample_returns_its_first_index(self):
        sample = np.array([2, 5, 7])
        chosen = sampling.choose(skd.greedy(3), np.zeros(3),
                                 DrawStream(make_rng(0)), sample)
        assert chosen == (2, 0.0, 0.0, None, 0)

    def test_ties_go_to_the_smallest_index(self):
        stream = DrawStream(make_rng(0))
        losses = np.array([0.3, 0.9, 0.1, 0.9, 0.9])
        assert sampling.choose(skd.max_distance(), losses, stream)[0] == 1
        sample = np.array([0, 3, 6, 8, 9])
        assert sampling.choose(skd.greedy(5), losses, stream, sample)[0] == 3
        # Equal losses admit every index; the pick is floor(u * 5).
        u = make_rng(1).random()
        chosen = sampling.choose(skd.capped(exact=True), np.full(5, 0.4),
                                 DrawStream(make_rng(1)))
        assert chosen[0] == int(u * 5) and chosen[4] == 5

    @pytest.mark.parametrize("rule", RULES[1:])
    def test_capped_f_and_threshold(self, rule):
        parsed = skd.parse_rule(rule)
        losses = np.random.default_rng(3).exponential(size=40)
        losses[[4, 17]] = 0.0
        index, loss, f, thr, count = sampling.choose(
            parsed, losses, DrawStream(make_rng(5)))
        assert f == rule_expectation(losses, parsed)
        assert thr == capped_threshold(losses, parsed)
        cand = capped_candidates(losses, parsed)
        assert count == cand.size and index in cand
        assert loss == losses[index]

    def test_greedy_f_is_the_chosen_loss(self):
        losses = np.array([0.2, 0.7, 0.5])
        assert sampling.choose(skd.max_distance(), losses,
                               DrawStream(make_rng(0))) == (1, 0.7, 0.7, None, 0)

    def test_unknown_rule_type_refused(self):
        with pytest.raises(InvalidConfigError):
            sampling.choose(object(), np.ones(3), DrawStream(make_rng(0)))
        with pytest.raises(InvalidConfigError):
            sampling.bind_choice(object(), 3)
        with pytest.raises(InvalidConfigError):
            sampling.bind_choice(skd.capped(tau1=4, exact=True), 3)
        with pytest.raises(InvalidConfigError):
            sampling.sample_size(object(), 3)
        with pytest.raises(InvalidConfigError):
            sampling.sample_size(skd.greedy(4), 3)


def same_float(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestBoundChoice:
    """bind_choice(rule, q), bound once and applied step after step, equals
    the choice written out in dense_reference, and choose is that binding."""

    Q = 12
    RULES = [skd.greedy(1), skd.greedy(3), skd.max_distance()] + [
        skd.capped(0.3, tau1, tau2, exact) for exact in (False, True)
        for tau1 in (1, 3, None) for tau2 in (1, 3, None)]

    @staticmethod
    def loss_vectors(q):
        rng = np.random.default_rng(4)
        out = []
        for _ in range(20):
            losses = rng.exponential(size=q)
            losses[rng.integers(q, size=3)] = 0.0
            out.append(losses)
        tied = np.round(rng.exponential(size=q), 1)
        tied[[2, 7]] = tied.max()
        with_nan = rng.exponential(size=q)
        with_nan[[5, 9]] = np.nan
        return out + [tied, with_nan, np.zeros(q), np.full(q, 0.4)]

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.label)
    def test_bound_choice_equals_reference(self, rule):
        q = self.Q
        choice = sampling.bind_choice(rule, q)
        tau = sampling.sample_size(rule, q)
        streams = [DrawStream(make_rng(6)) for _ in range(3)]
        draws = np.random.default_rng(7)
        for losses in self.loss_vectors(q):
            sample = (None if tau == q
                      else np.sort(draws.choice(q, tau, replace=False)))
            seen = losses if sample is None else losses[sample]
            got = choice(seen, streams[0], sample)
            want = reference_choose(rule, seen, streams[1], sample)
            via_choose = sampling.choose(rule, seen, streams[2], sample)
            if want is None:
                assert got is None and via_choose is None
                continue
            index, loss, f, thr, count = got
            assert (index, count) == (want[0], want[3])
            assert same_float(loss, want[1]) and same_float(f, want[2])
            if isinstance(rule, skd.CappedRule):
                assert same_float(thr, reference_threshold(seen, rule))
            assert repr(via_choose) == repr(got)
