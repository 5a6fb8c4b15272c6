import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from sketchdescent.errors import InvalidConfigError
from sketchdescent.rng import (
    derive_seed,
    make_rng,
    standard_normal,
    subset_uniforms,
    uniform_subsets,
    uses_rejection,
)


def test_same_seed_same_stream():
    a = make_rng(42).random(10)
    b = make_rng(42).random(10)
    assert np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(InvalidConfigError, match="seed"):
        make_rng(-1)


@pytest.mark.parametrize("seed", [2.5, 2.9, 2.0, True, False, "2", None])
def test_non_integer_seed_refused_not_truncated(seed):
    with pytest.raises(InvalidConfigError, match="seed must be an integer"):
        make_rng(seed)
    with pytest.raises(InvalidConfigError, match="seed must be an integer"):
        derive_seed(seed, "x", 0)


def test_numpy_integer_seed_is_the_same_seed():
    for seed in (np.int64(7), np.uint32(7), np.int8(7)):
        assert np.array_equal(make_rng(seed).random(4), make_rng(7).random(4))
        assert derive_seed(seed, "x", 0) == derive_seed(7, "x", 0)


def test_different_seeds_differ():
    assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))


def test_pinned_generator_stream():
    # PCG64 streams are part of the reproducibility contract; this value
    # must never change across platforms or library upgrades.
    assert make_rng(123).random() == 0.6823518632481435


def test_normals_match_hand_rolled_box_muller():
    # Re-derive the transform directly from the uniform stream.
    n = 7
    u = make_rng(9).random(2 * ((n + 1) // 2))
    pairs = (n + 1) // 2
    u1, u2 = 1.0 - u[:pairs], u[pairs:]
    radius = np.sqrt(-2.0 * np.log(u1))
    expect = np.concatenate([radius * np.cos(2 * math.pi * u2),
                             radius * np.sin(2 * math.pi * u2)])[:n]
    got = standard_normal(make_rng(9), n)
    assert np.array_equal(got, expect)


def test_normals_frozen_values():
    got = standard_normal(make_rng(123), 4)
    expect = [0.28041903311180943, 0.13330980752040977,
              1.4882832928901657, 0.30475490989275716]
    assert np.array_equal(got, np.array(expect))


def test_normal_moments():
    z = standard_normal(make_rng(7), 200_000)
    assert abs(float(z.mean())) < 0.02
    assert abs(float(z.var()) - 1.0) < 0.03
    # Box-Muller never produces exact zeros and is finite by construction
    assert np.isfinite(z).all()


def test_odd_and_even_lengths():
    assert standard_normal(make_rng(0), 5).shape == (5,)
    assert standard_normal(make_rng(0), 6).shape == (6,)
    # the odd draw is a prefix of the even draw from the same seed
    a = standard_normal(make_rng(3), 5)
    b = standard_normal(make_rng(3), 6)
    assert np.array_equal(a, b[:5])


@pytest.mark.parametrize("size", [1, 2, 3, 64, 101, (4, 5), (3, 7), (2, 3, 5)])
def test_normals_equal_the_textbook_transform(size):
    # The in-place transform against the expression it replaces, on odd
    # and even counts and several shapes.
    n = int(np.prod(size))
    pairs = (n + 1) // 2
    u = make_rng(21).random(2 * pairs)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))
    want = np.concatenate([radius * np.cos(2.0 * np.pi * u[pairs:]),
                           radius * np.sin(2.0 * np.pi * u[pairs:])])[:n]
    rng = make_rng(21)
    got = standard_normal(rng, size)
    assert got.shape == np.empty(size).shape
    assert got.tobytes() == want.tobytes()
    u_next = make_rng(21)
    u_next.random(2 * pairs)
    assert rng.random() == u_next.random()


def test_normals_peak_memory():
    # Box-Muller runs in the output buffer: the uniforms u2 are the one
    # other array (half the output), not five output-sized temporaries.
    rng = make_rng(4)
    tracemalloc.start()
    try:
        z = standard_normal(rng, (2000, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * z.nbytes


def test_derive_seed_frozen_values():
    assert derive_seed(0, "a", 1) == 1909306819938857644
    assert derive_seed(7, "gen:4x3", "uniform", "0.0", 2) == 1887610541288538753


def test_derive_seed_properties():
    s = derive_seed(3, "x", 0)
    assert 0 <= s < 2**63
    assert derive_seed(3, "x", 0) == s
    assert derive_seed(3, "x", 1) != s
    assert derive_seed(4, "x", 0) != s


# -- uniform subsets ----------------------------------------------------------

# One (q, tau) per scheme: tau = 1, rejection (q >= 5 tau), random keys.
BANDS = [(500, 1), (30, 4), (12, 5)]


def replayed_subsets(q, tau, seed, draws):
    """The documented schemes, re-derived one uniform at a time."""
    u = iter(make_rng(seed).random(10_000).tolist())
    out = []
    while len(out) < draws:
        if tau == 1:
            out.append([int(next(u) * q)])
        elif uses_rejection(q, tau):
            attempt = [int(next(u) * q) for _ in range(2 * tau)]
            distinct = list(dict.fromkeys(attempt))
            if len(distinct) >= tau:
                out.append(sorted(distinct[:tau]))
        else:
            keys = [next(u) for _ in range(q)]
            out.append(sorted(sorted(range(q), key=keys.__getitem__)[:tau]))
    return out


def test_bands():
    assert [subset_uniforms(q, tau) for q, tau in BANDS] == [1, 8, 12]
    assert uses_rejection(500, 100) and not uses_rejection(500, 101)
    assert not uses_rejection(500, 1)


@pytest.mark.parametrize("q,tau", BANDS + [(500, 20), (500, 100), (20000, 100)])
def test_subsets_follow_the_documented_scheme(q, tau):
    got = uniform_subsets(make_rng(5), q, tau, 6)
    assert got.dtype == np.intp
    assert got.tolist() == replayed_subsets(q, tau, 5, 6)


def test_subsets_frozen_values():
    # Seeded draws are part of the reproducibility contract, one per scheme.
    assert uniform_subsets(make_rng(7), 500, 1, 3).tolist() == [[312], [448], [387]]
    assert uniform_subsets(make_rng(7), 30, 4, 1).tolist() == [[6, 18, 23, 26]]
    assert uniform_subsets(make_rng(7), 12, 5, 1).tolist() == [[3, 4, 6, 10, 11]]
    assert uniform_subsets(make_rng(7), 500, 20, 1).tolist() == [[
        2, 112, 127, 139, 150, 151, 222, 233, 252, 276, 311, 312, 387, 396,
        398, 410, 436, 448, 494, 497]]


@pytest.mark.parametrize("q,tau", BANDS + [(6, 2)])
@pytest.mark.parametrize("block", [1, 2, 7, 50])
def test_a_block_equals_single_draws(q, tau, block):
    one, blocked = make_rng(11), make_rng(11)
    singles = np.concatenate([uniform_subsets(one, q, tau, 1)
                              for _ in range(block)])
    assert np.array_equal(uniform_subsets(blocked, q, tau, block), singles)
    # and both leave the generator at the same place
    assert one.random() == blocked.random()


@pytest.mark.parametrize("q,tau", [(10, 2), (6, 3)])
def test_exact_subset_frequencies(q, tau):
    # (10, 2) is drawn by rejection, (6, 3) by random keys.
    subsets = list(itertools.combinations(range(q), tau))
    draws = 600 * len(subsets)
    got = uniform_subsets(make_rng(29), q, tau, draws)
    assert np.all(np.diff(got, axis=1) > 0)
    code = (got * q ** np.arange(tau)).sum(axis=1)
    want = [sum(i * q ** j for j, i in enumerate(c)) for c in subsets]
    counts = [int(np.count_nonzero(code == w)) for w in want]
    assert sum(counts) == draws  # every draw is one of the C(q, tau) subsets
    assert stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("tau", [20, 100])
def test_inclusion_frequency_is_tau_over_q(tau):
    q, draws = 500, 20_000
    got = uniform_subsets(make_rng(31), q, tau, draws)
    counts = np.bincount(got.ravel(), minlength=q)
    p = tau / q
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.max(np.abs(counts - draws * p)) < 5 * sigma
    assert stats.chisquare(counts).pvalue > 1e-3


class LargestUniform:
    """Generator stand-in whose every uniform is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


@pytest.mark.parametrize("k", [1, 2, 10, 31, 32, 52])
def test_floor_index_stays_below_n(k):
    u = np.nextafter(1.0, 0.0)
    for n in (2**k - 1, 2**k, 2**k + 1):
        assert int(u * n) < n
        assert uniform_subsets(LargestUniform(), n, 1, 3).max() < n
