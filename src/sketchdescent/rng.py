"""Deterministic random number plumbing.

All randomness in the package flows through a numpy PCG64 Generator, and
only through Generator.random. NumPy's policy (NEP 19) promises no stream
for Generator methods such as standard_normal, integers or choice, whose
algorithms may change between releases. random() is the thinnest of them:
each double is one 64-bit output x of the bit generator, (x >> 11) * 2**-53,
and tests pin seeded values. Everything else is built here from uniforms u
in [0, 1).

Normal variates come from an explicit Box-Muller transform, so the values
drawn for a given seed do not depend on numpy's ziggurat tables.

Uniform index draws. A uniform integer in [0, n) is floor(u * n); for
n < 2**53 the product of the largest double below 1 with n rounds below n,
so the index is always in range. A uniform tau-subset of range(q), returned
ascending, is drawn by one of three schemes chosen from (q, tau) alone:

- tau = 1: floor(u * q). One uniform per draw.
- small tau / q (uses_rejection): rejection. An attempt takes 2 * tau
  uniforms as indices floor(u * q) and keeps the first tau distinct values
  in draw order; an attempt with fewer than tau distinct values is dropped
  whole and the next 2 * tau uniforms make the next attempt. The first tau
  distinct values of i.i.d. uniform indices are a uniform tau-subset, and
  whether an attempt succeeds does not depend on which values it saw, so
  the accepted subsets stay uniform. One sort per attempt dedupes it: the
  keys value * 2**s + position (2**s >= 2 * tau) are all distinct, so a
  plain sort orders equal values by position.
- large tau / q: random keys. The tau indices whose keys are smallest
  among q uniform keys. q uniforms per draw.

Whatever the scheme, a draw consumes a fixed number of uniforms (per
attempt, for rejection) and nothing else, and numpy's random(a + b) equals
random(a) followed by random(b). Drawing B subsets in one call therefore
returns exactly the subsets that B calls of one draw each would, and leaves
the generator where they would: the draws do not depend on how they are
blocked. The same holds only while nothing else draws from the generator
between blocks, so a solver run gives its generator one consumer.

Cost per draw in microseconds, read from a DrawStream (sampling module),
against Generator.choice(q, tau, replace=False) plus a sort; one BLAS
thread on a shared 2-vCPU Xeon host, best of two rounds of 5 x 3000 draws
("here": of four, since np.compress). "other" forces the scheme not chosen:

=====  ===  =============  ====  =====  =========
q      tau  choice + sort  here  other  scheme
=====  ===  =============  ====  =====  =========
500    1    11.6           0.5          tau = 1
500    5    7.8            1.2   4.6    rejection
500    20   11.7           1.1   6.3    rejection
500    100  16.1           4.1   6.6    rejection
500    125  14.3           5.8   7.3    keys
500    400  25.1           6.7   50.8   keys
2000   1    7.2            0.3          tau = 1
2000   5    7.9            0.7   18.4   rejection
2000   20   12.5           1.1   19.5   rejection
2000   100  15.6           3.2   19.6   rejection
2000   500  30.2           17.4  29.1   keys
20000  1    7.5            0.3          tau = 1
20000  5    7.8            0.7   134    rejection
20000  20   9.9            1.1   144    rejection
20000  100  15.0           3.1   131    rejection
=====  ===  =============  ====  =====  =========

Seeds for sub-streams (one per benchmark repetition) are derived with a
keyed blake2b hash; Python's builtin hash() is salted per process and is
never used.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidConfigError
from .linalg import check_integer, is_integer


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for a nonnegative integer seed; a float or a
    bool is refused, not truncated."""
    check_integer(seed, "seed", 0)
    return np.random.Generator(np.random.PCG64(int(seed)))


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws via Box-Muller on rng's uniform stream.

    Consumes 2*ceil(n/2) uniforms for n outputs. 1 - U keeps the log
    argument in (0, 1]. Runs in the output buffer and one angle array with
    the textbook form's ufuncs and operands, so the draws are unchanged.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    z = np.empty(n)
    r, tail = z[:pairs], z[pairs:]
    rng.random(out=r)
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    np.multiply(r, -2.0, out=r)
    np.sqrt(r, out=r)
    angle = rng.random(pairs)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    np.sin(angle[:n - pairs], out=tail)
    np.multiply(tail, r[:n - pairs], out=tail)
    np.multiply(r, np.cos(angle, out=angle), out=r)
    return z.reshape(shape) if shape else z[0]


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit sub-stream seed from a base seed and a coordinate tuple.

    XORs the base seed with a blake2b digest of the repr of ``parts``.
    Deterministic across processes and platforms. A base seed that is not
    an integer is refused, not truncated.
    """
    if not is_integer(base_seed):
        raise InvalidConfigError(f"seed must be an integer, got {base_seed!r}")
    tag = repr(parts).encode("utf-8")
    digest = hashlib.blake2b(tag, digest_size=8).digest()
    mixed = int(base_seed) ^ int.from_bytes(digest, "big")
    return mixed & 0x7FFFFFFFFFFFFFFF


# Rejection beats random keys while q >= REJECTION_RATIO * tau: an attempt
# costs O(tau log tau) and a keys draw O(q).
REJECTION_RATIO = 5


def uses_rejection(q: int, tau: int) -> bool:
    """True when a tau-subset of range(q) is drawn by rejection."""
    return 1 < tau and q >= REJECTION_RATIO * tau


def subset_uniforms(q: int, tau: int) -> int:
    """Uniforms one subset draw consumes (one attempt, for rejection)."""
    if tau == 1:
        return 1
    return 2 * tau if uses_rejection(q, tau) else q


def uniform_subsets(rng: np.random.Generator, q: int, tau: int,
                    draws: int) -> np.ndarray:
    """draws uniform tau-subsets of range(q), one ascending row each.

    The schemes and their stream consumption are in the module docstring;
    the caller checks 1 <= tau <= q.
    """
    if tau == 1:
        return (rng.random((draws, 1)) * q).astype(np.intp)
    if not uses_rejection(q, tau):
        keys = rng.random((draws, q))
        out = np.argpartition(keys, tau - 1, axis=1)[:, :tau]
        out.sort(axis=1)
        return out
    k = 2 * tau
    shift = (k - 1).bit_length()
    # Narrow keys sort faster; the values they give are the same.
    kind = np.int32 if q << shift <= np.iinfo(np.int32).max else np.intp
    position = np.arange(k, dtype=kind)
    parts = []
    need = draws
    # Each round draws exactly the attempts still needed, so the generator
    # stops right after the last accepted attempt.
    while need:
        keys = ((rng.random((need, k)) * q).astype(kind) << shift) | position
        keys.sort(axis=1)
        values = keys >> shift
        pos = keys & ((1 << shift) - 1)
        first = np.empty(keys.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
        # The draw position of the tau-th distinct value, k if none.
        cut = np.partition(np.where(first, pos, k), tau - 1, axis=1)[:, tau - 1:tau]
        keep = first & (pos <= cut) & (cut < k)
        parts.append(np.compress(keep.ravel(), values.ravel()).reshape(-1, tau))
        need -= parts[-1].shape[0]
    return np.concatenate(parts, dtype=np.intp)
