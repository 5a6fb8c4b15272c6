import numpy as np
import pytest
import scipy.linalg

import sketchdescent as skd


def gaussian_system(m, n, seed=0, spd=False, metric="identity"):
    """Synthetic consistent system with the requested geometry attached.

    metric: "identity" (B = G = I), "system" (B = G = A, needs spd=True),
    "normal" (B = G = A'A), or "steepest" (B = A, G = I, needs spd=True).
    """
    kind = "gaussian-normal-equations" if spd else "gaussian"
    base = skd.generate(skd.GenSpec(kind, m, n, seed=seed))
    if metric == "identity":
        return base
    if metric == "system":
        BG = base.A
    elif metric == "normal":
        AtA = base.A.T @ base.A
        BG = 0.5 * (AtA + AtA.T)
    elif metric == "steepest":
        return skd.LinearSystem(A=base.A, b=base.b, B=base.A, G=None,
                                x_star=base.x_star, label=base.label)
    else:
        raise ValueError(metric)
    return skd.LinearSystem(A=base.A, b=base.b, B=BG, G=BG,
                            x_star=base.x_star, label=base.label)


def family_on(kind, m, n, seed=0, block_size=None):
    """(system, family) pair with the natural geometry for the kind."""
    if kind == "row":
        system = gaussian_system(m, n, seed=seed)
    elif kind == "lsqcol":
        system = gaussian_system(m, n, seed=seed, metric="normal")
    elif kind == "block":
        system = gaussian_system(m, n, seed=seed)
    elif kind == "spectral":
        system = gaussian_system(m, n, seed=seed, spd=True, metric="system")
    elif kind == "full":
        system = gaussian_system(m, n, seed=seed, spd=True, metric="system")
    else:
        raise ValueError(kind)
    return system, skd.SketchFamily(kind, system, block_size=block_size)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def kernel_counts(monkeypatch):
    """Live counts of Cholesky factorizations, solves with a Cholesky
    factor and symmetric eigensolves."""
    counts = {"cho_factor": 0, "cho_solve": 0, "eigh": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(scipy.linalg, "cho_factor")
    counting(scipy.linalg, "cho_solve")
    counting(np.linalg, "eigh")
    return counts
