import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sketchdescent as skd
from sketchdescent.problems import loaded_arrays


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


def consistent(A, seed=0, **geometry):
    """System A x* = b for a loaded matrix, built as bench.build_system
    builds one: loaded_arrays drops the zero rows and draws x*. B, G and
    label pass through to LinearSystem."""
    A, x_star = loaded_arrays(A, seed)
    return skd.LinearSystem(A=A, b=A @ x_star, x_star=x_star, **geometry)


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


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports the package from this
    checkout, with BLAS pinned to one thread as the benchmark pins it;
    the code's own assertions must hold. Returns its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
