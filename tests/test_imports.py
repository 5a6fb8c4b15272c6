"""What a package import leaves loaded: scipy.linalg comes with the first
Cholesky, multiprocessing with the first parallel plan, and no OpenSSL
module at all.

conftest imports scipy.linalg into the test process, so every check here
runs its code in a fresh interpreter and reads that interpreter's
sys.modules.
"""

import textwrap

import numpy as np

from conftest import run_fresh


def loads_scipy_linalg(code: str) -> bool:
    """Whether running code in a fresh interpreter imports scipy.linalg;
    the code's own assertions must hold."""
    script = textwrap.dedent(code) + (
        "\nimport sys\nprint('scipy.linalg' in sys.modules)\n")
    return run_fresh(script).split()[-1] == "True"


def test_package_import_does_not_load_scipy_linalg():
    assert not loads_scipy_linalg("import sketchdescent")


def test_package_import_loads_no_process_pool_or_openssl():
    # bench imports its process pool for a parallel plan only, and rng
    # takes blake2b from _blake2, not through hashlib's _hashlib.
    run_fresh("""
        import sys
        import sketchdescent
        loaded = {"multiprocessing", "_hashlib"} & set(sys.modules)
        assert not loaded, loaded
    """)


def test_identity_geometry_row_solve_does_not_load_it():
    assert not loads_scipy_linalg("""
        import sketchdescent as skd
        system = skd.generate(skd.GenSpec("gaussian", 120, 20, seed=1))
        family = skd.SketchFamily("row", system)
        assert system.B_factor.is_identity and system.g_equals_b
        trace = skd.run_ssdm(system, family, skd.parse_rule("maxdist"),
                             skd.SolverConfig(tol=1e-8, seed=0, gamma=0.3))
        assert trace.converged
    """)


def test_spectral_theory_grid_does_not_load_it(tmp_path):
    A = np.random.default_rng(7).standard_normal((60, 30))
    A = A.T @ A
    path = tmp_path / "spd.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        # Symmetric array layout, as the sketchbench_grid workload writes.
        fh.write("%%MatrixMarket matrix array real symmetric\n30 30\n")
        fh.write("\n".join(f"{v:.17g}" for j in range(30)
                           for v in A[j:, j]) + "\n")
    out = tmp_path / "grid.csv"
    assert not loads_scipy_linalg(f"""
        from sketchdescent import cli
        argv = ["--matrix", {str(path)!r}, "--method", "ssd",
                "--family", "spectral", "--rule", "greedy:5",
                "--rule", "maxdist", "--reps", "2", "--theory",
                "--workers", "1", "--out", {str(out)!r}]
        assert cli.main(argv) == 0
    """)
    assert out.is_file()


def test_cholesky_weight_loads_it_and_solves_as_scipy_does():
    assert loads_scipy_linalg("""
        import sys
        import numpy as np
        import sketchdescent as skd
        spd = skd.generate(
            skd.GenSpec("gaussian-normal-equations", 40, 12, seed=2))
        assert "scipy.linalg" not in sys.modules
        system = skd.LinearSystem(A=spd.A, b=spd.b, B=spd.A)
        assert "scipy.linalg" in sys.modules
        import scipy.linalg
        v = np.arange(12.0)
        expected = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(spd.A, lower=True, check_finite=False),
            v, check_finite=False)
        assert system.B_factor.solve(v).tobytes() == expected.tobytes()
    """)
