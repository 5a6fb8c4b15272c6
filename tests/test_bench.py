import csv
import gc
import tracemalloc

import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent import bench
from sketchdescent.bench import parse_family
from sketchdescent.errors import InvalidConfigError, NotSpdError
from sketchdescent.rng import derive_seed

from conftest import consistent


def gen_dataset(m, n, spd=False, seed=0):
    kind = "gaussian-normal-equations" if spd else "gaussian"
    return skd.DatasetSpec(kind="gen", gen=skd.GenSpec(kind, m, n, seed=seed))


def small_plan(**overrides):
    base = dict(
        datasets=[gen_dataset(20, 8, seed=3)],
        method="ssd",
        family="row",
        rules=[skd.parse_rule("uniform")],
        gammas=[0.0],
        omega=1.0,
        tol=1e-8,
        max_iters=2000,
        reps=2,
        seed=5,
        x0="ones1000",
        check_every=50,
    )
    base.update(overrides)
    return skd.ExperimentPlan(**base)


def strip_walltime(path):
    """CSV lines with every :walltime column removed."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    header = rows[0]
    keep = [j for j, name in enumerate(header) if ":walltime" not in name]
    return ["\x1f".join(row[j] for j in keep) for row in rows]


class TestGrids:
    def test_parse_family(self):
        assert parse_family("row") == ("row", None)
        assert parse_family("block:4") == ("block", 4)
        for bad in ("block:x", "rows", "col", "block:0", "block:-3"):
            with pytest.raises(InvalidConfigError):
                parse_family(bad)


class TestDatasetSpec:
    def test_labels(self):
        assert gen_dataset(20, 8).label == "gen:20x8"
        assert gen_dataset(9, 4, spd=True).label == "gen:9x4:spd"
        mtx = skd.DatasetSpec(kind="mtx", path="/tmp/somewhere/foo.mtx")
        assert mtx.label == "mtx:foo.mtx"

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            skd.DatasetSpec(kind="gen")
        with pytest.raises(InvalidConfigError):
            skd.DatasetSpec(kind="mtx")
        with pytest.raises(InvalidConfigError):
            skd.DatasetSpec(kind="http")

    @pytest.mark.parametrize("m_limit", [0, -1])
    def test_row_limit_below_one_refused(self, m_limit):
        for kind in ("mtx", "libsvm"):
            with pytest.raises(InvalidConfigError):
                skd.DatasetSpec(kind=kind, path="data.txt", m_limit=m_limit)

    @pytest.mark.parametrize("m_limit", [2.5, 2.0, True])
    def test_non_integer_row_limit_refused(self, m_limit):
        for kind in ("mtx", "libsvm"):
            with pytest.raises(InvalidConfigError, match="m_limit must be"):
                skd.DatasetSpec(kind=kind, path="data.txt", m_limit=m_limit)

    def test_numpy_integer_row_limit_accepted(self):
        spec = skd.DatasetSpec(kind="mtx", path="data.txt",
                               m_limit=np.int64(3))
        assert spec.m_limit == 3

    def test_row_limit_refused_for_generated(self):
        # build_system never reads m_limit for a recipe, so it must not
        # be accepted and silently ignored
        with pytest.raises(InvalidConfigError):
            skd.DatasetSpec(kind="gen", gen=skd.GenSpec("gaussian", 12, 5),
                            m_limit=3)


class TestBuildSystem:
    def test_auto_metric_row_general_is_identity(self):
        system = skd.build_system(gen_dataset(12, 5), "row")
        assert system.B_factor.is_identity
        assert system.G_factor.is_identity

    def test_auto_metric_row_spd_is_system(self):
        ds = gen_dataset(12, 5, spd=True)
        system = skd.build_system(ds, "row")
        assert not system.B_factor.is_identity
        assert np.array_equal(system.B, system.A)
        assert system.g_equals_b

    def test_auto_metric_lsqcol_is_normal(self):
        system = skd.build_system(gen_dataset(12, 5), "lsqcol")
        assert np.allclose(system.B, system.A.T @ system.A, atol=1e-12)

    @pytest.mark.parametrize("m, n", [(8, 4), (60, 60), (300, 120), (37, 21)])
    def test_normal_metric_has_the_half_sums_bytes(self, m, n):
        # A.T @ A is bitwise symmetric, so B = G = A'A is passed as it is
        # and keeps the bytes of the half-sum 0.5 * (A'A + (A'A)').
        for seed in range(3):
            system = skd.build_system(gen_dataset(m, n, seed=seed), "lsqcol")
            AtA = system.A.T @ system.A
            assert system.B.tobytes() == (0.5 * (AtA + AtA.T)).tobytes()
            assert system.G is system.B

    def test_spectral_on_general_matrix_rejected(self):
        with pytest.raises(InvalidConfigError):
            skd.build_system(gen_dataset(12, 5), "spectral")

    def test_explicit_identity_overrides(self):
        system = skd.build_system(gen_dataset(12, 5, spd=True), "row",
                                  metric="identity")
        assert system.B_factor.is_identity

    def test_unknown_metric(self):
        with pytest.raises(InvalidConfigError):
            skd.build_system(gen_dataset(12, 5), "row", metric="fancy")

    def test_mtx_dataset_with_row_limit(self, tmp_path):
        path = tmp_path / "tiny.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "4 2 8\n"
            "1 1 1.0\n1 2 2.0\n2 1 3.0\n2 2 4.0\n"
            "3 1 5.0\n3 2 6.0\n4 1 7.0\n4 2 8.0\n"
        )
        ds = skd.DatasetSpec(kind="mtx", path=str(path), m_limit=3)
        system = skd.build_system(ds, "row")
        assert system.A.shape == (3, 2)
        assert system.residual_norm(system.x_star) == pytest.approx(0.0,
                                                                    abs=1e-12)

    def test_libsvm_dataset(self, tmp_path):
        path = tmp_path / "tiny.svm"
        path.write_text("1 1:2.0 3:1.0\n-1 2:5.0\n1 1:1.0 2:1.0\n")
        ds = skd.DatasetSpec(kind="libsvm", path=str(path), m_limit=2)
        system = skd.build_system(ds, "row")
        assert system.A.shape == (2, 3)


class TestPlanValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(InvalidConfigError):
            small_plan(method="newton").validate()
        with pytest.raises(InvalidConfigError):
            small_plan(datasets=[]).validate()
        with pytest.raises(InvalidConfigError):
            small_plan(rules=[]).validate()
        with pytest.raises(InvalidConfigError):
            small_plan(gammas=[]).validate()
        with pytest.raises(InvalidConfigError):
            small_plan(reps=0).validate()
        with pytest.raises(InvalidConfigError):
            small_plan(workers=0).validate()
        with pytest.raises(InvalidConfigError):
            small_plan(family="diag").validate()

    @pytest.mark.parametrize("field, value", [
        ("reps", 2.5), ("reps", 2.0), ("reps", True),
        ("workers", 2.5), ("workers", True), ("seed", 2.5), ("seed", True),
    ])
    def test_non_integer_counts_and_seed_refused(self, monkeypatch, field,
                                                 value):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")
        monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
        plan = small_plan(**{field: value})
        with pytest.raises(InvalidConfigError, match=f"{field} must be"):
            plan.validate()
        with pytest.raises(InvalidConfigError, match=f"{field} must be"):
            skd.run_experiment(plan)

    def test_numpy_integer_counts_and_seed_accepted(self):
        small_plan(reps=np.int64(2), workers=np.int32(1),
                   seed=np.int64(5)).validate()

    def test_ssd_refuses_momentum(self):
        with pytest.raises(InvalidConfigError, match="ssdm"):
            small_plan(gammas=[0.0, 0.4]).validate()
        small_plan(method="ssdm", gammas=[0.0, 0.4]).validate()

    def test_cells_cross_product_and_order(self):
        plan = small_plan(
            method="ssdm",
            datasets=[gen_dataset(20, 8, seed=3), gen_dataset(10, 4, seed=4)],
            rules=[skd.parse_rule("uniform"), skd.parse_rule("greedy:3")],
            gammas=[0.0, 0.4],
        )
        cells = plan.cells()
        assert len(cells) == 8
        assert cells[0][0].label == "gen:20x8"
        assert [g for _, _, g in cells[:4]] == [0.0, 0.4, 0.0, 0.4]

    def test_classical_methods_collapse_cells(self):
        plan = small_plan(method="cg",
                          datasets=[gen_dataset(8, 8, spd=True)],
                          rules=[skd.parse_rule("uniform"),
                                 skd.parse_rule("greedy:3")])
        assert len(plan.cells()) == 1


class TestRunExperiment:
    def test_single_cell_matches_direct_solver_run(self):
        plan = small_plan(reps=1)
        result = skd.run_experiment(plan)
        assert len(result.rows) == 1
        row = result.rows[0]

        ds = plan.datasets[0]
        system = skd.build_system(ds, "row")
        fam = skd.SketchFamily("row", system)
        seed = derive_seed(plan.seed, ds.label, "uniform", repr(0.0), 0)
        assert row.rep_seeds == [seed]
        cfg = skd.SolverConfig(omega=1.0, tol=plan.tol,
                               max_iters=plan.max_iters, seed=seed,
                               x0=plan.x0, check_every=plan.check_every)
        trace = skd.run_ssd(system, fam, skd.parse_rule("uniform"), cfg)
        assert np.array_equal(row.series_k, trace.ks)
        assert np.array_equal(row.series_residual, trace.residuals)
        assert np.array_equal(row.series_relerr, trace.rel_errors)
        assert row.mean_iters == trace.iterations
        assert row.mean_final_residual == trace.residuals[-1]
        assert row.success == 1 and row.diverged == 0

    def test_momentum_zero_row_equals_plain_method(self):
        ssdm = skd.run_experiment(small_plan(method="ssdm",
                                             gammas=[0.0, 0.2]))
        ssd = skd.run_experiment(small_plan())
        zero_row = [r for r in ssdm.rows if r.gamma == 0.0][0]
        plain = ssd.rows[0]
        assert np.array_equal(zero_row.series_residual, plain.series_residual)
        assert np.array_equal(zero_row.series_relerr, plain.series_relerr)
        assert zero_row.mean_iters == plain.mean_iters
        assert zero_row.rep_seeds == plain.rep_seeds

    def test_sd_and_cg_rows_use_placeholder_family(self):
        plan = small_plan(method="sd", datasets=[gen_dataset(40, 10,
                                                             spd=True)],
                          tol=1e-6)
        result = skd.run_experiment(plan)
        assert result.rows[0].family == "-"
        assert result.rows[0].rule == "-"
        assert result.rows[0].success == plan.reps

    def test_workers_do_not_change_results(self):
        kwargs = dict(method="ssdm",
                      datasets=[gen_dataset(16, 6, seed=9)],
                      rules=[skd.parse_rule("uniform"),
                             skd.parse_rule("greedy:4")],
                      gammas=[0.0, 0.1], reps=2, max_iters=500)
        serial = skd.run_experiment(small_plan(**kwargs))
        parallel = skd.run_experiment(small_plan(**kwargs, workers=2))
        assert len(serial.rows) == len(parallel.rows) == 4
        for a, b in zip(serial.rows, parallel.rows):
            assert a.rule == b.rule and a.gamma == b.gamma
            assert a.rep_seeds == b.rep_seeds
            assert np.array_equal(a.series_residual, b.series_residual)
            assert np.array_equal(a.series_relerr, b.series_relerr)
            assert a.mean_final_residual == b.mean_final_residual

    def test_divergent_cell_counted_and_flagged(self):
        plan = small_plan(method="ssdm", gammas=[1.5], reps=2,
                          max_iters=3000, check_every=None)
        result = skd.run_experiment(plan)
        row = result.rows[0]
        assert row.diverged == 2
        assert row.success == 0
        assert np.isnan(row.mean_iters)
        assert result.any_diverged

    def test_theory_reports_attached_or_skipped(self):
        plan = small_plan(theory=True)
        result = skd.run_experiment(plan)
        key = "gen:20x8|uniform"
        assert key in result.reports
        assert "kind=row" in result.reports[key]

        big = small_plan(datasets=[skd.DatasetSpec(
            kind="gen", gen=skd.GenSpec("gaussian", 5, 501))],
            max_iters=5, theory=True, tol=0.0)
        out = skd.run_experiment(big)
        assert out.reports["gen:5x501|uniform"].startswith("skipped:")


class TestBuildOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of bench.build_system calls and SketchFamily builds."""
        counts = {"system": 0, "family": 0}
        build_system = bench.build_system
        family_init = skd.SketchFamily.__init__

        def counting_build(*args, **kwargs):
            counts["system"] += 1
            return build_system(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            counts["family"] += 1
            family_init(self, *args, **kwargs)

        monkeypatch.setattr(bench, "build_system", counting_build)
        monkeypatch.setattr(skd.SketchFamily, "__init__", counting_init)
        return counts

    def test_grid_and_theory_share_one_build_per_dataset(self, builds):
        plan = small_plan(method="ssdm",
                          datasets=[gen_dataset(20, 8, seed=3),
                                    gen_dataset(10, 4, seed=4)],
                          rules=[skd.parse_rule("uniform"),
                                 skd.parse_rule("greedy:3")],
                          gammas=[0.0, 0.2], reps=2, theory=True)
        result = skd.run_experiment(plan)
        assert len(result.rows) == 8
        assert len(result.reports) == 4
        assert [r.dataset for r in result.rows] == \
            ["gen:20x8"] * 4 + ["gen:10x4"] * 4
        assert builds == {"system": 2, "family": 2}

    @pytest.mark.parametrize("overrides", [
        {"family": "block:0"}, {"family": "block:-3"}, {"seed": -1}])
    def test_refused_plan_builds_nothing(self, builds, overrides):
        plan = small_plan(**overrides)
        with pytest.raises(InvalidConfigError):
            plan.validate()
        with pytest.raises(InvalidConfigError):
            skd.run_experiment(plan)
        assert builds == {"system": 0, "family": 0}

    def test_classical_method_builds_no_family(self, builds):
        plan = small_plan(method="cg", datasets=[gen_dataset(8, 8, spd=True)],
                          tol=1e-6, theory=True)
        result = skd.run_experiment(plan)
        assert result.rows[0].success == plan.reps
        assert builds == {"system": 1, "family": 0}


class TestKernelCounts:
    """Each SPD matrix is factored once and each operator decomposed once."""

    def test_spectral_theory_plan(self, kernel_counts):
        plan = small_plan(datasets=[gen_dataset(16, 8, spd=True)],
                          family="spectral", reps=3, theory=True,
                          rules=[skd.parse_rule(r) for r in
                                 ("uniform", "greedy:3", "maxdist")])
        result = skd.run_experiment(plan)
        assert len(result.reports) == 3
        # B = G = A share one factor, checked by the eigendecomposition the
        # family reads; the diagonal family's report is closed form, so no
        # operator is decomposed for any of the three rules. The family's
        # D = U and d = lambda take no solve, and its runs step in
        # eigen-coordinates, so no Cholesky factor is ever made.
        assert kernel_counts == {"cho_factor": 0, "cho_solve": 0, "eigh": 1}

    @pytest.mark.parametrize("method", ["cg", "sd"])
    def test_classical_methods_factor_once(self, kernel_counts, method):
        plan = small_plan(method=method, datasets=[gen_dataset(40, 8, spd=True)],
                          reps=3, tol=1e-6)
        result = skd.run_experiment(plan)
        assert result.rows[0].success == 3
        assert kernel_counts["cho_factor"] == 1

    def test_spd_row_system_shares_one_factor(self, kernel_counts):
        system = skd.build_system(gen_dataset(12, 5, spd=True), "row")
        assert system.G_factor is system.B_factor
        assert system.A_factor is system.B_factor
        assert kernel_counts["cho_factor"] == 1


def trace_bytes(trace) -> list:
    return [np.asarray(a).tobytes() for a in (
        trace.ks, trace.residuals, trace.f_values, trace.selected,
        trace.err_g_sq, trace.x_final)] + [trace.iterations]


class TestEigCheckedSpectral:
    """build_system checks a spectral system's B = G = A by the
    eigendecomposition its family reads; a Cholesky factor is made only
    by a solve, once."""

    dataset = gen_dataset(90, 30, spd=True, seed=4)

    @pytest.fixture
    def pair(self, kernel_counts):
        """(eig-checked system, a LinearSystem built directly with B = G = A)
        with the kernel counts cleared in between."""
        built = skd.build_system(self.dataset, "spectral")
        reference = skd.LinearSystem(A=built.A, b=built.b, B=built.A,
                                     G=built.A, x_star=built.x_star)
        for key in kernel_counts:
            kernel_counts[key] = 0
        return built, reference

    def test_system_shares_one_eig_checked_factor(self, kernel_counts):
        system = skd.build_system(self.dataset, "spectral")
        assert system.B is system.A and system.G is system.A
        assert system.G_factor is system.B_factor
        assert system.A_factor is system.B_factor
        family = skd.SketchFamily("spectral", system)
        assert family.diagonal
        assert kernel_counts == {"cho_factor": 0, "cho_solve": 0, "eigh": 1}

    @pytest.mark.parametrize("rule", ["greedy:20", "maxdist", "uniform"])
    def test_diagonal_runs_match_the_direct_system(self, pair, kernel_counts,
                                                   rule):
        built, reference = pair
        cfg = skd.SolverConfig(max_iters=400, check_every=7, seed=3)
        traces = [skd.run_ssd(system, skd.SketchFamily("spectral", system),
                              skd.parse_rule(rule), cfg)
                  for system in (built, reference)]
        assert trace_bytes(traces[0]) == trace_bytes(traces[1])
        assert kernel_counts["cho_factor"] == 0  # the reference was made

    def test_solves_make_one_cholesky_each_and_match(self, pair,
                                                     kernel_counts):
        built, reference = pair
        cfg = skd.SolverConfig(max_iters=300, tol=1e-8, seed=2)
        runs = [
            lambda s: skd.run_sd(s, cfg),
            lambda s: skd.run_ssd(s, skd.SketchFamily("full", s),
                                  skd.parse_rule("maxdist"), cfg),
            lambda s: skd.run_ssd(s, skd.SketchFamily("spectral", s),
                                  skd.parse_rule("greedy:5"),
                                  skd.SolverConfig(max_iters=300, seed=2,
                                                   x0="range")),
        ]
        for run in runs:
            system = skd.build_system(self.dataset, "spectral")
            for key in kernel_counts:
                kernel_counts[key] = 0
            trace = run(system)
            assert kernel_counts["cho_factor"] == 1
            assert trace_bytes(trace) == trace_bytes(run(reference))

    @pytest.mark.parametrize("dataset", [
        gen_dataset(12, 12, seed=1),  # square, indefinite
        gen_dataset(12, 5),  # rectangular
    ])
    def test_non_spd_refused_before_a_family(self, monkeypatch, dataset):
        def no_family(*args, **kwargs):
            raise AssertionError("a family was built")
        monkeypatch.setattr(skd.SketchFamily, "__init__", no_family)
        with pytest.raises(InvalidConfigError, match="needs an SPD matrix"):
            skd.build_system(dataset, "spectral")
        plan = small_plan(datasets=[dataset], family="spectral")
        with pytest.raises(InvalidConfigError, match="needs an SPD matrix"):
            skd.run_experiment(plan)

    def test_not_bitwise_symmetric_file_is_checked_by_cholesky(
            self, tmp_path, kernel_counts):
        # A factor of the half-sum is not A's own factor, so such a file
        # keeps the Cholesky check and the diagonal family.
        A = skd.generate(self.dataset.gen).A.copy()
        A[0, 1] = np.nextafter(A[0, 1], np.inf)
        path = tmp_path / "near.mtx"
        skd.save_matrix_market(A, path)
        system = skd.build_system(skd.DatasetSpec(kind="mtx", path=str(path)),
                                  "spectral")
        assert system.B is system.A and system.A_factor is system.B_factor
        family = skd.SketchFamily("spectral", system)
        assert family.diagonal
        # The bitwise test comes first: the half-sum is decomposed once.
        assert kernel_counts == {"cho_factor": 1, "cho_solve": 0, "eigh": 1}
        reference = skd.LinearSystem(A=system.A, b=system.b, B=system.A,
                                     G=system.A, x_star=system.x_star)
        ref_family = skd.SketchFamily("spectral", reference)
        cfg = skd.SolverConfig(max_iters=400, check_every=7, seed=3)
        for rule in ("greedy:20", "maxdist", "uniform"):
            rule = skd.parse_rule(rule)
            assert trace_bytes(skd.run_ssd(system, family, rule, cfg)) == \
                trace_bytes(skd.run_ssd(reference, ref_family, rule, cfg))

    def test_retains_two_square_arrays(self):
        # A and U; the parent also kept a Cholesky factor of B = A.
        n = 300
        dataset = gen_dataset(2 * n, n, spd=True, seed=5)
        tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            system = skd.build_system(dataset, "spectral")
            family = skd.SketchFamily("spectral", system)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert family.diagonal
        square = 8 * n * n
        assert 2 * square <= retained < 2 * square + 8 * 40 * n


class TestSpectralAFactor:
    """A spectral family that is the first reader of A's factor checks A
    by the eigendecomposition it reads; solvers and the full family keep
    the Cholesky check."""

    rules = ("greedy:5", "maxdist", "uniform")

    @staticmethod
    def system():
        # The trace gate's 600x120 SPD instance, identity geometry.
        return skd.generate(
            skd.GenSpec("gaussian-normal-equations", 600, 120, seed=3))

    def test_identity_geometry_makes_no_cholesky(self, kernel_counts):
        # The reference's A is checked by Cholesky first, so its family
        # reads a Cholesky-checked factor.
        reference = self.system()
        assert not reference.A_factor.is_identity
        ref_family = skd.SketchFamily("spectral", reference)
        for key in kernel_counts:
            kernel_counts[key] = 0
        system = self.system()
        family = skd.SketchFamily("spectral", system)
        assert system.B_factor.is_identity and not family.diagonal
        cfg = skd.SolverConfig(max_iters=2000, seed=0)
        traces = [skd.run_ssd(system, family, skd.parse_rule(rule), cfg)
                  for rule in self.rules]
        assert kernel_counts == {"cho_factor": 0, "cho_solve": 0, "eigh": 1}
        for rule, trace in zip(self.rules, traces):
            assert trace_bytes(trace) == trace_bytes(skd.run_ssd(
                reference, ref_family, skd.parse_rule(rule), cfg))

    def test_later_steepest_descent_makes_one_cholesky(self, kernel_counts):
        system = self.system()
        skd.SketchFamily("spectral", system)
        cfg = skd.SolverConfig(max_iters=300, tol=1e-8, seed=2)
        for key in kernel_counts:
            kernel_counts[key] = 0
        trace = skd.run_sd(system, cfg)
        assert kernel_counts["cho_factor"] == 1
        assert trace_bytes(trace) == trace_bytes(skd.run_sd(self.system(), cfg))
        assert kernel_counts["cho_factor"] == 2  # the fresh system's own

    def test_indefinite_square_matrix_refused(self):
        G = np.random.default_rng(1).standard_normal((12, 12))
        A = G + G.T
        system = skd.LinearSystem(A=A, b=A @ np.ones(12))
        with pytest.raises(NotSpdError, match="not SPD"):
            skd.SketchFamily("spectral", system)



class TestOneSystemPerDataset:
    """build_system validates one LinearSystem on every successful path."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        calls = []
        original = skd.LinearSystem.__post_init__

        def counting(self):
            calls.append(self.label)
            original(self)

        monkeypatch.setattr(skd.LinearSystem, "__post_init__", counting)
        return calls

    def spd_mtx(self, tmp_path):
        A = skd.generate(skd.GenSpec("gaussian-normal-equations", 12, 5,
                                     seed=2)).A
        path = tmp_path / "spd.mtx"
        skd.save_matrix_market(A, path)
        return skd.DatasetSpec(kind="mtx", path=str(path), data_seed=3), A

    @pytest.mark.parametrize("family, metric", [
        ("row", "auto"), ("spectral", "auto"), ("full", "system"),
        ("lsqcol", "auto"), ("row", "identity")])
    def test_one_construction(self, constructions, tmp_path, family, metric):
        for ds in (gen_dataset(12, 5, spd=True), self.spd_mtx(tmp_path)[0]):
            constructions.clear()
            skd.build_system(ds, family, metric)
            assert constructions == [ds.label]

    def test_same_system_as_separate_wrapping(self, tmp_path):
        ds, A = self.spd_mtx(tmp_path)
        system = skd.build_system(ds, "spectral")
        plain = consistent(A, seed=3, label=ds.label)
        assert np.array_equal(system.A, plain.A)
        assert np.array_equal(system.b, plain.b)
        assert np.array_equal(system.x_star, plain.x_star)
        assert system.B is system.A and system.g_equals_b
        spec = gen_dataset(12, 5, spd=True)
        generated = skd.generate(spec.gen)
        system = skd.build_system(spec, "row")
        assert np.array_equal(system.b, generated.b)
        assert np.array_equal(system.x_star, generated.x_star)
        assert system.label == generated.label

    def test_non_spd_fallback_and_error_text(self, constructions):
        ds = gen_dataset(12, 5)
        system = skd.build_system(ds, "row")
        assert system.B_factor.is_identity
        with pytest.raises(InvalidConfigError,
                           match="the spectral family needs an SPD matrix; "
                                 "gen:12x5 is not"):
            skd.build_system(ds, "spectral")

    def test_forced_system_metric_names_the_metric(self):
        with pytest.raises(InvalidConfigError,
                           match="metric 'system' needs an SPD matrix; "
                                 "gen:12x5 is not"):
            skd.build_system(gen_dataset(12, 5), "row", "system")


class TestPoolSize:
    def test_pool_never_exceeds_cell_count(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        two = skd.parse_rule("uniform"), skd.parse_rule("greedy:3")
        result = skd.run_experiment(small_plan(rules=list(two), workers=6))
        assert len(result.rows) == 2
        assert sizes == [2]
        skd.run_experiment(small_plan(workers=6))  # one cell: no pool
        assert sizes == [2]


class TestEmit:
    def test_csv_round_trip_and_schema(self, tmp_path):
        plan = small_plan(method="ssdm", gammas=[0.0, 0.3], reps=2)
        result = skd.run_experiment(plan)
        path = tmp_path / "out.csv"
        skd.emit_csv(result, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for parsed, row in zip(rows, result.rows):
            assert parsed["dataset"] == row.dataset
            assert float(parsed["gamma"]) == row.gamma
            assert float(parsed["mean_final_residual"]) == \
                row.mean_final_residual
            assert float(parsed["mean_final_relerr"]) == row.mean_final_relerr
            assert int(parsed["success"]) == row.success
        meta = (tmp_path / "out.csv.meta").read_text()
        assert "rep_seeds" in meta
        assert "nondeterministic_columns=mean_time_s:walltime" in meta

    def test_two_runs_identical_without_walltime(self, tmp_path):
        for tag in ("a", "b"):
            plan = small_plan(method="ssdm", gammas=[0.0, 0.3], reps=2)
            result = skd.run_experiment(plan)
            skd.emit_csv(result, tmp_path / f"{tag}.csv")
            skd.emit_plot_data(result, tmp_path / f"series_{tag}")
        assert strip_walltime(tmp_path / "a.csv") == \
            strip_walltime(tmp_path / "b.csv")
        series_a = sorted((tmp_path / "series_a").iterdir())
        series_b = sorted((tmp_path / "series_b").iterdir())
        assert [p.name for p in series_a] == [p.name for p in series_b]
        for pa, pb in zip(series_a, series_b):
            assert strip_walltime(pa) == strip_walltime(pb)

    def test_plot_data_one_file_per_cell(self, tmp_path):
        plan = small_plan(method="ssdm", gammas=[0.0, 0.3],
                          rules=[skd.parse_rule("uniform"),
                                 skd.parse_rule("greedy:4")])
        result = skd.run_experiment(plan)
        out = tmp_path / "series"
        skd.emit_plot_data(result, out)
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 4
        assert all(name.endswith(".csv") for name in files)
        # series names must be filesystem-safe even with rule punctuation
        assert not any(":" in name.replace(".csv", "") for name in files)
        body = (out / files[0]).read_text().splitlines()
        assert body[0] == "k,residual,relerr,time:walltime"
        first = body[1].split(",")
        assert first[0] == "0"
        float(first[1]), float(first[2]), float(first[3])
