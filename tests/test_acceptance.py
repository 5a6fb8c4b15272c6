"""Acceptance suite: the eleven end-to-end guarantees this package makes.

Each test exercises one guarantee at its stated tolerance and time budget
and prints one `ACCEPTANCE NN <name>: PASS` line (to the real stdout, so
the lines survive pytest's capture). A failure raises before the line is
printed.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.rng import make_rng, standard_normal
from sketchdescent.sampling import rule_expectation
from sketchdescent.theory import sandwich_constants

from conftest import gaussian_system


@pytest.fixture
def announce(capsys):
    """Report a criterion's verdict through pytest's output capture."""

    def _announce(num, name, t0, budget):
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s " \
            f"(budget {budget}s)"
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {name}: PASS", flush=True)

    return _announce


def spd_system(n, seed, spectrum=None, factor_rows=None):
    """SPD system; optionally with a prescribed eigenvalue range."""
    rng = np.random.default_rng(seed)
    if spectrum is None:
        m = factor_rows or 2 * n
        M = rng.standard_normal((m, n)) / math.sqrt(m)
        A = M.T @ M
        A = 0.5 * (A + A.T)
    else:
        lo, hi = spectrum
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * rng.uniform(lo, hi, size=n)) @ Q.T
        A = 0.5 * (A + A.T)
    x_star = rng.standard_normal(n)
    return A, A @ x_star, x_star


def test_01_projection_identity(announce):
    t0 = time.perf_counter()
    system = gaussian_system(40, 15, seed=101)
    fam = skd.SketchFamily("row", system)
    rng = make_rng(7)
    x = 1000.0 * np.ones(15)
    for rule in (skd.uniform(), skd.max_distance()):
        for _ in range(150):
            sel = skd.select(rule, fam, x, rng)
            assert sel.index is not None
            ev = fam.evaluate(sel.index, x)
            x = skd.apply_update(x, ev, omega=1.0)
            assert fam.evaluate(sel.index, x).loss <= 1e-20
    announce(1, "row projection identity", t0, 1.0)


def test_02_unit_step_at_matched_metrics(announce):
    t0 = time.perf_counter()
    builders = [
        ("row", gaussian_system(20, 8, seed=102)),
        ("row", gaussian_system(24, 12, seed=103, spd=True,
                                metric="system")),
        ("lsqcol", gaussian_system(16, 6, seed=104, metric="normal")),
        ("block", gaussian_system(18, 7, seed=105)),
        ("spectral", gaussian_system(24, 12, seed=106, spd=True,
                                     metric="system")),
        ("full", gaussian_system(20, 10, seed=107, spd=True,
                                 metric="system")),
    ]
    families = [skd.SketchFamily(kind, system,
                                 block_size=3 if kind == "block" else None)
                for kind, system in builders]
    for fam in families:
        assert fam.system.g_equals_b
    rng = np.random.default_rng(11)
    probes = 0
    while probes < 10_000:
        fam = families[rng.integers(len(families))]
        i = int(rng.integers(fam.q))
        x = fam.system.x_star + rng.standard_normal(fam.system.n)
        step = fam.evaluate(i, x).step
        if step is None:
            continue
        assert step == 1.0  # exact, not approximate
        probes += 1
    announce(2, "unit step at matched metrics", t0, 10.0)


def test_03_steepest_descent_equivalence(announce):
    t0 = time.perf_counter()
    A, b, x_star = spd_system(50, seed=108, factor_rows=100)
    system = skd.LinearSystem(A=A, b=b, x_star=x_star, B=A)
    fam = skd.SketchFamily("full", system)
    cfg = skd.SolverConfig(omega=1.0, tol=1e-10, max_iters=5000,
                           check_every=1, x0="ones1000")
    sd = skd.run_sd(system, cfg)
    full = skd.run_ssd(system, fam, skd.uniform(), cfg)
    assert sd.converged and full.converged
    assert sd.iterations == full.iterations

    # Trace agreement at every checkpoint: 1e-12 of each series' scale.
    # The sketched trace logs the selected loss at the pre-update iterate,
    # so its f series lags the steepest-descent one by a single step.
    for a, c in ((sd.residuals, full.residuals),
                 (sd.err_g_sq, full.err_g_sq),
                 (sd.f_values[:-1], full.f_values[1:])):
        scale = float(np.max(np.abs(a)))
        assert float(np.max(np.abs(a - c))) <= 1e-12 * scale

    # iterate agreement on replayed prefixes
    for j in (1, 2, 5, 10, 25, 50, min(150, sd.iterations)):
        sub = skd.SolverConfig(omega=1.0, tol=0.0, max_iters=j,
                               check_every=j, x0="ones1000")
        xa = skd.run_sd(system, sub).x_final
        xb = skd.run_ssd(system, fam, skd.uniform(), sub).x_final
        assert np.linalg.norm(xa - xb) <= 1e-12 * (1 + np.linalg.norm(xa))

    # per-step error contraction in the A-norm
    ev = np.linalg.eigvalsh(A)
    kappa = float(ev[-1] / ev[0])
    bound = ((kappa - 1.0) / (kappa + 1.0)) ** 2 + 1e-12
    rel = sd.rel_errors
    live = rel > 1e-10  # squared error above 1e-20 of start
    for k in range(1, rel.size):
        if live[k] and live[k - 1] and rel[k - 1] > 0.0:
            assert (rel[k] / rel[k - 1]) ** 2 <= bound
    announce(3, "steepest descent equivalence", t0, 5.0)


def textbook_cg_iterates(A, b, x0, iters):
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


def test_04_conjugate_gradient_recovery(announce):
    t0 = time.perf_counter()
    for n, seed in ((20, 109), (60, 110), (100, 111)):
        A, b, x_star = spd_system(n, seed=seed)
        system = skd.LinearSystem(A=A, b=b, x_star=x_star)
        tol = 1e-8 * float(np.linalg.norm(b))
        trace = skd.run_cg_momentum(
            system, skd.SolverConfig(x0="zero", tol=tol, max_iters=10 * n))
        assert trace.converged
        assert trace.iterations <= n
        assert trace.final_residual() <= tol

        oracle = textbook_cg_iterates(A, b, np.zeros(n), trace.iterations)
        for j in range(1, len(oracle)):
            sub = skd.SolverConfig(x0="zero", tol=0.0, max_iters=j)
            got = skd.run_cg_momentum(system, sub).x_final
            assert np.linalg.norm(got - oracle[j], np.inf) <= 1e-10
    announce(4, "conjugate gradient recovery", t0, 10.0)


def test_05_inequality_suite(announce):
    t0 = time.perf_counter()
    instances = [
        ("row", gaussian_system(30, 12, seed=112), None),
        ("lsqcol", gaussian_system(30, 12, seed=113, metric="normal"), None),
        ("block", gaussian_system(28, 10, seed=114), 4),
        ("spectral", gaussian_system(40, 20, seed=115, spd=True,
                                     metric="system"), None),
        ("full", gaussian_system(30, 15, seed=116, spd=True,
                                 metric="system"), None),
    ]
    for kind, system, block in instances:
        fam = skd.SketchFamily(kind, system, block_size=block)
        report = skd.verify_inequalities(fam, trials=1000, seed=3,
                                         rtol=1e-9)
        assert report.all_passed, f"{kind}:\n{report.to_text()}"

    # expected-selected-loss sandwich against full enumeration, q <= 8
    for q in range(2, 9):
        n = min(4, q)
        system = gaussian_system(q, n, seed=200 + q)
        fam = skd.SketchFamily("row", system)
        rep = skd.spectral_report(fam)
        rng = np.random.default_rng(q)
        rules = [skd.greedy(t) for t in range(1, q + 1)]
        rules.append(skd.capped(0.5, 1, None, exact=True))
        for _ in range(20):
            x = system.x_star + rng.standard_normal(n)
            r_sq = float(np.sum((x - system.x_star) ** 2))
            losses = fam.losses(x)
            zeros = int(np.count_nonzero(losses == 0.0))
            for rule in rules:
                if isinstance(rule, skd.GreedyRule):
                    tau = rule.resolve_tau(q)
                    expected = float(np.mean([
                        losses[list(c)].max()
                        for c in itertools.combinations(range(q), tau)]))
                    assert rule_expectation(losses, rule) == pytest.approx(
                        expected, rel=1e-9)
                else:
                    expected = rule_expectation(losses, rule)
                lo, hi = sandwich_constants(
                    rep.tsum_eig_min_pos, rep.tsum_eig_max, rep.mu_hi,
                    q, rule, zeros)
                assert lo * r_sq <= 2 * expected * (1 + 1e-9)
                assert 2 * expected <= hi * r_sq * (1 + 1e-9)
    announce(5, "inequality suite", t0, 60.0)


def test_06_contraction_certificate(announce):
    t0 = time.perf_counter()
    system = gaussian_system(100, 20, seed=117)
    fam = skd.SketchFamily("row", system)
    rates = skd.predicted_rates(skd.spectral_report(fam), omega=1.0)
    bound = rates.step_factor

    seed_means = []
    for s in range(50):
        cfg = skd.SolverConfig(omega=1.0, tol=0.0, max_iters=300,
                               check_every=1, seed=1000 + s, x0="ones1000")
        e = skd.run_ssd(system, fam, skd.uniform(), cfg).err_g_sq
        live = e[:-1] > 1e-18 * e[0]
        seed_means.append(float(np.mean(e[1:][live] / e[:-1][live])))
    mean = float(np.mean(seed_means))
    se = float(np.std(seed_means, ddof=1)) / math.sqrt(len(seed_means))
    assert mean <= bound + 3.0 * se, (mean, bound, se)
    announce(6, "contraction certificate", t0, 60.0)


def test_07_averaged_iterate_bounds(announce):
    t0 = time.perf_counter()
    system = gaussian_system(100, 20, seed=118)
    fam = skd.SketchFamily("row", system)
    report = skd.spectral_report(fam)
    rates = skd.predicted_rates(report, omega=1.0)
    x0 = 1000.0 * np.ones(20)
    err0 = system.error_sq_g(x0)
    loss0 = rule_expectation(fam.losses(x0), skd.uniform())

    def averaged_losses(method, gamma):
        traces = []
        for s in range(20):
            cfg = skd.SolverConfig(omega=1.0, gamma=gamma, tol=0.0,
                                   max_iters=500, check_every=10,
                                   seed=2000 + s, x0="ones1000",
                                   track_cesaro=True)
            traces.append(skd.run_method(method, system, fam,
                                         skd.uniform(), cfg))
        ks = traces[0].ks
        mean_f = np.mean([t.cesaro_f for t in traces], axis=0)
        return ks, mean_f

    ks, mean_f = averaged_losses("ssd", 0.0)
    for j in range(ks.size):
        k = int(ks[j])
        if k < 1 or np.isnan(mean_f[j]):
            continue
        assert mean_f[j] <= rates.cesaro_loss_bound(k, err0)

    gamma = 0.1
    assert skd.momentum_cesaro_admissible(report, gamma, 1.0)
    ks, mean_f = averaged_losses("ssdm", gamma)
    for j in range(ks.size):
        k = int(ks[j])
        if k < 1 or np.isnan(mean_f[j]):
            continue
        assert mean_f[j] <= skd.cesaro_bound(report, gamma, 1.0, k,
                                             err0, loss0)
    announce(7, "averaged iterate bounds", t0, 60.0)


def test_08_momentum_decay_certificate(announce):
    t0 = time.perf_counter()
    # Narrow-spectrum curvature makes (omega=1, gamma=0.1) admissible.
    A, b, x_star = spd_system(30, seed=119, spectrum=(1.0, 1.3))
    system = skd.LinearSystem(A=A, b=b, x_star=x_star, B=A)
    fam = skd.SketchFamily("full", system)
    report = skd.spectral_report(fam)
    mr = skd.momentum_rate(report, gamma=0.1, omega=1.0)
    assert mr.admissible

    seed_means = []
    for s in range(50):
        rng = make_rng(3000 + s)
        start = skd.project_onto_gradient_span(
            system, standard_normal(rng, 30))
        cfg = skd.SolverConfig(omega=1.0, gamma=0.1, tol=0.0, max_iters=60,
                               check_every=1, x0=start)
        e = skd.run_ssdm(system, fam, skd.uniform(), cfg).err_g_sq
        v = np.array([mr.lyapunov(e[k], e[k - 1])
                      for k in range(1, e.size)])
        live = v[:-1] > 1e-18 * v[0]
        seed_means.append(float(np.mean(v[1:][live] / v[:-1][live])))
    mean = float(np.mean(seed_means))
    se = float(np.std(seed_means, ddof=1)) / math.sqrt(len(seed_means))
    assert mean <= mr.rate + 3.0 * se, (mean, mr.rate, se)

    # certified bracket over random admissible parameter draws
    reports = [report,
               skd.spectral_report(skd.SketchFamily(
                   "row", gaussian_system(20, 8, seed=120)))]
    rng = np.random.default_rng(13)
    admissible = 0
    while admissible < 1000:
        rep = reports[rng.integers(len(reports))]
        omega = float(rng.uniform(0.2, 1.8))
        gamma = float(rng.uniform(0.0, 0.3))
        zeta = float(rng.uniform(0.0, 0.5))
        xi_cap = min(gamma, 0.99 * zeta * rep.mu_lo / rep.mu_hi)
        xi = float(rng.uniform(0.0, xi_cap)) if zeta > 0 and xi_cap > 0 \
            else 0.0
        if gamma < max(xi, zeta - 2.0 + omega):
            continue
        cand = skd.momentum_rate(rep, gamma=gamma, omega=omega,
                                 loss_weight=zeta, loss_slack=xi)
        if not cand.admissible:
            continue
        assert cand.coef_cur + cand.coef_prev <= cand.rate < 1.0
        admissible += 1
    announce(8, "momentum decay certificate", t0, 60.0)


def _mean_iters(system, fam, rule, gamma, seeds, max_iters=200_000):
    iters = []
    for s in seeds:
        cfg = skd.SolverConfig(omega=1.0, gamma=gamma, tol=1e-10,
                               max_iters=max_iters, seed=s, x0="ones1000")
        method = "ssdm" if gamma != 0.0 else "ssd"
        trace = skd.run_method(method, system, fam, rule, cfg)
        assert trace.converged, (rule.label, gamma, s)
        iters.append(trace.iterations)
    return float(np.mean(iters))


def test_09_sampling_rule_ordering(announce):
    t0 = time.perf_counter()
    seeds = list(range(4000, 4010))

    # tall Gaussian system, row sketches
    gk = gaussian_system(200, 60, seed=121)
    gk_fam = skd.SketchFamily("row", gk)
    # SPD system in its own geometry, row sketches = coordinate descent
    A, b, x_star = spd_system(20, seed=122, factor_rows=60)
    gcd = skd.LinearSystem(A=A, b=b, x_star=x_star, B=A, G=A)
    gcd_fam = skd.SketchFamily("row", gcd)

    for system, fam in ((gk, gk_fam), (gcd, gcd_fam)):
        uniform = _mean_iters(system, fam, skd.uniform(), 0.0, seeds)
        greedy5 = _mean_iters(system, fam, skd.greedy(5), 0.0, seeds)
        assert greedy5 < uniform, (greedy5, uniform)
        momentum = _mean_iters(system, fam, skd.greedy(5), 0.4, seeds)
        assert momentum < greedy5, (momentum, greedy5)
    announce(9, "sampling rule ordering", t0, 300.0)


def test_10_order_statistic_weights(announce):
    t0 = time.perf_counter()
    for q in range(1, 201):
        denom = None
        for tau in range(1, q + 1):
            w = skd.gs_expectation_weights(q, tau)
            denom = math.comb(q, tau)
            exact = [Fraction(math.comb(tau - 1 + j, tau - 1), denom)
                     for j in range(q - tau + 1)]
            got = np.asarray(w)
            want = np.array([float(f) for f in exact])
            assert float(np.max(np.abs(got - want))) <= 1e-12, (q, tau)

    rng = np.random.default_rng(17)
    for q in range(1, 9):
        for _ in range(10):
            values = rng.random(q)
            for tau in range(1, q + 1):
                combos = list(itertools.combinations(values, tau))
                brute = sum(max(c) for c in combos) / len(combos)
                got = skd.subset_max_expectation(values, tau)
                assert got == pytest.approx(brute, rel=1e-12)
    announce(10, "order statistic weights", t0, 30.0)


def test_11_deterministic_benchmark_output(tmp_path, announce):
    t0 = time.perf_counter()

    def run(tag):
        plan = skd.ExperimentPlan(
            datasets=[skd.DatasetSpec(
                kind="gen", gen=skd.GenSpec("gaussian", 30, 10, seed=5))],
            method="ssdm",
            family="row",
            rules=[skd.parse_rule("uniform"), skd.parse_rule("greedy:3"),
                   skd.parse_rule("capped:0.5,1,m,exact")],
            gammas=[0.0, 0.3],
            omega=1.0,
            tol=1e-8,
            max_iters=3000,
            reps=3,
            seed=9,
            check_every=100,
        )
        result = skd.run_experiment(plan)
        skd.emit_csv(result, tmp_path / f"{tag}.csv")
        skd.emit_plot_data(result, tmp_path / f"{tag}_series")

    def stripped(path):
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        keep = [j for j, name in enumerate(rows[0])
                if ":walltime" not in name]
        return [tuple(row[j] for j in keep) for row in rows]

    run("a")
    run("b")
    assert stripped(tmp_path / "a.csv") == stripped(tmp_path / "b.csv")
    assert (tmp_path / "a.csv.meta").read_bytes() == \
        (tmp_path / "b.csv.meta").read_bytes()
    names_a = sorted(p.name for p in (tmp_path / "a_series").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b_series").iterdir())
    assert names_a == names_b and len(names_a) == 6
    for name in names_a:
        assert stripped(tmp_path / "a_series" / name) == \
            stripped(tmp_path / "b_series" / name)
    announce(11, "deterministic benchmark output", t0, 60.0)
