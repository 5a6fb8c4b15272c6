"""The sketched run loop against the public one-step API, for every
sketch kind, and the step counts every sketched run records in its trace."""

import math

import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.sampling import DrawStream, capped_threshold
from sketchdescent.sketching import VECTOR_KINDS
from sketchdescent.solvers import COUNT_KEYS, _Recorder, resolve_x0

from conftest import family_on, gaussian_system
from dense_reference import reference_choose


def reference_pick(rule, q, stream, losses_of, counts):
    """One selection step: draw the rule's sample (none for a full scan),
    read losses_of(sample) and choose with reference_choose. Tallies the
    losses read and the capped candidates."""
    tau = rule.resolve_tau(q) if isinstance(rule, skd.GreedyRule) else q
    sample = None if tau == q else stream.sample(q, tau)
    losses = losses_of(sample)
    counts["losses_read"] += losses.size
    chosen = reference_choose(rule, losses, stream, sample)
    if chosen is not None:
        counts["candidates"] += chosen[3]
    return chosen


def reference_run(method, system, family, rule, cfg, gamma):
    """One sketched run, step by step through reference_choose, evaluate
    and apply_update, keeping the maintained linear values the same way the
    solver does: a rule reading more than one loss on a family with a
    coupling, no checkpoint every step, c moved by one coupling row per
    step and recomputed exactly at every checkpoint that does not end the
    run and before a run ends because every maintained loss is zero. That
    end is recorded unless its k is checkpointed already.
    Returns the trace and the counts the run should have recorded."""
    cfg.validate()
    x = resolve_x0(cfg.x0, system)
    stream = DrawStream(skd.make_rng(cfg.seed))
    exact_f = isinstance(rule, skd.CappedRule)
    rec = _Recorder(method, system, x, "expected" if exact_f else "selected",
                    cfg.track_cesaro)
    counts = dict.fromkeys(COUNT_KEYS, 0)
    q = family.q
    # Only the vector kinds have linear values to scan.
    vector = family.kind in VECTOR_KINDS
    check_every = cfg.check_every or (100 if vector else 1)

    def cesaro_loss(x_sum, k):
        if not cfg.track_cesaro or k == 0:
            return np.nan
        return skd.rule_expectation(family.losses(x_sum / k), rule)

    def exact_scan(at):
        counts["full_scans"] += 1
        return family.linear_values(at)

    def select(c):
        def losses_of(sample):
            if c is None:
                if vector and sample is None:
                    counts["full_scans"] += 1
                return family.losses(x, sample)
            if sample is None:
                return 0.5 * c * c / d
            return 0.5 * c[sample] * c[sample] / d[sample]
        return reference_pick(rule, q, stream, losses_of, counts)

    res0 = system.residual_norm(x)
    rec.record(0, x, res0, np.nan, -1, cesaro_loss(None, 0))
    if res0 <= cfg.tol:
        return rec.finish(0, True, x, x.copy() if cfg.track_cesaro else None), counts
    coupling = family.coupling
    if check_every == 1 or (isinstance(rule, skd.GreedyRule)
                            and rule.resolve_tau(q) == 1):
        coupling = None
    c = c_prev = None
    if coupling is not None:
        d = family.denominators
        c = c_prev = exact_scan(x)
    x_prev = x.copy()
    x_sum = np.zeros_like(x)
    last_sel, last_f = -1, np.nan
    k = 0
    converged = False
    while k < cfg.max_iters:
        k += 1
        chosen = select(c)
        if chosen is None and c is not None:
            c = exact_scan(x)
            chosen = select(c)
        if chosen is None:
            k -= 1
            if rec.rows[-1].k != k:
                res = system.residual_norm(x)
                converged = res <= cfg.tol
                rec.record(k, x, res, 0.0, last_sel, cesaro_loss(x_sum, k))
            break
        last_sel, loss, last_f, _ = chosen
        assert math.isfinite(loss)
        ev = family.evaluate(last_sel, x)
        if ev.step is None:
            counts["zero_steps"] += 1
        x_next = skd.apply_update(x, ev, cfg.omega)
        if gamma != 0.0:
            x_next = x_next + gamma * (x - x_prev)
        if c is not None:
            c_next = c
            if ev.step is not None:
                a = cfg.omega * ev.step * (ev.linear / d[ev.index])
                c_next = c - a * coupling[ev.index]
            if gamma != 0.0:
                c_next = c_next + gamma * (c - c_prev)
            c_prev, c = c, c_next
        x_prev = x
        x = x_next
        if cfg.track_cesaro:
            x_sum += x
        if k % check_every == 0 or k == cfg.max_iters:
            res = system.residual_norm(x)
            rec.record(k, x, res, last_f, last_sel, cesaro_loss(x_sum, k))
            if res <= cfg.tol:
                converged = True
                break
            if c is not None and k < cfg.max_iters:
                c = exact_scan(x)
                if gamma != 0.0:
                    c_prev = exact_scan(x_prev)
    x_cesaro = (x_sum / k) if (cfg.track_cesaro and k > 0) else (
        x.copy() if cfg.track_cesaro else None)
    return rec.finish(k, converged, x, x_cesaro), counts


def eigen_reference_run(method, system, family, rule, cfg, gamma):
    """reference_run for a spectral family with B = G = A, written in the
    eigen-coordinates y = U'x, where the method is coordinate descent on
    Lambda y = U'b: every step's losses are read from the linear values
    c = lambda y - U'b, the chosen coordinate moves by
    -omega c_i / lambda_i, and x = U y is formed only to record it. No
    linear values or losses are carried between steps, so the run shares
    nothing with the solver's kept losses; only its full_scans tally
    follows the solver: one build scan at gamma = 0, else one per full
    scan."""
    cfg.validate()
    x0 = resolve_x0(cfg.x0, system)
    stream = DrawStream(skd.make_rng(cfg.seed))
    exact_f = isinstance(rule, skd.CappedRule)
    rec = _Recorder(method, system, x0, "expected" if exact_f else "selected",
                    cfg.track_cesaro)
    counts = dict.fromkeys(COUNT_KEYS, 0)
    lam, U = system.A_factor.eig()
    Utb = U.T @ system.b
    check_every = cfg.check_every or 100

    def cesaro_loss(y_sum, k):
        if not cfg.track_cesaro or k == 0:
            return np.nan
        return skd.rule_expectation(family.losses(U @ (y_sum / k)), rule)

    res0 = system.residual_norm(x0)
    rec.record(0, x0, res0, np.nan, -1)
    if res0 <= cfg.tol:
        return rec.finish(0, True, x0, x0.copy() if cfg.track_cesaro else None), counts
    if gamma == 0.0:
        counts["full_scans"] += 1  # the solver's one build scan
    y = U.T @ x0
    y_prev = y.copy()
    y_sum = np.zeros_like(y)
    last_sel, last_f = -1, np.nan
    k = 0
    converged = False
    while k < cfg.max_iters:
        k += 1
        def losses_of(sample):
            c = lam * y - Utb
            if sample is None:
                if gamma != 0.0:
                    counts["full_scans"] += 1
                return 0.5 * c * c / lam
            return 0.5 * c[sample] * c[sample] / lam[sample]
        chosen = reference_pick(rule, family.q, stream, losses_of, counts)
        if chosen is None:
            k -= 1
            if rec.rows[-1].k != k:
                x = U @ y
                res = system.residual_norm(x)
                converged = res <= cfg.tol
                rec.record(k, x, res, 0.0, last_sel, cesaro_loss(y_sum, k))
            break
        i, loss, last_f, _ = chosen
        assert math.isfinite(loss)
        last_sel = i
        ci = lam[i] * y[i] - Utb[i]
        y_next = y.copy()
        if ci == 0.0:
            counts["zero_steps"] += 1
        else:
            y_next[i] -= cfg.omega * (ci / lam[i])
        if gamma != 0.0:
            y_next = y_next + gamma * (y - y_prev)
        y_prev, y = y, y_next
        if cfg.track_cesaro:
            y_sum += y
        if k % check_every == 0 or k == cfg.max_iters:
            x = U @ y
            res = system.residual_norm(x)
            rec.record(k, x, res, last_f, last_sel, cesaro_loss(y_sum, k))
            if res <= cfg.tol:
                converged = True
                break
    x_cesaro = None
    if cfg.track_cesaro:
        x_cesaro = U @ (y_sum / k) if k > 0 else U @ y
    return rec.finish(k, converged, U @ y, x_cesaro), counts


def loop_instances(kind):
    """Two (family, omega) cases per kind: one where G = B (every step is
    1) and one where it is not, at omega 0.9 (full: G != B at omega 1, and
    G = B at omega 0.9). Block adds a family of one block, which is not a
    full family and picks through the shared picker. Spectral adds its
    B = G = A family at omega 0.9, where a step leaves a tenth of c_i, so
    a wrong rewrite of the solver's kept loss would change the picks."""
    if kind == "row":
        # A square SPD system caches a coupling; a tall one does not.
        spd = gaussian_system(20, 10, seed=41, spd=True, metric="system")
        yield skd.SketchFamily("row", spd), 1.0
        tall = gaussian_system(24, 8, seed=42)
        other = skd.LinearSystem(A=tall.A, b=tall.b, G=tall.A.T @ tall.A,
                                 x_star=tall.x_star)
        yield skd.SketchFamily("row", other), 0.9
    elif kind == "lsqcol":
        system, fam = family_on("lsqcol", 24, 10, seed=43)
        yield fam, 1.0
        plain = gaussian_system(24, 10, seed=44)
        yield skd.SketchFamily("lsqcol", plain), 0.9
    elif kind == "spectral":
        system, fam = family_on("spectral", 20, 10, seed=45)
        yield fam, 1.0
        yield fam, 0.9
        steep = gaussian_system(20, 10, seed=46, spd=True, metric="steepest")
        yield skd.SketchFamily("spectral", steep), 0.9
    elif kind == "block":
        system, fam = family_on("block", 24, 8, seed=47, block_size=3)
        yield fam, 1.0
        tall = gaussian_system(24, 8, seed=48)
        other = skd.LinearSystem(A=tall.A, b=tall.b, G=tall.A.T @ tall.A,
                                 x_star=tall.x_star)
        yield skd.SketchFamily("block", other, block_size=5), 0.9
        yield skd.SketchFamily("block", system, block_size=24), 0.9
    else:
        steep = gaussian_system(12, 6, seed=49, spd=True, metric="steepest")
        yield skd.SketchFamily("full", steep), 1.0
        system, fam = family_on("full", 12, 6, seed=49)
        yield fam, 0.9


TRACE_FIELDS = ("ks", "residuals", "rel_errors", "err_g_sq", "f_values",
                "selected", "x_final", "cesaro_f", "x_cesaro")


@pytest.mark.parametrize("kind", ["row", "lsqcol", "spectral", "block",
                                  "full"])
@pytest.mark.parametrize("rule", ["uniform", "greedy:4", "maxdist",
                                  "capped:0.5,1,m,exact"])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("check_every", [None, 1])
@pytest.mark.parametrize("track_cesaro", [False, True])
def test_loop_equals_one_step_api(kind, rule, gamma, check_every,
                                  track_cesaro):
    for fam, omega in loop_instances(kind):
        system = fam.system
        cfg = skd.SolverConfig(omega=omega, gamma=gamma, tol=1e-11,
                               max_iters=150, seed=5, check_every=check_every,
                               track_cesaro=track_cesaro)
        if rule == "greedy:4" and fam.q < 4:
            # tau exceeds a one-sketch family: both refuse it.
            with pytest.raises(skd.InvalidConfigError):
                skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
            with pytest.raises(skd.InvalidConfigError):
                reference_run("ssdm", system, fam, skd.parse_rule(rule), cfg,
                              gamma)
            continue
        got = skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
        # Spectral with B = G = A steps in eigen-coordinates.
        runner = eigen_reference_run if fam.diagonal else reference_run
        want, counts = runner("ssdm", system, fam, skd.parse_rule(rule), cfg,
                              gamma)
        label = f"{kind} {rule} omega={omega}"
        assert got.iterations == want.iterations, label
        assert got.converged == want.converged, label
        assert got.f_mode == want.f_mode, label
        for name in TRACE_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None, (label, name)
                continue
            assert np.array_equal(a, b, equal_nan=True), (label, name)
        assert got.counts == counts, label


class TestStepCounts:
    """IterationTrace.counts, pinned on small instances."""

    def test_keys_and_zero_counts_outside_sketched_runs(self):
        system = gaussian_system(16, 8, seed=50, spd=True)
        for trace in (skd.run_sd(system), skd.run_cg_momentum(system)):
            assert trace.counts == dict.fromkeys(COUNT_KEYS, 0)
        assert COUNT_KEYS == ("losses_read", "zero_steps", "full_scans",
                              "candidates")

    @pytest.mark.parametrize("rule, per_step", [("uniform", 1), ("greedy:4", 4),
                                                ("maxdist", 30)])
    def test_losses_read_per_step(self, rule, per_step):
        system, fam = family_on("row", 30, 12, seed=51)
        cfg = skd.SolverConfig(tol=0.0, max_iters=50, check_every=10)
        trace = skd.run_ssd(system, fam, skd.parse_rule(rule), cfg)
        assert trace.iterations == 50
        assert trace.counts["losses_read"] == 50 * per_step

    def test_zero_steps_counts_skipped_updates(self):
        # Only row 0 is violated at x0 = 0: every uniform pick of another
        # row is a zero step, and the first pick of row 0 solves it.
        system = skd.LinearSystem(A=np.eye(6), b=np.eye(6)[0])
        fam = skd.SketchFamily("row", system)
        seed = next(s for s in range(100)
                    if skd.draw_sample(6, 1, skd.make_rng(s))[0] != 0)
        cfg = skd.SolverConfig(seed=seed, x0=np.zeros(6), check_every=1,
                               tol=1e-12)
        trace = skd.run_ssd(system, fam, skd.uniform(), cfg)
        assert trace.converged and trace.iterations > 1
        assert trace.counts["zero_steps"] == trace.iterations - 1
        assert trace.counts["full_scans"] == 0

    @pytest.mark.parametrize("gamma, per_checkpoint", [(0.0, 1), (0.3, 2)])
    @pytest.mark.parametrize("max_iters, checkpoints", [(1000, 10), (250, 3),
                                                        (99, 1)])
    def test_full_scans_at_start_and_each_checkpoint(self, gamma,
                                                     per_checkpoint,
                                                     max_iters, checkpoints):
        # Maintained values: one exact scan at the start, then one (two
        # with momentum, for c and c_prev) after each checkpoint but the
        # last, which ends the run at max_iters.
        system = gaussian_system(60, 30, seed=33, spd=True)
        fam = skd.SketchFamily("spectral", system)
        cfg = skd.SolverConfig(gamma=gamma, tol=0.0, max_iters=max_iters,
                               check_every=100)
        trace = skd.run_ssdm(system, fam, skd.greedy(20), cfg)
        assert len(trace.ks) - 1 == checkpoints
        assert trace.counts["full_scans"] == 1 + per_checkpoint * (checkpoints - 1)
        assert trace.counts["losses_read"] == 20 * max_iters

    def test_full_scans_every_step_without_a_coupling(self):
        # q = 40 > n = 10: no coupling, so maxdist scans exactly each step.
        system, fam = family_on("row", 40, 10, seed=52)
        assert fam.coupling is None
        cfg = skd.SolverConfig(tol=0.0, max_iters=70, check_every=100)
        trace = skd.run_ssd(system, fam, skd.max_distance(), cfg)
        assert trace.counts["full_scans"] == 70
        assert trace.counts["losses_read"] == 70 * 40
        assert trace.counts["candidates"] == 0

    def test_candidates_sum_the_capped_sets(self):
        system, fam = family_on("row", 40, 10, seed=53)
        cfg = skd.SolverConfig(seed=2, tol=0.0, max_iters=60, check_every=10)
        rule = skd.capped(0.5, 1, None, exact=True)
        trace = skd.run_ssd(system, fam, rule, cfg)
        # Replay the run's own iterates: each step's candidate set is the
        # losses at or above the threshold at that iterate.
        x = resolve_x0("ones1000", system)
        stream = DrawStream(skd.make_rng(2))
        want = 0
        for _ in range(60):
            sel = skd.select(rule, fam, x, stream)
            thr = capped_threshold(sel.losses, rule)
            want += int(np.count_nonzero(sel.losses >= thr))
            x = skd.apply_update(x, fam.evaluate(sel.index, x))
        assert np.array_equal(x, trace.x_final)
        assert 60 <= want < 60 * 40
        assert trace.counts["candidates"] == want

    @pytest.mark.parametrize("metric, per_step", [("steepest", 1), ("system", 1)])
    def test_full_family_solves_with_A_once_per_step(self, kernel_counts,
                                                     metric, per_step):
        # One solve with A for the loss and the direction: G = I needs no
        # solve, and under G = B = A the direction is that solve's u. The
        # pick reuses the step's evaluation.
        system = gaussian_system(60, 20, seed=61, spd=True, metric=metric)
        fam = skd.SketchFamily("full", system)

        def solves(steps):
            before = kernel_counts["cho_solve"]
            cfg = skd.SolverConfig(tol=0.0, max_iters=steps)
            assert skd.run_ssd(system, fam, skd.uniform(), cfg).iterations == steps
            return kernel_counts["cho_solve"] - before

        assert solves(20) - solves(10) == 10 * per_step

    def test_full_family_choice_is_the_bound_choice(self):
        # The full family's one index goes through bind_choice like every
        # other kind's, so an exact capped tau above q = 1 is refused.
        system = gaussian_system(24, 12, seed=63, spd=True, metric="steepest")
        fam = skd.SketchFamily("full", system)
        cfg = skd.SolverConfig(tol=0.0, max_iters=5)
        with pytest.raises(skd.InvalidConfigError):
            skd.run_ssd(system, fam, skd.parse_rule("capped:0.5,4,m,exact"), cfg)
        trace = skd.run_ssd(system, fam, skd.parse_rule("capped:0.5,1,m,exact"),
                            cfg)
        assert trace.counts["candidates"] == 5

    def test_block_runs_count_through_the_generic_loop(self):
        system, fam = family_on("block", 30, 10, seed=54, block_size=5)
        cfg = skd.SolverConfig(tol=0.0, max_iters=40, check_every=10)
        trace = skd.run_ssd(system, fam, skd.max_distance(), cfg)
        assert trace.counts["losses_read"] == 40 * fam.q
        assert trace.counts["full_scans"] == 0


class TestEigenCoordinates:
    """Spectral sketches with B = G = A: a closed-form family whose runs
    step in the eigen-coordinates y = U'x."""

    def test_build_makes_no_solve(self, kernel_counts):
        system = gaussian_system(40, 20, seed=60, spd=True, metric="system")
        fam = skd.SketchFamily("spectral", system)
        assert fam.diagonal
        assert kernel_counts["cho_solve"] == 0
        assert fam.coupling is None and fam.steps is None
        assert fam.direction_matrix is fam.eigvecs
        assert np.array_equal(fam.denominators, fam.eigvals)
        plain = gaussian_system(40, 20, seed=60, spd=True)
        assert not skd.SketchFamily("spectral", plain).diagonal

    @pytest.mark.parametrize("rule, gamma, read, zero, scans, candidates", [
        ("uniform", 0.0, 300, 230, 1, 0),
        ("greedy:5", 0.0, 1500, 141, 1, 0),
        ("maxdist", 0.0, 6000, 0, 1, 0),
        ("capped:0.5,1,m,exact", 0.0, 6000, 0, 1, 327),
        ("maxdist", 0.3, 6000, 0, 300, 0),
    ])
    def test_counts_show_which_path_a_run_takes(self, rule, gamma, read, zero,
                                                scans, candidates):
        # Without momentum the run keeps its losses from one build scan;
        # heavy ball moves every coordinate and scans at every maxdist step.
        # losses_read, zero_steps and candidates are those of the per-step
        # path the kept losses replaced, at the same seed.
        system = gaussian_system(40, 20, seed=62, spd=True, metric="system")
        fam = skd.SketchFamily("spectral", system)
        cfg = skd.SolverConfig(gamma=gamma, tol=0.0, max_iters=300, seed=7)
        trace = skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
        assert trace.iterations == 300
        assert trace.counts == {"losses_read": read, "zero_steps": zero,
                                "full_scans": scans, "candidates": candidates}

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_steps_call_no_family_method(self, monkeypatch, gamma):
        # A run binds eigvals and Utb once; its steps and checkpoints read
        # them directly, never through the family's value methods.
        system = gaussian_system(40, 20, seed=62, spd=True, metric="system")
        fam = skd.SketchFamily("spectral", system)
        assert fam.denominators is fam.eigvals
        calls = []
        for name in ("linear_values", "losses", "evaluate"):
            def spy(*args, _name=name, **kwargs):
                calls.append(_name)
            monkeypatch.setattr(skd.SketchFamily, name, spy)
        cfg = skd.SolverConfig(gamma=gamma, tol=0.0, max_iters=300, seed=7,
                               track_cesaro=False)
        for rule in ("uniform", "greedy:5", "maxdist", "capped:0.5,1,m,exact"):
            trace = skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
            assert trace.iterations == 300
        assert calls == []

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("rule", ["maxdist", "capped:0.5,1,m,exact"])
    def test_first_n_steps_match_one_step_api(self, rule, seed):
        # In exact arithmetic both take the same steps, and each step zeroes
        # the chosen c_i, so the first n choices stand well clear of the
        # roundoff left at the chosen ones. Iterates differ by the
        # roundoff of a few n-term dot products over vectors no longer
        # than ||x0|| + ||x*||; the allowance is twice that.
        system = gaussian_system(30, 12, seed=seed, spd=True, metric="system")
        fam = skd.SketchFamily("spectral", system)
        n, parsed = system.n, skd.parse_rule(rule)
        x = resolve_x0("ones1000", system)
        u = np.finfo(np.float64).eps / 2
        allowance = 2 * n * u * (np.linalg.norm(x) + np.linalg.norm(system.x_star))
        stream = DrawStream(skd.make_rng(3))
        for k in range(1, n + 1):
            sel = skd.select(parsed, fam, x, stream)
            x = skd.apply_update(x, fam.evaluate(sel.index, x))
            cfg = skd.SolverConfig(tol=0.0, max_iters=k, check_every=1, seed=3)
            trace = skd.run_ssd(system, fam, parsed, cfg)
            assert trace.selected[k] == sel.index
            assert np.linalg.norm(trace.x_final - x) <= allowance
        assert sorted(trace.selected[1:]) == list(range(n))

    @pytest.mark.parametrize("rule", ["maxdist", "capped:0.5,1,m,exact"])
    def test_all_zero_stop_after_a_checkpoint_adds_no_row(self, rule):
        # With a checkpoint every step, the all-zero stop falls on a k that
        # is recorded already: the trace keeps one row for it.
        system = gaussian_system(60, 20, seed=1, spd=True, metric="system")
        fam = skd.SketchFamily("spectral", system)
        cfg = skd.SolverConfig(tol=1e-14, check_every=1)
        trace = skd.run_ssd(system, fam, skd.parse_rule(rule), cfg)
        assert np.all(np.diff(trace.ks) > 0)
        assert trace.ks[-1] == trace.iterations
        assert trace.final_residual() == system.residual_norm(trace.x_final)
        assert not trace.converged

    @pytest.mark.parametrize("rule", ["maxdist", "capped:0.5,1,m,exact"])
    def test_all_zero_stop_reports_the_true_residual(self, rule):
        # Every c_i = lambda_i y_i - (U'b)_i rounds to exactly zero while
        # ||A x - b|| is still about 4e-13: the run stops there, converged
        # only if that residual meets tol.
        system = gaussian_system(60, 20, seed=1, spd=True, metric="system")
        fam = skd.SketchFamily("spectral", system)
        parsed = skd.parse_rule(rule)
        trace = skd.run_ssd(system, fam, parsed, skd.SolverConfig(tol=1e-14))
        res = trace.final_residual()
        assert trace.f_values[-1] == 0.0 and trace.ks[-1] == trace.iterations < 100
        assert res == system.residual_norm(trace.x_final)
        assert res > 1e-14 and not trace.converged
        met = skd.run_ssd(system, fam, parsed, skd.SolverConfig(tol=res))
        assert met.converged and met.iterations == trace.iterations
