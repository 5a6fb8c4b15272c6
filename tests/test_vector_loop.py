"""The vector-family run loop against the public one-step API, and the
step counts every sketched run records in its trace."""

import math

import numpy as np
import pytest

import sketchdescent as skd
from sketchdescent.sampling import DrawStream, capped_threshold
from sketchdescent.solvers import COUNT_KEYS, _Recorder, resolve_x0

from conftest import family_on, gaussian_system


def reference_run(method, system, family, rule, cfg, gamma):
    """One sketched run, step by step through select, evaluate and
    apply_update, keeping the maintained linear values the same way the
    solver does: a rule reading more than one loss on a family with a
    coupling, no checkpoint every step, c moved by one coupling row per
    step and recomputed exactly at every checkpoint and before a run ends
    because every maintained loss is zero. Returns the trace and the
    counts the run should have recorded."""
    cfg.validate()
    x = resolve_x0(cfg.x0, system)
    stream = DrawStream(skd.make_rng(cfg.seed))
    check_every = cfg.check_every or 100
    exact_f = isinstance(rule, skd.CappedRule)
    rec = _Recorder(method, system, x, "expected" if exact_f else "selected",
                    cfg.track_cesaro)
    counts = dict.fromkeys(COUNT_KEYS, 0)
    q = family.q

    def cesaro_loss(x_sum, k):
        if not cfg.track_cesaro or k == 0:
            return np.nan
        return skd.rule_expectation(family.losses(x_sum / k), rule)

    def exact_scan(at):
        counts["full_scans"] += 1
        return family.linear_values(at)

    def select(linear):
        sel = skd.select(rule, family, x, stream, linear)
        counts["losses_read"] += sel.losses.size
        counts["candidates"] += sel.candidates
        if linear is None and sel.losses.size == q:
            counts["full_scans"] += 1
        return sel

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
        sel = select(c)
        if sel.index is None and c is not None:
            c = exact_scan(x)
            sel = select(c)
        if sel.index is None:
            converged = True
            rec.record(k - 1, x, system.residual_norm(x), 0.0, last_sel,
                       cesaro_loss(x_sum, k - 1))
            k -= 1
            break
        assert math.isfinite(sel.chosen_loss)
        last_sel = sel.index
        last_f = sel.expected_loss if exact_f else sel.chosen_loss
        ev = family.evaluate(sel.index, x)
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
            if c is not None:
                c = exact_scan(x)
                if gamma != 0.0:
                    c_prev = exact_scan(x_prev)
    x_cesaro = (x_sum / k) if (cfg.track_cesaro and k > 0) else (
        x.copy() if cfg.track_cesaro else None)
    return rec.finish(k, converged, x, x_cesaro), counts


def loop_instances(kind):
    """Two (system, family, omega) cases per vector kind: one where G = B
    (every step is 1) and one where it is not, at omega 0.9."""
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
    else:
        system, fam = family_on("spectral", 20, 10, seed=45)
        yield fam, 1.0
        steep = gaussian_system(20, 10, seed=46, spd=True, metric="steepest")
        yield skd.SketchFamily("spectral", steep), 0.9


TRACE_FIELDS = ("ks", "residuals", "rel_errors", "err_g_sq", "f_values",
                "selected", "x_final", "cesaro_f", "x_cesaro")


@pytest.mark.parametrize("kind", ["row", "lsqcol", "spectral"])
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
        got = skd.run_ssdm(system, fam, skd.parse_rule(rule), cfg)
        want, counts = reference_run("ssdm", system, fam, skd.parse_rule(rule),
                                     cfg, gamma)
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
        # with momentum, for c and c_prev) after each checkpoint.
        system, fam = family_on("spectral", 60, 30, seed=33)
        cfg = skd.SolverConfig(gamma=gamma, tol=0.0, max_iters=max_iters,
                               check_every=100)
        trace = skd.run_ssdm(system, fam, skd.greedy(20), cfg)
        assert len(trace.ks) - 1 == checkpoints
        assert trace.counts["full_scans"] == 1 + per_checkpoint * checkpoints
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

    def test_block_runs_count_through_the_generic_loop(self):
        system, fam = family_on("block", 30, 10, seed=54, block_size=5)
        cfg = skd.SolverConfig(tol=0.0, max_iters=40, check_every=10)
        trace = skd.run_ssd(system, fam, skd.max_distance(), cfg)
        assert trace.counts["losses_read"] == 40 * fam.q
        assert trace.counts["full_scans"] == 0
