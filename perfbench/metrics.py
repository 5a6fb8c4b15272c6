"""Metric catalogue of the sketchdescent benchmark, and its statistics.

BENCHMARK.json, at the root of the checkout, declares the workloads and
every gated metric with its unit, direction and (end to end) bound. This
module adds what each metric measures and, for each per-layer metric, the
end-to-end metric and workload it is expected to move, so that a change to
one layer can be checked against a prediction written down beforehand.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])

END_TO_END_DESC = {
    "setup_s": "median over several set-ups of raw input -> first iteration: "
               "generate or load, LinearSystem (B and G factors), SketchFamily",
    "solve_s_p50": "median wall time of one solve to tol=1e-10",
    "solve_s_tail": "highest solve-time percentile with >= 10 solves beyond it "
                    "in every run; the percentile and solve count are printed",
    "wall_s": "measured phase over passes: mean wall time of one pass over "
              "the workload's fixed operations; for sketchbench_grid one whole grid",
    "iters_per_s": "solver iterations over time spent in solves",
    "iters_p50": "median reported iterations per solve; exact for a seed",
    "peak_rss_mb": "ru_maxrss of the workload's process",
}

_SAMPLED = ("iters_per_s, wall_s on sketchbench_grid (its greedy cells); "
            "~no change on kaczmarz_fullscan")
_FULLSCAN = ("solve_s_p50 on kaczmarz_fullscan (watch peak_rss_mb there); "
             "sketchbench_grid's sampled cells must not slow")
_SPD = "wall_s on sketchbench_grid; ~0 on kaczmarz_fullscan (G = I)"
_SETUP = "wall_s, setup_s on sketchbench_grid; only setup_s on kaczmarz_fullscan"
_SOLVER = "iters_p50, solve_s_p50 on both workloads"
_BENCH = "wall_s on sketchbench_grid"

# name -> (what it measures, what it should move and where). Per-layer
# values are per set-up plus per pass: the work of one set-up followed by
# one pass over the workload.
PER_LAYER_DESC = {
    "sampling.draw_sample_s": ("time in draw_sample", _SAMPLED),
    "sampling.select_calls": ("select calls", _SAMPLED),
    "sampling.select_self_s": (
        "select minus its traced children (losses, draw_sample, capped candidates)",
        _SAMPLED),
    "sketching.evaluate_calls": ("SketchFamily.evaluate calls", _SAMPLED),
    "sketching.evaluate_s": ("time in SketchFamily.evaluate", _SAMPLED),
    "sketching.losses_calls": ("SketchFamily.losses calls", _FULLSCAN),
    "sketching.losses_s": ("time in SketchFamily.losses", _FULLSCAN),
    "sketching.losses_per_iter": (
        "indices evaluated by losses per solver iteration", _FULLSCAN),
    "sampling.rule_expectation_s": ("time in rule_expectation", _FULLSCAN),
    "sampling.capped_candidates_mean": (
        "mean capped candidate-set size; 0 when no capped rule ran", _FULLSCAN),
    "sampling.zero_loss_frac": (
        "exactly-zero losses over the losses select evaluated", _FULLSCAN),
    "linalg.spd_solve_calls": ("scipy cho_solve calls", _SPD),
    "linalg.spd_solve_s": ("time in cho_solve", _SPD),
    "loaders.load_calls": ("Matrix Market and LIBSVM loads", _SETUP),
    "loaders.load_s": ("time in the loaders", _SETUP),
    "loaders.bytes_parsed": ("size of the files loaded", _SETUP),
    "bench.build_system_calls": ("bench.build_system calls", _SETUP),
    "bench.build_system_s": ("time in bench.build_system", _SETUP),
    "sketching.family_builds": ("SketchFamily constructions", _SETUP),
    "sketching.family_build_s": ("time constructing SketchFamily", _SETUP),
    "linalg.factorizations": ("scipy cho_factor calls", _SETUP),
    "linalg.factor_s": ("time in cho_factor", _SETUP),
    "linalg.eigh_calls": ("numpy eigh calls", _SETUP),
    "linalg.eigh_s": ("time in eigh", _SETUP),
    "problems.system_builds": ("LinearSystem constructions", _SETUP),
    "problems.system_build_s": (
        "time in LinearSystem validation and B/G factoring", _SETUP),
    "problems.generate_s": ("time in problems.generate", _SETUP),
    "theory.report_calls": ("spectral_report calls", _SETUP),
    "theory.report_s": ("time in spectral_report", _SETUP),
    "solvers.iterations": ("reported solver iterations", _SOLVER),
    "solvers.self_s": (
        "solve span minus its select, evaluate, rule_expectation and "
        "checkpoint children", _SOLVER),
    "solvers.checkpoints": ("checkpoints (residual_norm calls)", _SOLVER),
    "solvers.checkpoint_s": (
        "time in residual_norm and error_sq_b/error_sq_g", _SOLVER),
    "solvers.useful_iter_frac": (
        "exact first crossing of tol (same-seed check_every=1 replay) over "
        "reported iterations", _SOLVER),
    "bench.cells": ("grid cells run", _BENCH),
    "bench.self_s": ("run_experiment minus its traced children", _BENCH),
    "bench.emit_s": ("time in emit_csv and emit_plot_data", _BENCH),
    "bench.bytes_written": ("bytes of CSV, meta and series output", _BENCH),
    "cli.self_s": ("cli.main minus its traced children", _BENCH),
    "trace.overhead_frac": (
        "traced wall_s over untraced wall_s in the same run, minus one",
        "none: the cost of tracing"),
}

# Printed in the report beside the gated metrics. fail_frac is 0 at a
# correct commit, so it is gated through the result's attempted and failed
# counts instead of a bound; the references apply to kaczmarz_fullscan.
REPORTED = {
    "fail_frac": ("ratio", "failed solves over attempted ones; the base is printed"),
    "floor.us_per_iter": (
        "us", "reference: lean-numpy loop on the same instance to the same tol"),
    "sketching.computed_flops_per_iter": (
        "flop", "computed from array shapes, iteration-weighted over the configs"),
    "sketching.computed_bytes_per_iter": (
        "B", "computed from array shapes, iteration-weighted over the configs"),
}
REFERENCES = ("floor.us_per_iter", "sketching.computed_flops_per_iter",
              "sketching.computed_bytes_per_iter")

UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({name: unit for name, (unit, _) in REPORTED.items()})


def describe(name: str) -> str:
    if name in END_TO_END_DESC:
        return END_TO_END_DESC[name]
    if name in PER_LAYER_DESC:
        return PER_LAYER_DESC[name][0]
    return REPORTED[name][1]


def tail_percentile(n_solves: int) -> int:
    """Highest whole percentile with at least ten of n_solves beyond it."""
    if n_solves <= 10:
        raise ValueError(f"a tail needs more than 10 solves, got {n_solves}")
    return math.floor(100.0 * (n_solves - 10) / n_solves)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, numpy's default method."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))
