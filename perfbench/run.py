"""sketchdescent benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload kaczmarz_fullscan --seed 1 \
        --seconds 60 --trace 0

Run from the root of a checkout: the package is imported from ./src. With
--trace 0 the run times repeated set-ups, then repeats the workload's pass
until --seconds are spent, checks every solve, and reports the end-to-end
metrics. With --trace 1 half the time runs untraced and half traced, and
the run reports the per-layer metrics and the cost of tracing. A report of
every metric with its unit goes to stdout; the last line is one JSON object
with correct, attempted, failed and metrics. Spans and the full report are
written under perfbench/out/. --scale tiny shrinks every input for the
self-test.
"""

from __future__ import annotations

import os

from envinfo import THREAD_VARS

# BLAS reads these once, when numpy loads it.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics as M  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def import_package():
    src = ROOT / "src"
    if not (src / "sketchdescent" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sketchdescent package under {src}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(src))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=M.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(wl, state, seconds: float, min_passes: int, passes: list,
            root=None, between=None) -> list:
    """Run whole passes until the next one would overrun `seconds`.

    `between` runs after every pass, outside the pass's wall time.
    """
    mine = []
    t0 = time.perf_counter()
    while True:
        if root is None:
            p = wl.one_pass(state, len(passes))
        else:
            with root("pass"):
                p = wl.one_pass(state, len(passes))
        passes.append(p)
        mine.append(p)
        if between is not None:
            between()
        elapsed = time.perf_counter() - t0
        if len(mine) >= min_passes and elapsed + M.median([q.wall for q in mine]) > seconds:
            return mine


def end_to_end(wl, setup_times, passes) -> dict:
    solves = [s for p in passes for s in p.solves]
    times = [s.seconds for s in solves]
    n_min = wl.min_passes * wl.solves_per_pass
    tail_p = M.tail_percentile(n_min)
    solve_time = sum(times)
    values = {
        "setup_s": (M.median(setup_times), f"median of {len(setup_times)} set-ups"),
        "solve_s_p50": (M.median(times), f"{len(times)} solves"),
        "solve_s_tail": (M.percentile(times, tail_p),
                         f"p{tail_p} of {len(times)} solves (>= 10 beyond it "
                         f"at the guaranteed {n_min})"),
        "wall_s": (sum(p.wall for p in passes) / len(passes),
                   f"mean of {len(passes)} passes of {wl.solves_per_pass} solves"),
        "iters_per_s": (sum(s.iterations for s in solves) / solve_time,
                        f"{sum(s.iterations for s in solves)} iterations "
                        f"in {solve_time:.3f} s of solves"),
        "iters_p50": (M.median([s.iterations for s in solves]), "reported iterations"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of this process"),
    }
    return values


def per_layer(untraced, traced, tracer) -> dict:
    from tracer import layer_metrics
    from workloads import replay_exact

    values = {k: (v, "-> " + M.PER_LAYER_DESC[k][1])
              for k, v in layer_metrics(tracer).items()}
    all_solves = [s for p in untraced + traced for s in p.solves]
    values["solvers.useful_iter_frac"] = (
        replay_exact(all_solves), "one replay per config -> " + M.PER_LAYER_DESC[
            "solvers.useful_iter_frac"][1])
    values["bench.bytes_written"] = (
        M.median([p.bytes_written for p in traced]),
        "-> " + M.PER_LAYER_DESC["bench.bytes_written"][1])
    overhead = (M.median([p.wall for p in traced])
                / M.median([p.wall for p in untraced]) - 1.0)
    values["trace.overhead_frac"] = (
        overhead, f"{len(traced)} traced vs {len(untraced)} untraced passes")
    return values


def print_row(name, value, unit, note) -> None:
    print(f"{name:<36} {value:<16.8g} {unit:<9} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from envinfo import environment
    from tracer import Tracer
    import workloads

    env = environment(ROOT, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, args.scale, workdir)
        passes: list = []
        tracer = Tracer()
        if args.trace:
            with tracer.installed():
                for _ in range(wl.setups):
                    with tracer.root("setup"):
                        state = wl.setup()
            wl.prepare(state)
            untraced = measure(wl, state, args.seconds / 2, 1, passes)
            with tracer.installed():
                traced = measure(wl, state, args.seconds / 2, 1, passes,
                                 root=tracer.root)
            values = per_layer(untraced, traced, tracer)
            names = M.PER_LAYER
        else:
            setup_times = []

            def timed_setup():
                t0 = time.perf_counter()
                out = wl.setup()
                setup_times.append(time.perf_counter() - t0)
                return out

            # More set-ups run between passes, so their median samples the
            # machine over the whole run, as the pass timings do.
            for _ in range(wl.setups):
                state = timed_setup()
            wl.prepare(state)
            measure(wl, state, args.seconds, wl.min_passes, passes,
                    between=timed_setup)
            values = end_to_end(wl, setup_times, passes)
            names = M.END_TO_END
        refs = wl.references(state, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workloads.mark_nondeterminism(passes)
    solves = [s for p in passes for s in p.solves]
    failures = [s for s in solves if s.failure is not None]
    values["fail_frac"] = (len(failures) / len(solves),
                           f"{len(failures)}/{len(solves)} solves failed")
    for name, value, note in refs:
        values[name] = (value, note)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} why: {M.WHY[args.workload]}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print("per-layer values are per set-up plus per pass; '->' names the "
              "end-to-end metric and workload each should move")
    for name, (value, note) in values.items():
        print_row(name, value, M.UNITS[name], note)
    for s in failures[:10]:
        print(f"FAILED {s.config}: {s.failure}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "env": env,
              "metrics": {k: {"value": v, "unit": M.UNITS[k], "note": n,
                              "desc": M.describe(k)}
                          for k, (v, n) in values.items()},
              "pass_walls": [p.wall for p in passes],
              "failures": [f"{s.config}: {s.failure}" for s in failures]}
    if args.trace:
        tracer.save(str(stem) + "-spans.npz")
        report["spans"] = stem.name + "-spans.npz"
        report["trace_counts"] = {"roots": dict(tracer.roots),
                                  **{k: dict(v) for k, v in tracer.counts.items()}}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")

    result = {
        "correct": not failures,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {k: {"value": values[k][0], "unit": M.UNITS[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
