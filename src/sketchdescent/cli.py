"""Command-line benchmark runner.

One invocation runs one method on one dataset over a grid of sampling
rules and momentum values, averages repetitions, and writes a summary CSV
(stdout when --out is absent). Exit codes: 0 all runs finished, 2 at
least one repetition diverged, 1 bad configuration or IO failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    DatasetSpec,
    ExperimentPlan,
    emit_csv,
    emit_plot_data,
    run_experiment,
    write_summary,
)
from .errors import InvalidInputError, SketchDescentError
from .problems import GenSpec
from .sampling import parse_rule

X0_ALIASES = {"paper": "ones1000", "zero": "zero", "range": "range"}


def parse_gen(text: str) -> GenSpec:
    """<m>x<n>[:spd] generator spelling."""
    body = text
    spd = False
    if body.endswith(":spd"):
        spd = True
        body = body[: -len(":spd")]
    parts = body.split("x")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected <m>x<n>[:spd], got {text!r}"
        )
    kind = "gaussian-normal-equations" if spd else "gaussian"
    try:
        return GenSpec(kind=kind, m=int(parts[0]), n=int(parts[1]))
    except InvalidInputError as exc:  # argparse shows only this type's text
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_gamma_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad gamma list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sketchbench",
        description="Benchmark sketched descent solvers on a linear system.",
    )
    p.add_argument("--method", choices=("ssd", "ssdm", "sd", "cg"),
                   default="ssd")
    p.add_argument("--family", default="row",
                   metavar="{row|lsqcol|block:<c>|spectral|full}")
    p.add_argument("--rule", action="append", default=None,
                   metavar="RULE",
                   help="uniform | greedy:<tau> | maxdist | "
                        "capped:<theta>,<tau1>,<tau2>[,exact]; repeatable")
    p.add_argument("--gamma", type=parse_gamma_list, default=[0.0],
                   metavar="G1[,G2,...]", help="momentum grid for ssdm")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--x0", choices=tuple(X0_ALIASES), default="paper",
                   help="start point preset (paper = all entries 1000)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", metavar="PATH.mtx",
                     help="Matrix Market file")
    src.add_argument("--libsvm", metavar="PATH", help="LIBSVM text file")
    src.add_argument("--gen", type=parse_gen, metavar="<m>x<n>[:spd]",
                     help="synthetic Gaussian instance")
    p.add_argument("--out", metavar="CSV", help="summary CSV path "
                   "(stdout when absent); a .meta sidecar is written too")
    p.add_argument("--plot-data", metavar="DIR",
                   help="write one averaged series file per grid cell")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--theory", action="store_true",
                   help="append each dataset's spectral constants, one "
                        "report per rule, to the meta file")
    return p


def plan_from_args(args) -> ExperimentPlan:
    if args.gen is not None:
        dataset = DatasetSpec(kind="gen",
                              gen=GenSpec(args.gen.kind, args.gen.m,
                                          args.gen.n, seed=args.seed))
    elif args.matrix is not None:
        dataset = DatasetSpec(kind="mtx", path=args.matrix,
                              data_seed=args.seed)
    else:
        dataset = DatasetSpec(kind="libsvm", path=args.libsvm,
                              data_seed=args.seed)
    rules = [parse_rule(text) for text in (args.rule or ["uniform"])]
    return ExperimentPlan(
        datasets=[dataset],
        method=args.method,
        family=args.family,
        rules=rules,
        gammas=list(args.gamma),
        omega=args.omega,
        tol=args.tol,
        max_iters=args.max_iters,
        reps=args.reps,
        seed=args.seed,
        x0=X0_ALIASES[args.x0],
        workers=args.workers,
        theory=args.theory,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the config-error code
        return 0 if exc.code == 0 else 1
    try:
        plan = plan_from_args(args)
        result = run_experiment(plan)
        if args.out:
            emit_csv(result, args.out)
        else:
            write_summary(result, sys.stdout)
        if args.plot_data:
            emit_plot_data(result, args.plot_data)
    except (SketchDescentError, OSError) as exc:
        print(f"sketchbench: {exc}", file=sys.stderr)
        return 1
    return 2 if result.any_diverged else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
