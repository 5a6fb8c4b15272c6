"""Sketched descent solvers for consistent linear systems.

The package solves Ax = b by iterating on one small sketch of the system
at a time. A sketch family assigns each index a quadratic loss whose
metric gradient and exact step have closed forms; a sampling rule picks
the index; the solver applies the relaxed update, optionally with a heavy
ball momentum term. Row sketches give Kaczmarz, column sketches give
coordinate descent on the normal equations, the full sketch gives steepest
descent, and re-optimizing the momentum coefficients each step gives
conjugate gradients.

The theory module computes the spectral constants behind the convergence
guarantees and validates them against empirical traces; the bench module
sweeps parameter grids and writes deterministic CSV summaries.
"""

from .errors import (
    DivergenceError,
    EmptyMatrixError,
    InvalidConfigError,
    InvalidInputError,
    MalformedFileError,
    NotPsdError,
    NotSpdError,
    NumericalFailureError,
    ParseError,
    SizeLimitError,
    SketchDescentError,
    UnsupportedFormatError,
)
from .rng import derive_seed, make_rng, standard_normal
from .linalg import SpdFactor, pinv_psd, sym_eig
from .problems import (
    GenSpec,
    LinearSystem,
    generate,
    make_consistent,
    resolve_x_star,
)
from .loaders import load_libsvm, load_matrix_market, save_matrix_market
from .sketching import (
    SketchEval,
    SketchFamily,
    apply_update,
)
from .sampling import (
    CappedRule,
    GreedyRule,
    Selection,
    capped,
    draw_sample,
    greedy,
    gs_expectation_weights,
    max_distance,
    parse_rule,
    rule_expectation,
    select,
    subset_max_expectation,
    uniform,
)
from .solvers import (
    IterationTrace,
    SolverConfig,
    project_onto_gradient_span,
    run_cg_momentum,
    run_method,
    run_sd,
    run_ssd,
    run_ssdm,
)
from .theory import (
    InequalityReport,
    MomentumRate,
    RateBundle,
    SpectralReport,
    cesaro_bound,
    momentum_cesaro_admissible,
    momentum_rate,
    predicted_rates,
    spectral_report,
    verify_inequalities,
    whitened_operator,
)
from .bench import (
    BenchResult,
    DatasetSpec,
    ExperimentPlan,
    ResultRow,
    build_system,
    emit_csv,
    emit_plot_data,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "SketchDescentError", "InvalidInputError", "InvalidConfigError",
    "NotPsdError", "NotSpdError", "NumericalFailureError", "DivergenceError",
    "SizeLimitError", "UnsupportedFormatError", "MalformedFileError",
    "ParseError", "EmptyMatrixError",
    "make_rng", "standard_normal", "derive_seed",
    "SpdFactor", "sym_eig", "pinv_psd",
    "LinearSystem", "GenSpec", "generate", "make_consistent",
    "resolve_x_star",
    "load_matrix_market", "save_matrix_market", "load_libsvm",
    "SketchFamily", "SketchEval", "apply_update",
    "GreedyRule", "CappedRule", "Selection", "uniform", "greedy",
    "max_distance", "capped", "parse_rule", "gs_expectation_weights",
    "subset_max_expectation", "rule_expectation", "draw_sample", "select",
    "SolverConfig", "IterationTrace", "run_ssd", "run_ssdm", "run_sd",
    "run_cg_momentum", "run_method", "project_onto_gradient_span",
    "SpectralReport", "RateBundle", "MomentumRate", "InequalityReport",
    "spectral_report", "predicted_rates", "momentum_rate",
    "momentum_cesaro_admissible", "cesaro_bound", "verify_inequalities",
    "whitened_operator",
    "DatasetSpec", "ExperimentPlan", "ResultRow", "BenchResult",
    "build_system", "run_experiment", "emit_csv", "emit_plot_data",
]
