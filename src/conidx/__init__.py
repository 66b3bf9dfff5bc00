"""conidx: a numerical laboratory for the index of convergence.

Estimates natural densities and indices of convergence of single and
double sequences, and uses them to reproduce, at desk scale, the cluster
structure of bivariate Lagrange (Chebyshev nodes of the second type) and
tensor Shepard operators at jump discontinuities.
"""

__version__ = "0.1.0"

from .density import (
    DensityEstimate,
    IndexReport,
    SeqWindow,
    Target,
    complement_identity_check,
    default_checkpoints,
    index_to_target,
    sum_rule_check,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    Prediction,
    PredictionTable,
    build_table,
    check_product_rule,
    check_uniform_limit_rule,
    cluster_witness,
    product_measure,
    rotation_sequence,
    run_index_experiment,
    scan_decreasing,
    uniform_convergence_scan,
)
from .lagrange import (
    cheb_grid,
    eval_jump_decomposed,
    fundamental_weights,
    grid_offset,
    jump_sequence,
    lagrange_eval_1d,
    lagrange_eval_2d,
)
from .points import IRRATIONAL_VALUES, PointSpec
from .profiles import (
    Profile1D,
    Profile2D,
    hurwitz_zeta,
    lagrange_jump_profile,
    lerch_j1,
    preimage_measure_1d,
    preimage_measure_2d,
    shepard_jump_profile,
)
from .shepard import ShepardParams, shepard_eval_1d, shepard_eval_2d, shepard_weights_1d
from .stepfn import StepFn1D, StepFn2D

__all__ = [
    "__version__", "DensityEstimate", "ExperimentResult", "ExperimentSpec",
    "IRRATIONAL_VALUES", "IndexReport", "PointSpec", "Prediction", "PredictionTable",
    "Profile1D", "Profile2D", "SeqWindow", "ShepardParams", "StepFn1D", "StepFn2D",
    "Target", "build_table", "cheb_grid", "check_product_rule",
    "check_uniform_limit_rule", "cluster_witness", "complement_identity_check",
    "default_checkpoints", "eval_jump_decomposed", "fundamental_weights", "grid_offset",
    "hurwitz_zeta", "index_to_target", "jump_sequence",
    "lagrange_eval_1d", "lagrange_eval_2d", "lagrange_jump_profile", "lerch_j1",
    "preimage_measure_1d", "preimage_measure_2d", "product_measure", "rotation_sequence",
    "run_index_experiment", "scan_decreasing", "shepard_eval_1d", "shepard_eval_2d",
    "shepard_jump_profile", "shepard_weights_1d", "sum_rule_check",
    "uniform_convergence_scan",
]
