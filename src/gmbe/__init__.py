"""Guaranteed bounds on discrete partition functions.

Weighted mini-bucket elimination gives upper (or lower) bounds on log Z;
gradient descent over edge transforms, power-sum weights, and
reparameterizations tightens them while preserving Z exactly.
"""

from .factors import Factor, SignedLog
from .graphs import FactorGraph, ForneyGraph, to_forney, validate_forney
from .generators import (
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
)
from .gauges import (
    GaugeSet,
    Reparam,
    apply_gauges,
    check_constraint,
    gauge_transform_factor,
    random_valid_gauges,
    reparam_as_gauges,
)
from .elimination import (
    BoundResult,
    EliminationOrder,
    MiniBucketTree,
    build_minibucket_tree,
    default_order,
    induced_width,
    run_be,
    run_mbe,
    run_wmbe,
    wsum,
)
from .oracle import (
    OracleBudget,
    brute_aux_marginals,
    brute_wmbe,
    brute_z,
    fd_gradient,
)
from .elimination import TreeEvaluator, check_weights
from .fileio import ResultRow, emit_csv, emit_uai, parse_uai, read_uai_file
from .optimize import (
    OptimizerConfig,
    OptState,
    gauge_gradient,
    gauge_step,
    init_state,
    optimize_bound,
    reparam_gradient,
    reparam_step,
    weight_step,
)

__version__ = "0.1.0"
