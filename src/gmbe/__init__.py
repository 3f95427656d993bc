"""Guaranteed bounds on discrete partition functions.

Weighted mini-bucket elimination gives upper (or lower) bounds on log Z;
gradient descent over edge transforms, power-sum weights, and
reparameterizations tightens them while preserving Z exactly.
"""

from .factors import Factor, SignedLog
from .graphs import FactorGraph, to_forney, validate_forney
from .generators import (
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
)
from .gauges import (
    apply_gauges,
    gauge_pair,
    gauge_transform_factor,
    random_valid_gauges,
)
from .elimination import (
    BoundResult,
    MiniBucketTree,
    TreeEvaluator,
    build_minibucket_tree,
    default_order,
    induced_width,
    run_be,
    run_mbe,
    run_wmbe,
)
from .oracle import brute_z
from .fileio import ResultRow, emit_csv, emit_uai, parse_uai, read_uai_file
from .optimize import (
    OptimizerConfig,
    gauge_gradient,
    gauge_step,
    optimize_bound,
    reparam_gradient,
    reparam_step,
    weight_step,
)

__version__ = "0.1.0"
