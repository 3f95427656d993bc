"""Partition-function-preserving transforms on degree-2 models.

Every variable of a degree-2 model sits between exactly two factors, so
a pair of matrices can be slid onto that edge: one factor absorbs G,
the other absorbs the transpose-inverse, and summing the variable out
cancels them.  Concretely a factor is rewritten as

    f_hat(x) = sum_{x'} f(x') * prod_v G_v(x_v, x'_v)

with one matrix per scope variable (first index new state, second index
contracted against the old table).  Because the pair multiplies to the
identity (transpose of one times the other), Z is unchanged, even
though individual transformed tables may go negative.

A gauge is therefore a ``{variable: matrix}`` mapping: the matrix sits
on the variable's free edge, the one to its lower-id factor, and
``gauge_pair`` derives its partner.  Variables left out keep the
identity.  A reparameterization is the diagonal special case,
``{v: np.diag(np.exp(theta))}``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeViolation,
    DimensionMismatch,
    GenerationFailed,
    SingularGaugeStep,
)
from .factors import Factor
from .graphs import FactorGraph

RANDOM_COND_LIMIT = 1e3    # largest condition number random_valid_gauges keeps
RANDOM_MAX_ATTEMPTS = 100  # its draws per variable before it gives up


def gauge_transform_factor(f, matrices):
    """Contract one matrix per variable into a factor's table.

    ``matrices`` maps a subset of the scope to (d, d) arrays.  The
    contraction runs in the linear domain after shifting out the peak
    log-magnitude, so it is safe for tables far outside double range.
    """
    for v, mat in matrices.items():
        d = f.cards[f.axis_of(v)]
        mat = np.asarray(mat)
        if mat.shape != (d, d):
            raise DimensionMismatch(
                f"matrix for var {v} has shape {mat.shape}, need {(d, d)}"
            )
    peak = float(np.max(f.logmag))
    if peak == -np.inf:
        return f
    vals = f.sign * np.exp(f.logmag - peak)
    for v, mat in matrices.items():
        ax = f.axis_of(v)
        vals = np.moveaxis(
            np.tensordot(np.asarray(mat, dtype=float), vals, axes=(1, ax)),
            0, ax,
        )
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(vals)) + peak
    return Factor(f.scope, f.cards, np.sign(vals), logmag)


def gauge_pair(mat):
    """The matrices a free-edge matrix puts on its variable's two edges.

    Returns ``(mat, inv(mat.T))``: the free edge's matrix and its
    partner, whose product ``mat.T @ partner`` is the identity.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return mat, np.linalg.inv(mat.T)
    except np.linalg.LinAlgError as exc:
        raise SingularGaugeStep(f"gauge matrix is singular: {exc}") from exc


def apply_gauges(g, gauges):
    """Transform every factor by the matrices on its edges.

    ``gauges`` maps variables to free-edge matrices; each factor
    contracts the matrices of its gauged variables in scope order, and
    a factor with none is returned as it is.
    """
    sides = [{} for _ in g.factors]
    for v, mat in gauges.items():
        d = g.cards[v]
        if np.shape(mat) != (d, d):
            raise DimensionMismatch(
                f"matrix for var {v} has shape {np.shape(mat)}, need {(d, d)}"
            )
        fids = g.var_neighbors[v]
        if len(fids) != 2:
            raise DegreeViolation([(v, len(fids))])
        a, b = fids
        sides[a][v], sides[b][v] = gauge_pair(mat)
    new_factors = []
    for f, mats in zip(g.factors, sides):
        mats = {v: mats[v] for v in f.scope if v in mats}
        new_factors.append(gauge_transform_factor(f, mats) if mats else f)
    return FactorGraph(g.cards, tuple(new_factors))


def random_valid_gauges(g, scale, seed=0):
    """Random perturbations of the identity on every variable.

    Free-edge matrices are I + scale * U(-1, 1) entries, resampled (up
    to ``RANDOM_MAX_ATTEMPTS`` per variable) until the condition number is
    below ``RANDOM_COND_LIMIT`` so the partner edge inverts stably.
    """
    rng = np.random.default_rng(seed)
    gauges = {}
    for v in range(g.num_vars):
        d = g.cards[v]
        for _ in range(RANDOM_MAX_ATTEMPTS):
            mat = np.eye(d) + scale * rng.uniform(-1.0, 1.0, size=(d, d))
            if np.linalg.cond(mat) < RANDOM_COND_LIMIT:
                gauges[v] = mat
                break
        else:
            raise GenerationFailed(
                f"no well-conditioned matrix for var {v} "
                f"after {RANDOM_MAX_ATTEMPTS} attempts"
            )
    return gauges
