"""Partition-function-preserving transforms on degree-2 models.

Every variable of a degree-2 model sits between exactly two factors, so
a pair of matrices can be slid onto that edge: one factor absorbs G,
the other absorbs the transpose-inverse, and summing the variable out
cancels them.  Concretely a factor is rewritten as

    f_hat(x) = sum_{x'} f(x') * prod_v G_v(x_v, x'_v)

with one matrix per scope variable (first index new state, second index
contracted against the old table).  As long as the pair on every edge
multiplies to the identity (transpose of one times the other), Z is
unchanged, even though individual transformed tables may go negative.

A reparameterization is the diagonal nonnegative special case: opposite
log-scale vectors on the two edges of each variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    GenerationFailed,
)
from .factors import Factor

CONSTRAINT_TOL = 1e-8


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


@dataclass(frozen=True)
class GaugeSet:
    """One matrix per (variable, factor) incidence of a degree-2 model.

    For each variable one edge is designated free; the matrix on the
    other edge is tied to it as the transpose-inverse so the pair
    satisfies the invariance constraint by construction.
    """

    graph: object
    matrices: dict     # (var, factor id) -> (d, d) ndarray
    free: dict         # var -> factor id of the free edge

    @classmethod
    def identity(cls, g):
        mats = {}
        free = {}
        for v in range(g.num_vars):
            a, b = g.edge_pair(v)
            eye = np.eye(g.cards[v])
            mats[(v, a)] = eye
            mats[(v, b)] = eye.copy()
            free[v] = a
        return cls(g, mats, free)

    @classmethod
    def from_free(cls, g, free_mats):
        """Build a valid set from free-edge matrices (lower factor id);
        the conjugate edge gets the transpose-inverse."""
        mats = {}
        free = {}
        for v in range(g.num_vars):
            a, b = g.edge_pair(v)
            d = g.cards[v]
            mat = np.asarray(free_mats.get(v, np.eye(d)), dtype=float)
            if mat.shape != (d, d):
                raise DimensionMismatch(
                    f"matrix for var {v} has shape {mat.shape}, need {(d, d)}"
                )
            mats[(v, a)] = mat
            mats[(v, b)] = np.linalg.inv(mat.T)
            free[v] = a
        return cls(g, mats, free)

    def pair(self, v):
        a, b = self.graph.edge_pair(v)
        return self.matrices[(v, a)], self.matrices[(v, b)]


def check_constraint(gauges):
    """Deviation of each edge pair from the invariance constraint.

    Returns (per-variable max-abs of G_a^T G_b - I, overall max).
    """
    g = gauges.graph
    per_var = {}
    for v in range(g.num_vars):
        ga, gb = gauges.pair(v)
        dev = np.abs(ga.T @ gb - np.eye(g.cards[v])).max()
        per_var[v] = float(dev)
    overall = max(per_var.values()) if per_var else 0.0
    return per_var, overall


def apply_gauges(g, gauges, tol=CONSTRAINT_TOL):
    """Transform every factor by the matrices on its edges.

    Refuses to run if any edge pair deviates from the constraint by
    more than ``tol``; within it, the partition function is preserved
    to matching accuracy.
    """
    per_var, overall = check_constraint(gauges)
    if overall > tol:
        worst = max(per_var, key=per_var.get)
        raise ConstraintViolated(worst, per_var[worst], tol)
    new_factors = []
    for fid, f in enumerate(g.factors):
        mats = {v: gauges.matrices[(v, fid)] for v in f.scope}
        new_factors.append(gauge_transform_factor(f, mats))
    return type(g)(g.cards, tuple(new_factors))


def random_valid_gauges(g, scale, seed=0, cond_limit=1e3, max_attempts=100):
    """Random perturbations of the identity, valid by construction.

    Free-edge matrices are I + scale * U(-1, 1) entries, resampled (up
    to ``max_attempts`` per variable) until the condition number is
    below ``cond_limit`` so the conjugate edge inverts stably.
    """
    rng = np.random.default_rng(seed)
    free_mats = {}
    for v in range(g.num_vars):
        d = g.cards[v]
        for _ in range(max_attempts):
            mat = np.eye(d) + scale * rng.uniform(-1.0, 1.0, size=(d, d))
            if np.linalg.cond(mat) < cond_limit:
                free_mats[v] = mat
                break
        else:
            raise GenerationFailed(
                f"no well-conditioned matrix for var {v} "
                f"after {max_attempts} attempts"
            )
    return GaugeSet.from_free(g, free_mats)


@dataclass(frozen=True)
class Reparam:
    """Log-scale vectors on each edge, opposite within each pair."""

    graph: object
    thetas: dict    # (var, factor id) -> log-scale vector

    @classmethod
    def zero(cls, g):
        return cls.from_free(g, {})

    @classmethod
    def from_free(cls, g, free_thetas):
        thetas = {}
        for v in range(g.num_vars):
            a, b = g.edge_pair(v)
            th = np.asarray(
                free_thetas.get(v, np.zeros(g.cards[v])), dtype=float
            )
            if th.shape != (g.cards[v],):
                raise DimensionMismatch(
                    f"theta for var {v} has shape {th.shape}"
                )
            thetas[(v, a)] = th
            thetas[(v, b)] = -th
        return cls(g, thetas)

    def __post_init__(self):
        for v in range(self.graph.num_vars):
            a, b = self.graph.edge_pair(v)
            s = self.thetas[(v, a)] + self.thetas[(v, b)]
            if np.abs(s).max() > 0.0:
                raise ValueError(f"thetas at var {v} do not cancel")


def reparam_as_gauges(r):
    """The equivalent diagonal transform set of a reparameterization."""
    g = r.graph
    mats = {
        key: np.diag(np.exp(th)) for key, th in r.thetas.items()
    }
    free = {v: g.edge_pair(v)[0] for v in range(g.num_vars)}
    return GaugeSet(g, mats, free)
