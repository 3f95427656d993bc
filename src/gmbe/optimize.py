"""Tightening mini-bucket bounds by accepted descent steps.

Three families of moves, all preserving the true partition function:

* edge-transform steps: the bound's derivative with respect to the
  matrix on a variable's free edge (its partner tied as the
  transpose-inverse) contracts each adjacent factor's cavity, the
  bound's derivative in that table, with the table itself, so zero
  entries need no special case; the step candidate is I minus a
  multiple of it, and both factors absorb their matrices immediately
  so the working transform resets to the identity,
* weight steps: descent on the power-sum weights of split variables
  along the closed-form gradient (the conditional entropies of the
  auxiliary distribution), updated multiplicatively and renormalized,
* reparameterization steps: the diagonal special case, driven by the
  mismatch of the two adjacent marginals of the auxiliary distribution.

All three run through one accept loop: a candidate is evaluated and
kept only if the bound did not get worse, else it is restored and the
step halved for another try (a bounded number of times; weight moves
get a single try), so emitted traces are monotone by construction,
whatever the gradient quality.  For lower-direction trees the same moves run with the signs
flipped: candidates ascend and are kept only if the bound did not
decrease.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .elimination import BoundResult, TreeEvaluator
from .gauges import gauge_pair, gauge_transform_factor

STEP_GAUGE = 0.01
STEP_WEIGHT = 0.1
STEP_REPARAM = 0.1
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 20
COND_LIMIT = 1e8
WEIGHT_FLOOR = 1e-3

# The optimizer methods: each names the move families its descent
# sweeps, in the order optimize_bound runs them.
METHODS = {
    "wmbe": (),
    "wmbe-w": ("weights",),
    "wmbe-theta": ("reparam",),
    "wmbe-wtheta": ("weights", "reparam"),
    "wmbe-g": ("gauges",),
    "wmbe-wg": ("gauges", "weights"),
}


@dataclass(frozen=True)
class OptimizerConfig:
    """Method and iteration budget for optimize_bound."""

    method: str
    iterations: int = 150

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @classmethod
    def for_method(cls, method, **overrides):
        return cls(method, **overrides)


def _sign(ev):
    """+1 on an upper tree, whose moves descend; -1 on a lower one.

    A bound b is no worse than b0 exactly when sign * b <= sign * b0.
    """
    return 1.0 if ev.tree.direction == "upper" else -1.0


def _accept(ev, apply, mu, tries):
    """Keep the first candidate, halving mu, whose bound is no worse.

    ``apply(mu)`` sets the candidate for step mu on the evaluator and
    returns its undo token, or None if it declined to build one.  A
    worse candidate is restored before the next, halved, try.  Returns
    whether a candidate was kept.
    """
    sign = _sign(ev)
    old = ev.bound()
    for _ in range(tries):
        token = apply(mu)
        if token is not None:
            if sign * ev.bound() <= sign * old:
                return True
            ev.restore(token)
        mu *= BACKTRACK_FACTOR
    return False


def _cavity_term(ev, fid, v, memo):
    """sum_rest dbound/df(rest, a) * f(rest, b) as an (a, b) matrix.

    The derivative comes from the factor's cavity, scaled by the same
    peak that shifts the table, so the two scales cancel in the product.
    """
    f = ev.factors[fid]
    peak = float(np.max(f.logmag))
    cav = f.sign * ev.factor_cavity(fid, peak, memo)
    ax = f.axis_of(v)
    d = f.cards[ax]
    vals = f.sign * np.exp(f.logmag - peak)
    return (np.moveaxis(cav, ax, -1).reshape(-1, d).T
            @ np.moveaxis(vals, ax, -1).reshape(-1, d))


def gauge_gradient(ev, v):
    """Derivative of the log bound w.r.t. the matrix on v's free edge.

    The free edge joins the lower-id adjacent factor; the higher-id
    partner is tied as the transpose-inverse.  Each factor's term is
    its cavity contracted with its table, so no entry is divided by and
    zero entries are allowed.  On a lower tree, a zero entry under a
    weight above 1 or below 0 can make entries inf or nan.
    """
    a, b = _edge_pair(ev, v)
    memo = {}
    with np.errstate(over="ignore", invalid="ignore"):
        ta = _cavity_term(ev, a, v, memo)
        tb = _cavity_term(ev, b, v, memo)
        return ta - tb.T


def _edge_pair(ev, v):
    nbrs = ev.neighbors[v]
    if len(nbrs) != 2:
        raise ValueError(f"variable {v} does not have exactly two factors")
    return nbrs[0], nbrs[1]


def gauge_step(ev, v):
    """One accepted-descent transform step at variable v.

    The candidate matrix is I -/+ mu * gradient (sign per direction);
    its partner is the transpose-inverse, both adjacent factors absorb
    their matrix, and the result is kept only if the bound did not get
    worse.  Backtracking halves mu.  An ill-conditioned candidate is
    declined and the next halving tried; if every try is declined or
    worse, nothing is set and False is returned.  A gradient that is
    not finite declines the whole move in the same way.
    """
    grad = gauge_gradient(ev, v)
    if not np.isfinite(grad).all():
        return False
    a, b = _edge_pair(ev, v)
    fa, fb = ev.factors[a], ev.factors[b]
    eye = np.eye(fa.cards[fa.axis_of(v)])

    def apply(mu):
        cand = eye - mu * grad
        cond = np.linalg.cond(cand)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            return None
        cand, partner = gauge_pair(cand)
        return ev.set_factors({a: gauge_transform_factor(fa, {v: cand}),
                               b: gauge_transform_factor(fb, {v: partner})})

    return _accept(ev, apply, STEP_GAUGE * _sign(ev), MAX_BACKTRACKS + 1)


def reparam_gradient(ev, v):
    """Marginal mismatch of v between its two adjacent factors."""
    a, b = _edge_pair(ev, v)
    fa, fb = ev.factors[a], ev.factors[b]
    memo = {}
    qa = ev.factor_marginal(a, memo)
    qb = ev.factor_marginal(b, memo)
    ma = np.moveaxis(qa, fa.axis_of(v), 0).reshape(qa.shape[fa.axis_of(v)], -1).sum(axis=1)
    mb = np.moveaxis(qb, fb.axis_of(v), 0).reshape(qb.shape[fb.axis_of(v)], -1).sum(axis=1)
    return ma - mb


def reparam_step(ev):
    """One accepted sweep of diagonal rescaling over all variables.

    Per variable, both adjacent factors absorb opposite log-scale
    vectors proportional to the marginal mismatch; monotone acceptance
    with halving as for transform steps.  Returns whether any variable's
    move was accepted.
    """
    any_accepted = False
    for v in ev.tree.order:
        grad = reparam_gradient(ev, v)
        a, b = _edge_pair(ev, v)
        fa, fb = ev.factors[a], ev.factors[b]

        def apply(mu):
            theta = -mu * grad
            return ev.set_factors({a: fa.scale_axis_log(v, theta),
                                   b: fb.scale_axis_log(v, -theta)})

        any_accepted |= _accept(ev, apply, STEP_REPARAM * _sign(ev),
                                MAX_BACKTRACKS + 1)
    return any_accepted


def weight_step(ev):
    """One accepted sweep of power-sum weight updates (upper trees).

    For each split variable the closed-form gradient of the log bound
    in the log-weight domain (``TreeEvaluator.weight_gradient``) scales
    each weight by exp(-mu * w * grad), the pair is floored and
    renormalized to sum 1, and the move is kept only if the bound did
    not increase; there is no backtracking.  Returns whether any
    variable's move was accepted.
    """
    if ev.tree.direction != "upper":
        raise ValueError("weight steps require an upper-direction tree")
    any_accepted = False
    for v, ks in ev.tree.splits.items():
        if len(ks) < 2:
            continue
        w = np.array([ev.weights[k] for k in ks])
        grad = ev.weight_gradient(ks)

        def apply(mu):
            cand = w * np.exp(-mu * w * grad)
            cand = np.maximum(cand, WEIGHT_FLOOR)
            cand = cand / cand.sum()
            return ev.set_weights(dict(zip(ks, cand)))

        any_accepted |= _accept(ev, apply, STEP_WEIGHT, 1)
    return any_accepted


def optimize_bound(g, tree, config):
    """Run the configured sweeps; return (result, final evaluator).

    Each iteration runs the moves ``METHODS`` names for the method:
    transform steps over all variables, then weight steps, then
    reparameterization steps.  The
    trace holds the bound after every iteration and is monotone for the
    tree's direction because every move is accept-only.  The
    evaluator holds the working model (``factors``) and the final
    weights.
    """
    t0 = time.perf_counter()
    moves = METHODS[config.method]
    ev = TreeEvaluator(tree, g.factors)
    trace = [ev.bound()]
    for _ in range(config.iterations):
        if "gauges" in moves:
            for v in tree.order:
                gauge_step(ev, v)
        if "weights" in moves:
            weight_step(ev)
        if "reparam" in moves:
            reparam_step(ev)
        trace.append(ev.bound())
    result = BoundResult(config.method, tree.direction, trace[-1],
                         tuple(trace), time.perf_counter() - t0)
    return result, ev
