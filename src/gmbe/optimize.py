"""Tightening mini-bucket bounds by accepted descent steps.

Three families of moves, all preserving the true partition function:

* edge-transform steps: the bound's derivative with respect to the
  matrix on a variable's free edge (its partner tied as the
  transpose-inverse) has a closed form in the auxiliary distribution
  and the two adjacent tables; the step candidate is I minus a multiple
  of it, and both factors absorb their matrices immediately so the
  working transform resets to the identity,
* weight steps: descent on the power-sum weights of split variables
  along the closed-form gradient (the conditional entropies of the
  auxiliary distribution), updated multiplicatively and renormalized,
* reparameterization steps: the diagonal special case, driven by the
  mismatch of the two adjacent marginals of the auxiliary distribution.

Every candidate is evaluated and kept only if the bound did not get
worse (backtracking halves the step a bounded number of times first),
so emitted traces are monotone by construction, whatever the gradient
quality.  For lower-direction trees the same moves run with the signs
flipped: candidates ascend and are kept only if the bound did not
decrease.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .elimination import BoundResult, TreeEvaluator
from .errors import SingularGaugeStep, ZeroFactorEntry
from .gauges import gauge_transform_factor

BACKTRACK_FACTOR = 0.5
WEIGHT_FLOOR = 1e-3
ZERO_ENTRY_LOG = -300.0

_METHOD_FLAGS = {
    "wmbe": (False, False, False),
    "wmbe-w": (False, True, False),
    "wmbe-theta": (False, False, True),
    "wmbe-wtheta": (False, True, True),
    "wmbe-g": (True, False, False),
    "wmbe-wg": (True, True, False),
}


@dataclass(frozen=True)
class OptimizerConfig:
    """Step sizes, budgets and acceptance knobs for optimize_bound."""

    step_gauge: float = 0.01
    step_weight: float = 0.1
    step_reparam: float = 0.1
    iterations: int = 150
    use_gauges: bool = False
    use_weights: bool = False
    use_reparam: bool = False
    max_backtracks: int = 20
    cond_limit: float = 1e8
    stop_tol: float | None = None
    stop_window: int = 10

    @classmethod
    def for_method(cls, method, **overrides):
        try:
            g, w, theta = _METHOD_FLAGS[method]
        except KeyError:
            raise ValueError(f"unknown method {method!r}") from None
        return cls(use_gauges=g, use_weights=w, use_reparam=theta,
                   **overrides)

    @property
    def method_name(self):
        for name, flags in _METHOD_FLAGS.items():
            if flags == (self.use_gauges, self.use_weights,
                         self.use_reparam):
                return name
        parts = ["wmbe"]
        if self.use_gauges:
            parts.append("g")
        if self.use_weights:
            parts.append("w")
        if self.use_reparam:
            parts.append("theta")
        return "-".join(parts)


@dataclass
class OptState:
    """Mutable optimization state over a fixed tree structure."""

    tree: object
    factors: list
    evaluator: TreeEvaluator
    config: OptimizerConfig
    bound: float
    neighbors: tuple    # var -> adjacent factor ids; scopes never change

    @property
    def direction(self):
        return self.tree.direction

    def _improved(self, new, old):
        return new <= old if self.direction == "upper" else new >= old

    def _descent_sign(self):
        return 1.0 if self.direction == "upper" else -1.0


def init_state(g, tree, config=None):
    config = config or OptimizerConfig()
    ev = TreeEvaluator(tree, g.factors, mode="wsum")
    return OptState(tree, list(g.factors), ev, config, ev.bound(),
                    g.var_neighbors)


def _screen_zero_entries(state, fid):
    f = state.factors[fid]
    low = f.logmag < ZERO_ENTRY_LOG
    if low.any():
        idx = tuple(int(i) for i in np.argwhere(low)[0])
        raise ZeroFactorEntry(fid, idx)


def _edge_term(q, f, axis):
    """sum_rest q(rest, a) * f(rest, b) / f(rest, a) as an (a, b) matrix."""
    d = f.cards[axis]
    qm = np.moveaxis(q, axis, -1).reshape(-1, d)
    s = np.moveaxis(f.sign, axis, -1).reshape(-1, d)
    l = np.moveaxis(f.logmag, axis, -1).reshape(-1, d)
    ratio = (s[:, :, None] * s[:, None, :]) * np.exp(
        l[:, None, :] - l[:, :, None]
    )
    return np.einsum("ra,rab->ab", qm, ratio)


def gauge_gradient(state, v):
    """Derivative of the log bound w.r.t. the matrix on v's free edge.

    The free edge joins the lower-id adjacent factor; the higher-id
    partner is tied as the transpose-inverse.  Entries of either factor
    with log-magnitude below the screen threshold raise, since the
    expression divides by table values.
    """
    a, b = _edge_pair(state, v)
    _screen_zero_entries(state, a)
    _screen_zero_entries(state, b)
    fa, fb = state.factors[a], state.factors[b]
    memo = {}
    qa = state.evaluator.factor_marginal(a, memo)
    qb = state.evaluator.factor_marginal(b, memo)
    ta = _edge_term(qa, fa, fa.axis_of(v))
    tb = _edge_term(qb, fb, fb.axis_of(v))
    return ta - tb.T


def _edge_pair(state, v):
    nbrs = state.neighbors[v]
    if len(nbrs) != 2:
        raise ValueError(f"variable {v} does not have exactly two factors")
    return nbrs[0], nbrs[1]


def gauge_step(state, v, step=None):
    """One accepted-descent transform step at variable v.

    The candidate matrix is I -/+ mu * gradient (sign per direction);
    its partner is the transpose-inverse, both adjacent factors absorb
    their matrix, and the result is kept only if the bound did not get
    worse.  Backtracking halves mu; an ill-conditioned candidate
    surviving all halvings raises.
    """
    cfg = state.config
    grad = gauge_gradient(state, v)
    a, b = _edge_pair(state, v)
    fa, fb = state.factors[a], state.factors[b]
    d = fa.cards[fa.axis_of(v)]
    eye = np.eye(d)
    mu = cfg.step_gauge if step is None else step
    mu *= state._descent_sign()
    old = state.bound
    ev = state.evaluator
    bad_cond = False
    for _ in range(cfg.max_backtracks + 1):
        cand = eye - mu * grad
        cond = np.linalg.cond(cand)
        bad_cond = not np.isfinite(cond) or cond > cfg.cond_limit
        if not bad_cond:
            partner = np.linalg.inv(cand.T)
            fa2 = gauge_transform_factor(fa, {v: cand})
            fb2 = gauge_transform_factor(fb, {v: partner})
            token = ev.set_factors({a: fa2, b: fb2})
            new = ev.bound()
            if state._improved(new, old):
                state.factors[a] = fa2
                state.factors[b] = fb2
                state.bound = new
                return True
            ev.restore(token)
        mu *= BACKTRACK_FACTOR
    if bad_cond:
        raise SingularGaugeStep(
            f"candidate at var {v} ill-conditioned after "
            f"{cfg.max_backtracks} halvings"
        )
    return False


def reparam_gradient(state, v):
    """Marginal mismatch of v between its two adjacent factors."""
    a, b = _edge_pair(state, v)
    fa, fb = state.factors[a], state.factors[b]
    memo = {}
    qa = state.evaluator.factor_marginal(a, memo)
    qb = state.evaluator.factor_marginal(b, memo)
    ma = np.moveaxis(qa, fa.axis_of(v), 0).reshape(qa.shape[fa.axis_of(v)], -1).sum(axis=1)
    mb = np.moveaxis(qb, fb.axis_of(v), 0).reshape(qb.shape[fb.axis_of(v)], -1).sum(axis=1)
    return ma - mb


def _reparam_try(state, v, theta):
    a, b = _edge_pair(state, v)
    fa2 = state.factors[a].scale_axis_log(v, theta)
    fb2 = state.factors[b].scale_axis_log(v, -theta)
    token = state.evaluator.set_factors({a: fa2, b: fb2})
    new = state.evaluator.bound()
    return token, new, fa2, fb2


def reparam_step(state, step=None):
    """One accepted sweep of diagonal rescaling over all variables.

    Per variable, both adjacent factors absorb opposite log-scale
    vectors proportional to the marginal mismatch; monotone acceptance
    with halving as for transform steps.  Returns whether any variable's
    move was accepted.
    """
    cfg = state.config
    mu0 = cfg.step_reparam if step is None else step
    any_accepted = False
    ev = state.evaluator
    for v in state.tree.order:
        grad = reparam_gradient(state, v)
        a, b = _edge_pair(state, v)
        mu = mu0 * state._descent_sign()
        old = state.bound
        for _ in range(cfg.max_backtracks + 1):
            token, new, fa2, fb2 = _reparam_try(state, v, -mu * grad)
            if state._improved(new, old):
                state.factors[a] = fa2
                state.factors[b] = fb2
                state.bound = new
                any_accepted = True
                break
            ev.restore(token)
            mu *= BACKTRACK_FACTOR
    return any_accepted


def weight_step(state, step=None):
    """One accepted sweep of power-sum weight updates (upper trees).

    For each split variable the closed-form gradient of the log bound
    in the log-weight domain (``TreeEvaluator.weight_gradient``) scales
    each weight by exp(-mu * w * grad), the pair is floored and
    renormalized to sum 1, and the move is kept only if the bound did
    not increase.  Returns whether any variable's move was accepted.
    """
    cfg = state.config
    if state.direction != "upper":
        raise ValueError("weight steps require an upper-direction tree")
    mu = cfg.step_weight if step is None else step
    ev = state.evaluator
    any_accepted = False
    for v, ks in state.tree.splits.items():
        if len(ks) < 2:
            continue
        w = np.array([ev.weights[k] for k in ks])
        grad = ev.weight_gradient(ks)
        cand = w * np.exp(-mu * w * grad)
        cand = np.maximum(cand, WEIGHT_FLOOR)
        cand = cand / cand.sum()
        old = state.bound
        token = ev.set_weights(dict(zip(ks, cand)))
        new = ev.bound()
        if state._improved(new, old):
            state.bound = new
            any_accepted = True
        else:
            ev.restore(token)
    return any_accepted


def optimize_bound(g, tree, config):
    """Run the configured sweeps and return (result, final state).

    Each iteration sweeps transform steps over all variables (if
    enabled), then weight steps, then reparameterization steps.  The
    trace holds the bound after every iteration and is monotone for the
    tree's direction because every move is accept-only.
    """
    t0 = time.perf_counter()
    state = init_state(g, tree, config)
    trace = [state.bound]
    for _ in range(config.iterations):
        if config.use_gauges:
            for v in tree.order:
                gauge_step(state, v)
        if config.use_weights:
            weight_step(state)
        if config.use_reparam:
            reparam_step(state)
        trace.append(state.bound)
        if config.stop_tol is not None and len(trace) > config.stop_window:
            span = abs(trace[-1 - config.stop_window] - trace[-1])
            if span <= config.stop_tol * max(1.0, abs(trace[-1])):
                break
    result = BoundResult(config.method_name, tree.direction, state.bound,
                         tuple(trace), time.perf_counter() - t0)
    return result, state
