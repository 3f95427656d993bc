"""Brute-force references for desk-scale models.

Everything here trades time for directness: full enumeration with
compensated summation for the partition function, a literal nested
power-sum over the split model for the bounded variant, and the
chain-rule definition of the auxiliary distribution evaluated on dense
joint tables.  These are the yardsticks the fast implementations are
tested against, so they deliberately share as little machinery with
them as possible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, NonFiniteEvaluation, ZeroWeight
from .factors import SignedLog, product_over

MAX_STATES = 2 ** 20    # default cap on the joint states enumeration visits


def _states_or_raise(cards, budget):
    """Joint state count of ``cards``; raise above ``budget`` states."""
    states = 1
    for c in cards:
        states *= int(c)
    if states > budget:
        raise BudgetExceeded(states, budget)
    return states


def brute_z(g, budget=MAX_STATES):
    """Exact partition function by enumeration, as (sign, log|Z|).

    The mantissa sum runs through math.fsum, so cancellation between
    positive and negative terms costs no precision and the reduction
    order is fixed regardless of table layout.
    """
    _states_or_raise(g.cards, budget)
    scope = tuple(range(g.num_vars))
    sign, logmag = product_over(g.factors, scope, g.cards)
    m = float(np.max(logmag))
    if m == -np.inf:
        return SignedLog(0.0, -np.inf)
    terms = sign * np.exp(logmag - m)
    total = math.fsum(terms.ravel().tolist())
    if total == 0.0:
        return SignedLog(0.0, -np.inf)
    return SignedLog(float(np.sign(total)), m + math.log(abs(total)))


def _split_model_logmag(g, tree):
    """Dense |product| table of the split model, one axis per mini-bucket."""
    nbar = len(tree.buckets)
    split_cards = tuple(tree.cards[b.var] for b in tree.buckets)
    table = np.zeros(split_cards)
    for fid, f in enumerate(g.factors):
        axes = tree.factor_incidence[fid]
        shape = [1] * nbar
        for ax, c in zip(axes, f.cards):
            shape[ax] = c
        order = np.argsort(axes)
        table = table + np.transpose(f.logmag, order).reshape(shape)
    return table, split_cards


def _wsum_keepdims(logmag, w, axis):
    if w == 0.0:
        raise ZeroWeight("power-sum weight must be nonzero")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        a = logmag / w
        m = np.max(a, axis=axis, keepdims=True)
        safe = np.where(np.isfinite(m), m, 0.0)
        s = np.log(np.exp(a - safe).sum(axis=axis, keepdims=True)) + safe
        s = np.where(np.isneginf(m), -np.inf, s)
        s = np.where(np.isposinf(m), np.inf, s)
        return w * s


def brute_wmbe(g, tree, weights=None, budget=MAX_STATES):
    """Literal nested power-sum over the split model; returns log bound."""
    weights = tree.initial_weights if weights is None else weights
    table, split_cards = _split_model_logmag(g, tree)
    _states_or_raise(split_cards, budget)
    for k in range(len(tree.buckets)):
        table = _wsum_keepdims(table, weights[k], k)
    return float(table.reshape(()))


def brute_aux_marginals(g, tree, weights=None, budget=MAX_STATES):
    """Chain-rule auxiliary distribution, marginalized per factor.

    Builds the dense joint q over all split variables by multiplying the
    defining conditionals (partial power sum ratios raised to 1/w) and
    sums it down to each factor's split scope.  Returns a dict mapping
    factor id to its marginal table in factor scope order.
    """
    weights = tree.initial_weights if weights is None else weights
    table, split_cards = _split_model_logmag(g, tree)
    _states_or_raise(split_cards, budget)
    q = np.ones(split_cards)
    z = table
    for k in range(len(tree.buckets)):
        m = _wsum_keepdims(z, weights[k], k)
        with np.errstate(invalid="ignore"):
            cond = np.exp((z - m) / weights[k])
        if np.isneginf(m).any():
            cond = np.where(np.isneginf(m), 0.0, cond)
        q = q * cond
        z = m
    out = {}
    for fid, f in enumerate(g.factors):
        axes = tree.factor_incidence[fid]
        drop = tuple(i for i in range(len(tree.buckets)) if i not in axes)
        marg = q.sum(axis=drop) if drop else q
        sorted_axes = sorted(axes)
        perm = [sorted_axes.index(a) for a in axes]
        out[fid] = np.transpose(marg, perm)
    return out


def fd_gradient(fn, x0, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += h
        xm = x0.copy()
        xm[idx] -= h
        fp, fm = fn(xp), fn(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteEvaluation(f"probe at {idx} returned non-finite")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad
