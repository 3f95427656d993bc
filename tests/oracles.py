"""Test-only references: literal, slow and independent of the fast paths.

``brute_z`` lives in ``gmbe.oracle`` because ``gmbe verify`` uses it.
Everything here is used only by the test suite: the split model's
(factor, variable) -> mini-bucket assignment, walked here from each
factor's bucket up its chain of parents rather than read off the
library, the nested power sum over the dense split model, the same sum
taken bucket by bucket along the tree at any nonzero weights, the
chain-rule auxiliary marginals, central finite differences, the
full-rescan min-fill greedy that ``default_order`` must reproduce, and
bucket elimination with a sign table on every table, which ``run_be``
must reproduce bitwise.
"""

from __future__ import annotations

import numpy as np

from gmbe import Factor, SignedLog
from gmbe.elimination import induced_width
from gmbe.errors import GmbeError, ZeroWeight
from gmbe.factors import product_over, signed_sum_axes
from gmbe.oracle import MAX_STATES, _states_or_raise


class NonFiniteEvaluation(GmbeError):
    """A numeric probe returned NaN or an unexpected infinity."""


def factor_incidence(g, tree):
    """For each factor, the mini-bucket that sums out each scope variable.

    A factor's chain of buckets, from the one that consumes it up to its
    root, sums out each variable of its scope exactly once; the result
    lists those buckets in scope order, one tuple per factor.
    """
    out = []
    for fid, f in enumerate(g.factors):
        at = {}
        k = tree.factor_bucket[fid]
        while k is not None:
            b = tree.buckets[k]
            if b.var in f.scope:
                assert b.var not in at, f"factor {fid} sums {b.var} twice"
                at[b.var] = k
            k = b.parent
        out.append(tuple(at[u] for u in f.scope))
    return out


def _split_model_logmag(g, tree):
    """Dense |product| table of the split model, one axis per mini-bucket."""
    nbar = len(tree.buckets)
    split_cards = tuple(tree.cards[b.var] for b in tree.buckets)
    table = np.zeros(split_cards)
    for f, axes in zip(g.factors, factor_incidence(g, tree)):
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


def tree_wmbe(g, tree, weights):
    """Nested power sums along the tree's buckets; returns the log bound.

    Buckets run in index order, so children come first; each adds its
    factors and child messages over its scope and power-sums its
    variable out.  Unlike ``TreeEvaluator``, it takes any nonzero
    weights, on or off the simplex.
    """
    msgs = {}
    bound = 0.0
    for b in tree.buckets:
        members = [(g.factors[fid].scope, g.factors[fid].logmag)
                   for fid in b.factor_ids]
        members += [msgs[ch] for ch in b.children]
        psi = np.zeros([tree.cards[u] for u in b.scope])
        for scope, table in members:
            perm = sorted(range(len(scope)), key=lambda i: scope[i])
            shape = [tree.cards[u] if u in scope else 1 for u in b.scope]
            psi = psi + np.transpose(table, perm).reshape(shape)
        axis = b.scope.index(b.var)
        msg = _wsum_keepdims(psi, weights[b.index], axis)
        if b.parent is None:
            bound += float(msg.reshape(()))
        else:
            rest = tuple(u for u in b.scope if u != b.var)
            msgs[b.index] = (rest, np.squeeze(msg, axis))
    return bound


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
    for fid, axes in enumerate(factor_incidence(g, tree)):
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


def greedy_min_fill(g):
    """Min-fill greedy that rescans every remaining variable each step.

    Least fill first, smallest id on ties.
    """
    adj = [set() for _ in range(g.num_vars)]
    for f in g.factors:
        for i, u in enumerate(f.scope):
            for v in f.scope[i + 1:]:
                adj[u].add(v)
                adj[v].add(u)
    remaining = set(range(g.num_vars))
    order = []
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            nbrs = [u for u in adj[v] if u in remaining]
            fill = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if b not in adj[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        nbrs = [u for u in adj[best] if u in remaining]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        remaining.remove(best)
        order.append(best)
    return tuple(order)


def reference_min_fill_order(g):
    """``greedy_min_fill``, or the identity order if its induced width
    is strictly smaller: the rule ``default_order`` implements."""
    minfill = greedy_min_fill(g)
    identity = tuple(range(g.num_vars))
    if induced_width(g, identity) < induced_width(g, minfill):
        return identity
    return minfill


def reference_be(g, order):
    """Bucket elimination in which every table keeps its sign table.

    Every message is a ``Factor``, every bucket is a signed
    ``product_over`` of its factors and messages, and every sum is a
    signed ``signed_sum_axes``; there is no table guard.
    """
    pos = {v: k for k, v in enumerate(order)}
    buckets = [[] for _ in order]
    for f in g.factors:
        buckets[min(pos[v] for v in f.scope)].append(f)
    const_sign, const_log = 1.0, 0.0
    for k, v in enumerate(order):
        group = buckets[k]
        union = sorted({u for f in group for u in f.scope})
        sign, logmag = product_over(group, union,
                                    tuple(g.cards[u] for u in union))
        out_sign, out_log = signed_sum_axes(sign, logmag, union.index(v))
        rest = [u for u in union if u != v]
        if not rest:
            const_sign *= float(out_sign)
            const_log += float(out_log)
            if const_sign == 0.0:
                return SignedLog(0.0, -np.inf)
            continue
        msg = Factor(tuple(rest), tuple(g.cards[u] for u in rest),
                     out_sign, out_log)
        buckets[min(pos[u] for u in rest)].append(msg)
    return SignedLog(const_sign, const_log)
