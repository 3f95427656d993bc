"""Bucket elimination and weighted mini-bucket bounds.

Exact elimination multiplies every factor mentioning the next variable
of the order and sums that variable out; the table guard protects
against accidentally exact-solving a high-width model.

The bounded variant caps how many variables a bucket may touch.  When
the factors mentioning a variable do not fit together under the cap,
they are split across mini-buckets and the variable is summed out of
each one separately with a power sum

    wsum_w(psi) = (sum_x |psi(x)|^(1/w))^w,

computed in the log domain.  Hoelder's inequality makes the product of
the per-mini-bucket power sums an upper bound on the true sum whenever
the weights of one variable are positive and add to 1; the reverse
pattern (a single weight above 1, the rest negative, still summing
to 1) yields a lower bound on nonnegative models.  A mini-bucket with
weight 1 is an ordinary sum of magnitudes, so a tree without splits
reproduces exact elimination on nonnegative factors.

The tree records the mini-bucket that consumes each original factor
and each mini-bucket's parent.  A factor's chain of buckets up to its
root sums out each variable of its scope exactly once, and that
(factor, variable) -> mini-bucket assignment defines the split model
the bound is literally an exact sum over.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    IboundTooSmall,
    NumericalUnderflow,
    WidthExceeded,
    ZeroWeight,
)
from .factors import product_over, signed_sum_axes, SignedLog

BE_ENTRY_GUARD = 2 ** 24


def _checked_order(order, num_vars):
    """``order`` as a tuple, if it eliminates every variable exactly once."""
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(num_vars)):
        raise ValueError("order must cover every variable exactly once")
    return order


def _lse_axis(a, axis, w=1.0):
    """Log power sum ``w * log sum exp(a / w)`` over one axis.

    The one elimination kernel: at weight 1 it is a plain log-sum-exp
    and skips the scaling.  If some slice's maximum is not finite (all
    -inf, or +inf after a negative weight), the whole table goes to
    ``signed_sum_axes`` with no sign table, which tolerates infinite
    entries and equals ``scipy.special.logsumexp(a, axis)`` bitwise.
    """
    if w != 1.0:
        a = a / w
    m = a.max(axis=axis, keepdims=True)
    if np.isfinite(m).all():
        s = np.add.reduce(np.exp(a - m), axis=axis)
        out = np.log(s) + m.reshape(s.shape)
    else:
        out = signed_sum_axes(None, a, axis)[1]
    return out if w == 1.0 else w * out


def _primal_adjacency(g):
    adj = [set() for _ in range(g.num_vars)]
    for f in g.factors:
        for i, u in enumerate(f.scope):
            for v in f.scope[i + 1:]:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def induced_width(g, order):
    """Largest bucket scope size minus one when eliminating in order."""
    adj = _primal_adjacency(g)
    alive = [True] * g.num_vars
    width = 0
    for v in order:
        nbrs = [u for u in adj[v] if alive[u]]
        width = max(width, len(nbrs))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        alive[v] = False
    return width


def _fill(adj, v):
    """Pairs of ``v``'s neighbours that are not adjacent to each other."""
    nbrs = adj[v]
    d = len(nbrs)
    linked = sum(len(adj[a] & nbrs) for a in nbrs) // 2
    return d * (d - 1) // 2 - linked


def default_order(g):
    """Greedy min-fill order, smallest variable id on ties.

    The fill of every remaining variable is kept up to date rather than
    recomputed at each step.  Eliminating ``x`` removes it from its
    neighbours' adjacency and joins those neighbours pairwise; only the
    neighbours' fill is recomputed.  Every other variable adjacent to
    both ends of a new fill edge loses one unit of fill, and no other
    count changes.  The next variable is popped from a heap keyed
    ``(fill, id)``, skipping entries whose fill is out of date, so ties
    go to the smallest id exactly as in a full rescan.

    As a guard for highly regular inputs where greedy fill stumbles,
    the identity order is simulated as well and returned instead if it
    achieves a strictly smaller induced width.
    """
    adj = _primal_adjacency(g)
    fill = [_fill(adj, v) for v in range(g.num_vars)]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    order = []
    width = 0
    while heap:
        f, x = heapq.heappop(heap)
        if adj[x] is None or f != fill[x]:
            continue
        nbrs = adj[x]
        adj[x] = None
        order.append(x)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a].discard(x)
        changed = set()
        for a in nbrs:
            adj_a = adj[a]
            for b in nbrs:
                if b > a and b not in adj_a:
                    adj_b = adj[b]
                    for w in adj_a & adj_b:
                        if w not in nbrs:
                            fill[w] -= 1
                            changed.add(w)
                    adj_a.add(b)
                    adj_b.add(a)
        for a in nbrs:
            fill[a] = _fill(adj, a)
        for v in changed | nbrs:
            heapq.heappush(heap, (fill[v], v))
    identity = tuple(range(g.num_vars))
    if induced_width(g, identity) < width:
        return identity
    return tuple(order)


class _Table(NamedTuple):
    """A table of ``run_be``: ``sign`` is None if no entry is negative."""

    scope: tuple
    sign: np.ndarray | None
    logmag: np.ndarray


def run_be(g, order):
    """Exact log partition function by bucket elimination.

    Returns a SignedLog so models whose transformed tables carry
    negative entries still evaluate exactly (signed log-domain sums).
    A bucket table above ``BE_ENTRY_GUARD`` entries raises WidthExceeded.

    A table with no negative entry carries no sign table, so a bucket
    whose tables are all sign-free only adds log tables and sums them;
    its message is sign-free too.  A bucket with a signed member works
    with signs, and its message drops them again if no entry came out
    negative.  Each bucket is dropped once it has been eliminated.
    """
    order = _checked_order(order, g.num_vars)
    pos = {v: k for k, v in enumerate(order)}
    buckets = [[] for _ in order]
    for f in g.factors:
        sign = f.sign if (f.sign < 0).any() else None
        buckets[min(pos[v] for v in f.scope)].append(
            _Table(f.scope, sign, f.logmag))
    const_sign, const_log = 1.0, 0.0
    cards = g.cards
    for k, v in enumerate(order):
        group, buckets[k] = buckets[k], None
        union = sorted({u for t in group for u in t.scope})
        if math.prod(cards[u] for u in union) > BE_ENTRY_GUARD:
            raise WidthExceeded(len(union) - 1, BE_ENTRY_GUARD)
        sign, logmag = product_over(group, union,
                                    tuple(cards[u] for u in union))
        out_sign, out_log = signed_sum_axes(sign, logmag, union.index(v))
        del group, sign, logmag
        rest = tuple(u for u in union if u != v)
        if not rest:
            if out_log == -np.inf:
                return SignedLog(0.0, -np.inf)
            if out_sign is not None:
                const_sign *= float(out_sign)
            const_log += float(out_log)
            continue
        if out_sign is not None and not (out_sign < 0).any():
            out_sign = None
        buckets[min(pos[u] for u in rest)].append(
            _Table(rest, out_sign, out_log))
    return SignedLog(const_sign, const_log)


@dataclass(frozen=True)
class MiniBucket:
    """One elimination step of one copy of a variable."""

    index: int
    var: int
    copy: int
    scope: tuple          # sorted variable ids, includes var
    factor_ids: tuple     # original factors first consumed here
    children: tuple       # mini-bucket indices whose messages feed here
    parent: int | None


@dataclass(frozen=True)
class MiniBucketTree:
    """Static structure of a bounded elimination run.

    ``factor_bucket[fid]`` is the mini-bucket that consumes factor fid;
    its chain of parents to the root fixes the split model.
    ``initial_weights`` carries the per-mini-bucket
    starting weights for the tree's direction; evaluation may override
    them (the structure never changes during weight optimization).
    ``var_factors[v]`` is the ascending tuple of ids of v's factors, the
    model's ``var_neighbors``.
    """

    cards: tuple
    var_factors: tuple
    order: tuple
    direction: str
    buckets: tuple
    factor_bucket: tuple      # fid -> consuming mini-bucket index
    initial_weights: tuple

    @cached_property
    def splits(self):
        """Original variable id -> indices of the mini-buckets that copy it."""
        reg = {}
        for b in self.buckets:
            reg.setdefault(b.var, []).append(b.index)
        return {v: tuple(ks) for v, ks in reg.items()}

    @property
    def roots(self):
        return tuple(b.index for b in self.buckets if b.parent is None)


def lower_weights(r):
    """Reverse-pattern start: one weight above 1, the rest at -1/2."""
    if r == 1:
        return [1.0]
    return [1.0 + 0.5 * (r - 1)] + [-0.5] * (r - 1)


def build_minibucket_tree(g, order, ibound, direction="upper"):
    """Plan a bounded elimination of ``g`` along ``order``.

    A mini-bucket may touch at most ibound + 1 variables (width ibound),
    so ibound at or above the induced width of the order produces no
    splits.  Every factor must fit in one mini-bucket.  Oversized
    buckets are split by first-fit over clusters sorted by descending
    scope size (ties by creation); on a degree-2 model at most two
    clusters ever mention a variable, so at most two mini-buckets arise
    per variable.  Starting weights are uniform (upper) or the reverse
    pattern from ``lower_weights`` (lower).

    A cluster is an original factor or a mini-bucket's message, held as
    ``(creation index, scope, factor id, child bucket)`` with exactly
    one of the last two None.  Factors are created first, in id order,
    then messages in bucket order.  Each variable lists the clusters
    that mention it; a cluster is live until a mini-bucket consumes it.
    """
    if direction not in ("upper", "lower"):
        raise ValueError(f"unknown direction {direction!r}")
    order = _checked_order(order, g.num_vars)
    ibound = int(ibound)
    capacity = ibound + 1
    for fid, f in enumerate(g.factors):
        if f.arity > capacity:
            raise IboundTooSmall(fid, f.arity, ibound)

    clusters = [(fid, f.scope, fid, None) for fid, f in enumerate(g.factors)]
    mention = [[clusters[fid] for fid in fids] for fids in g.var_neighbors]
    consumed = set()
    rows, parent, weights = [], [], []
    factor_bucket = [None] * g.num_factors
    for v in order:
        group = [c for c in mention[v] if c[0] not in consumed]
        if not group:
            raise ValueError(f"variable {v} appears in no factor")
        group.sort(key=lambda c: (-len(c[1]), c[0]))
        bins = []
        for c in group:
            for scope, members in bins:
                if len(scope.union(c[1])) <= capacity:
                    scope.update(c[1])
                    members.append(c)
                    break
            else:
                bins.append((set(c[1]), [c]))
        if direction == "upper":
            weights += [1.0 / len(bins)] * len(bins)
        else:
            weights += lower_weights(len(bins))
        for r, (scope, members) in enumerate(bins):
            k = len(rows)
            scope = tuple(sorted(scope))
            fids = tuple(c[2] for c in members if c[3] is None)
            children = tuple(c[3] for c in members if c[3] is not None)
            for fid in fids:
                factor_bucket[fid] = k
            for ch in children:
                parent[ch] = k
            consumed.update(c[0] for c in members)
            rows.append((v, r, scope, fids, children))
            parent.append(None)
            rest = tuple(u for u in scope if u != v)
            if rest:
                message = (g.num_factors + k, rest, None, k)
                for u in rest:
                    mention[u].append(message)

    buckets = tuple(MiniBucket(k, *row, parent[k])
                    for k, row in enumerate(rows))
    return MiniBucketTree(g.cards, g.var_neighbors, order, direction,
                          buckets, tuple(factor_bucket), tuple(weights))


def _check_split(v, ws, direction):
    """Variable v's copy weights: nonzero, sum 1, the direction's signs."""
    if any(w == 0.0 for w in ws):
        raise ZeroWeight(f"zero weight at variable {v}")
    if abs(sum(ws) - 1.0) > 1e-9:
        raise ValueError(f"weights at variable {v} sum to {sum(ws)}")
    pos = sum(1 for w in ws if w > 0.0)
    if direction == "upper" and pos != len(ws):
        raise ValueError(f"upper direction needs positive weights at {v}")
    if direction == "lower" and pos != 1:
        raise ValueError(
            f"lower direction needs exactly one positive weight at {v}"
        )


class TreeEvaluator:
    """Incremental evaluation of a mini-bucket bound.

    Holds, per mini-bucket, the combined log-magnitude table ``psi`` of
    everything assigned to it and the eliminated message ``msg``.  Only
    magnitudes matter here: power sums act on |psi| by definition, so
    factor signs never enter the bound.  All bucket tables are laid out
    over their sorted scopes, which makes every alignment a cheap
    reshape of a contiguous array.

    It owns the working model and is the optimizer's whole state:
    ``factors`` is the current ``Factor`` list, which ``set_factors``
    updates and ``restore`` reverts, ``weights`` the current weights,
    and ``bound()`` the current bound.  ``set_factors``/``set_weights``
    recompute just the path from the touched mini-buckets to their
    roots and return an undo token, which is what makes accept/reject
    optimization steps cheap.
    """

    def __init__(self, tree, factors, mode="wsum"):
        if mode not in ("wsum", "mbe"):
            raise ValueError(f"unknown mode {mode!r}")
        self.tree = tree
        self.mode = mode
        self.weights = np.array(tree.initial_weights, dtype=float)
        if mode == "wsum":
            for v, ks in tree.splits.items():
                _check_split(v, [self.weights[k] for k in ks], tree.direction)
        self.factors = list(factors)
        self._aligned = [self._align_factor(f) for f in factors]
        # Static plan.  A bucket's scope is the union of its members'
        # scopes, so their sum always spans it and no member needs a
        # broadcast.  Per bucket: members as (is message, id, reshape),
        # the elimination axis, the keep-dims shape of its message (also
        # that of the parent marginal over the message scope), the parent
        # axes summed out for that marginal, and whether mbe sums here.
        buckets = tree.buckets
        self._parent = tuple(b.parent for b in buckets)
        self._plan = []
        for b in buckets:
            members = [(0, fid, self._shape_in(factors[fid].scope, b))
                       for fid in b.factor_ids]
            members += [(1, ch, self._shape_in(self._rest(ch), b))
                        for ch in b.children]
            rest = self._rest(b.index)
            pdrop = () if b.parent is None else tuple(
                i for i, u in enumerate(buckets[b.parent].scope)
                if u not in rest)
            self._plan.append((members, b.scope.index(b.var),
                               self._shape_in(rest, b), pdrop, b.copy == 0))
        # per factor: bucket axes summed out, then the axis order of its
        # own scope
        self._fplan = []
        for fid, f in enumerate(factors):
            bscope = buckets[tree.factor_bucket[fid]].scope
            srt = sorted(f.scope)
            self._fplan.append((
                tuple(i for i, u in enumerate(bscope) if u not in f.scope),
                tuple(srt.index(u) for u in f.scope)))
        self.psi = [None] * len(buckets)
        self.msg = [None] * len(buckets)
        self._roots = tree.roots
        for k in range(len(buckets)):
            self._recompute(k)

    def _rest(self, k):
        b = self.tree.buckets[k]
        return tuple(u for u in b.scope if u != b.var)

    def _shape_in(self, scope, b):
        """Shape of a table over ``scope`` laid out on bucket b's axes."""
        return tuple(self.tree.cards[u] if u in scope else 1 for u in b.scope)

    def _align_factor(self, f):
        scope_sorted = tuple(sorted(f.scope))
        perm = [f.scope.index(u) for u in scope_sorted]
        return np.ascontiguousarray(np.transpose(f.logmag, perm))

    def _recompute(self, k):
        members, axis, _, _, sums = self._plan[k]
        tables = (self._aligned, self.msg)
        (src, i, shape), *more = members
        psi = tables[src][i].reshape(shape)
        for src, i, shape in more:
            psi = psi + tables[src][i].reshape(shape)
        self.psi[k] = psi
        if self.mode == "wsum":
            self.msg[k] = _lse_axis(psi, axis, self.weights[k])
        elif sums:
            self.msg[k] = _lse_axis(psi, axis)
        else:
            self.msg[k] = psi.max(axis=axis)

    def bound(self):
        """Current log bound: the sum of all root constants."""
        return float(sum(float(self.msg[k]) for k in self._roots))

    def _update(self, touched):
        """Recompute the touched buckets and their ancestors, children
        first; returns the old ``(psi, msg)`` of each."""
        path = set()
        for k in touched:
            while k is not None and k not in path:
                path.add(k)
                k = self._parent[k]
        path = sorted(path)
        undo_b = {k: (self.psi[k], self.msg[k]) for k in path}
        for k in path:
            self._recompute(k)
        return undo_b

    def set_factors(self, updates):
        """Replace factor tables; returns an undo token."""
        undo_f = {}
        for fid, f in updates.items():
            undo_f[fid] = (self.factors[fid], self._aligned[fid])
            self.factors[fid] = f
            self._aligned[fid] = self._align_factor(f)
        touched = {self.tree.factor_bucket[fid] for fid in updates}
        return ("f", undo_f, self._update(touched))

    def set_weights(self, updates):
        """Set per-mini-bucket weights; returns an undo token.

        Every variable the update touches must keep the weight rule of
        ``_check_split``.  That is checked before any weight is set, so a
        rejected update leaves the evaluator as it was.
        """
        tree = self.tree
        for v in dict.fromkeys(tree.buckets[k].var for k in updates):
            _check_split(v, [updates.get(k, self.weights[k])
                             for k in tree.splits[v]], tree.direction)
        undo_w = {k: self.weights[k] for k in updates}
        for k, w in updates.items():
            self.weights[k] = w
        return ("w", undo_w, self._update(updates))

    def restore(self, token):
        kind, undo_x, undo_b = token
        if kind == "f":
            for fid, (f, arr) in undo_x.items():
                self.factors[fid] = f
                self._aligned[fid] = arr
        else:
            for k, w in undo_x.items():
                self.weights[k] = w
        for k, (psi, msg) in undo_b.items():
            self.psi[k] = psi
            self.msg[k] = msg

    # ---- auxiliary chain-rule distribution ----------------------------

    def beliefs(self, bucket_ids, memo=None):
        """Joint tables of the auxiliary distribution over bucket scopes.

        The distribution is the product over mini-buckets of the
        conditionals (|psi|/msg)^(1/w); its marginal over a mini-bucket
        scope is that conditional times the parent marginal, walked
        root-downward.
        """
        if self.mode != "wsum":
            raise ValueError("auxiliary distribution needs power-sum mode")
        memo = {} if memo is None else memo
        parent = self._parent
        need = []
        for k in bucket_ids:
            j = k
            while j is not None and j not in memo:
                need.append(j)
                j = parent[j]
        for k in sorted(set(need), reverse=True):
            memo[k] = self._joint(k, self.psi[k], memo)
        return memo

    def _joint(self, k, logt, memo):
        """exp((logt - msg_k) / w_k) times bucket k's parent marginal.

        ``logt`` is a log table over bucket k's scope, and the parent's
        joint must be in ``memo``.  Slices whose normalizer vanished
        carry zero parent mass, so they are set to zero outright.
        """
        _, _, kshape, pdrop, _ = self._plan[k]
        msg = self.msg[k]
        p = self._parent[k]
        if p is None and msg == -np.inf:
            b = self.tree.buckets[k]
            raise NumericalUnderflow(
                f"zero normalizer at root mini-bucket {k} "
                f"(variable {b.var}, copy {b.copy})"
            )
        mexp = msg.reshape(kshape)
        if mexp.min() == -np.inf:
            with np.errstate(invalid="ignore"):
                rho = np.exp((logt - mexp) / self.weights[k])
            rho = np.where(mexp == -np.inf, 0.0, rho)
        else:
            rho = np.exp((logt - mexp) / self.weights[k])
        if p is not None:
            pm = memo[p]
            if pdrop:
                pm = np.add.reduce(pm, axis=pdrop)
            rho = rho * pm.reshape(kshape)
        return rho

    def _over_factor(self, fid, table):
        """A table over fid's bucket, summed down to fid's axis order."""
        drop, perm = self._fplan[fid]
        if drop:
            table = np.add.reduce(table, axis=drop)
        return table.transpose(perm)

    def factor_marginal(self, fid, memo=None):
        """Marginal of the auxiliary distribution over a factor's scope.

        Returned in the factor's own axis order; the split copies are
        those of the mini-bucket that consumed the factor.
        """
        k = self.tree.factor_bucket[fid]
        return self._over_factor(fid, self.beliefs((k,), memo)[k])

    def factor_cavity(self, fid, shift, memo=None):
        """exp(shift) times the bound's derivative in |f|, f = factors[fid].

        The derivative of the bound in a table entry is the auxiliary
        marginal over that entry divided by the entry (Liu & Ihler,
        ICML 2011): the bucket's joint with f's own table taken out.
        It is built without dividing, from the other members plus
        (1 - w) times f's log table, which is left out at w = 1.  Zero
        entries then get a finite derivative for w in (0, 1]; under a
        weight above 1 or below 0 they can give inf or nan.  Returned
        in the factor's own axis order.
        """
        k = self.tree.factor_bucket[fid]
        p = self._parent[k]
        memo = self.beliefs(() if p is None else (p,), memo)
        w = self.weights[k]
        tables = (self._aligned, self.msg)
        logt = np.full(self.psi[k].shape, w * shift)
        for src, i, shape in self._plan[k][0]:
            t = tables[src][i].reshape(shape)
            if src == 0 and i == fid:
                if w == 1.0:
                    continue
                t = (1.0 - w) * t
            logt = logt + t
        return self._over_factor(fid, self._joint(k, logt, memo))

    def weight_gradient(self, bucket_ids):
        """Derivative of the log bound w.r.t. log w_k, per mini-bucket k.

        Closed form (Liu & Ihler, ICML 2011): w_k times the conditional
        entropy of the auxiliary conditional rho_k under the bucket's
        joint q_k, that is w_k * sum q_k * (-log rho_k), where
        w_k * log rho_k = psi_k - msg_k.  Entries with q_k = 0 are left
        out, which takes 0 log 0 as 0.
        """
        memo = self.beliefs(bucket_ids)
        grad = np.empty(len(bucket_ids))
        for i, k in enumerate(bucket_ids):
            q = memo[k]
            mexp = self.msg[k].reshape(self._plan[k][2])
            live = q > 0.0
            neg_log = np.broadcast_to(mexp, q.shape)[live] - self.psi[k][live]
            grad[i] = np.dot(q[live], neg_log)
        return grad


def run_wmbe(g, tree):
    """Weighted mini-bucket bound on log Z for the tree's direction."""
    t0 = time.perf_counter()
    ev = TreeEvaluator(tree, g.factors)
    lb = ev.bound()
    return BoundResult("wmbe", tree.direction, lb, (lb,),
                       time.perf_counter() - t0)


def run_mbe(g, tree):
    """Classic mini-bucket upper bound: one sum, max elsewhere."""
    t0 = time.perf_counter()
    ev = TreeEvaluator(tree, g.factors, mode="mbe")
    lb = ev.bound()
    return BoundResult("mbe", "upper", lb, (lb,), time.perf_counter() - t0)


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one bounding run."""

    method: str
    direction: str
    log_bound: float
    trace: tuple
    wall_time: float

    @property
    def iterations(self):
        return len(self.trace) - 1
