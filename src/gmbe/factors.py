"""Signed log-magnitude tensors over discrete variables.

Every factor table entry is stored as a pair (sign, log|value|) with
sign in {-1, 0, +1} and log-magnitude -inf exactly when the sign is 0.
Two things force this representation: edge transforms legitimately drive
table entries negative, so a plain log table cannot hold them, and
power sums with fractional or negative exponents overflow double
precision long before the models of interest get large.

Products add log-magnitudes and multiply signs; sums go through a
shifted exponential so only ratios against the slice maximum are ever
exponentiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class SignedLog(NamedTuple):
    """A single real number as (sign, log|value|)."""

    sign: float
    logabs: float


def _normalize_pair(sign, logmag):
    """Enforce sign == 0 <=> logmag == -inf on an array pair."""
    sign = np.asarray(sign, dtype=np.float64)
    logmag = np.asarray(logmag, dtype=np.float64)
    dead = (sign == 0.0) | (logmag == -np.inf)
    if dead.any():
        sign = np.where(dead, 0.0, sign)
        logmag = np.where(dead, -np.inf, logmag)
    return sign, logmag


@dataclass(frozen=True)
class Factor:
    """A dense table over an ordered scope of discrete variables.

    The table is indexed row-major in scope order: the last scope
    variable is the fastest-running index.  Treated as immutable; all
    operations return new factors.
    """

    scope: tuple
    cards: tuple
    sign: np.ndarray = field(repr=False)
    logmag: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(int(v) for v in self.scope))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"duplicate variable in scope {self.scope}")
        if len(self.scope) != len(self.cards):
            raise ValueError("scope and cards length mismatch")
        sign, logmag = _normalize_pair(self.sign, self.logmag)
        if sign.shape != self.cards or logmag.shape != self.cards:
            raise ValueError(
                f"table shape {logmag.shape} does not match cards {self.cards}"
            )
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "logmag", logmag)

    @classmethod
    def from_linear(cls, scope, cards, values):
        values = np.asarray(values, dtype=np.float64).reshape(tuple(cards))
        if not np.isfinite(values).all():
            raise ValueError("table values must be finite")
        with np.errstate(divide="ignore"):
            logmag = np.log(np.abs(values))
        return cls(tuple(scope), tuple(cards), np.sign(values), logmag)

    @classmethod
    def from_log(cls, scope, cards, logvals):
        """A nonnegative table from its logs; -inf is a zero entry."""
        logvals = np.asarray(logvals, dtype=np.float64).reshape(tuple(cards))
        if not (logvals < np.inf).all():
            raise ValueError("log table values must not be NaN or +inf")
        return cls(tuple(scope), tuple(cards), np.ones_like(logvals), logvals)

    @classmethod
    def uniform(cls, scope, cards):
        shape = tuple(cards)
        return cls(tuple(scope), shape, np.ones(shape), np.zeros(shape))

    @classmethod
    def equality(cls, scope, card):
        """Indicator of all scope variables taking the same state."""
        shape = (card,) * len(scope)
        sign = np.zeros(shape)
        logmag = np.full(shape, -np.inf)
        diag = (np.arange(card),) * len(scope)
        sign[diag] = 1.0
        logmag[diag] = 0.0
        return cls(tuple(scope), shape, sign, logmag)

    @property
    def arity(self):
        return len(self.scope)

    def linear(self):
        """Dense linear-domain values; only safe for moderate magnitudes."""
        return self.sign * np.exp(self.logmag)

    def axis_of(self, var):
        return self.scope.index(var)

    def scale_axis_log(self, var, logscale):
        """Multiply by exp(logscale[x_v]) along the axis of ``var``."""
        logscale = np.asarray(logscale, dtype=np.float64)
        ax = self.axis_of(var)
        if logscale.shape != (self.cards[ax],):
            raise ValueError("scale vector length does not match cardinality")
        shape = [1] * self.arity
        shape[ax] = self.cards[ax]
        return Factor(
            self.scope,
            self.cards,
            self.sign.copy(),
            self.logmag + logscale.reshape(shape),
        )


def expand_to(arr, scope, union_scope):
    """Broadcastable view/copy of ``arr`` (axes = scope) over union_scope."""
    positions = [union_scope.index(v) for v in scope]
    order = np.argsort(positions)
    moved = np.transpose(arr, order)
    shape = [1] * len(union_scope)
    for i, pos in enumerate(sorted(positions)):
        shape[pos] = moved.shape[i]
    return moved.reshape(shape)


def product_over(tables, union_scope, union_cards):
    """Sign and log-magnitude of the product, as full C-ordered tables.

    ``tables`` are factors, or anything else with a ``scope``, a
    ``sign`` and a ``logmag``.  A ``sign`` of None marks a table with no
    negative entry.  If every sign is None, only the log tables are
    added and the product's sign is None too; otherwise a None sign
    counts as 1.  The first table is broadcast into the result and the
    others are added (and multiplied) in place; no tables give the empty
    product, sign 1 and log 0.  A sign-free product is not normalized,
    so a +inf log entry (never read from a file) times a zero gives NaN
    there, where a signed product gives the zero.
    """
    shape = tuple(union_cards)
    if not tables:
        return np.ones(shape), np.zeros(shape)
    logmag = np.empty(shape)
    first, *rest = tables
    np.copyto(logmag, expand_to(first.logmag, first.scope, union_scope))
    for t in rest:
        logmag += expand_to(t.logmag, t.scope, union_scope)
    signed = [t for t in tables if t.sign is not None]
    if not signed:
        return None, logmag
    sign = np.empty(shape)
    first, *rest = signed
    np.copyto(sign, expand_to(first.sign, first.scope, union_scope))
    for t in rest:
        sign *= expand_to(t.sign, t.scope, union_scope)
    return _normalize_pair(sign, logmag)


def signed_sum_axes(sign, logmag, axes):
    """Signed log-domain sum over the given axes, as (sign, log|sum|).

    Wherever ``sign`` is 0, ``logmag`` must be -inf, as ``Factor`` and
    ``product_over`` guarantee.  The arithmetic is that of
    ``scipy.special.logsumexp(logmag, axes, b=sign, return_sign=True)``,
    step for step, so the result is bitwise equal to it wherever
    scipy's direct sum below does not overflow: the entries at the slice
    maximum are counted with their signs, the others are summed as
    ``sign * exp(logmag - max)``, and the two are combined through
    ``log1p``.  A slice whose result is not finite (all zero, or
    cancelling at the maximum) takes the direct ``log|sum sign *
    exp(logmag)|``; that sum is only computed when some slice needs it.
    Where the direct sum is not finite but the slice maximum is (entries
    past about 709 that cancel at the maximum), scipy returns NaN; that
    slice is summed shifted instead, as ``log|sum sign * exp(logmag -
    max)| + max``.

    A ``sign`` of None marks a table with no negative entry, and the
    result's sign is None too.  Its log is bitwise that of the sign 1
    where ``logmag`` > -inf and 0 elsewhere, without the steps that
    cannot change it: the multiplies by the sign, and the handling of a
    count at the maximum that is 0 or of a sum below -1.  Such a count
    only differs on an all -inf slice, which takes the direct sum
    either way.
    """
    def signed(x):
        if sign is not None:
            x *= sign
        return x

    a_max = logmag.max(axis=axes, keepdims=True)
    at_max = logmag == a_max
    m = np.add.reduce(signed(at_max.astype(np.float64)), axis=axes,
                      keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.exp(logmag - a_max)
        terms *= ~at_max
        s = np.add.reduce(signed(terms), axis=axes, keepdims=True)
        if sign is None:
            out_sign = None
            out_log = np.log1p(s / m) + np.log(m) + a_max
        else:
            s = np.where(s == 0, s, s / m)
            out_sign = np.sign(s + 1) * np.sign(m)
            s = np.where(s < -1, -s - 2, s)
            out_log = np.log1p(s) + np.log(np.abs(m)) + a_max
        finite = np.isfinite(out_log)
        if not finite.all():
            direct = np.add.reduce(signed(np.exp(logmag)), axis=axes,
                                   keepdims=True)
            out_log = np.where(finite, out_log, np.log(np.abs(direct)))
            if sign is not None:
                out_sign = np.where(finite, out_sign, np.sign(direct))
            redo = ~finite & ~np.isfinite(direct) & np.isfinite(a_max)
            if redo.any():
                shifted = np.add.reduce(signed(np.exp(logmag - a_max)),
                                        axis=axes, keepdims=True)
                out_log = np.where(redo, np.log(np.abs(shifted)) + a_max,
                                   out_log)
                if sign is not None:
                    out_sign = np.where(redo, np.sign(shifted), out_sign)
    out_log = np.squeeze(out_log, axis=axes)
    if sign is None:
        return None, out_log
    return _normalize_pair(np.squeeze(out_sign, axis=axes), out_log)


def multiply_factors(factors):
    """Exact product of factors as one factor over the sorted union scope."""
    factors = list(factors)
    union = {}
    for f in factors:
        for v, c in zip(f.scope, f.cards):
            if union.setdefault(v, c) != c:
                raise ValueError(f"inconsistent cardinality for var {v}")
    union_scope = tuple(sorted(union))
    union_cards = tuple(union[v] for v in union_scope)
    sign, logmag = product_over(factors, union_scope, union_cards)
    return Factor(union_scope, union_cards, sign, logmag)
