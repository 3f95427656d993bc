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
from scipy.special import logsumexp


class SignedLog(NamedTuple):
    """A single real number as (sign, log|value|)."""

    sign: float
    logabs: float


def _normalize_pair(sign, logmag):
    """Enforce sign == 0 <=> logmag == -inf on an array pair."""
    sign = np.asarray(sign, dtype=np.float64)
    logmag = np.asarray(logmag, dtype=np.float64)
    dead = (sign == 0.0) | np.isneginf(logmag)
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
        with np.errstate(divide="ignore"):
            logmag = np.log(np.abs(values))
        return cls(tuple(scope), tuple(cards), np.sign(values), logmag)

    @classmethod
    def from_log(cls, scope, cards, logvals):
        logvals = np.asarray(logvals, dtype=np.float64).reshape(tuple(cards))
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


def product_over(factors, union_scope, union_cards):
    """Sign and log-magnitude of the product, broadcast to a full table."""
    shape = tuple(union_cards)
    sign = np.ones(shape)
    logmag = np.zeros(shape)
    for f in factors:
        sign = sign * expand_to(f.sign, f.scope, union_scope)
        logmag = logmag + expand_to(f.logmag, f.scope, union_scope)
    return _normalize_pair(sign, logmag)


def signed_sum_axes(sign, logmag, axes):
    """Signed log-domain sum over the given axes."""
    out_log, out_sign = logsumexp(logmag, axis=axes, b=sign, return_sign=True)
    return _normalize_pair(out_sign, out_log)


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
