"""Brute-force partition function for desk-scale models.

Full enumeration with compensated summation: the yardstick ``gmbe
verify`` compares every bound against, so it deliberately shares as
little machinery with the elimination code as possible.  The test suite
keeps its other references (nested power sums over the split model,
auxiliary marginals, finite differences) under ``tests/``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded
from .factors import SignedLog, product_over

MAX_STATES = 2 ** 20    # cap on the joint states enumeration visits


def _states_or_raise(cards, budget):
    """Joint state count of ``cards``; raise above ``budget`` states."""
    states = 1
    for c in cards:
        states *= int(c)
    if states > budget:
        raise BudgetExceeded(states, budget)
    return states


def brute_z(g):
    """Exact partition function by enumeration, as (sign, log|Z|).

    A model above ``MAX_STATES`` joint states raises BudgetExceeded.
    The mantissa sum runs through math.fsum, so cancellation between
    positive and negative terms costs no precision and the reduction
    order is fixed regardless of table layout.
    """
    _states_or_raise(g.cards, MAX_STATES)
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
