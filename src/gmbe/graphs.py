"""Factor graphs and their degree-2 (normal) form.

A degree-2 model is one where every variable sits on exactly two
factors, so each variable can be drawn as an edge between its two
factors.  Edge transforms and reparameterizations act on those
variable-factor incidences, which is why the optimizer requires this
form.  ``to_forney`` rewrites an arbitrary factor graph into it by
duplicating high-degree variables behind an equality indicator and
padding degree-1 variables with a uniform partner; the partition
function is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreeViolation
from .factors import Factor


@dataclass(frozen=True)
class FactorGraph:
    """Discrete factor graph: per-variable cardinalities plus factors."""

    cards: tuple
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))
        object.__setattr__(self, "factors", tuple(self.factors))
        n = len(self.cards)
        seen = np.zeros(n, dtype=bool)
        for i, f in enumerate(self.factors):
            if not f.scope:
                raise ValueError(f"factor {i} has an empty scope")
            for v, c in zip(f.scope, f.cards):
                if not 0 <= v < n:
                    raise ValueError(f"factor {i} references unknown var {v}")
                if c != self.cards[v]:
                    raise ValueError(
                        f"factor {i} disagrees on cardinality of var {v}"
                    )
                seen[v] = True
        if not seen.all():
            missing = np.flatnonzero(~seen).tolist()
            raise ValueError(f"variables in no factor: {missing}")

    @property
    def num_vars(self):
        return len(self.cards)

    @property
    def num_factors(self):
        return len(self.factors)

    @cached_property
    def var_neighbors(self):
        """For each variable, the ascending tuple of adjacent factor ids:
        the one variable -> factor table (trees keep it as ``var_factors``)."""
        nbrs = [[] for _ in self.cards]
        for i, f in enumerate(self.factors):
            for v in f.scope:
                nbrs[v].append(i)
        return tuple(tuple(b) for b in nbrs)


def validate_forney(g):
    """Check that every variable of ``g`` has exactly two adjacent factors.

    Returns ``g`` itself, or raises DegreeViolation listing every
    offending variable.
    """
    bad = [(v, len(fids)) for v, fids in enumerate(g.var_neighbors)
           if len(fids) != 2]
    if bad:
        raise DegreeViolation(bad)
    return g


def to_forney(g):
    """Rewrite any factor graph into degree-2 form, preserving Z exactly.

    Degree-2 variables are untouched.  A degree-1 variable gets a
    uniform singleton partner.  A variable of degree k >= 3 is split
    into k copies tied by an arity-k equality factor; the first copy
    keeps the original id, the rest are appended after the existing
    variables in ascending (variable, factor) order.

    Returns the degree-2 graph; an already degree-2 input comes back
    with the same variables and factors.
    """
    cards = list(g.cards)
    factors = list(g.factors)
    extra_factors = []
    for v in range(g.num_vars):
        nbrs = g.var_neighbors[v]
        deg = len(nbrs)
        if deg == 2:
            continue
        if deg == 1:
            extra_factors.append(Factor.uniform((v,), (g.cards[v],)))
            continue
        copies = [v]
        for fid in nbrs[1:]:
            new_id = len(cards)
            cards.append(g.cards[v])
            copies.append(new_id)
            f = factors[fid]
            new_scope = tuple(new_id if u == v else u for u in f.scope)
            factors[fid] = Factor(new_scope, f.cards, f.sign, f.logmag)
        extra_factors.append(Factor.equality(tuple(copies), g.cards[v]))
    out = FactorGraph(tuple(cards), tuple(factors + extra_factors))
    return validate_forney(out)
