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


def adjacent_factors(num_vars, factors):
    """For each variable, the ascending tuple of ids of its factors."""
    nbrs = [[] for _ in range(num_vars)]
    for i, f in enumerate(factors):
        for v in f.scope:
            nbrs[v].append(i)
    return tuple(tuple(b) for b in nbrs)


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
        """For each variable, the ascending tuple of adjacent factor ids."""
        return adjacent_factors(self.num_vars, self.factors)

    def degree(self, v):
        return len(self.var_neighbors[v])


class ForneyGraph(FactorGraph):
    """A factor graph certified to have every variable of degree 2."""

    def edge_pair(self, v):
        """The (lower id, higher id) factor pair adjacent to variable v."""
        a, b = self.var_neighbors[v]
        return a, b


def validate_forney(g):
    """Certify that every variable has exactly two adjacent factors.

    Returns a ForneyGraph over the same data, or raises DegreeViolation
    listing every offending variable.
    """
    bad = [(v, g.degree(v)) for v in range(g.num_vars) if g.degree(v) != 2]
    if bad:
        raise DegreeViolation(bad)
    return ForneyGraph(g.cards, g.factors)


def to_forney(g):
    """Rewrite any factor graph into degree-2 form, preserving Z exactly.

    Degree-2 variables are untouched.  A degree-1 variable gets a
    uniform singleton partner.  A variable of degree k >= 3 is split
    into k copies tied by an arity-k equality factor; the first copy
    keeps the original id, the rest are appended after the existing
    variables in ascending (variable, factor) order.

    Returns (forney_graph, copy_map) where copy_map lists the copy ids
    (including the reused original id) for every variable that was
    split.  An already degree-2 input round-trips with an empty map.
    """
    cards = list(g.cards)
    factors = list(g.factors)
    copy_map = {}
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
        copy_map[v] = copies
    out = FactorGraph(tuple(cards), tuple(factors + extra_factors))
    return validate_forney(out), copy_map
