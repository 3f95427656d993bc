"""Shared fixtures and model builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from gmbe import (
    Factor,
    FactorGraph,
    TreeEvaluator,
    gen_forney_3regular,
    to_forney,
)


def random_pairwise_graph(num_vars, num_edges, seed, card=2):
    """Connected random pairwise model; variables may have any degree.

    Useful for exercising mini-bucket splitting with arity-2 factors
    and for feeding to_forney nontrivial inputs.
    """
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(1, num_vars):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    while len(edges) < num_edges:
        u, v = sorted(rng.choice(num_vars, size=2, replace=False).tolist())
        edges.add((int(u), int(v)))
    cards = (card,) * num_vars
    factors = []
    for u, v in sorted(edges):
        logvals = rng.normal(0.0, 1.0, size=(card, card))
        factors.append(Factor.from_log((u, v), (card, card), logvals))
    return FactorGraph(cards, tuple(factors))


def random_forney_graph(num_factors, t, seed):
    """Degree-2 model with arity-3 factors (cycle plus cross chords)."""
    return gen_forney_3regular(num_factors, t=t, seed=seed)


def random_forney_from_pairwise(num_vars, num_edges, seed):
    g = random_pairwise_graph(num_vars, num_edges, seed)
    fg = to_forney(g)
    return fg


def zero_z_split_model():
    """Z = 0 with split variables at ibound 2: a 3-regular model whose
    factor 0 is all zeros."""
    g = gen_forney_3regular(8, 1.0, 0)
    f = g.factors[0]
    zero = Factor.from_linear(f.scope, f.cards, np.zeros(f.cards))
    return FactorGraph(g.cards, (zero,) + g.factors[1:])


def zero_z_unsplit_model():
    """Z = 0 with no split variable at ibound 2: an equality and an
    inequality factor on two binary variables."""
    return FactorGraph((2, 2), (
        Factor.equality((0, 1), 2),
        Factor.from_linear((0, 1), (2, 2), [[0.0, 1.0], [1.0, 0.0]])))


def evaluator_at(tree, factors, weights):
    """A fresh evaluator moved to ``weights`` by one ``set_weights`` call."""
    ev = TreeEvaluator(tree, factors)
    ev.set_weights(dict(enumerate(weights)))
    return ev


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
