"""Factor-graph structure, degree-2 certification, conversion."""

import numpy as np
import pytest

from gmbe import (
    Factor,
    FactorGraph,
    brute_z,
    to_forney,
    validate_forney,
)
from gmbe.errors import DegreeViolation

from conftest import random_pairwise_graph


def chain(n=3, card=2, seed=0):
    rng = np.random.default_rng(seed)
    factors = [
        Factor.from_linear((i, i + 1), (card, card),
                           rng.uniform(0.5, 2.0, (card, card)))
        for i in range(n - 1)
    ]
    return FactorGraph((card,) * n, tuple(factors))


class TestFactorGraph:
    def test_counts_and_neighbors(self):
        g = chain(4)
        assert g.num_vars == 4
        assert g.num_factors == 3
        assert g.var_neighbors[0] == (0,)
        assert g.var_neighbors[1] == (0, 1)
        assert len(g.var_neighbors[1]) == 2

    def test_unreferenced_variable_rejected(self):
        f = Factor.uniform((0,), (2,))
        with pytest.raises(ValueError):
            FactorGraph((2, 2), (f,))

    def test_empty_scope_rejected(self):
        empty = Factor((), (), np.ones(()), np.zeros(()))
        with pytest.raises(ValueError, match="factor 1 has an empty scope"):
            FactorGraph((2,), (Factor.uniform((0,), (2,)), empty))

    def test_card_mismatch_rejected(self):
        f = Factor.uniform((0,), (3,))
        with pytest.raises(ValueError):
            FactorGraph((2,), (f,))


class TestValidateForney:
    def test_valid_cycle(self):
        rng = np.random.default_rng(1)
        factors = []
        for i in range(3):
            scope, vals = (i, (i + 1) % 3), rng.uniform(0.5, 2, (2, 2))
            if scope[0] > scope[1]:
                scope, vals = scope[::-1], np.transpose(vals)
            factors.append(Factor.from_linear(scope, (2, 2), vals))
        g = FactorGraph((2, 2, 2), tuple(factors))
        assert validate_forney(g) is g

    def test_all_violations_reported(self):
        # star: center variable 0 in three factors; leaves have degree 1
        rng = np.random.default_rng(2)
        factors = tuple(
            Factor.from_linear((0, i), (2, 2), rng.uniform(0.5, 2, (2, 2)))
            for i in (1, 2, 3)
        )
        g = FactorGraph((2, 2, 2, 2), factors)
        with pytest.raises(DegreeViolation) as exc:
            validate_forney(g)
        offenders = {v for v, _ in exc.value.violations}
        assert offenders == {0, 1, 2, 3}
        degree_of = dict(exc.value.violations)
        assert degree_of[0] == 3
        assert degree_of[1] == 1


class TestToForney:
    def test_degree3_split(self):
        rng = np.random.default_rng(3)
        factors = tuple(
            Factor.from_linear((0, i), (2, 2), rng.uniform(0.5, 2, (2, 2)))
            for i in (1, 2, 3)
        )
        g = FactorGraph((2, 2, 2, 2), factors)
        fg = to_forney(g)
        validate_forney(fg)
        # var 0 keeps its id and gains copies 4 and 5, which one new
        # equality factor joins; vars 1-3 get uniform partners
        assert fg.num_vars == 6
        eq = [f for f in fg.factors if f.scope == (0, 4, 5)]
        assert len(eq) == 1
        np.testing.assert_array_equal(
            eq[0].linear(), Factor.equality((0, 4, 5), 2).linear())

    def test_already_forney_is_identity(self):
        g = chain(3)
        # chain endpoints have degree 1, so they get uniform partners
        fg = to_forney(g)
        validate_forney(fg)
        assert fg.num_vars == g.num_vars

    def test_degree2_model_untouched(self):
        rng = np.random.default_rng(4)
        factors = tuple(
            Factor.from_linear(tuple(sorted((i, (i + 1) % 4))), (2, 2),
                               rng.uniform(0.5, 2, (2, 2)))
            for i in range(4)
        )
        g = FactorGraph((2,) * 4, factors)
        fg = to_forney(g)
        assert fg.num_vars == 4
        assert fg.num_factors == 4

    def test_z_preserved_random_model(self):
        g = random_pairwise_graph(5, 4, seed=11)
        fg = to_forney(g)
        za = brute_z(g)
        zb = brute_z(fg)
        assert zb.logabs == pytest.approx(za.logabs, rel=1e-12)
        assert za.sign == zb.sign == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_z_preserved_various(self, seed):
        g = random_pairwise_graph(6, 8, seed=seed)
        fg = to_forney(g)
        validate_forney(fg)
        assert brute_z(fg).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-10
        )
