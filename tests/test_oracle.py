"""The brute-force yardsticks themselves, pinned by hand examples.

Everything else in the suite leans on these, so they get their own
direct checks: tiny models whose answers fit on paper, cross-checks
against the structurally different fast paths, and the enumeration
budget guard.
"""

import math

import numpy as np
import pytest

from gmbe import (
    Factor,
    FactorGraph,
    TreeEvaluator,
    brute_z,
    build_minibucket_tree,
    default_order,
    induced_width,
    run_be,
)
from gmbe import oracle
from gmbe.errors import BudgetExceeded

from conftest import evaluator_at, random_forney_graph, random_pairwise_graph
from oracles import (
    NonFiniteEvaluation,
    brute_aux_marginals,
    brute_wmbe,
    fd_gradient,
)


def single_factor(table):
    table = np.asarray(table, dtype=float)
    return FactorGraph(
        table.shape,
        (Factor.from_linear(tuple(range(table.ndim)), table.shape, table),),
    )


class TestBruteZ:
    def test_hand_positive(self):
        z = brute_z(single_factor([[1.0, 2.0], [3.0, 5.0]]))
        assert z.sign == 1.0
        assert z.logabs == pytest.approx(math.log(11.0), rel=1e-14)

    def test_hand_mixed_signs(self):
        z = brute_z(single_factor([[1.0, -2.0], [3.0, 5.0]]))
        assert z.sign == 1.0
        assert z.logabs == pytest.approx(math.log(7.0), rel=1e-14)

    def test_hand_negative_total(self):
        z = brute_z(single_factor([[1.0, -2.0], [-3.0, -5.0]]))
        assert z.sign == -1.0
        assert z.logabs == pytest.approx(math.log(9.0), rel=1e-14)

    def test_exact_cancellation(self):
        z = brute_z(single_factor([[1.0, -1.0], [2.0, -2.0]]))
        assert z.sign == 0.0
        assert z.logabs == -np.inf

    def test_uniform_model_counts_states(self):
        factors = tuple(Factor.uniform((i,), (3,)) for i in range(5))
        g = FactorGraph((3,) * 5, factors)
        assert brute_z(g).logabs == pytest.approx(5 * math.log(3.0),
                                                  rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_bucket_elimination(self, seed):
        g = random_pairwise_graph(9, 15, seed)
        assert brute_z(g).logabs == pytest.approx(
            run_be(g, default_order(g)).logabs, rel=1e-11)

    def test_budget_guard(self, monkeypatch):
        factors = tuple(Factor.uniform((i,), (2,)) for i in range(21))
        g = FactorGraph((2,) * 21, factors)
        with pytest.raises(BudgetExceeded) as err:
            brute_z(g)
        assert err.value.states == 2 ** 21
        monkeypatch.setattr(oracle, "MAX_STATES", 2 ** 21)
        assert brute_z(g).logabs == pytest.approx(
            21 * math.log(2.0), rel=1e-12)


class TestBruteWmbe:
    def test_no_splits_is_exact(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        order = default_order(g)
        tree = build_minibucket_tree(g, order, induced_width(g, order))
        assert brute_wmbe(g, tree) == pytest.approx(
            brute_z(g).logabs, abs=1e-9)

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2)])
    def test_upper_bounds_enumeration(self, n, seed):
        g = random_forney_graph(n, t=1.0, seed=seed)
        tree = build_minibucket_tree(g, default_order(g), 2)
        assert brute_wmbe(g, tree) >= brute_z(g).logabs - 1e-9

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2)])
    def test_lower_bounds_enumeration(self, n, seed):
        g = random_forney_graph(n, t=1.0, seed=seed)
        tree = build_minibucket_tree(g, default_order(g), 2, "lower")
        assert brute_wmbe(g, tree) <= brute_z(g).logabs + 1e-9

    def test_budget_counts_split_states(self):
        g = random_forney_graph(8, t=1.0, seed=2)
        tree = build_minibucket_tree(g, default_order(g), 2)
        states = int(np.prod([2] * len(tree.buckets)))
        with pytest.raises(BudgetExceeded):
            brute_wmbe(g, tree, budget=states - 1)
        brute_wmbe(g, tree, budget=states)


class TestFdGradient:
    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        b = rng.normal(size=4)

        def quad(x):
            return float(x @ a @ x + b @ x)

        x0 = rng.normal(size=4)
        got = fd_gradient(quad, x0, h=1e-4)
        np.testing.assert_allclose(got, 2.0 * a @ x0 + b,
                                   rtol=1e-7, atol=1e-7)

    def test_matrix_shaped_input(self):
        def fro(x):
            return float((x ** 2).sum())

        x0 = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(fd_gradient(fro, x0), 2.0 * x0,
                                   rtol=1e-8, atol=1e-8)

    def test_nonfinite_probe_rejected(self):
        def needs_positive(x):
            return math.log(x[0]) if x[0] > 0 else -math.inf

        with pytest.raises(NonFiniteEvaluation):
            fd_gradient(needs_positive, np.array([1e-9]), h=1e-5)


class TestBruteAuxMarginals:
    def _model_and_tree(self, direction="upper"):
        g = random_forney_graph(6, t=1.0, seed=1)
        tree = build_minibucket_tree(g, default_order(g), 2, direction)
        return g, tree

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_marginals_normalized(self, direction):
        g, tree = self._model_and_tree(direction)
        margs = brute_aux_marginals(g, tree)
        assert set(margs) == set(range(g.num_factors))
        for fid, m in margs.items():
            assert m.shape == g.factors[fid].cards
            assert m.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_matches_tree_evaluator(self, direction):
        g, tree = self._model_and_tree(direction)
        ev = TreeEvaluator(tree, g.factors)
        margs = brute_aux_marginals(g, tree)
        memo = {}
        for fid in range(g.num_factors):
            fast = ev.factor_marginal(fid, memo)
            np.testing.assert_allclose(fast, margs[fid],
                                       rtol=1e-8, atol=1e-10)

    def test_exact_marginals_when_no_splits(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        order = default_order(g)
        tree = build_minibucket_tree(g, order, induced_width(g, order))
        margs = brute_aux_marginals(g, tree)
        # enumeration marginals of the true distribution
        scope = tuple(range(g.num_vars))
        joint = np.zeros(g.cards)
        for f in g.factors:
            sl = [None] * g.num_vars
            for u, c in zip(f.scope, f.cards):
                sl[u] = slice(None)
            shape = [1] * g.num_vars
            for u, c in zip(f.scope, f.cards):
                shape[u] = c
            perm = np.argsort(f.scope)
            joint = joint + np.transpose(f.logmag, perm).reshape(shape)
        p = np.exp(joint - joint.max())
        p /= p.sum()
        for fid, f in enumerate(g.factors):
            drop = tuple(u for u in scope if u not in f.scope)
            m = p.sum(axis=drop)
            perm = [list(sorted(f.scope)).index(u) for u in f.scope]
            np.testing.assert_allclose(margs[fid], np.transpose(m, perm),
                                       rtol=1e-9, atol=1e-12)

    def test_agrees_with_bound_gradient_direction(self):
        # sanity link between the two oracle routes: the bound computed
        # by the nested power sum matches the fast evaluator after a
        # random legal weight perturbation, so both see one landscape
        g, tree = self._model_and_tree()
        rng = np.random.default_rng(11)
        ws = list(tree.initial_weights)
        for ks in tree.splits.values():
            if len(ks) > 1:
                fresh = rng.dirichlet([3.0] * len(ks))
                for k, w in zip(ks, fresh):
                    ws[k] = float(w)
        fast = evaluator_at(tree, g.factors, ws).bound()
        assert fast == pytest.approx(brute_wmbe(g, tree, weights=ws),
                                     abs=1e-9)
