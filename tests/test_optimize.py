"""Descent over edge transforms, weights, and rescalings.

Analytic gradients are checked against central finite differences of
the actual bound, every step kind is checked for monotone acceptance,
and the working model's true partition function must never move: the
optimizer only re-expresses the model, it never changes it.
"""

import numpy as np
import pytest

from gmbe import (
    Factor,
    FactorGraph,
    TreeEvaluator,
    brute_z,
    build_minibucket_tree,
    default_order,
    gauge_transform_factor,
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
    run_be,
    run_wmbe,
    to_forney,
)
from gmbe import optimize
from gmbe.errors import NumericalUnderflow
from gmbe.optimize import (
    OptimizerConfig,
    gauge_gradient,
    gauge_step,
    optimize_bound,
    reparam_gradient,
    reparam_step,
    weight_step,
)

from conftest import (
    random_forney_from_pairwise,
    random_pairwise_graph,
    zero_z_split_model,
    zero_z_unsplit_model,
)
from oracles import brute_aux_marginals, fd_gradient, tree_wmbe

METHODS = ("wmbe", "wmbe-w", "wmbe-theta", "wmbe-wtheta", "wmbe-g",
           "wmbe-wg")
LOWER_METHODS = ("wmbe", "wmbe-theta", "wmbe-g")


def fixture_model(n=8, seed=2, t=1.0):
    return gen_forney_3regular(n, t=t, seed=seed)


def fixture_tree(g, direction="upper", ibound=2):
    return build_minibucket_tree(g, default_order(g), ibound, direction)


def assert_monotone(trace, direction):
    for prev, cur in zip(trace, trace[1:]):
        if direction == "upper":
            assert cur <= prev + 1e-12
        else:
            assert cur >= prev - 1e-12


class TestConfig:
    def test_method_flags(self):
        want = {
            "wmbe": (False, False, False),
            "wmbe-w": (False, True, False),
            "wmbe-theta": (False, False, True),
            "wmbe-wtheta": (False, True, True),
            "wmbe-g": (True, False, False),
            "wmbe-wg": (True, True, False),
        }
        assert tuple(optimize.METHODS) == tuple(want)
        g = fixture_model(6, seed=1)
        tree = fixture_tree(g)
        for method, (ug, uw, ut) in want.items():
            moves = optimize.METHODS[method]
            assert ("gauges" in moves, "weights" in moves,
                    "reparam" in moves) == (ug, uw, ut)
            cfg = OptimizerConfig.for_method(method, iterations=1)
            assert cfg.method == method
            assert optimize_bound(g, tree, cfg)[0].method == method

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            OptimizerConfig.for_method("wmbe-x")

    def test_overrides(self):
        cfg = OptimizerConfig.for_method("wmbe-g", iterations=7)
        assert cfg.iterations == 7
        assert OptimizerConfig("wmbe-g").iterations == 150
        with pytest.raises(ValueError):
            OptimizerConfig("wmbe-x")

    @pytest.mark.parametrize("iterations", [-2, -1, 2.5, 3.0, "3", True,
                                            None])
    def test_iterations_must_be_non_negative_int(self, iterations):
        with pytest.raises(ValueError, match="non-negative int"):
            OptimizerConfig("wmbe-g", iterations=iterations)
        assert OptimizerConfig("wmbe-g", iterations=0).iterations == 0


class TestGaugeGradient:
    # warnings as errors: the zero entries of to_forney's equality
    # factors must neither be divided by nor raise a numpy warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_matches_finite_differences(self, direction):
        g = fixture_model(6, seed=1)
        cases = [(g, fixture_tree(g, direction), (0, 3, 7))]
        if direction == "upper":
            for seed in range(4):
                g = random_forney_from_pairwise(10, 20, seed)
                assert any(np.isneginf(f.logmag).any() for f in g.factors)
                ibound = max(f.arity for f in g.factors)
                cases.append((g, fixture_tree(g, ibound=ibound),
                              range(g.num_vars)))
        for g, tree, variables in cases:
            ev = TreeEvaluator(tree, g.factors)
            for v in variables:
                a, b = g.var_neighbors[v]
                fa, fb = g.factors[a], g.factors[b]

                def bound_at(mat):
                    factors = list(g.factors)
                    factors[a] = gauge_transform_factor(fa, {v: mat})
                    factors[b] = gauge_transform_factor(
                        fb, {v: np.linalg.inv(mat.T)})
                    return TreeEvaluator(tree, factors).bound()

                fd = fd_gradient(bound_at, np.eye(2), h=1e-6)
                analytic = gauge_gradient(ev, v)
                np.testing.assert_allclose(analytic, fd, rtol=1e-5,
                                           atol=1e-7)

    def test_reparam_gradient_is_its_diagonal(self):
        # the theta move is the diagonal special case of the transform
        grid = ising_to_forney(gen_ising_grid(6, 6, 1.0, seed=0))
        cases = [(g, ib, d) for g, ib in ((grid, 4), (fixture_model(), 2))
                 for d in ("upper", "lower")]
        for seed in range(4):
            g = random_forney_from_pairwise(10, 20, seed)
            cases.append((g, max(f.arity for f in g.factors), "upper"))
        for g, ibound, direction in cases:
            ev = TreeEvaluator(fixture_tree(g, direction, ibound), g.factors)
            for v in range(g.num_vars):
                np.testing.assert_allclose(
                    reparam_gradient(ev, v),
                    np.diag(gauge_gradient(ev, v)), rtol=0, atol=1e-12)

    def test_needs_degree_two(self):
        g = FactorGraph(
            (2, 2),
            (Factor.uniform((0, 1), (2, 2)), Factor.uniform((0,), (2,))),
        )
        tree = fixture_tree(g, ibound=2)
        ev = TreeEvaluator(tree, g.factors)
        with pytest.raises(ValueError):
            gauge_gradient(ev, 1)


class TestReparamGradient:
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_matches_finite_differences(self, direction):
        g = fixture_model(6, seed=3)
        tree = fixture_tree(g, direction)
        ev = TreeEvaluator(tree, g.factors)
        for v in (1, 5):
            a, b = [fid for fid, f in enumerate(g.factors) if v in f.scope]

            def bound_at(theta):
                factors = list(g.factors)
                factors[a] = factors[a].scale_axis_log(v, theta)
                factors[b] = factors[b].scale_axis_log(v, -theta)
                return TreeEvaluator(tree, factors).bound()

            fd = fd_gradient(bound_at, np.zeros(2), h=1e-6)
            analytic = reparam_gradient(ev, v)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_flat_on_flip_symmetric_model(self):
        # mirror-symmetric tables make both factor marginals of every
        # variable coincide, so the rescaling gradient starts at zero
        g = gen_symmetric_forney(6, t=1.0, seed=2)
        ev = TreeEvaluator(fixture_tree(g), g.factors)
        for v in range(g.num_vars):
            np.testing.assert_allclose(reparam_gradient(ev, v),
                                       np.zeros(2), atol=1e-12)


class TestGaugeStep:
    def test_accepted_step_improves(self):
        g = fixture_model()
        tree = fixture_tree(g)
        ev = TreeEvaluator(tree, g.factors)
        before = ev.bound()
        accepted = gauge_step(ev, 0)
        assert accepted
        assert ev.bound() <= before
        assert TreeEvaluator(tree, ev.factors).bound() == pytest.approx(
            ev.bound())

    def test_partition_function_untouched(self):
        g = fixture_model()
        order = default_order(g)
        ev = TreeEvaluator(fixture_tree(g), g.factors)
        z0 = run_be(g, order).logabs
        for v in range(0, g.num_vars, 2):
            gauge_step(ev, v)
        z1 = run_be(FactorGraph(g.cards, tuple(ev.factors)), order)
        assert z1.sign == 1.0
        assert z1.logabs == pytest.approx(z0, abs=1e-10)

    def test_rejection_leaves_state_alone(self):
        g = fixture_model()
        # descend to a local floor first so steps stop helping
        cfg = OptimizerConfig.for_method("wmbe-g", iterations=40)
        _, ev = optimize_bound(g, fixture_tree(g), cfg)
        before = ev.bound()
        factors_before = list(ev.factors)
        accepted = gauge_step(ev, 0)
        assert ev.bound() <= before + 1e-12
        if not accepted:
            assert ev.bound() == before
            assert all(f1 is f2 for f1, f2
                       in zip(factors_before, ev.factors))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_gradient_declines(self):
        # on a lower tree, a zero entry of an equality factor under a
        # weight above 1 has an infinite cavity
        g = random_forney_from_pairwise(10, 20, 0)
        tree = fixture_tree(g, "lower", max(f.arity for f in g.factors))
        ev = TreeEvaluator(tree, g.factors)
        bad = [v for v in range(g.num_vars)
               if not np.isfinite(gauge_gradient(ev, v)).all()]
        assert bad
        before = ev.bound()
        factors_before = list(ev.factors)
        for v in bad:
            assert gauge_step(ev, v) is False
        assert ev.bound() == before
        assert TreeEvaluator(tree, ev.factors).bound() == before
        assert all(f1 is f2 for f1, f2
                   in zip(factors_before, ev.factors))

    def test_ill_conditioned_candidate_declines(self, monkeypatch):
        # a condition limit of exactly 1 declines every non-orthogonal
        # candidate, so every halving is declined
        monkeypatch.setattr(optimize, "COND_LIMIT", 1.0)
        monkeypatch.setattr(optimize, "MAX_BACKTRACKS", 2)
        g = fixture_model()
        tree = fixture_tree(g)
        ev = TreeEvaluator(tree, g.factors)
        before = ev.bound()
        factors_before = list(ev.factors)
        assert gauge_step(ev, 0) is False
        assert ev.bound() == before
        assert TreeEvaluator(tree, ev.factors).bound() == before
        assert all(f1 is f2 for f1, f2 in zip(factors_before, ev.factors))


class TestWeightGradient:
    # warnings as errors: the zero entries of to_forney's equality
    # factors must take 0 log 0 as 0 without a numpy warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["3-regular", "to_forney"])
    def test_matches_finite_differences(self, model):
        if model == "3-regular":
            models = [fixture_model()]
        else:
            models = [random_forney_from_pairwise(10, 20, seed)
                      for seed in range(4)]
            assert all(np.isneginf(f.logmag).any()
                       for g in models for f in g.factors if f.arity > 2)
        checked = 0
        for g in models:
            # equality factors have the arity of the variable's degree
            tree = fixture_tree(g, ibound=max(f.arity for f in g.factors))
            ev = TreeEvaluator(tree, g.factors)
            for ks in tree.splits.values():
                if len(ks) < 2:
                    continue

                # the probes leave the simplex, which the evaluator
                # rejects, so they go through the reference
                def bound_at(logw):
                    weights = list(tree.initial_weights)
                    for k, w in zip(ks, np.exp(logw)):
                        weights[k] = w
                    return tree_wmbe(g, tree, weights)

                logw0 = np.log([ev.weights[k] for k in ks])
                fd = fd_gradient(bound_at, logw0, h=1e-5)
                np.testing.assert_allclose(ev.weight_gradient(ks), fd,
                                           rtol=1e-5, atol=1e-9)
                checked += 1
        assert checked >= 4


class TestWeightStep:
    def test_improves_and_stays_normalized(self):
        g = fixture_model()
        tree = fixture_tree(g)
        ev = TreeEvaluator(tree, g.factors)
        before = ev.bound()
        accepted = weight_step(ev)
        assert accepted
        assert ev.bound() <= before
        for v, ks in tree.splits.items():
            ws = [ev.weights[k] for k in ks]
            assert sum(ws) == pytest.approx(1.0, abs=1e-12)
            assert all(w > 0 for w in ws)

    def test_huge_step_hits_floor_but_stays_legal(self, monkeypatch):
        monkeypatch.setattr(optimize, "STEP_WEIGHT", 50.0)
        g = fixture_model()
        tree = fixture_tree(g)
        ev = TreeEvaluator(tree, g.factors)
        weight_step(ev)
        for v, ks in tree.splits.items():
            ws = [ev.weights[k] for k in ks]
            assert sum(ws) == pytest.approx(1.0, abs=1e-12)
            assert all(w > 0 for w in ws)

    def test_lower_direction_rejected(self):
        g = fixture_model()
        ev = TreeEvaluator(fixture_tree(g, "lower"), g.factors)
        with pytest.raises(ValueError):
            weight_step(ev)

    def test_no_splits_nothing_to_do(self):
        g = fixture_model(6, seed=1)
        order = default_order(g)
        from gmbe import induced_width
        tree = build_minibucket_tree(g, order, induced_width(g, order))
        ev = TreeEvaluator(tree, g.factors)
        assert weight_step(ev) is False


class TestReparamStep:
    def test_improves_and_preserves_z(self):
        g = fixture_model()
        order = default_order(g)
        z0 = run_be(g, order).logabs
        ev = TreeEvaluator(fixture_tree(g), g.factors)
        before = ev.bound()
        accepted = reparam_step(ev)
        assert accepted
        assert ev.bound() < before
        got = run_be(FactorGraph(g.cards, tuple(ev.factors)), order)
        assert got.logabs == pytest.approx(z0, abs=1e-10)

    @staticmethod
    def unsplit(tree):
        return [v for v in tree.order if len(tree.splits[v]) == 1]

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_unsplit_rescaling_leaves_bound(self, direction):
        # the skip rests on this: at a variable with one mini-bucket,
        # +theta on one factor and -theta on the other cancel there,
        # zero entries and a -inf bound included
        rng = np.random.default_rng(13)
        cases = [(ising_to_forney(gen_ising_grid(6, 6, 1.0, seed=0)), 4)]
        cases += [(fixture_model(8, seed), 2) for seed in range(2)]
        for seed in range(4):
            g = to_forney(random_pairwise_graph(8, 12, seed, card=3))
            cases.append((g, max(f.arity for f in g.factors)))
        moved = neginf = 0
        for g, ibound in cases:
            tree = fixture_tree(g, direction, ibound)
            before = TreeEvaluator(tree, g.factors).bound()
            for _ in range(3):
                factors = list(g.factors)
                for v in self.unsplit(tree):
                    a, b = tree.var_factors[v]
                    theta = rng.normal(size=g.cards[v])
                    factors[a] = factors[a].scale_axis_log(v, theta)
                    factors[b] = factors[b].scale_axis_log(v, -theta)
                    moved += 1
                after = TreeEvaluator(tree, factors).bound()
                if before == -np.inf:
                    assert after == -np.inf
                    neginf += 1
                else:
                    assert after == pytest.approx(before, rel=1e-12)
        assert moved > 0
        if direction == "lower":
            assert neginf > 0

    def test_gradient_only_at_split_variables(self, monkeypatch):
        g = ising_to_forney(gen_ising_grid(6, 6, 1.0, seed=0))
        tree = fixture_tree(g, ibound=4)
        calls = []

        def recording(ev, v):
            calls.append(v)
            return reparam_gradient(ev, v)

        monkeypatch.setattr(optimize, "reparam_gradient", recording)
        reparam_step(TreeEvaluator(tree, g.factors))
        split = [v for v in tree.order if len(tree.splits[v]) >= 2]
        assert self.unsplit(tree) and split
        assert calls == split

    def test_no_splits_nothing_to_do(self):
        g = fixture_model(6, seed=1)
        order = default_order(g)
        from gmbe import induced_width
        tree = build_minibucket_tree(g, order, induced_width(g, order))
        ev = TreeEvaluator(tree, g.factors)
        factors_before = list(ev.factors)
        assert reparam_step(ev) is False
        assert all(f1 is f2 for f1, f2 in zip(factors_before, ev.factors))


class TestAuxMarginals:
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_matches_brute(self, direction):
        g = fixture_model(6, seed=1)
        tree = fixture_tree(g, direction)
        ev = TreeEvaluator(tree, g.factors)
        joint = ev.beliefs(range(len(tree.buckets)))
        brute = brute_aux_marginals(g, tree)
        assert set(range(g.num_factors)) == set(brute)
        for fid in brute:
            np.testing.assert_allclose(ev.factor_marginal(fid, joint),
                                       brute[fid], rtol=1e-8, atol=1e-10)
        assert set(joint) == set(range(len(tree.buckets)))
        for k, table in joint.items():
            assert table.sum() == pytest.approx(1.0, abs=1e-9)


class TestOptimizeBound:
    @pytest.mark.parametrize("method", METHODS)
    def test_upper_monotone_and_valid(self, method):
        g = fixture_model()
        tree = fixture_tree(g)
        cfg = OptimizerConfig.for_method(method, iterations=12)
        res, ev = optimize_bound(g, tree, cfg)
        assert res.method == method
        assert res.direction == "upper"
        assert res.trace[0] == pytest.approx(
            run_wmbe(g, tree).log_bound, abs=1e-12)
        assert_monotone(res.trace, "upper")
        assert res.log_bound >= brute_z(g).logabs - 1e-9
        assert res.log_bound == ev.bound()

    @pytest.mark.parametrize("method", LOWER_METHODS)
    def test_lower_monotone_and_valid(self, method):
        g = fixture_model()
        tree = fixture_tree(g, "lower")
        cfg = OptimizerConfig.for_method(method, iterations=12)
        res, _ = optimize_bound(g, tree, cfg)
        assert res.direction == "lower"
        assert_monotone(res.trace, "lower")
        assert res.log_bound <= brute_z(g).logabs + 1e-9

    def test_underflow_names_the_variable(self):
        # the equality factors to_forney adds hold zeros; under the
        # reverse pattern's negative weights they reach the root as -inf
        grid = gen_ising_grid(4, 4, 1.0, seed=0)
        g = to_forney(FactorGraph(
            grid.cards, tuple(f for f in grid.factors if f.arity == 2)))
        tree = fixture_tree(g, "lower", 4)
        ev = TreeEvaluator(tree, g.factors)
        (k,) = [k for k in tree.roots if ev.msg[k] == -np.inf]
        b = tree.buckets[k]
        want = (f"zero normalizer at root mini-bucket {k} "
                f"(variable {b.var}, copy {b.copy})")
        with pytest.raises(NumericalUnderflow) as info:
            ev.beliefs(tree.roots)
        assert str(info.value) == want

    @staticmethod
    def assert_no_move_from_minus_inf(g, tree, monkeypatch):
        # Z = 0, so the bound starts at -inf: the trace stays there for
        # every iteration and no move asks for the vanished beliefs
        for name in ("gauge_step", "reparam_step"):
            monkeypatch.setattr(optimize, name,
                                lambda *args: pytest.fail("a move ran"))
        for method in ("wmbe-theta", "wmbe-g"):
            cfg = OptimizerConfig.for_method(method, iterations=3)
            res, ev = optimize_bound(g, tree, cfg)
            assert res.trace == (-np.inf,) * 4
            assert all(a is b for a, b in zip(ev.factors, g.factors,
                                              strict=True))

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_zero_partition_function_without_splits(self, direction,
                                                    monkeypatch):
        g = zero_z_unsplit_model()
        tree = fixture_tree(g, direction)
        assert all(len(ks) == 1 for ks in tree.splits.values())
        self.assert_no_move_from_minus_inf(g, tree, monkeypatch)

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    def test_zero_partition_function_with_splits(self, direction,
                                                 monkeypatch):
        g = zero_z_split_model()
        tree = fixture_tree(g, direction)
        assert any(len(ks) > 1 for ks in tree.splits.values())
        self.assert_no_move_from_minus_inf(g, tree, monkeypatch)

    def test_weights_on_lower_tree_rejected(self, monkeypatch):
        # the direction is checked before any move, so wmbe-wg does not
        # run its gauge sweep first
        steps = []
        monkeypatch.setattr(optimize, "gauge_step",
                            lambda ev, v: steps.append(v))
        g = fixture_model()
        tree = fixture_tree(g, "lower")
        for method in ("wmbe-w", "wmbe-wtheta", "wmbe-wg"):
            cfg = OptimizerConfig.for_method(method, iterations=2)
            with pytest.raises(ValueError):
                optimize_bound(g, tree, cfg)
        assert steps == []

    def test_each_knob_helps_on_fixture(self):
        g = fixture_model()
        tree = fixture_tree(g)
        final = {}
        for method in METHODS:
            cfg = OptimizerConfig.for_method(method, iterations=20)
            res, _ = optimize_bound(g, tree, cfg)
            final[method] = res.log_bound
        base = final["wmbe"]
        assert final["wmbe-w"] < base - 1e-3
        assert final["wmbe-theta"] < base - 1e-2
        assert final["wmbe-g"] < base - 1e-2
        assert final["wmbe-wtheta"] <= final["wmbe-theta"] + 1e-9
        assert final["wmbe-wg"] <= final["wmbe-g"] + 1e-9

    def test_partition_function_preserved(self):
        g = fixture_model()
        order = default_order(g)
        z0 = run_be(g, order).logabs
        for method in ("wmbe-g", "wmbe-wtheta", "wmbe-wg"):
            cfg = OptimizerConfig.for_method(method, iterations=10)
            _, ev = optimize_bound(g, fixture_tree(g), cfg)
            got = run_be(FactorGraph(g.cards, tuple(ev.factors)), order)
            assert got.sign == 1.0
            assert got.logabs == pytest.approx(z0, abs=1e-9)

    def test_symmetric_model_transforms_help_where_rescaling_cannot(self):
        # with flip-symmetric tables the rescaling gradient vanishes
        # identically, while edge transforms still find real descent
        g = gen_symmetric_forney(6, t=1.0, seed=2)
        tree = fixture_tree(g)
        res_t, _ = optimize_bound(
            g, tree, OptimizerConfig.for_method("wmbe-theta", iterations=15))
        res_g, _ = optimize_bound(
            g, tree, OptimizerConfig.for_method("wmbe-g", iterations=15))
        assert res_t.log_bound == pytest.approx(res_t.trace[0], abs=1e-12)
        assert res_g.log_bound < res_g.trace[0] - 1e-3
