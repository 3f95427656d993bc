"""Exact and bounded elimination: orders, trees, power sums, bounds.

The bound runners are checked two ways against machinery that shares
nothing with them: full enumeration for the exact value and a literal
nested power sum over the dense split model for the bounded one.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmbe import (
    Factor,
    FactorGraph,
    TreeEvaluator,
    apply_gauges,
    brute_z,
    build_minibucket_tree,
    default_order,
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    induced_width,
    ising_to_forney,
    random_valid_gauges,
    run_be,
    run_mbe,
    run_wmbe,
    to_forney,
)
from gmbe.elimination import _lse_axis, lower_weights
from gmbe.errors import (
    IboundTooSmall,
    NumericalUnderflow,
    WidthExceeded,
    ZeroWeight,
)

from conftest import (
    evaluator_at,
    random_forney_from_pairwise,
    random_forney_graph,
    random_pairwise_graph,
    zero_z_split_model,
    zero_z_unsplit_model,
)
from oracles import (
    brute_wmbe,
    factor_incidence,
    greedy_min_fill,
    reference_be,
    reference_min_fill_order,
)


def chain_graph(n, seed=0):
    rng = np.random.default_rng(seed)
    factors = tuple(
        Factor.from_log((i, i + 1), (2, 2), rng.normal(0, 1, (2, 2)))
        for i in range(n - 1)
    )
    return FactorGraph((2,) * n, factors)


finite_logs = arrays(
    np.float64, st.integers(2, 6),
    elements=st.floats(-5, 5, allow_nan=False),
)


class TestWsum:
    # the power sum wsum_w(psi) of the module docstring is the kernel
    # _lse_axis(log|psi|, axis, w)
    def test_weight_one_is_plain_sum(self):
        got = _lse_axis(np.log([2.0, 8.0]), 0, 1.0)
        assert got == pytest.approx(math.log(10.0), rel=1e-14)

    def test_half_weight_is_root_of_square_sum(self):
        # (2^2 + 8^2)^(1/2) = sqrt(68)
        got = _lse_axis(np.log([2.0, 8.0]), 0, 0.5)
        assert got == pytest.approx(0.5 * math.log(68.0), rel=1e-14)

    def test_negative_weight(self):
        # (2^-2 + 8^-2)^(-1/2) = (17/64)^(-1/2)
        got = _lse_axis(np.log([2.0, 8.0]), 0, -0.5)
        assert got == pytest.approx(-0.5 * math.log(17.0 / 64.0), rel=1e-14)

    def test_singleton_invariant_in_weight(self):
        for w in (0.1, 1.0, 3.0, -0.5):
            assert _lse_axis(np.log([3.0]), 0, w) == pytest.approx(
                math.log(3.0), rel=1e-14)

    def test_zero_magnitude_entries_drop_out(self):
        got = _lse_axis(np.array([-np.inf, math.log(5.0)]), 0, 0.5)
        assert got == pytest.approx(math.log(5.0), rel=1e-14)

    def test_all_zero_gives_neg_inf(self):
        assert _lse_axis(np.array([-np.inf, -np.inf]), 0, 0.5) == -np.inf

    def test_axis_selection(self):
        a = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(
            _lse_axis(a, 0, 1.0), np.log([4.0, 6.0]), rtol=1e-14)
        np.testing.assert_allclose(
            _lse_axis(a, 1, 1.0), np.log([3.0, 7.0]), rtol=1e-14)

    def test_zero_weight_rejected(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        ev = TreeEvaluator(build_minibucket_tree(g, default_order(g), 2),
                           g.factors)
        ks = next(ks for ks in ev.tree.splits.values() if len(ks) > 1)
        with pytest.raises(ZeroWeight):
            ev.set_weights({ks[0]: 0.0, ks[1]: 1.0})

    @given(finite_logs, st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_holder_upper_split(self, logs, w):
        # sum(f*g) <= wsum(f, w) + wsum(g, 1-w) for positive weights
        lf, lg = logs, logs[::-1].copy()
        lhs = _lse_axis(lf + lg, 0, 1.0)
        rhs = _lse_axis(lf, 0, w) + _lse_axis(lg, 0, 1.0 - w)
        assert lhs <= rhs + 1e-10

    @given(finite_logs, st.floats(1.1, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_holder_lower_split(self, logs, w1):
        # one weight above one, its partner negative: direction flips
        lf, lg = logs, logs[::-1].copy()
        lhs = _lse_axis(lf + lg, 0, 1.0)
        rhs = _lse_axis(lf, 0, w1) + _lse_axis(lg, 0, 1.0 - w1)
        assert lhs >= rhs - 1e-10

    @given(finite_logs, st.floats(0.1, 1.0), st.floats(1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_weight(self, logs, w1, scale):
        w2 = w1 * (1.0 + scale)
        assert _lse_axis(logs, 0, w1) <= _lse_axis(logs, 0, w2) + 1e-10


class TestOrders:
    def test_duplicate_variable_rejected(self):
        g = chain_graph(3)
        with pytest.raises(ValueError):
            run_be(g, (0, 1, 1))
        with pytest.raises(ValueError):
            build_minibucket_tree(g, (0, 1, 1), 2)

    def test_chain_width_one(self):
        g = chain_graph(8)
        order = default_order(g)
        assert sorted(order) == list(range(8))
        assert induced_width(g, order) == 1

    def test_cycle_width_two(self):
        factors = tuple(
            Factor.uniform(tuple(sorted((i, (i + 1) % 5))), (2, 2))
            for i in range(5)
        )
        g = FactorGraph((2,) * 5, factors)
        assert induced_width(g, default_order(g)) == 2

    def test_never_worse_than_identity(self):
        for seed in range(4):
            g = random_pairwise_graph(9, 16, seed)
            order = default_order(g)
            assert induced_width(g, order) <= induced_width(
                g, tuple(range(9)))


def disjoint_union(*graphs):
    """Side-by-side copies of ``graphs``, variable ids offset in turn."""
    cards, factors = [], []
    for g in graphs:
        off = len(cards)
        factors += [Factor(tuple(v + off for v in f.scope), f.cards,
                           f.sign, f.logmag) for f in g.factors]
        cards += g.cards
    return FactorGraph(tuple(cards), tuple(factors))


def _order_models():
    """(label, model) pairs on which the incremental min-fill is pinned."""
    for seed in range(6):
        for n, e in ((8, 10), (14, 30), (20, 60)):
            yield (f"pairwise-{n}-{e}-{seed}",
                   random_pairwise_graph(n, e, seed))
        # several components, one of them a lone variable
        yield (f"disconnected-{seed}", disjoint_union(
            random_pairwise_graph(7, 12, seed),
            FactorGraph((3,), (Factor.uniform((0,), (3,)),)),
            random_pairwise_graph(9, 15, seed + 100)))
        yield f"to_forney-grid-{seed}", to_forney(
            gen_ising_grid(4, 4, 1.0, seed=seed))
        yield f"to_forney-pairwise-{seed}", random_forney_from_pairwise(
            12, 24, seed)
        for n in (6, 12, 20):
            yield f"3reg-{n}-{seed}", gen_forney_3regular(n, 1.0, seed)
            yield f"sym-{n}-{seed}", gen_symmetric_forney(n, 1.0, seed)
    for rows, cols in ((2, 2), (3, 5), (6, 6), (8, 8), (7, 12), (12, 12)):
        yield f"grid-{rows}x{cols}", ising_to_forney(
            gen_ising_grid(rows, cols, 1.0, seed=rows))


_ORDER_MODELS = list(_order_models())


class TestIncrementalMinFill:
    """``default_order`` against the full-rescan greedy it replaced."""

    @pytest.mark.parametrize("label,g", _ORDER_MODELS,
                             ids=[m[0] for m in _ORDER_MODELS])
    def test_matches_full_rescan(self, label, g):
        assert default_order(g) == reference_min_fill_order(g)

    def test_set_holds_wide_equality_factors(self):
        arity = max(f.arity for label, g in _ORDER_MODELS
                    if label.startswith("to_forney") for f in g.factors)
        assert arity >= 5

    def test_identity_guard_wins(self):
        g = gen_ising_grid(7, 7, 1.0, seed=0)
        identity = tuple(range(g.num_vars))
        assert induced_width(g, identity) < induced_width(
            g, greedy_min_fill(g))
        assert default_order(g) == identity == reference_min_fill_order(g)


def _card3_with_zeros(seed):
    """to_forney of a card-3 pairwise model with one all-zero row: its
    equality factors and that row give slices that are all -inf."""
    g = random_pairwise_graph(8, 12, seed, card=3)
    f = g.factors[0]
    vals = f.linear()
    vals[seed % 3] = 0.0
    g = FactorGraph(g.cards, (Factor.from_linear(f.scope, f.cards, vals),)
                    + g.factors[1:])
    return to_forney(g)


def _gauged(seed):
    """A gauged model that has tables with and without a negative
    entry, so its buckets mix signed and sign-free tables."""
    g = gen_forney_3regular(12, 1.0, seed)
    g = apply_gauges(g, random_valid_gauges(g, 0.3, seed))
    signed = sum(bool((f.sign < 0).any()) for f in g.factors)
    assert 0 < signed < g.num_factors
    return g


# name -> model builder; the "zero-z" models have Z = 0
_BE_MODELS = {
    "grid-12x12": lambda: ising_to_forney(
        gen_ising_grid(12, 12, 1.0, seed=0)),
    **{f"card3-zeros-{seed}": partial(_card3_with_zeros, seed)
       for seed in range(3)},
    **{f"gauged-{seed}": partial(_gauged, seed) for seed in range(3)},
    "zero-z-split": zero_z_split_model,
    "zero-z-unsplit": zero_z_unsplit_model,
}


class TestRunBE:
    def test_hand_model(self):
        g = FactorGraph(
            (2, 2),
            (Factor.from_linear((0, 1), (2, 2),
                                np.array([[1.0, 2.0], [3.0, 5.0]])),),
        )
        for order in ((0, 1), (1, 0)):
            z = run_be(g, order)
            assert z.sign == 1.0
            assert z.logabs == pytest.approx(math.log(11.0), rel=1e-14)

    def test_order_must_cover_all_variables(self):
        g = chain_graph(4)
        with pytest.raises(ValueError):
            run_be(g, (0, 1, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration(self, seed):
        g = random_pairwise_graph(8, 14, seed)
        z = brute_z(g)
        got = run_be(g, default_order(g))
        assert got.sign == z.sign
        assert got.logabs == pytest.approx(z.logabs, rel=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_enumeration_with_negative_entries(self, seed):
        g = random_forney_graph(6, t=1.0, seed=seed)
        gauged = apply_gauges(g, random_valid_gauges(g, scale=0.4, seed=seed))
        assert not all((f.sign >= 0).all() for f in gauged.factors)
        z = brute_z(gauged)
        got = run_be(gauged, default_order(gauged))
        assert got.sign == z.sign
        assert got.logabs == pytest.approx(z.logabs, rel=1e-9)

    def test_width_guard_past_int64(self):
        # 64 pairwise factors around variable 0: its bucket spans 65
        # binary variables, 2**65 entries, which wraps to 0 in int64
        g = FactorGraph((2,) * 65, tuple(
            Factor.uniform((0, v), (2, 2)) for v in range(1, 65)))
        with pytest.raises(WidthExceeded):
            run_be(g, tuple(range(65)))

    @pytest.mark.parametrize("name", sorted(_BE_MODELS))
    def test_bitwise_equals_signed_reference(self, name):
        g = _BE_MODELS[name]()
        order = default_order(g)
        got = run_be(g, order)
        assert [x.hex() for x in got] == [
            x.hex() for x in reference_be(g, order)]
        assert (got.sign == 0.0) == name.startswith("zero-z")

    def test_width_guard(self, monkeypatch):
        import gmbe.elimination as elim

        g = chain_graph(5)
        order = default_order(g)
        full = run_be(g, order).logabs
        monkeypatch.setattr(elim, "BE_ENTRY_GUARD", 2)
        with pytest.raises(WidthExceeded):
            run_be(g, order)
        monkeypatch.setattr(elim, "BE_ENTRY_GUARD", 4)
        assert run_be(g, order).logabs == pytest.approx(full)


class TestTreeBuilder:
    def test_no_splits_at_full_width(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        order = default_order(g)
        tree = build_minibucket_tree(g, order, induced_width(g, order))
        assert all(len(ks) == 1 for ks in tree.splits.values())
        assert len(tree.buckets) == g.num_vars

    def test_split_structure_when_constrained(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        tree = build_minibucket_tree(g, default_order(g), 2)
        split = {v: ks for v, ks in tree.splits.items() if len(ks) > 1}
        assert len(split) == 3
        # a variable on two factors can land in at most two mini-buckets
        assert max(len(ks) for ks in tree.splits.values()) == 2

    def test_capacity_respected(self):
        for ib in (2, 3, 4):
            g = random_forney_graph(8, t=1.0, seed=2)
            tree = build_minibucket_tree(g, default_order(g), ib)
            assert all(len(b.scope) <= ib + 1 for b in tree.buckets)

    def test_factor_must_fit(self):
        g = random_forney_graph(6, t=1.0, seed=0)  # arity-3 factors
        with pytest.raises(IboundTooSmall) as err:
            build_minibucket_tree(g, default_order(g), 1)
        assert err.value.arity == 3
        assert err.value.ibound == 1
        build_minibucket_tree(g, default_order(g), 2)  # capacity 3 fits

    def test_incidence_consistency(self):
        g = random_forney_graph(8, t=1.0, seed=3)
        tree = build_minibucket_tree(g, default_order(g), 2)
        for fid, (f, axes) in enumerate(zip(g.factors,
                                            factor_incidence(g, tree))):
            assert len(axes) == f.arity
            for u, k in zip(f.scope, axes):
                assert tree.buckets[k].var == u
            home = tree.factor_bucket[fid]
            assert fid in tree.buckets[home].factor_ids
            assert home in axes

    def test_message_tree_shape(self):
        g = random_forney_graph(8, t=1.0, seed=3)
        tree = build_minibucket_tree(g, default_order(g), 2)
        pos = {v: i for i, v in enumerate(tree.order)}
        for b in tree.buckets:
            if b.parent is not None:
                parent = tree.buckets[b.parent]
                assert pos[parent.var] > pos[b.var]
                assert b.index in parent.children
        assert len(tree.roots) >= 1

    def test_initial_weights(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        up = build_minibucket_tree(g, default_order(g), 2, "upper")
        for ks in up.splits.values():
            ws = [up.initial_weights[k] for k in ks]
            np.testing.assert_allclose(ws, [1.0 / len(ks)] * len(ks))
        lo = build_minibucket_tree(g, default_order(g), 2, "lower")
        for ks in lo.splits.values():
            ws = [lo.initial_weights[k] for k in ks]
            np.testing.assert_allclose(sorted(ws), sorted(lower_weights(len(ks))))
            assert sum(1 for w in ws if w > 0) == 1

    def test_bad_direction(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        with pytest.raises(ValueError):
            build_minibucket_tree(g, default_order(g), 2, "sideways")

    def test_lower_weights_pattern(self):
        assert lower_weights(1) == [1.0]
        assert lower_weights(3) == [2.0, -0.5, -0.5]
        assert sum(lower_weights(4)) == pytest.approx(1.0)


class TestCheckWeights:
    """The weight rule, as the evaluator applies it to every update."""

    def _evaluator(self, direction="upper"):
        g = random_forney_graph(6, t=1.0, seed=1)
        tree = build_minibucket_tree(g, default_order(g), 2, direction)
        return TreeEvaluator(tree, g.factors)

    def _split_var(self, tree):
        return next(ks for ks in tree.splits.values() if len(ks) > 1)

    def test_initial_weights_pass(self):
        for direction in ("upper", "lower"):
            ev = self._evaluator(direction)
            ev.set_weights(dict(enumerate(ev.tree.initial_weights)))

    def test_sum_violation(self):
        ev = self._evaluator()
        k = self._split_var(ev.tree)[0]
        with pytest.raises(ValueError):
            ev.set_weights({k: ev.weights[k] + 0.25})

    def test_zero_weight(self):
        ev = self._evaluator()
        ks = self._split_var(ev.tree)
        with pytest.raises(ZeroWeight):
            ev.set_weights({ks[0]: 0.0, ks[1]: 1.0})

    def test_sign_pattern_enforced(self):
        reverse = {}
        ev = self._evaluator()
        for ks in ev.tree.splits.values():
            if len(ks) > 1:
                reverse[ks[0]] = 1.0 + 0.5 * (len(ks) - 1)
                for k in ks[1:]:
                    reverse[k] = -0.5
        with pytest.raises(ValueError):
            ev.set_weights(reverse)
        lower = self._evaluator("lower")
        lower.set_weights(reverse)
        with pytest.raises(ValueError):
            lower.set_weights(dict(enumerate(ev.tree.initial_weights)))


class TestBoundsAgainstBrute:
    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2), (6, 5)])
    def test_upper_matches_nested_power_sum(self, n, seed):
        g = random_forney_graph(n, t=1.0, seed=seed)
        tree = build_minibucket_tree(g, default_order(g), 2)
        fast = run_wmbe(g, tree).log_bound
        assert fast == pytest.approx(brute_wmbe(g, tree), abs=1e-9)

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 3), (8, 4)])
    def test_lower_matches_nested_power_sum(self, n, seed):
        g = random_forney_graph(n, t=1.0, seed=seed)
        tree = build_minibucket_tree(g, default_order(g), 2, "lower")
        fast = run_wmbe(g, tree).log_bound
        assert fast == pytest.approx(brute_wmbe(g, tree), abs=1e-9)

    def test_matches_at_nonuniform_weights(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        tree = build_minibucket_tree(g, default_order(g), 2)
        rng = np.random.default_rng(9)
        ws = list(tree.initial_weights)
        for ks in tree.splits.values():
            if len(ks) > 1:
                fresh = rng.dirichlet([2.0] * len(ks))
                for k, w in zip(ks, fresh):
                    ws[k] = float(w)
        fast = evaluator_at(tree, g.factors, ws).bound()
        assert fast == pytest.approx(brute_wmbe(g, tree, weights=ws),
                                     abs=1e-9)


class TestBoundOrdering:
    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2), (6, 3),
                                        (8, 4), (6, 5)])
    def test_sandwich(self, n, seed):
        g = random_forney_graph(n, t=1.0, seed=seed)
        order = default_order(g)
        z = brute_z(g).logabs
        up = run_wmbe(g, build_minibucket_tree(g, order, 2)).log_bound
        lo = run_wmbe(g, build_minibucket_tree(g, order, 2, "lower")).log_bound
        assert lo <= z + 1e-9
        assert z <= up + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_sandwich_mixed_arity(self, seed):
        g = random_forney_from_pairwise(6, 8, seed)
        order = default_order(g)
        ib = max(3, max(f.arity for f in g.factors) - 1)
        z = run_be(g, order).logabs
        up = run_wmbe(g, build_minibucket_tree(g, order, ib)).log_bound
        lo = run_wmbe(g, build_minibucket_tree(g, order, ib, "lower")).log_bound
        assert lo <= z + 1e-9
        assert z <= up + 1e-9

    def test_exact_when_no_splits(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        order = default_order(g)
        z = run_be(g, order).logabs
        full = induced_width(g, order)
        for direction in ("upper", "lower"):
            tree = build_minibucket_tree(g, order, full, direction)
            assert all(len(ks) == 1 for ks in tree.splits.values())
            assert run_wmbe(g, tree).log_bound == pytest.approx(z, abs=1e-9)

    def test_uniform_weights_tighter_on_fixtures(self):
        # not an identity, but stable on these frozen instances: the
        # uniform weighted bound improves on the classic sum/max one
        for n, seed in [(6, 1), (8, 2), (6, 5)]:
            g = random_forney_graph(n, t=1.0, seed=seed)
            tree = build_minibucket_tree(g, default_order(g), 2)
            assert run_mbe(g, tree).log_bound >= run_wmbe(
                g, tree).log_bound - 1e-9

    def test_small_weight_limit_is_classic(self):
        # driving every non-lead weight toward zero turns the power sum
        # into a max, so the weighted bound converges to the classic one
        g = random_forney_graph(6, t=1.0, seed=1)
        tree = build_minibucket_tree(g, default_order(g), 2)
        mbe = run_mbe(g, tree).log_bound
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            ws = list(tree.initial_weights)
            for ks in tree.splits.values():
                if len(ks) > 1:
                    for k in ks[1:]:
                        ws[k] = eps
                    ws[ks[0]] = 1.0 - eps * (len(ks) - 1)
            val = evaluator_at(tree, g.factors, ws).bound()
            gaps.append(abs(val - mbe))
        assert gaps[-1] < 1e-3
        assert gaps[0] > gaps[-1]

    def test_result_fields(self):
        g = random_forney_graph(6, t=1.0, seed=1)
        order = default_order(g)
        up = run_wmbe(g, build_minibucket_tree(g, order, 2))
        lo = run_wmbe(g, build_minibucket_tree(g, order, 2, "lower"))
        mb = run_mbe(g, build_minibucket_tree(g, order, 2))
        assert (up.method, up.direction) == ("wmbe", "upper")
        assert (lo.method, lo.direction) == ("wmbe", "lower")
        assert (mb.method, mb.direction) == ("mbe", "upper")
        for r in (up, lo, mb):
            assert r.trace == (r.log_bound,)
            assert r.iterations == 0
            assert r.wall_time >= 0.0


class TestEvaluatorIncremental:
    def _setup(self, seed=1):
        g = random_forney_graph(6, t=1.0, seed=seed)
        tree = build_minibucket_tree(g, default_order(g), 2)
        return g, tree, TreeEvaluator(tree, g.factors)

    def test_set_factors_matches_fresh(self, rng):
        g, tree, ev = self._setup()
        f0 = g.factors[0]
        new = Factor.from_log(f0.scope, f0.cards,
                              rng.normal(0, 1, f0.cards))
        ev.set_factors({0: new})
        fresh = TreeEvaluator(tree, (new,) + g.factors[1:])
        assert ev.bound() == pytest.approx(fresh.bound(), rel=1e-12)

    def test_set_weights_matches_fresh(self):
        g, tree, ev = self._setup()
        ks = next(ks for ks in tree.splits.values() if len(ks) > 1)
        ev.set_weights({ks[0]: 0.7, ks[1]: 0.3})
        ws = list(tree.initial_weights)
        ws[ks[0]], ws[ks[1]] = 0.7, 0.3
        fresh = evaluator_at(tree, g.factors, ws)
        assert ev.bound() == pytest.approx(fresh.bound(), rel=1e-12)

    def test_restore_is_exact(self, rng):
        g, tree, ev = self._setup()
        before = ev.bound()
        f0 = g.factors[0]
        token = ev.set_factors({0: Factor.from_log(
            f0.scope, f0.cards, rng.normal(0, 1, f0.cards))})
        assert ev.bound() != before
        ev.restore(token)
        assert ev.bound() == before
        ks = next(ks for ks in tree.splits.values() if len(ks) > 1)
        token = ev.set_weights({ks[0]: 0.9, ks[1]: 0.1})
        ev.restore(token)
        assert ev.bound() == before

    def test_rejected_weight_update_changes_nothing(self):
        g = gen_forney_3regular(8, t=1.0, seed=0)
        tree = build_minibucket_tree(g, default_order(g), 2)
        ev = TreeEvaluator(tree, g.factors)
        ks = next(ks for ks in tree.splits.values() if len(ks) > 1)
        weights = ev.weights.copy()
        msgs = [m.copy() for m in ev.msg]
        before = ev.bound()
        with pytest.raises(ZeroWeight):
            ev.set_weights({ks[0]: 0.9, ks[1]: 0.0})
        np.testing.assert_array_equal(ev.weights, weights)
        for got, want in zip(ev.msg, msgs):
            np.testing.assert_array_equal(got, want)
        assert ev.bound() == before
        # the next edit starts from the untouched weights
        ev.set_weights({ks[0]: 0.7, ks[1]: 0.3})
        ws = list(tree.initial_weights)
        ws[ks[0]], ws[ks[1]] = 0.7, 0.3
        assert ev.bound() == evaluator_at(tree, g.factors, ws).bound()

    # (model, ibound): 3-regular; a grid in its degree-2 form; a
    # to_forney model whose equality factors hold zeros, so some
    # messages carry -inf slices in both directions
    MODELS = {
        "3regular": (lambda: gen_forney_3regular(8, t=1.0, seed=0), 2),
        "grid6x6": (lambda: ising_to_forney(
            gen_ising_grid(6, 6, t=1.0, seed=0)), 4),
        "to_forney": (lambda: random_forney_from_pairwise(10, 20, 0), 7),
    }

    @classmethod
    def _random_edits(cls, ev, factors, weights, seed, mode):
        """Seeded set_factors/set_weights calls, about half restored.

        Keeps ``factors`` and ``weights`` equal to what ``ev`` holds.
        Zero entries stay zero: log-magnitudes are perturbed additively.
        """
        rng = np.random.default_rng(seed)
        splits = [ks for ks in ev.tree.splits.values() if len(ks) > 1]
        for _ in range(40):
            keep = rng.random() < 0.5
            if mode == "mbe" or rng.random() < 0.6:
                fids = rng.choice(len(factors), size=int(rng.integers(1, 3)),
                                  replace=False)
                new = {}
                for fid in fids.tolist():
                    f = factors[fid]
                    new[fid] = Factor(f.scope, f.cards, f.sign, f.logmag
                                      + rng.normal(0.0, 0.3, f.cards))
                token = ev.set_factors(new)
                target, updates = factors, new
            else:
                ks = splits[int(rng.integers(len(splits)))]
                ws = cls._valid_weights(rng, len(ks), ev.tree.direction)
                updates = dict(zip(ks, ws.tolist()))
                token = ev.set_weights(updates)
                target = weights
            if keep:
                for i, x in updates.items():
                    target[i] = x
            else:
                ev.restore(token)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_random_edits_match_fresh_bitwise(self, model, direction):
        make, ibound = self.MODELS[model]
        g = make()
        tree = build_minibucket_tree(g, default_order(g), ibound, direction)
        ev = TreeEvaluator(tree, g.factors)
        factors, weights = list(g.factors), list(tree.initial_weights)
        self._random_edits(ev, factors, weights, seed=7, mode="wsum")
        fresh = evaluator_at(tree, factors, weights)
        # the kept edits are in place and the restored ones undone
        assert len(ev.factors) == len(factors)
        assert all(x is y for x, y in zip(ev.factors, factors))
        assert ev.bound() == fresh.bound()
        assert np.isfinite(fresh.bound())
        n = len(tree.buckets)
        for k in range(n):
            np.testing.assert_array_equal(ev.msg[k], fresh.msg[k])
            # a bucket's members span its scope, so psi is never smaller
            assert fresh.psi[k].shape == tuple(
                tree.cards[u] for u in tree.buckets[k].scope)
        got, want = ev.beliefs(range(n)), fresh.beliefs(range(n))
        for k in range(n):
            np.testing.assert_array_equal(got[k], want[k])
        for fid in range(len(factors)):
            np.testing.assert_array_equal(ev.factor_marginal(fid),
                                          fresh.factor_marginal(fid))
        np.testing.assert_array_equal(ev.weight_gradient(list(range(n))),
                                      fresh.weight_gradient(list(range(n))))

    @staticmethod
    def _valid_weights(rng, n, direction):
        """n random weights that keep the rule for the direction."""
        if direction == "upper":
            return rng.dirichlet(np.ones(n))
        ws = -rng.uniform(0.1, 1.0, n)
        ws[0] = 1.0 - ws[1:].sum()
        return ws

    @classmethod
    def _bad_weights(cls, rng, ks, current, direction):
        """Weights for ks that break the rule in one of four ways."""
        n = len(ks)
        kind = ("sum", "sign", "zero", "partial")[int(rng.integers(4))]
        ws = cls._valid_weights(rng, n, direction)
        if kind == "sum":
            ws = ws * rng.uniform(1.1, 2.0)
        elif kind == "sign" and direction == "upper":
            ws = np.full(n, -0.5)
            ws[0] = 1.0 - ws[1:].sum()
        elif kind == "sign":
            ws = rng.dirichlet(np.ones(n))
        elif kind == "zero":
            ws[int(rng.integers(n))] = 0.0
        else:
            # one copy moves, so the variable's sum moves off 1
            return {ks[0]: float(current[ks[0]] + rng.uniform(0.1, 0.5))}
        return dict(zip(ks, ws.tolist()))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ["upper", "lower"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_weight_rule_fuzz(self, model, direction):
        # off-simplex, sign-breaking, zero and one-copy weight updates
        # are rejected and change nothing; valid ones in between are kept
        make, ibound = self.MODELS[model]
        g = make()
        tree = build_minibucket_tree(g, default_order(g), ibound, direction)
        ev = TreeEvaluator(tree, g.factors)
        weights = list(tree.initial_weights)
        splits = [ks for ks in tree.splits.values() if len(ks) > 1]
        rng = np.random.default_rng(11)
        for _ in range(30):
            ks = splits[int(rng.integers(len(splits)))]
            bad = self._bad_weights(rng, ks, ev.weights, direction)
            before_w = ev.weights.copy()
            before_t = list(zip(ev.psi, ev.msg))
            before = ev.bound()
            with pytest.raises((ValueError, ZeroWeight)):
                ev.set_weights(bad)
            np.testing.assert_array_equal(ev.weights, before_w)
            assert all(p is p0 and m is m0 for (p, m), (p0, m0)
                       in zip(zip(ev.psi, ev.msg), before_t))
            assert ev.bound() == before
            ws = self._valid_weights(rng, len(ks), direction)
            ev.set_weights(dict(zip(ks, ws.tolist())))
            for k, w in zip(ks, ws.tolist()):
                weights[k] = w
        np.testing.assert_array_equal(ev.weights, weights)
        fresh = evaluator_at(tree, g.factors, weights)
        assert ev.bound() == fresh.bound()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_random_edits_match_fresh_mbe(self, model):
        make, ibound = self.MODELS[model]
        g = make()
        tree = build_minibucket_tree(g, default_order(g), ibound)
        ev = TreeEvaluator(tree, g.factors, mode="mbe")
        factors = list(g.factors)
        self._random_edits(ev, factors, None, seed=7, mode="mbe")
        fresh = TreeEvaluator(tree, factors, mode="mbe")
        assert ev.bound() == fresh.bound()
        assert fresh.bound() == run_mbe(FactorGraph(g.cards, tuple(factors)),
                                        tree).log_bound
        for k in range(len(tree.buckets)):
            np.testing.assert_array_equal(ev.msg[k], fresh.msg[k])

    def test_dead_root_raises_and_dead_slices_stay_quiet(self):
        g = random_forney_from_pairwise(10, 20, 0)
        order = default_order(g)
        lower = TreeEvaluator(build_minibucket_tree(g, order, 6, "lower"),
                              g.factors)
        assert lower.bound() == -np.inf
        with pytest.raises(NumericalUnderflow):
            lower.beliefs(lower.tree.roots)
        tree = build_minibucket_tree(g, order, 6)
        ev = TreeEvaluator(tree, g.factors)
        # the upper tree has slices whose normalizer is -inf, which take
        # the masked path, and must do so without a numpy warning
        assert any(-np.inf in np.atleast_1d(m) for m in ev.msg)
        n = len(tree.buckets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            memo = ev.beliefs(range(n))
            grad = ev.weight_gradient(list(range(n)))
        assert all(np.isfinite(memo[k]).all() for k in range(n))
        assert np.isfinite(grad).all()

    def test_zero_weight_rejected(self):
        _, tree, ev = self._setup()
        ks = next(ks for ks in tree.splits.values() if len(ks) > 1)
        with pytest.raises(ZeroWeight):
            ev.set_weights({ks[0]: 0.0})

    def test_unknown_mode(self):
        g, tree, _ = self._setup()
        with pytest.raises(ValueError):
            TreeEvaluator(tree, g.factors, mode="sum")
