"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test prints its measured margins, so a failed
criterion shows how far off it was, and a passed one (under ``-s`` or
``-rA``) shows how much headroom it had.  Stated runtime budgets are
asserted inside the tests that carry them.
"""

import math
import os
import time

import numpy as np
import pytest

from gmbe import (
    Factor,
    ForneyGraph,
    TreeEvaluator,
    apply_gauges,
    brute_z,
    build_minibucket_tree,
    gauge_pair,
    default_order,
    emit_uai,
    gauge_transform_factor,
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    induced_width,
    ising_to_forney,
    parse_uai,
    random_valid_gauges,
    run_be,
    run_mbe,
    run_wmbe,
)
from gmbe.optimize import (
    OptimizerConfig,
    gauge_gradient,
    optimize_bound,
    reparam_gradient,
)

from conftest import random_forney_from_pairwise, random_pairwise_graph
from oracles import fd_gradient

# traces collected by criteria 6 and 7, asserted wholesale by criterion 8
_COLLECTED_TRACES = []


def _cycle_model(n, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(
        Factor.from_log(tuple(sorted((i, (i + 1) % n))), (2, 2),
                        rng.normal(0, 1, (2, 2)))
        for i in range(n)
    )
    return ForneyGraph((2,) * n, factors)


def _monotone(trace, direction):
    pairs = zip(trace, trace[1:])
    if direction == "upper":
        return all(b <= a + 1e-12 for a, b in pairs)
    return all(b >= a - 1e-12 for a, b in pairs)


def test_criterion_01_gauge_invariance_of_z():
    """100 random degree-2 models x random valid gauges keep log Z."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            g = _cycle_model(6 + (i // 2) % 7, seed=i)  # 6..12 variables
        else:
            g = gen_forney_3regular((4, 6, 8)[i % 3], t=1.0, seed=i)
        assert g.num_vars <= 12
        gauges = random_valid_gauges(g, scale=0.4, seed=1000 + i)
        delta = abs(brute_z(apply_gauges(g, gauges)).logabs
                    - brute_z(g).logabs)
        worst = max(worst, delta)
        assert delta < 1e-9
    elapsed = time.perf_counter() - t0
    print(f"criterion 01: worst |dlogZ| {worst:.3e}, {elapsed:.1f}s")
    assert elapsed < 60.0


# -- criterion 2 fixtures: the published four-factor worked example ---------
# Each table prints as two stacked 2x2 blocks; the nesting consistent
# across all four factor/transform pairs is first variable outermost.
_GA = np.array([[0.75, 0.25], [0.25, 0.75]])
_GB = np.array([[1.5, -0.5], [-0.5, 1.5]])

_ORIG = {
    "a": np.array([[[2432., 832], [4672, 640]],
                   [[4864, 384], [5120, 4160]]]),
    "b": np.array([[[1088., 128], [4928, 4608]],
                   [[448, 1664], [3264, 1344]]]),
    "c": np.array([[[1216., 5440], [768, 1856]],
                   [[5568, 896], [640, 512]]]),
    "d": np.array([[[5632., 5632], [6080, 6208]],
                   [[5568, 896], [640, 512]]]),
}
_TRANSFORMED = {
    "a": np.array([[[2837., 1559], [3591, 2077]],
                   [[3631, 2005], [4261, 2077]]]),
    "b": np.array([[[2142., 1434], [4634, 4558]],
                   [[966, 1490], [1490, 758]]]),
    "c": np.array([[[3960., 8808], [-1608, -2520]],
                   [[-328, -3288], [6520, 8296]]]),
    "d": np.array([[[2408., 9160], [10760, 9192]],
                   [[14536, -6232], [-7448, -1208]]]),
}
# matrices per factor axis under the shared free/conjugate assignment
_MATS = {
    "a": (_GA, _GA, _GA),
    "b": (_GB, _GA, _GA),
    "c": (_GB, _GB, _GA),
    "d": (_GB, _GB, _GB),
}
_SCOPES = {"a": (0, 1, 2), "b": (0, 3, 4), "c": (1, 3, 5), "d": (2, 4, 5)}


def _transform_table(table, mats, scope):
    f = Factor.from_linear(scope, (2, 2, 2), table)
    return gauge_transform_factor(
        f, dict(zip(scope, mats))).linear()


def test_criterion_02_published_worked_example():
    """Printed transformed tables are reproduced within +-0.5.

    Two entries of the print run are provably defective and are
    corrected in place, with the proof executed right here:
    * both matrices have unit column sums, so any transform preserves
      the table total; the printed transformed a-table breaks that
      conservation by exactly 3143 - 2077 at its final entry;
    * the matrices are mutual inverses, so the printed transformed
      c-table pulls back exactly; the pullback is integer, agrees with
      the printed original's first block, and pins the second block
      (the print shows a verbatim copy of the d-table's second block).
    """
    np.testing.assert_allclose(_GA.sum(axis=0), [1, 1], rtol=0)
    np.testing.assert_allclose(_GB.sum(axis=0), [1, 1], rtol=0)
    np.testing.assert_allclose(_GA @ _GB, np.eye(2), atol=1e-15)

    matched = 0
    # b and d reproduce directly, all eight entries each
    for name in ("b", "d"):
        got = _transform_table(_ORIG[name], _MATS[name], _SCOPES[name])
        np.testing.assert_allclose(got, _TRANSFORMED[name], atol=0.5)
        matched += 8

    # a: seven entries reproduce; the eighth printed value breaks the
    # sum conservation law by exactly the amount our value restores
    got_a = _transform_table(_ORIG["a"], _MATS["a"], _SCOPES["a"])
    printed_a = _TRANSFORMED["a"]
    mism = np.argwhere(np.abs(got_a - printed_a) > 0.5)
    assert mism.tolist() == [[1, 1, 1]]
    deficit = _ORIG["a"].sum() - printed_a.sum()
    assert deficit == 3143 - 2077
    assert got_a[1, 1, 1] == pytest.approx(3143, abs=0.5)
    matched += 7

    # c: pull the printed transformed table back through the inverse
    # matrices; the result is exactly integer and fixes the original
    inv_mats = tuple(np.linalg.inv(m) for m in _MATS["c"])
    back = _transform_table(_TRANSFORMED["c"], inv_mats, _SCOPES["c"])
    np.testing.assert_allclose(back, np.round(back), atol=1e-9)
    np.testing.assert_allclose(back[0], _ORIG["c"][0], atol=1e-9)
    assert not np.allclose(back[1], _ORIG["c"][1])
    np.testing.assert_array_equal(_ORIG["c"][1], _ORIG["d"][1])
    got_c = _transform_table(back, _MATS["c"], _SCOPES["c"])
    np.testing.assert_allclose(got_c, _TRANSFORMED["c"], atol=0.5)
    # the negative entries, -1608 among them, are reproduced exactly
    assert got_c[0, 1, 0] == pytest.approx(-1608, abs=0.5)
    assert (got_c < 0).sum() == 4
    matched += 8

    # the full six-variable model satisfies the pair constraint and
    # keeps its partition function under the printed assignment
    corrected_c = back
    factors = tuple(
        Factor.from_linear(_SCOPES[n], (2, 2, 2),
                           corrected_c if n == "c" else _ORIG[n])
        for n in ("a", "b", "c", "d")
    )
    g = ForneyGraph((2,) * 6, factors)
    ga, gb = gauge_pair(_GA)
    assert np.abs(ga.T @ gb - np.eye(2)).max() < 1e-12
    out = apply_gauges(g, {v: _GA for v in range(6)})
    assert brute_z(out).logabs == pytest.approx(brute_z(g).logabs,
                                                rel=1e-12)
    print(f"criterion 02: {matched}/31 printed entries reproduced; "
          "2 print defects corrected by in-test proofs")


def test_criterion_03_exactness_collapse():
    """run_be == enumeration and full-width bound == run_be, 50 models."""
    worst_be = worst_w = 0.0
    for i in range(50):
        if i % 2 == 0:
            g = random_pairwise_graph(8 + i % 3, 13 + i % 4, seed=i)
        else:
            g = gen_forney_3regular((4, 6, 8)[i % 3], t=1.0, seed=i)
        order = default_order(g)
        z = brute_z(g).logabs
        be = run_be(g, order).logabs
        rel = abs(be - z) / max(1.0, abs(z))
        worst_be = max(worst_be, rel)
        assert rel < 1e-10
        width = induced_width(g, order)
        for direction in ("upper", "lower"):
            tree = build_minibucket_tree(g, order, width, direction)
            wb = run_wmbe(g, tree).log_bound
            rel = abs(wb - be) / max(1.0, abs(be))
            worst_w = max(worst_w, rel)
            assert rel < 1e-10
    print(f"criterion 03: worst rel exact {worst_be:.2e}, "
          f"full-width {worst_w:.2e}")


def test_criterion_04_sandwich_and_orderings():
    """lower <= Z <= upper on 100 models at ibound 2, plus orderings."""
    sandwich = uniform_below = optimized_below = 0
    for i in range(100):
        n = (4, 6, 8, 10)[i % 4]
        g = gen_forney_3regular(n, t=1.0, seed=i)
        order = default_order(g)
        up_tree = build_minibucket_tree(g, order, 2)
        lo_tree = build_minibucket_tree(g, order, 2, "lower")
        z = brute_z(g).logabs
        up = run_wmbe(g, up_tree).log_bound
        lo = run_wmbe(g, lo_tree).log_bound
        mbe = run_mbe(g, up_tree).log_bound
        opt, _ = optimize_bound(
            g, up_tree, OptimizerConfig.for_method("wmbe-wg",
                                                   iterations=20))
        sandwich += (lo <= z + 1e-9) and (z <= up + 1e-9)
        uniform_below += mbe >= up - 1e-9
        optimized_below += mbe >= opt.log_bound - 1e-9
    print(f"criterion 04: sandwich {sandwich}/100, classic>=uniform "
          f"{uniform_below}/100, classic>=optimized {optimized_below}/100")
    assert sandwich == 100
    assert uniform_below >= 95
    assert optimized_below == 100


def test_criterion_05_gradients_match_finite_differences():
    """Transform and rescaling gradients vs central differences."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    checked = 0
    for i in range(20):
        n = (4, 6)[i % 2]
        direction = "upper" if i % 3 else "lower"
        g = gen_forney_3regular(n, t=1.0, seed=200 + i)
        tree = build_minibucket_tree(g, default_order(g), 2, direction)
        ev = TreeEvaluator(tree, g.factors)
        split_vars = [v for v, ks in tree.splits.items() if len(ks) > 1]
        rng = np.random.default_rng(i)
        probe = [int(v) for v in rng.choice(g.num_vars, 2, replace=False)]
        probe += split_vars[:2]
        for v in probe:
            a, b = [fid for fid, f in enumerate(g.factors)
                    if v in f.scope]

            def bound_with_gauge(mat, a=a, b=b, v=v):
                fs = list(g.factors)
                fs[a] = gauge_transform_factor(fs[a], {v: mat})
                fs[b] = gauge_transform_factor(
                    fs[b], {v: np.linalg.inv(mat.T)})
                return TreeEvaluator(tree, fs).bound()

            def bound_with_shift(theta, a=a, b=b, v=v):
                fs = list(g.factors)
                fs[a] = fs[a].scale_axis_log(v, theta)
                fs[b] = fs[b].scale_axis_log(v, -theta)
                return TreeEvaluator(tree, fs).bound()

            pairs = (
                (gauge_gradient(ev, v),
                 fd_gradient(bound_with_gauge, np.eye(2), h=1e-6)),
                (reparam_gradient(ev, v),
                 fd_gradient(bound_with_shift, np.zeros(2), h=1e-6)),
            )
            for analytic, fd in pairs:
                scale = np.abs(fd).max()
                diff = np.abs(analytic - fd).max()
                if scale >= 1e-6:
                    rel = diff / scale
                    worst_rel = max(worst_rel, rel)
                    assert rel < 1e-4
                else:
                    # a vanishing true gradient: differences read pure
                    # roundoff noise, so compare absolutely instead
                    assert diff < 1e-8
                checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 05: {checked} gradient checks, worst rel "
          f"{worst_rel:.2e}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_06_symmetric_models_defeat_rescaling():
    """Flip-symmetric models: flat rescaling, strict transform gains."""
    improved = 0
    worst_grad = worst_flat = 0.0
    for seed in range(10):
        n = 6 if seed % 2 == 0 else 8
        g = gen_symmetric_forney(n, t=1.0, seed=seed)
        tree = build_minibucket_tree(g, default_order(g), 2)
        ev = TreeEvaluator(tree, g.factors)
        grad = max(float(np.abs(reparam_gradient(ev, v)).max())
                   for v in range(g.num_vars))
        worst_grad = max(worst_grad, grad)
        assert grad < 1e-9
        res_t, _ = optimize_bound(g, tree, OptimizerConfig.for_method(
            "wmbe-theta", iterations=50))
        flat = max(abs(a - b) for a, b
                   in zip(res_t.trace, res_t.trace[1:]))
        worst_flat = max(worst_flat, flat)
        assert flat < 1e-10
        res_g, _ = optimize_bound(g, tree, OptimizerConfig.for_method(
            "wmbe-g", iterations=50))
        improved += (res_g.trace[0] - res_g.log_bound) > 1e-4
        _COLLECTED_TRACES.append(("sym-theta", "upper", res_t.trace))
        _COLLECTED_TRACES.append(("sym-g", "upper", res_g.trace))
    print(f"criterion 06: max grad {worst_grad:.2e}, max step "
          f"{worst_flat:.2e}, transform improves {improved}/10")
    assert improved >= 8


@pytest.mark.slow
def test_criterion_07_method_ordering_on_grids():
    """Optimized-bound quality ordering on ten 10x10 spin models."""
    t0 = time.perf_counter()
    errors = {m: [] for m in ("wmbe", "wmbe-theta", "wmbe-g",
                              "wmbe-wtheta", "wmbe-wg")}
    for seed in range(10):
        g = gen_ising_grid(10, 10, t=1.0, seed=seed)
        fg = ising_to_forney(g)
        ref = run_be(fg, default_order(fg)).logabs
        order = default_order(fg)
        tree = build_minibucket_tree(fg, order, 4)
        errors["wmbe"].append(run_wmbe(fg, tree).log_bound - ref)
        for method in ("wmbe-theta", "wmbe-g", "wmbe-wtheta", "wmbe-wg"):
            cfg = OptimizerConfig.for_method(method, iterations=150)
            res, _ = optimize_bound(fg, tree, cfg)
            errors[method].append(res.log_bound - ref)
            _COLLECTED_TRACES.append((f"grid-{method}-s{seed}", "upper",
                                      res.trace))
    mean = {m: sum(v) / len(v) for m, v in errors.items()}
    print("criterion 07 mean log-errors: "
          + ", ".join(f"{m} {mean[m]:.4f}" for m in errors))
    # subset ordering per seed: transforms subsume diagonal rescaling
    for eg, et in zip(errors["wmbe-g"], errors["wmbe-theta"]):
        assert eg <= et + 1e-9
    assert mean["wmbe-wg"] <= mean["wmbe-wtheta"] + 1e-12
    assert mean["wmbe-wtheta"] <= mean["wmbe"] + 1e-12
    # all are genuine upper bounds
    for m, errs in errors.items():
        assert all(e >= -1e-9 for e in errs)
    elapsed = time.perf_counter() - t0
    print(f"criterion 07: {elapsed / 60.0:.1f} min")
    assert elapsed < 1800.0


def test_criterion_08_all_collected_traces_monotone():
    """Every optimizer trace from criteria 6 and 7 is monotone."""
    traces = list(_COLLECTED_TRACES)
    if len(traces) < 60:
        # deselected some feeder criteria: regenerate a compact sample
        # so this check stays meaningful when run standalone
        for seed in range(3):
            g = gen_forney_3regular(8, t=1.0, seed=seed)
            order = default_order(g)
            for direction in ("upper", "lower"):
                tree = build_minibucket_tree(g, order, 2, direction)
                for method in ("wmbe-theta", "wmbe-g"):
                    res, _ = optimize_bound(
                        g, tree,
                        OptimizerConfig.for_method(method, iterations=30))
                    traces.append((f"standalone-{method}-{direction}",
                                   direction, res.trace))
    for label, direction, trace in traces:
        assert _monotone(trace, direction), label
    print(f"criterion 08: {len(traces)} traces monotone")


def test_criterion_09_structural_counts():
    """Generator shapes and the grid conversion's elimination width."""
    g = gen_ising_grid(10, 10, t=1.0, seed=0)
    pairwise = sum(1 for f in g.factors if f.arity == 2)
    assert g.num_vars == 100
    assert pairwise == 180
    g3 = gen_forney_3regular(180, t=1.0, seed=0)
    assert g3.num_vars == 270
    fg = ising_to_forney(g)
    width = induced_width(fg, default_order(fg))
    print(f"criterion 09: grid 100 vars/180 pairwise, 3-regular 270 "
          f"vars, converted grid width {width}")
    # the shipped greedy order does better than the quoted width 14;
    # the exact value is frozen to catch ordering regressions
    assert width <= 14
    assert width == 11


def test_criterion_10_model_file_roundtrip():
    """parse/emit fixed point at 1e-12 on 20 generated models."""
    models = []
    k = 0
    for r, c in ((2, 2), (3, 3), (4, 4), (2, 5)):
        for t in (0.5, 1.0):
            models.append(gen_ising_grid(r, c, t=t, seed=k))
            k += 1
    for n in (4, 6, 8, 10):
        models.append(gen_forney_3regular(n, t=1.0, seed=n))
        models.append(gen_symmetric_forney(n, t=0.5, seed=n))
    for i in range(4):
        models.append(random_forney_from_pairwise(6, 8, i))
    assert len(models) == 20
    worst = 0.0
    for g in models:
        once = parse_uai(emit_uai(g))
        assert once.cards == g.cards
        assert tuple(f.scope for f in once.factors) == tuple(
            f.scope for f in g.factors)
        twice = parse_uai(emit_uai(once))
        for fa, fb, fc in zip(g.factors, once.factors, twice.factors):
            la, lb, lc = fa.linear(), fb.linear(), fc.linear()
            scale = max(float(np.abs(la).max()), 1e-30)
            err = max(float(np.abs(lb - la).max()),
                      float(np.abs(lc - lb).max())) / scale
            worst = max(worst, err)
            assert err < 1e-12
    extra = os.environ.get("GMBE_LINKAGE_UAI")
    if extra and os.path.exists(extra):
        g = parse_uai(open(extra).read())
        once = parse_uai(emit_uai(g))
        assert once.cards == g.cards
        print(f"criterion 10: includes user file {extra}")
    print(f"criterion 10: 20 models, worst table error {worst:.2e}")
