"""Tests of the benchmark's own parts: references, checks, tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math

import pytest

import run  # puts the checkout's src/ on sys.path
from checks import OpResult, check_bounds, check_symmetric, check_working_models
from exact import contract_log_z, grid_log_z
from tracer import LAYERS, Tracer, summarize

from gmbe import (
    apply_gauges, build_minibucket_tree, default_order, elimination,
    gen_forney_3regular, gen_ising_grid, gen_symmetric_forney,
    random_valid_gauges,
)
from gmbe.optimize import OptimizerConfig, optimize_bound
from gmbe.oracle import brute_z


@pytest.mark.parametrize("rows,cols,seed", [(3, 4, 0), (4, 3, 1), (2, 5, 2),
                                            (4, 4, 3)])
def test_transfer_matrix_matches_enumeration(rows, cols, seed):
    g = gen_ising_grid(rows, cols, t=1.5, seed=seed)
    assert grid_log_z(g, rows, cols) == pytest.approx(brute_z(g).logabs,
                                                      rel=1e-12)


@pytest.mark.parametrize("gen", [gen_forney_3regular, gen_symmetric_forney])
@pytest.mark.parametrize("num_factors", [4, 6, 8])
def test_contraction_matches_enumeration(gen, num_factors):
    g = gen(num_factors, t=1.0, seed=num_factors)
    sign, log_z = contract_log_z(g.cards, g.factors)
    assert sign == 1.0
    assert log_z == pytest.approx(brute_z(g).logabs, rel=1e-12)


def test_contraction_handles_signed_tables():
    g = gen_forney_3regular(8, t=1.0, seed=1)
    gauged = apply_gauges(g, random_valid_gauges(g, 0.8, seed=2))
    assert any((f.sign < 0).any() for f in gauged.factors)
    sign, log_z = contract_log_z(gauged.cards, gauged.factors)
    ref = brute_z(gauged)
    assert sign == ref.sign
    assert log_z == pytest.approx(ref.logabs, rel=1e-10)


def test_checks_flag_invalid_gauged_lower_bound():
    # wmbe-g in the lower direction drives a table negative, after which
    # the reverse-Hoelder bound no longer bounds Z from below.
    g = gen_forney_3regular(8, t=1.0, seed=0)
    log_z = contract_log_z(g.cards, g.factors)[1]
    assert log_z == pytest.approx(10.8476, abs=1e-4)
    tree = build_minibucket_tree(g, default_order(g), 2, direction="lower")
    res, state = optimize_bound(
        g, tree, OptimizerConfig.for_method("wmbe-g", iterations=50))
    assert res.log_bound == pytest.approx(12.3505, abs=1e-4)
    result = OpResult(0, "wmbe-g", 2, "lower", res.log_bound, res.trace,
                      (g.cards, tuple(state.factors)))
    bad = check_bounds([result], [log_z])
    assert len(bad) == 1 and "wrong side" in bad[0]
    # Z itself is kept; only the bound's guarantee is lost.
    assert check_working_models([result], [log_z]) == []


def test_checks_flag_each_property():
    exact = [5.0]
    ok = [
        OpResult(0, "be", None, "exact", 5.0, (5.0,)),
        OpResult(0, "wmbe-theta", 2, "upper", 5.5, (6.0, 5.7, 5.5)),
        OpResult(0, "wmbe-theta", 2, "lower", 4.5, (4.0, 4.5)),
    ]
    assert check_bounds(ok, exact) == []
    bad = [
        OpResult(0, "be", None, "exact", 5.1, (5.1,)),
        OpResult(0, "wmbe", 2, "upper", 4.9, (4.9,)),
        OpResult(0, "wmbe-g", 2, "upper", 5.5, (6.0, 5.4, 5.5)),
        OpResult(0, "wmbe-g", 2, "lower", 4.5, (4.6, 4.5)),
        OpResult(0, "wmbe-g", 2, "upper", 5.5, (6.0, 5.6)),
    ]
    assert len(check_bounds(bad, exact)) == len(bad)


def test_symmetric_check():
    def res(method, value):
        return OpResult(0, method, 2, "upper", value, (value,))

    good = [res("wmbe", 3.0), res("wmbe-theta", 3.0), res("wmbe-g", 2.9)]
    assert check_symmetric(good, {0}) == []
    moved = [res("wmbe", 3.0), res("wmbe-theta", 2.95), res("wmbe-g", 3.0)]
    assert len(check_symmetric(moved, {0})) == 2
    assert check_symmetric(moved, set()) == []


def test_working_model_check_flags_changed_z():
    g = gen_forney_3regular(6, t=1.0, seed=0)
    log_z = contract_log_z(g.cards, g.factors)[1]
    scaled = list(g.factors)
    scaled[0] = scaled[0].scale_axis_log(scaled[0].scope[0], [0.1, 0.1])
    r = OpResult(0, "wmbe-theta", 2, "upper", 0.0, (0.0,),
                 (g.cards, tuple(scaled)))
    assert len(check_working_models([r], [log_z])) == 1


def test_tracer_self_time_and_restore():
    spans = [
        ["optimize.gauge_step", 0.0, 10.0, None, "op", True],
        ["elimination.set_factors", 1.0, 4.0, 0, "op", None],
        ["elimination.restore", 4.0, 5.0, 0, "op", 1],
        ["elimination.set_factors", 5.0, 9.0, 0, "op", None],
        ["elimination.beliefs", 6.0, 8.0, 3, "op", None],
    ]
    self_s, calls, ratios = summarize(spans)
    assert self_s["optimize.gauge_step"] == pytest.approx(2.0)
    assert self_s["elimination.set_factors"] == pytest.approx(5.0)
    assert calls["elimination.set_factors"] == 2
    assert ratios["optimize.gauge_step.accept_ratio"] == 1.0
    assert ratios["optimize.gauge_step.candidates_per_call"] == 2.0

    originals = (elimination.run_wmbe, elimination.TreeEvaluator.restore)
    tracer = Tracer()
    tracer.install()
    try:
        assert elimination.run_wmbe is not originals[0]
    finally:
        tracer.uninstall()
    assert (elimination.run_wmbe, elimination.TreeEvaluator.restore) \
        == originals


def test_tracer_counts_a_known_run():
    g = gen_forney_3regular(6, t=1.0, seed=0)
    tree = build_minibucket_tree(g, default_order(g), 2)
    cfg = OptimizerConfig.for_method("wmbe-g", iterations=2)
    untraced, _ = optimize_bound(g, tree, cfg)
    tracer = Tracer()
    tracer.install()
    try:
        # called through the module, as the library's own callers do
        traced, _ = run.O.optimize_bound(g, tree, cfg)
    finally:
        tracer.uninstall()
    assert traced.trace == untraced.trace
    _, calls, _ = summarize(tracer.spans)
    assert set(calls) == set(LAYERS)
    assert calls["optimize.optimize_bound"] == 1
    assert calls["elimination.TreeEvaluator"] == 1
    assert calls["optimize.gauge_step"] == 2 * g.num_vars
    assert calls["optimize.gauge_gradient"] == 2 * g.num_vars


def test_models_depend_only_on_seed():
    a = run.make_models("grid-opt", 7)
    b = run.make_models("grid-opt", 7)
    c = run.make_models("grid-opt", 8)
    assert [m.text for m in a] == [m.text for m in b]
    assert [m.text for m in a] != [m.text for m in c]
    assert all(math.isfinite(m.log_z) for m in a)


def test_gap_left_is_share_of_starting_gap():
    one_pass = OpResult(0, "wmbe", 4, "upper", 12.0, (12.0,))
    upper = OpResult(0, "wmbe-g", 4, "upper", 11.0, (12.0, 11.5, 11.0))
    lower = OpResult(0, "wmbe-theta", 2, "lower", 9.5, (9.0, 9.5))
    assert run._gap_left([one_pass], [10.0]) == 1.0
    assert run._gap_left([one_pass, upper, lower],
                         [10.0]) == pytest.approx((0.5 + 0.5) / 2)
