#!/usr/bin/env python3
"""Time the library's layers one by one on square spin grids.

For each grid size it builds ``ising_to_forney(gen_ising_grid(n, n,
t=1.0, seed=0))`` and times, as the median of ``--repeats`` runs (at
least 3):

- ``default_order`` and ``build_minibucket_tree`` at ``--ibound``;
- ``run_be`` (a grid too wide for its table guard records the error);
- one ``TreeEvaluator._recompute`` and one single-bucket ``beliefs``
  call, each the mean over every mini-bucket of the tree;
- one ``gauge_transform_factor`` call, the mean over every factor with
  a random matrix on each of its variables;
- one ``gauge_gradient`` call, the mean over every variable;
- one sweep of each step family: ``gauge_step`` over ``tree.order``,
  ``weight_step`` and ``reparam_step``, each on a fresh
  ``TreeEvaluator`` built outside the timed region.

It prints one line per layer and records the core count and the Python,
numpy and scipy versions.  Quote it before and after a change to one
layer, run at each commit:

    PYTHONPATH=src python3 scripts/layer_times.py --out BENCH_<label>.json
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

from gmbe import (
    TreeEvaluator,
    build_minibucket_tree,
    default_order,
    gauge_gradient,
    gauge_step,
    gauge_transform_factor,
    gen_ising_grid,
    ising_to_forney,
    reparam_step,
    run_be,
    weight_step,
)
from gmbe.errors import GmbeError


def _median_time(fn, repeats, calls=1, setup=None):
    """Median over ``repeats`` runs of ``fn``'s time per call, in seconds.

    If ``setup`` is given, it runs untimed before each run and ``fn``
    gets its result.  Returns the error's class name instead if either
    raises a library error.
    """
    runs = []
    for _ in range(repeats):
        try:
            args = () if setup is None else (setup(),)
            t0 = time.perf_counter()
            fn(*args)
        except GmbeError as exc:
            return type(exc).__name__
        runs.append((time.perf_counter() - t0) / calls)
    return statistics.median(runs)


def time_layers(n, ibound, repeats):
    """{layer: median seconds per call, or an error name} for one grid."""
    g = ising_to_forney(gen_ising_grid(n, n, t=1.0, seed=0))
    order = default_order(g)
    tree = build_minibucket_tree(g, order, ibound)
    ev = TreeEvaluator(tree, g.factors)
    nb = len(tree.buckets)
    rng = np.random.default_rng(0)
    gauged = [(f, {v: np.eye(c) + 0.1 * rng.standard_normal((c, c))
                   for v, c in zip(f.scope, f.cards)}) for f in g.factors]

    def recompute_all():
        for k in range(nb):
            ev._recompute(k)

    def beliefs_each():
        for k in range(nb):
            ev.beliefs((k,))

    def transform_all():
        for f, mats in gauged:
            gauge_transform_factor(f, mats)

    def gradient_each():
        for v in range(g.num_vars):
            gauge_gradient(ev, v)

    def gauge_sweep(fresh):
        for v in tree.order:
            gauge_step(fresh, v)

    def fresh_evaluator():
        return TreeEvaluator(tree, g.factors)

    layers = {
        "default_order": _median_time(lambda: default_order(g), repeats),
        "build_minibucket_tree": _median_time(
            lambda: build_minibucket_tree(g, order, ibound), repeats),
        "run_be": _median_time(lambda: run_be(g, order), repeats),
        "TreeEvaluator._recompute": _median_time(recompute_all, repeats,
                                                 nb),
        "TreeEvaluator.beliefs": _median_time(beliefs_each, repeats, nb),
        "gauge_transform_factor": _median_time(transform_all, repeats,
                                               len(gauged)),
        "gauge_gradient": _median_time(gradient_each, repeats, g.num_vars),
        "gauge_step sweep": _median_time(gauge_sweep, repeats,
                                         setup=fresh_evaluator),
        "weight_step sweep": _median_time(weight_step, repeats,
                                          setup=fresh_evaluator),
        "reparam_step sweep": _median_time(reparam_step, repeats,
                                           setup=fresh_evaluator),
    }
    return {"grid": f"{n}x{n}", "variables": g.num_vars,
            "factors": len(g.factors), "ibound": ibound,
            "mini_buckets": nb, "median_s_per_call": layers}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 24],
                    help="grid side lengths (default: 10 24)")
    ap.add_argument("--ibound", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed runs per layer, at least 3 (default: 5)")
    ap.add_argument("--out", default=None,
                    help="also write the results as JSON to this path")
    args = ap.parse_args(argv)
    if args.repeats < 3:
        ap.error("--repeats must be at least 3")
    report = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": args.repeats,
        "grids": [time_layers(n, args.ibound, args.repeats)
                  for n in args.sizes],
    }
    print(f"{report['cores']} cores, Python {report['python']}, numpy "
          f"{report['numpy']}, scipy {report['scipy']}, median of "
          f"{args.repeats} runs")
    for grid in report["grids"]:
        for layer, t in grid["median_s_per_call"].items():
            shown = f"{t * 1e3:12.4f} ms" if isinstance(t, float) else t
            print(f"{grid['grid']:>6s}  {layer:26s} {shown}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
