"""Gap to exact log Z against iterations and wall time, grid-opt model.

    python3 bench/gap_curve.py --seed 11

Bounds the first grid of the ``grid-opt`` workload for ``--seed`` with
each of its methods for 150 iterations, and prints the gap at a few
checkpoints with the wall time per iteration.  The optimizer's trace
holds the bound after every iteration, so one long run gives the whole
curve.
"""

from __future__ import annotations

import argparse
import time

from run import E, F, G, O, WORKLOADS, make_models

ITERATIONS = 150
CHECKPOINTS = (0, 1, 3, 10, 25, 50, 100, 150)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    model = make_models("grid-opt", args.seed)[0]
    fg = G.ising_to_forney(F.parse_uai(model.text))
    order = E.default_order(fg)
    print("method     s/iter  " + "  ".join(f"{c:>6d}" for c in CHECKPOINTS))
    for method, ibound, direction in WORKLOADS["grid-opt"].ops:
        tree = E.build_minibucket_tree(fg, order, ibound, direction)
        cfg = O.OptimizerConfig.for_method(method, iterations=ITERATIONS)
        t0 = time.perf_counter()
        res, _ = O.optimize_bound(fg, tree, cfg)
        per_iter = (time.perf_counter() - t0) / ITERATIONS
        gaps = [res.trace[c] - model.log_z for c in CHECKPOINTS]
        print(f"{method:10s} {per_iter:6.3f}  "
              + "  ".join(f"{x:6.3f}" for x in gaps))


if __name__ == "__main__":
    main()
