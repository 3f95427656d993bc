#!/usr/bin/env python3
"""Fingerprint every bound and optimizer trace over a fixed model set.

Runs the one-pass bounds (mbe, wmbe) and every optimizer method for 5
iterations in both directions over 3-regular, flip-symmetric, 6x6 grid
and ``to_forney`` models, and prints the SHA-1 of the ``float.hex``
values of all results.  Warnings are raised as errors; a run that
raises records the exception's class name instead of a trace.  Run it
at two commits to check that a refactor leaves every bound bitwise
equal:

    PYTHONPATH=src python3 scripts/trace_fingerprint.py
"""

import argparse
import hashlib
import warnings

from gmbe import (
    build_minibucket_tree,
    default_order,
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
    run_mbe,
    run_wmbe,
    to_forney,
)
from gmbe.optimize import OptimizerConfig, optimize_bound

METHODS = ("wmbe-w", "wmbe-theta", "wmbe-wtheta", "wmbe-g", "wmbe-wg")
ITERATIONS = 5


def models():
    """(label, degree-2 graph, ibound) for every model of the set."""
    for seed in range(2):
        for n in (6, 8, 12):
            yield f"3reg-{n}-{seed}", gen_forney_3regular(n, 1.0, seed), 2
            yield f"sym-{n}-{seed}", gen_symmetric_forney(n, 1.0, seed), 2
        yield (f"grid-{seed}",
               ising_to_forney(gen_ising_grid(6, 6, 1.0, seed=seed)), 4)
        # equality factors of arity up to 5, whose tables hold zeros
        fg, _ = to_forney(gen_ising_grid(4, 4, 1.0, seed=seed))
        yield f"forney-{seed}", fg, 4
        yield f"forney-wide-{seed}", fg, 6


def results():
    """(label, list of floats or an exception name) for every run."""
    for label, g, ibound in models():
        order = default_order(g)
        for direction in ("upper", "lower"):
            tree = build_minibucket_tree(g, order, ibound, direction)
            runs = [("wmbe", lambda: run_wmbe(g, tree))]
            if direction == "upper":
                runs.append(("mbe", lambda: run_mbe(g, tree)))
            for method in METHODS:
                cfg = OptimizerConfig.for_method(method, iterations=ITERATIONS)
                runs.append((method,
                             lambda cfg=cfg: optimize_bound(g, tree, cfg)[0]))
            for method, run in runs:
                try:
                    out = list(run().trace)
                except Exception as exc:  # recorded, not raised
                    out = type(exc).__name__
                yield f"{label} {direction} {method}", out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", action="store_true",
                    help="also print every result line that is hashed")
    args = ap.parse_args(argv)
    digest = hashlib.sha1()
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, out in results():
            if isinstance(out, list):
                out = " ".join(float(x).hex() for x in out)
            line = f"{name}: {out}\n"
            if args.dump:
                print(line, end="")
            digest.update(line.encode())
            count += 1
    print(f"{count} results sha1 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
