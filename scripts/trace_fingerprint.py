#!/usr/bin/env python3
"""Fingerprint every bound and optimizer trace over a fixed model set.

Runs the one-pass bounds (mbe, wmbe) and every optimizer method for 5
iterations in both directions over 3-regular, flip-symmetric, 6x6 grid
and ``to_forney`` models.  For each model it also takes its
``default_order``, the tables of the model under ``random_valid_gauges``
at scale 0.5 and the exact ``run_be`` value of the plain and of the
gauged model, and per direction the structure of its mini-bucket tree:
every bucket's ``(var, copy, scope, factor_ids, children, parent)``,
then ``factor_bucket`` and ``initial_weights``.
It adds the orders of 12x12 and 16x16 grids, on which no bound is run.
It prints the SHA-1 of the orders, the trees and the ``float.hex``
values of all results.  Warnings are raised as errors; a run that
raises records the exception's class name instead of a trace.  Run it
at two commits to check that a refactor leaves every order, tree,
bound, gauged table and exact value bitwise equal:

    PYTHONPATH=src python3 scripts/trace_fingerprint.py

To see which results moved and by how much, write ``--dump`` at each
commit and compare the two files; this computes nothing:

    PYTHONPATH=src python3 scripts/trace_fingerprint.py --diff OLD NEW

It prints each changed result's name with the largest |Δ| of its
floats, or ``text`` for an order, a tree, an exception name or a list
whose length changed, then ``N of M results differ, max |Δ| X``.
"""

import argparse
import hashlib
import re
import warnings

from gmbe import (
    apply_gauges,
    build_minibucket_tree,
    default_order,
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
    random_valid_gauges,
    run_be,
    run_mbe,
    run_wmbe,
    to_forney,
)
from gmbe.optimize import OptimizerConfig, optimize_bound

METHODS = ("wmbe-w", "wmbe-theta", "wmbe-wtheta", "wmbe-g", "wmbe-wg")
ITERATIONS = 5
GAUGE_SCALE = 0.5
ORDER_ONLY_GRIDS = (12, 16)


def models():
    """(label, degree-2 graph, ibound) for every model of the set."""
    for seed in range(2):
        for n in (6, 8, 12):
            yield f"3reg-{n}-{seed}", gen_forney_3regular(n, 1.0, seed), 2
            yield f"sym-{n}-{seed}", gen_symmetric_forney(n, 1.0, seed), 2
        yield (f"grid-{seed}",
               ising_to_forney(gen_ising_grid(6, 6, 1.0, seed=seed)), 4)
        # equality factors of arity up to 5, whose tables hold zeros
        fg = to_forney(gen_ising_grid(4, 4, 1.0, seed=seed))
        yield f"forney-{seed}", fg, 4
        yield f"forney-wide-{seed}", fg, 6


def _tables(g):
    """Every factor's signs, then its log-magnitudes, as one list."""
    return [x for f in g.factors
            for x in (*f.sign.ravel(), *f.logmag.ravel())]


def _tree(tree):
    """The tree's structure and starting weights, as one line."""
    buckets = [(b.var, b.copy, b.scope, b.factor_ids, b.children, b.parent)
               for b in tree.buckets]
    weights = [float(w).hex() for w in tree.initial_weights]
    return repr((buckets, tree.factor_bucket, weights))


def results():
    """(label, list of floats or a line of text) per result.

    The text is an order, a tree or an exception name.
    """
    for seed, (label, g, ibound) in enumerate(models()):
        order = default_order(g)
        yield f"{label} order", " ".join(map(str, order))
        gauged = apply_gauges(g, random_valid_gauges(g, GAUGE_SCALE, seed))
        yield f"{label} gauged tables", _tables(gauged)
        for name, model in (("plain", g), ("gauged", gauged)):
            try:
                out = list(run_be(model, order))
            except Exception as exc:  # recorded, not raised
                out = type(exc).__name__
            yield f"{label} {name} run_be", out
        for direction in ("upper", "lower"):
            tree = build_minibucket_tree(g, order, ibound, direction)
            yield f"{label} {direction} tree", _tree(tree)
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
    for n in ORDER_ONLY_GRIDS:
        g = ising_to_forney(gen_ising_grid(n, n, 1.0, seed=0))
        yield f"grid-{n}x{n} order", " ".join(map(str, default_order(g)))


# one token of a result written as float.hex values
_HEX_FLOAT = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf|nan)")


def _read_dump(path):
    """{name: list of floats, or the payload text} of a --dump file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            name, sep, payload = line.rstrip("\n").partition(": ")
            if not sep:
                continue  # the closing sha1 line
            tokens = payload.split()
            if all(_HEX_FLOAT.fullmatch(t) for t in tokens):
                out[name] = [float.fromhex(t) for t in tokens]
            else:
                out[name] = payload
    return out


def _delta(a, b):
    """|a - b|, 0 for equal values (nan to nan included)."""
    if a == b or (a != a and b != b):
        return 0.0
    d = abs(a - b)
    return d if d == d else float("inf")


def diff(old_path, new_path):
    """Print the results that differ between two --dump files."""
    old, new = _read_dump(old_path), _read_dump(new_path)
    names = list(dict.fromkeys([*old, *new]))
    changed, worst = 0, 0.0
    for name in names:
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        changed += 1
        if (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)):
            d = max(_delta(x, y) for x, y in zip(a, b))
            worst = max(worst, d)
            print(f"{name}: max |Δ| {d:.2g}")
        else:
            print(f"{name}: text")
    print(f"{changed} of {len(names)} results differ, "
          f"max |Δ| {worst:.2g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", action="store_true",
                    help="also print every result line that is hashed")
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two --dump files instead of running")
    args = ap.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return
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
