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
Then it runs a fixed list of ``gmbe`` command lines in-process through
``gmbe.cli.main``, in a temporary directory with relative paths and
``GMBE_THREADS=1``: every method in both directions, ``verify``,
``sweep``, usage errors and each ``--help``.  Each records its exit
code, stdout, stderr and the files it wrote, with the ``wall_time`` and
sidecar ``git`` values masked.
It prints the SHA-1 of the orders, the trees, the ``float.hex``
values of all results and the command outputs.  Warnings are raised as
errors; a run that raises records the exception's class name instead
of a trace.  Run it at two commits to check that a refactor leaves
every order, tree, bound, gauged table, exact value and CLI byte
bitwise equal:

    PYTHONPATH=src python3 scripts/trace_fingerprint.py

To see which results moved and by how much, write ``--dump`` at each
commit and compare the two files; this computes nothing:

    PYTHONPATH=src python3 scripts/trace_fingerprint.py --diff OLD NEW

It prints each changed result's name with the largest |Δ| of its
floats, or ``text`` for an order, a tree, an exception name, a command
or a list whose length changed, then ``N of M results differ, max |Δ| X``.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

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
from gmbe.cli import main as gmbe_main
from gmbe.optimize import OptimizerConfig, optimize_bound

METHODS = ("wmbe-w", "wmbe-theta", "wmbe-wtheta", "wmbe-g", "wmbe-wg")
ITERATIONS = 5
GAUGE_SCALE = 0.5
ORDER_ONLY_GRIDS = (12, 16)

_FORNEY_SWEEP = ("--model forney-3reg --factors 6 --t-range 0.5:0.5:0.5 "
                 "--trials 1")
# gmbe command lines, run in order: the gen lines write the models the
# later lines read
CLI_COMMANDS = (
    "gen --model ising-grid --rows 3 --cols 3 --seed 0 -o g.uai",
    "gen --model forney-3reg --factors 6 --seed 1 -o f.uai",
    "gen --model forney-3reg-sym --factors 6 --t 0.5 -o s.uai",
    *(f"bound {m} --method {method} --ibound {b} --iters 3 --trace{lower}"
      for m, b in (("f.uai", 2), ("g.uai", 3))
      for method in ("be", "mbe", "wmbe", *METHODS)
      for lower in ("", " --lower")),
    "bound s.uai --method wmbe-g --ibound 2 --iters 3",
    "bound f.uai --method wmbe --ibound 0",
    "verify g.uai --ibound 3 --iters 3 --methods be,mbe,wmbe,wmbe-w,"
    "wmbe-theta,wmbe-wtheta,wmbe-g,wmbe-wg,wmbe-lower,wmbe-theta-lower,"
    "wmbe-g-lower",
    "verify s.uai --ibound 2 --iters 3",
    "sweep --model ising-grid --rows 3 --cols 3 --t-range 0.5:1:0.5 "
    "--trials 2 --ibound 3 --iters 2 --methods mbe,wmbe,wmbe-w,"
    "wmbe-theta,wmbe-wtheta,wmbe-g,wmbe-wg -o grid.csv",
    f"sweep {_FORNEY_SWEEP} --ibound 2 --iters 2 --methods wmbe,wmbe-g "
    "-o f3.csv",
    # usage and runtime errors
    "bound f.uai --iters -3",
    "bound f.uai --ibound -1",
    "verify f.uai --iters -3",
    "verify f.uai --ibound -1",
    f"sweep {_FORNEY_SWEEP} --iters -3 --methods wmbe -o neg.csv",
    f"sweep {_FORNEY_SWEEP} --ibound -1 --methods wmbe -o neg.csv",
    "bound absent.uai --method be --lower",
    "bound absent.uai",
    "verify f.uai --methods be,hybrid",
    "verify f.uai --methods wmbe-w-lower",
    "verify f.uai --methods wmbe,be-lower",
    f"sweep {_FORNEY_SWEEP} --methods wmbe-lower -o bad.csv",
    f"sweep {_FORNEY_SWEEP} --methods mbe,magic -o bad.csv",
    "sweep --model ising-grid --t-range oops -o bad.csv",
    "sweep --model ising-grid --t-range 1:0.5:0.5 -o bad.csv",
    "sweep --model ising-grid --t-range 0.5:1:0.5 --trials 0 -o bad.csv",
    "gen --model forney-3reg --factors 5 -o bad.uai",
    "gen --model ising-grid --t nan -o bad.uai",
    "gen --model tree -o bad.uai",
    "bound",
    "",
    "--version",
    "--help",
    "gen --help",
    "bound --help",
    "verify --help",
    "sweep --help",
)
# the values that change from run to run
_VOLATILE = re.compile(r'"(wall_time|git)": [^,\n]*')


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
                cfg = OptimizerConfig(method, ITERATIONS)
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
    yield from cli_results()


def _run_cli(argv):
    """(exit code, stdout, stderr) of one in-process gmbe run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gmbe_main(argv)
        except SystemExit as exc:  # argparse: --help, --version, errors
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def cli_results():
    """(``gmbe <command>``, its outputs as one line) per CLI_COMMANDS."""
    cwd = os.getcwd()
    env = {"GMBE_THREADS": "1", "COLUMNS": "80"}  # fixed help width
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, env):
        os.chdir(tmp)
        try:
            files = {}
            for command in CLI_COMMANDS:
                try:
                    code, out, err = _run_cli(command.split())
                except Exception as exc:  # recorded, not raised
                    code, out, err = type(exc).__name__, "", ""
                before = files
                files = {p.name: _VOLATILE.sub(r'"\1": -', p.read_text())
                         for p in sorted(Path().iterdir())}
                written = {k: v for k, v in files.items()
                           if before.get(k) != v}
                out = _VOLATILE.sub(r'"\1": -', out)
                yield (f"gmbe {command}".rstrip(),
                       repr((code, out, err, written)))
        finally:
            os.chdir(cwd)


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
