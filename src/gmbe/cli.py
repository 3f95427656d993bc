"""Command-line driver: generate models, bound them, verify, sweep.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 verification
failure.  The ``GMBE_THREADS`` environment variable caps sweep workers;
sweep output bytes are identical for any worker count because rows are
ordered by task index and wall times are omitted unless requested.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .elimination import (
    BoundResult,
    build_minibucket_tree,
    default_order,
    run_be,
    run_mbe,
    run_wmbe,
)
from .errors import GmbeError, NotAGrid
from .fileio import ResultRow, emit_csv, emit_uai, read_uai_file
from .generators import (
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
)
from .graphs import to_forney
from .optimize import METHODS, OptimizerConfig, optimize_bound
from .oracle import brute_z

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

_METHODS = ("be", "mbe", *METHODS)
# be is exact; mbe and weight steps exist only for upper trees
_NO_LOWER = ("be", "mbe", *(m for m, moves in METHODS.items()
                            if "weights" in moves))
_FAMILIES = ("ising-grid", "forney-3reg", "forney-3reg-sym")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _git_hash():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).parent, timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def _generate(family, args, t, seed):
    if family == "ising-grid":
        return gen_ising_grid(args.rows, args.cols, t=t,
                              field_sigma=args.field_sigma, seed=seed)
    if family == "forney-3reg":
        return gen_forney_3regular(args.factors, t=t, seed=seed)
    if family == "forney-3reg-sym":
        return gen_symmetric_forney(args.factors, t=t, seed=seed)
    raise ValueError(f"unknown model family {family!r}")


def _forney_view(g):
    """Degree-2 form of a model: grid plaquettes if it is a spin grid.

    ``ising_to_forney`` keeps a grid's tables small enough for low
    ibounds and its bounds tighter than equality factors allow; any
    other model goes through ``to_forney``.
    """
    try:
        return ising_to_forney(g)
    except NotAGrid:
        return to_forney(g)[0]


def _lower_unsupported(method, lower):
    """Report a lower bound asked of a method without one; True if so."""
    if lower and method in _NO_LOWER:
        kind = "exact values" if method == "be" else "upper bounds"
        print(f"error: method {method} supports only {kind}",
              file=sys.stderr)
        return True
    return False


def _compute_bound(g, fg, method, ibound, iters, lower=False, order=None):
    """``method``'s bound; ``order`` is ``fg``'s, computed if not given."""
    if method == "be":
        t0 = time.perf_counter()
        z = run_be(g, default_order(g))
        return BoundResult("be", "exact", z.logabs, (z.logabs,),
                           time.perf_counter() - t0)
    direction = "lower" if lower else "upper"
    if order is None:
        order = default_order(fg)
    tree = build_minibucket_tree(fg, order, ibound, direction=direction)
    if method == "mbe":
        return run_mbe(fg, tree)
    if method == "wmbe":
        return run_wmbe(fg, tree)
    cfg = OptimizerConfig.for_method(method, iterations=iters)
    result, _ = optimize_bound(fg, tree, cfg)
    return result


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args):
    g = _generate(args.model, args, args.t, args.seed)
    text = emit_uai(g)
    out = Path(args.output)
    out.write_text(text)
    sidecar = {
        "model": args.model,
        "t": args.t,
        "seed": args.seed,
        "version": __version__,
        "git": _git_hash(),
    }
    if args.model == "ising-grid":
        sidecar["rows"] = args.rows
        sidecar["cols"] = args.cols
        sidecar["field_sigma"] = args.field_sigma
    else:
        sidecar["factors"] = args.factors
    Path(str(out) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {out} ({len(g.cards)} variables, "
          f"{len(g.factors)} factor tables)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound


def _json_float(x):
    """x for strict JSON: a non-finite bound is written as null."""
    return x if math.isfinite(x) else None


def cmd_bound(args):
    g = read_uai_file(args.model_file)
    if _lower_unsupported(args.method, args.lower):
        return EXIT_USAGE
    fg = None if args.method == "be" else _forney_view(g)
    res = _compute_bound(g, fg, args.method, args.ibound, args.iters,
                         lower=args.lower)
    payload = {
        "model": str(args.model_file),
        "method": res.method,
        "direction": res.direction,
        "ibound": None if args.method == "be" else args.ibound,
        "log_bound": _json_float(res.log_bound),
        "iterations": res.iterations,
        "wall_time": res.wall_time,
    }
    if args.trace:
        payload["trace"] = [_json_float(b) for b in res.trace]
    print(json.dumps(payload, indent=2, allow_nan=False))
    if args.trace_csv:
        import csv as _csv

        with open(args.trace_csv, "w", newline="") as fh:
            w = _csv.writer(fh, lineterminator="\r\n")
            w.writerow(["iter", "method", "log_bound"])
            for i, b in enumerate(res.trace):
                w.writerow([i, res.method, f"{b:.17g}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    methods = []
    for method in args.methods.split(","):
        method = method.strip()
        lower = method.endswith("-lower")
        name = method[:-6] if lower else method
        if name not in _METHODS:
            print(f"error: unknown method {method!r}", file=sys.stderr)
            return EXIT_USAGE
        if _lower_unsupported(name, lower):
            return EXIT_USAGE
        methods.append((method, name, lower))
    g = read_uai_file(args.model_file)
    exact = brute_z(g)
    if exact.sign <= 0:
        print("error: model has nonpositive Z", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"brute-force log Z = {exact.logabs:.12f}")
    fg = _forney_view(g)
    order = default_order(fg)
    ok = True
    for method, name, lower in methods:
        res = _compute_bound(g, fg, name, args.ibound, args.iters,
                             lower=lower, order=order)
        gap = res.log_bound - exact.logabs
        if res.direction == "exact":
            good = abs(gap) <= 1e-9
        elif res.direction == "upper":
            good = gap >= -1e-9
        else:
            good = gap <= 1e-9
        ok &= good
        flag = "ok" if good else "VIOLATION"
        print(f"{method:16s} {res.direction:5s} log bound = "
              f"{res.log_bound: .12f}  gap = {gap: .3e}  [{flag}]")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: interaction strengths x trials x methods."""

    model: str
    t_start: float
    t_stop: float
    t_step: float
    trials: int
    methods: tuple
    ibound: int
    iterations: int
    seed_base: int
    rows: int = 10
    cols: int = 10
    factors: int = 100
    field_sigma: float = float(np.sqrt(0.1))
    timings: bool = False

    def __post_init__(self):
        if self.t_step <= 0:
            raise ValueError("t_step must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def t_points(self):
        n = int(math.floor((self.t_stop - self.t_start) / self.t_step
                           + 1e-9)) + 1
        return [round(self.t_start + i * self.t_step, 12)
                for i in range(max(n, 0))]


def _sweep_task(spec, t, seed):
    """All requested methods on one generated instance; never raises."""
    name = f"{spec.model}-t{t:g}-s{seed}"
    rows = []
    try:
        g = _generate(spec.model, spec, t, seed)
        fg = _forney_view(g)
        order = default_order(fg)
        ref = None
        try:
            z = run_be(fg, order)
            ref = z.logabs
        except GmbeError:
            ref = None
        mbe_res = _compute_bound(g, fg, "mbe", spec.ibound, 0, order=order)
        baseline = ref if ref is not None else mbe_res.log_bound
    except GmbeError as e:
        for method in spec.methods:
            rows.append(ResultRow(name, method, spec.ibound, t, seed,
                                  "none", None,
                                  status=f"error:{type(e).__name__}"))
        return rows
    for method in spec.methods:
        try:
            if method == "mbe":
                res = mbe_res
            else:
                res = _compute_bound(g, fg, method, spec.ibound,
                                     spec.iterations, order=order)
            rows.append(ResultRow(
                name, method, spec.ibound, t, seed, res.direction,
                res.log_bound, ref_log_z=ref,
                metric=res.log_bound - baseline,
                wall_time=res.wall_time if spec.timings else None,
            ))
        except GmbeError as e:
            rows.append(ResultRow(name, method, spec.ibound, t, seed,
                                  "none", None,
                                  status=f"error:{type(e).__name__}"))
    return rows


def _worker_count(num_tasks):
    cap = os.environ.get("GMBE_THREADS")
    workers = os.cpu_count() or 1
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            pass
    return max(1, min(workers, num_tasks))


def cmd_sweep(args):
    try:
        start, stop, step = (float(x) for x in args.t_range.split(":"))
    except ValueError:
        print(f"error: bad --t-range {args.t_range!r}, want start:stop:step",
              file=sys.stderr)
        return EXIT_USAGE
    methods = tuple(m.strip() for m in args.methods.split(","))
    for m in methods:
        if m not in _METHODS:
            print(f"error: unknown method {m!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        spec = SweepSpec(
            model=args.model, t_start=start, t_stop=stop, t_step=step,
            trials=args.trials, methods=methods, ibound=args.ibound,
            iterations=args.iters, seed_base=args.seed_base,
            rows=args.rows, cols=args.cols, factors=args.factors,
            field_sigma=args.field_sigma, timings=args.timings,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    tasks = [(spec, t, spec.seed_base + trial)
             for t in spec.t_points()
             for trial in range(spec.trials)]
    workers = _worker_count(len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task_star, tasks))
    else:
        results = [_sweep_task(*t) for t in tasks]
    rows = [row for batch in results for row in batch]
    text = emit_csv(rows)
    out = Path(args.output)
    out.write_text(text)
    sidecar = dict(asdict(spec), version=__version__, git=_git_hash())
    Path(str(out) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _sweep_task_star(task):
    return _sweep_task(*task)


# ---------------------------------------------------------------------------


def build_parser():
    p = _Parser(prog="gmbe",
                description="Guaranteed partition-function bounds for "
                            "discrete graphical models.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a model file")
    g.add_argument("--model", choices=_FAMILIES, required=True)
    g.add_argument("--rows", type=int, default=10)
    g.add_argument("--cols", type=int, default=10)
    g.add_argument("--factors", type=int, default=100,
                   help="factor count for the 3-regular families")
    g.add_argument("--t", type=float, default=1.0,
                   help="interaction strength")
    g.add_argument("--field-sigma", type=float,
                   default=float(np.sqrt(0.1)))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("bound", help="compute a bound on log Z")
    b.add_argument("model_file")
    b.add_argument("--method", choices=_METHODS, default="wmbe")
    b.add_argument("--ibound", type=int, default=4)
    b.add_argument("--iters", type=int, default=150)
    b.add_argument("--lower", action="store_true",
                   help="reverse-pattern lower bound instead of upper")
    b.add_argument("--trace", action="store_true",
                   help="include the per-iteration trace in the output")
    b.add_argument("--trace-csv", default=None,
                   help="also write the trace as CSV to this path")
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify",
                       help="compare bounds against brute-force log Z")
    v.add_argument("model_file")
    v.add_argument("--methods", default="be,mbe,wmbe,wmbe-lower",
                   help="comma list; append -lower for lower bounds")
    v.add_argument("--ibound", type=int, default=4)
    v.add_argument("--iters", type=int, default=50)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="run an experiment grid to CSV")
    s.add_argument("--model", choices=_FAMILIES, required=True)
    s.add_argument("--t-range", required=True, metavar="START:STOP:STEP")
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--methods",
                   default="mbe,wmbe,wmbe-w,wmbe-theta,wmbe-wtheta,wmbe-wg")
    s.add_argument("--ibound", type=int, default=4)
    s.add_argument("--iters", type=int, default=150)
    s.add_argument("--seed-base", type=int, default=0)
    s.add_argument("--rows", type=int, default=10)
    s.add_argument("--cols", type=int, default=10)
    s.add_argument("--factors", type=int, default=100)
    s.add_argument("--field-sigma", type=float,
                   default=float(np.sqrt(0.1)))
    s.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte determinism)")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GmbeError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
