"""gmbe benchmark: set-up time, bound time, gap to exact log Z, memory.

    python3 bench/run.py --workload grid-opt --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
Each workload turns its seed into a fixed list of models written as UAI
text (untimed), computes an exact log Z for each with ``exact.py``
(untimed), then repeats whole rounds over the same models until
``--seconds`` have passed.  A round parses every model, converts it to
degree-2 form, orders it and builds its trees (set-up), then computes
every (method, ibound, direction) bound of the workload (bounding).
One operation is one such bound.

The first round is a warm-up: every result in it is checked against
the exact log Z and the method properties in ``checks.py``, and every
later round must reproduce it bit for bit.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over rounds).  With ``--trace 1`` rounds alternate between
untraced and traced; the traced ones wrap the library's layer
functions (``tracer.py``) and the line reports per-round self time and
calls per layer, the step-family ratios, and the tracing overhead.
The spans of the last traced round go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    """Import gmbe from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gmbe
    except ImportError as exc:
        sys.exit(f"error: cannot import gmbe from {src}: {exc}")
    if Path(gmbe.__file__).resolve().parent != src / "gmbe":
        sys.exit(f"error: gmbe imported from {gmbe.__file__}, not {src}")


_import_library()

import numpy as np  # noqa: E402

from gmbe import elimination as E  # noqa: E402
from gmbe import fileio as F  # noqa: E402
from gmbe import generators as G  # noqa: E402
from gmbe import graphs, optimize as O  # noqa: E402

from checks import (  # noqa: E402
    OpResult, check_bounds, check_symmetric, check_working_models,
)
from exact import contract_log_z, grid_log_z  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """What a workload bounds; ``ops`` are (method, ibound, direction).

    Models are ``grid_side`` x ``grid_side`` spin grids, or small
    3-regular models when ``grid_side`` is None.
    """

    num_models: int
    ops: tuple
    iterations: int = 0
    grid_side: int | None = None


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "grid-opt": Workload(
        num_models=12,
        ops=tuple((m, 4, "upper")
                  for m in ("wmbe-theta", "wmbe-g", "wmbe-wg")),
        iterations=2,
        grid_side=10,
    ),
    "grid-onepass": Workload(
        num_models=24,
        ops=(("be", None, "exact"),) + tuple(
            (m, b, d) for b in (4, 6, 8)
            for m, d in (("mbe", "upper"), ("wmbe", "upper"),
                         ("wmbe", "lower"))),
        grid_side=12,
    ),
    # wmbe-g lower is left out: it can return a "lower" bound above Z.
    "forney3-small": Workload(
        num_models=256,
        ops=(("wmbe", 2, "upper"), ("wmbe-theta", 2, "upper"),
             ("wmbe-g", 2, "upper"), ("wmbe", 2, "lower"),
             ("wmbe-theta", 2, "lower")),
        iterations=2,
    ),
}

ONE_PASS = ("be", "mbe", "wmbe")  # methods with no optimizer
T = 1.0  # coupling variance of every model
FORNEY_SIZES = (6, 8, 10, 12)


@dataclass(frozen=True)
class Model:
    text: str           # UAI text: all the library is given
    grid: bool          # rewrite with ising_to_forney (else natively degree-2)
    symmetric: bool
    log_z: float        # exact reference from exact.py


def make_models(name, seed):
    """The workload's models, a pure function of (name, seed)."""
    wl = WORKLOADS[name]
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1,
                                                 size=wl.num_models)
    models = []
    for i, s in enumerate(int(s) for s in seeds):
        if wl.grid_side is None:
            sym = i % 2 == 1
            gen = G.gen_symmetric_forney if sym else G.gen_forney_3regular
            g = gen(FORNEY_SIZES[(i // 2) % len(FORNEY_SIZES)],
                    t=T, seed=s)
            log_z = contract_log_z(g.cards, g.factors)[1]
            models.append(Model(F.emit_uai(g), False, sym, log_z))
        else:
            side = wl.grid_side
            g = G.gen_ising_grid(side, side, t=T, seed=s)
            models.append(Model(F.emit_uai(g), True, False,
                                grid_log_z(g, side, side)))
    return models


@dataclass
class Round:
    """Timings of one round: set-up and bounding seconds per model."""

    setup_s: list = field(default_factory=list)
    bound_s: list = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0
    results: list = field(default_factory=list)


def _bound(fg, order, trees, op, iterations):
    method, ibound, direction = op
    if method == "be":
        z = E.run_be(fg, order)
        if z.sign <= 0:
            raise ValueError(f"run_be returned sign {z.sign}")
        return z.logabs, (z.logabs,), None
    tree = trees[ibound, direction]
    if method == "mbe":
        res = E.run_mbe(fg, tree)
    elif method == "wmbe":
        res = E.run_wmbe(fg, tree)
    else:
        cfg = O.OptimizerConfig.for_method(method, iterations=iterations)
        res, state = O.optimize_bound(fg, tree, cfg)
        return res.log_bound, res.trace, (fg.cards, tuple(state.factors))
    return res.log_bound, res.trace, None


def run_round(wl, models, tracer=None, keep_working=False):
    """Set up and bound every model once; returns timings and results."""
    rnd = Round()
    trees_needed = sorted({(b, d) for _, b, d in wl.ops if b is not None})
    t_round = time.perf_counter()
    for i, model in enumerate(models):
        if tracer is not None:
            tracer.op = f"m{i}/setup"
        rnd.setup_s.append(0.0)
        rnd.bound_s.append(0.0)
        t0 = time.perf_counter()
        try:
            g = F.parse_uai(model.text)
            fg = (G.ising_to_forney(g) if model.grid
                  else graphs.validate_forney(g))
            order = E.default_order(fg)
            trees = {(b, d): E.build_minibucket_tree(fg, order, b,
                                                     direction=d)
                     for b, d in trees_needed}
        except Exception:
            traceback.print_exc()
            rnd.failed += len(wl.ops)
            continue
        finally:
            rnd.setup_s[i] += time.perf_counter() - t0
        for op in wl.ops:
            if tracer is not None:
                tracer.op = f"m{i}/{op[0]}/{op[1]}/{op[2]}"
            t0 = time.perf_counter()
            try:
                log_bound, trace, working = _bound(fg, order, trees, op,
                                                   wl.iterations)
            except Exception:
                traceback.print_exc()
                rnd.failed += 1
                continue
            finally:
                rnd.bound_s[i] += time.perf_counter() - t0
            rnd.results.append(OpResult(
                i, op[0], op[1], op[2], log_bound, tuple(trace),
                working if keep_working else None))
    rnd.wall_s = time.perf_counter() - t_round
    return rnd


def _per_model_median(rounds, key):
    """Round time as the sum over models of each model's median time.

    Taking the median per model drops a slow stretch of the machine
    that hits a model in fewer than half of the rounds.
    """
    per_model = zip(*(getattr(r, key) for r in rounds))
    return sum(statistics.median(ts) for ts in per_model)


def _fingerprint(results):
    return [(r.model, r.method, r.ibound, r.direction, r.log_bound, r.trace)
            for r in results]


def _gap_left(results, log_z):
    """Mean share of its starting gap an optimizer leaves; 1 with none.

    The start is the first trace entry, the one-pass bound the optimizer
    begins from.  Taken per operation, the share does not scale with how
    hard the model is, so unlike the gap itself it barely varies with
    the seed, and an optimizer that stops tightening moves it to 1.
    """
    shares = [r.gap(log_z[r.model]) / r.gap(log_z[r.model], r.trace[0])
              for r in results if r.method not in ONE_PASS]
    return statistics.fmean(shares) if shares else 1.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _write_spans(name, seed, spans):
    """One traced round's spans as gzipped JSON, times from its start."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{seed}-spans.json.gz"
    t0 = spans[0][1] if spans else 0.0
    rows = [[n, round(s - t0, 7), round(e - t0, 7), p, op]
            for n, s, e, p, op, _ in spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": rows}, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    models = make_models(args.workload, args.seed)
    log_z = [m.log_z for m in models]
    ops_per_round = len(models) * len(wl.ops)

    rss_before_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Warm-up round: checked in full, then the reference for later rounds.
    warm = run_round(wl, models, keep_working=True)
    problems = (check_bounds(warm.results, log_z)
                + check_working_models(warm.results, log_z)
                + check_symmetric(warm.results,
                                  {i for i, m in enumerate(models)
                                   if m.symmetric}))
    reference = _fingerprint(warm.results)
    rounds = {False: [], True: []}
    failed = warm.failed
    tracer = Tracer() if args.trace else None
    spans_per_round = []
    mismatched = False
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not rounds[False]
           or (args.trace and not rounds[True])):
        traced = bool(args.trace) and len(rounds[True]) < len(rounds[False])
        if traced:
            tracer.spans.clear()
            tracer.install()
            try:
                rnd = run_round(wl, models, tracer)
            finally:
                tracer.uninstall()
            spans_per_round.append(summarize(tracer.spans))
        else:
            rnd = run_round(wl, models)
        failed += rnd.failed
        mismatched |= _fingerprint(rnd.results) != reference
        rounds[traced].append(rnd)
    if mismatched:
        problems.append("a round's results differ from the warm-up's")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    n_rounds = 1 + len(rounds[False]) + len(rounds[True])
    untraced = rounds[False]
    if args.trace:
        n = len(spans_per_round)
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = _metric(
                sum(s[0][layer] for s in spans_per_round) / n, "s")
            metrics[f"{layer}.calls"] = _metric(
                sum(s[1][layer] for s in spans_per_round) // n, "count")
        for key in spans_per_round[0][2]:
            metrics[key] = _metric(
                statistics.fmean(s[2][key] for s in spans_per_round),
                "ratio")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(r.wall_s for r in rounds[True])
            - statistics.median(r.wall_s for r in untraced), "s")
        path = _write_spans(args.workload, args.seed, tracer.spans)
        print(f"{n} traced and {len(untraced)} untraced rounds; "
              f"spans of the last traced round in {path}")
    else:
        gaps = [r.gap(log_z[r.model]) for r in warm.results
                if r.direction != "exact"]
        metrics = {
            "setup_s": _metric(_per_model_median(untraced, "setup_s"), "s"),
            "bound_s": _metric(_per_model_median(untraced, "bound_s"), "s"),
            "gap_nats": _metric(statistics.fmean(gaps), "nats"),
            "gap_left": _metric(_gap_left(warm.results, log_z), "ratio"),
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
        }
        print(f"{len(untraced)} measured rounds after one warm-up, "
              f"{ops_per_round} operations each; peak RSS "
              f"{rss_before_mib:.1f} MiB before the warm-up")
        for key in ("setup_s", "bound_s"):
            vals = sorted(sum(getattr(r, key)) for r in untraced)
            print(f"  {key} per round: min {vals[0]:.4f}  "
                  f"median {statistics.median(vals):.4f}  max {vals[-1]:.4f}")
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": n_rounds * ops_per_round,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
