"""Span tracing of the library's layers from outside, by attribute swap.

``Tracer.install`` replaces each traced function with a wrapper in
every ``gmbe`` module that binds it (methods are swapped on their
class), so calls between the library's own modules are caught too.
``uninstall`` puts the originals back.  Spans live in memory as
``[name, start, end, parent index, operation id, detail]``; ``detail``
holds the little a ratio needs (a step's verdict, an update's size).
"""

from __future__ import annotations

import functools
import sys
import time

# Traced layer functions: metric name -> (module, attribute path).
LAYERS = {
    "fileio.parse_uai": ("gmbe.fileio", "parse_uai"),
    "generators.ising_to_forney": ("gmbe.generators", "ising_to_forney"),
    "elimination.default_order": ("gmbe.elimination", "default_order"),
    "elimination.build_minibucket_tree":
        ("gmbe.elimination", "build_minibucket_tree"),
    "elimination.run_be": ("gmbe.elimination", "run_be"),
    "elimination.run_mbe": ("gmbe.elimination", "run_mbe"),
    "elimination.run_wmbe": ("gmbe.elimination", "run_wmbe"),
    "elimination.TreeEvaluator":
        ("gmbe.elimination", "TreeEvaluator.__init__"),
    "elimination.set_factors":
        ("gmbe.elimination", "TreeEvaluator.set_factors"),
    "elimination.set_weights":
        ("gmbe.elimination", "TreeEvaluator.set_weights"),
    "elimination.restore": ("gmbe.elimination", "TreeEvaluator.restore"),
    "elimination.beliefs": ("gmbe.elimination", "TreeEvaluator.beliefs"),
    "elimination.factor_marginal":
        ("gmbe.elimination", "TreeEvaluator.factor_marginal"),
    "gauges.gauge_transform_factor":
        ("gmbe.gauges", "gauge_transform_factor"),
    "optimize.optimize_bound": ("gmbe.optimize", "optimize_bound"),
    "optimize.gauge_step": ("gmbe.optimize", "gauge_step"),
    "optimize.gauge_gradient": ("gmbe.optimize", "gauge_gradient"),
    "optimize.weight_step": ("gmbe.optimize", "weight_step"),
    "optimize.reparam_step": ("gmbe.optimize", "reparam_step"),
    "optimize.reparam_gradient": ("gmbe.optimize", "reparam_gradient"),
}

# What a span keeps of its call, for the accept and waste ratios.
_DETAIL = {
    "optimize.gauge_step": lambda args, out: bool(out),
    "elimination.set_weights": lambda args, out: len(args[1]),
    "elimination.restore": lambda args, out: len(args[1][1]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._swapped = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        detail = _DETAIL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if detail is not None:
                rec[5] = detail(args, out)
            return out

        return traced

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if (n == "gmbe" or n.startswith("gmbe.")) and m is not None]
        for name, (modname, path) in LAYERS.items():
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._swap(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._swap(m, key, wrapped)

    def _swap(self, owner, attr, new):
        self._swapped.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._swapped:
            owner, attr, orig = self._swapped.pop()
            setattr(owner, attr, orig)


def summarize(spans):
    """Per-layer self time and call count, plus the step-family ratios.

    A span's self time is its duration minus the durations of its
    direct children; spans nest strictly, so children never overlap.
    """
    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    for name, start, end, parent, _op, _detail in spans:
        if name in self_s:
            self_s[name] += end - start
            calls[name] += 1
        if parent is not None:
            pname = spans[parent][0]
            if pname in self_s:
                self_s[pname] -= end - start

    def under(child, parent, pred=None):
        return sum(1 for s in spans
                   if s[0] == child and s[3] is not None
                   and spans[s[3]][0] == parent
                   and (pred is None or pred(s[5])))

    def ratio(num, den):
        return num / den if den else 0.0

    g_calls = calls["optimize.gauge_step"]
    g_acc = sum(1 for s in spans if s[0] == "optimize.gauge_step" and s[5])
    w_sweeps = calls["optimize.weight_step"]
    w_evals = under("elimination.set_weights", "optimize.weight_step")
    w_cand = under("elimination.set_weights", "optimize.weight_step",
                   lambda n: n > 1)
    w_rej = under("elimination.restore", "optimize.weight_step",
                  lambda n: n > 1)
    r_sweeps = calls["optimize.reparam_step"]
    r_vars = under("optimize.reparam_gradient", "optimize.reparam_step")
    r_cand = under("elimination.set_factors", "optimize.reparam_step")
    r_rej = under("elimination.restore", "optimize.reparam_step")
    ratios = {
        "optimize.gauge_step.accept_ratio": ratio(g_acc, g_calls),
        "optimize.gauge_step.candidates_per_call": ratio(
            under("elimination.set_factors", "optimize.gauge_step"),
            g_calls),
        "optimize.weight_step.accept_ratio": ratio(w_cand - w_rej, w_cand),
        "optimize.weight_step.evals_per_sweep": ratio(w_evals, w_sweeps),
        "optimize.reparam_step.accept_ratio": ratio(r_cand - r_rej, r_vars),
        "optimize.reparam_step.candidates_per_sweep": ratio(r_cand,
                                                            r_sweeps),
    }
    return self_s, calls, ratios
