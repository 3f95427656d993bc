"""Exact log Z references that share no code with the library's solvers.

Two routes, both written from scratch on plain numpy:

* ``grid_log_z`` sweeps a transfer matrix row by row over the original
  pairwise spin grid (before any degree-2 rewrite).  The row state is a
  (2,) * cols tensor; vertical couplings act column by column, so a
  12-wide grid never builds a 4096 x 4096 matrix.
* ``contract_log_z`` contracts any factor list by greedy variable
  elimination in the linear domain, rescaling every intermediate table
  by its peak magnitude.  It handles signed tables, so it also checks
  that an optimizer's working model (gauged tables may go negative)
  still has the original partition function.

Only the data fields of the library's factors are read (scope, cards,
sign, logmag); nothing from ``gmbe.elimination`` or ``gmbe.oracle``
runs here.
"""

from __future__ import annotations

import math

import numpy as np


def _linear(f):
    """Peak-shifted linear table of a factor and the shift it carries."""
    peak = float(np.max(f.logmag))
    if peak == -math.inf:
        return np.zeros(f.cards), 0.0
    return f.sign * np.exp(f.logmag - peak), peak


def grid_log_z(g, rows, cols):
    """log Z of a nonnegative pairwise model on a rows x cols grid.

    Vertex (i, j) has id i * cols + j.  Factors of arity 1 and 2 may
    appear in any order and multiplicity; a pairwise factor must join
    grid neighbours.
    """
    n = rows * cols
    single = np.ones((n, 2))
    horiz = {}
    vert = {}
    log_c = 0.0
    for f in g.factors:
        table, peak = _linear(f)
        if (table < 0).any():
            raise ValueError("transfer-matrix reference needs nonnegative tables")
        log_c += peak
        if f.arity == 1:
            single[f.scope[0]] *= table
            continue
        if f.arity != 2:
            raise ValueError(f"factor of arity {f.arity} on a pairwise grid")
        (u, v), t = f.scope, table
        if u > v:
            u, v, t = v, u, t.T
        if v == u + 1 and v % cols:
            horiz.setdefault(u, np.ones((2, 2)))
            horiz[u] = horiz[u] * t
        elif v == u + cols:
            vert.setdefault(u, np.ones((2, 2)))
            vert[u] = vert[u] * t
        else:
            raise ValueError(f"pair ({u}, {v}) is not a grid edge")

    def row_weights(i):
        w = np.ones((2,) * cols)
        for j in range(cols):
            shape = [1] * cols
            shape[j] = 2
            w = w * single[i * cols + j].reshape(shape)
            u = i * cols + j
            if u in horiz:
                shape = [1] * cols
                shape[j] = shape[j + 1] = 2
                w = w * horiz[u].reshape(shape)
        return w

    state = row_weights(0)
    for i in range(1, rows):
        for j in range(cols):
            mat = vert.get((i - 1) * cols + j, np.ones((2, 2)))
            state = np.moveaxis(np.tensordot(state, mat, axes=(j, 0)), -1, j)
        state = state * row_weights(i)
        peak = float(state.max())
        state = state / peak
        log_c += math.log(peak)
    return log_c + math.log(float(state.sum()))


def contract_log_z(cards, factors):
    """Signed exact Z of a factor list as (sign, log|Z|).

    Eliminates the variable whose bucket has the smallest joint scope
    first (ties by id).  Every table is kept as (scope, array, log
    scale) with the array's peak magnitude at 1.
    """
    tables = []
    log_c = 0.0
    for f in factors:
        arr, peak = _linear(f)
        tables.append((tuple(f.scope), arr))
        log_c += peak
    sign = 1.0
    remaining = set(range(len(cards)))
    while remaining:
        best = None
        for v in sorted(remaining):
            scope = set()
            for s, _ in tables:
                if v in s:
                    scope.update(s)
            if best is None or len(scope) < best[1]:
                best = (v, len(scope))
        v = best[0]
        remaining.discard(v)
        group = [t for t in tables if v in t[0]]
        tables = [t for t in tables if v not in t[0]]
        if not group:
            log_c += math.log(cards[v])
            continue
        union = sorted({u for s, _ in group for u in s})
        label = {u: k for k, u in enumerate(union)}
        out = [u for u in union if u != v]
        operands = []
        for s, arr in group:
            operands += [arr, [label[u] for u in s]]
        res = np.einsum(*operands, [label[u] for u in out])
        peak = float(np.max(np.abs(res)))
        if peak == 0.0:
            return 0.0, -math.inf
        res = res / peak
        log_c += math.log(peak)
        if out:
            tables.append((tuple(out), res))
        else:
            sign *= float(np.sign(res))
    return sign, log_c
