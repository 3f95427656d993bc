"""Model generators used by the experiments and the CLI.

Spin-glass grids are generated as ordinary pairwise factor graphs.
``ising_to_forney`` rewrites such a grid into degree-2 form without
introducing equality indicators: a checkerboard of edge-disjoint
plaquettes is contracted into arity-4 factors (every interior grid
vertex ends up on exactly two of them), boundary edges that no chosen
plaquette covers stay behind as pairwise factors, and any vertex still
on a single factor gets a uniform partner.  The partition function is
preserved exactly because the rewrite only regroups multiplications.

The cycle-with-chords family is natively degree-2: ``num_factors``
arity-3 factors in a cycle, a shared variable on each cycle edge, and a
chord variable linking each factor to the diametrically opposite one.
"""

from __future__ import annotations

import numpy as np

from .errors import NotAGrid, OddFactorCount
from .factors import Factor, multiply_factors
from .graphs import FactorGraph, adjacent_factors, validate_forney

# State k of a spin variable encodes spin value +1 (k=0) or -1 (k=1).
_SPIN = np.array([1.0, -1.0])


def gen_ising_grid(rows, cols, t, field_sigma=np.sqrt(0.1), seed=0):
    """Random spin glass on a rows x cols grid.

    Singleton tables are exp(phi_v * x_v) with phi_v ~ N(0, field_sigma^2)
    and pairwise tables exp(phi_uv * x_u * x_v) with phi_uv ~ N(0, t),
    i.e. ``t`` is the coupling variance (the interaction strength swept
    in the experiments) while ``field_sigma`` is a standard deviation.

    Factor order: one singleton per variable in id order, then
    horizontal edges row-major, then vertical edges row-major.
    """
    rows, cols = int(rows), int(cols)
    if rows < 1 or cols < 1 or rows * cols < 1:
        raise ValueError("grid must have at least one vertex")
    n = rows * cols
    rng = np.random.default_rng(seed)
    fields = rng.normal(0.0, field_sigma, size=n)

    def vid(i, j):
        return i * cols + j

    factors = []
    for v in range(n):
        factors.append(Factor.from_log((v,), (2,), fields[v] * _SPIN))
    edges = []
    for i in range(rows):
        for j in range(cols - 1):
            edges.append((vid(i, j), vid(i, j + 1)))
    for i in range(rows - 1):
        for j in range(cols):
            edges.append((vid(i, j), vid(i + 1, j)))
    couplings = rng.normal(0.0, np.sqrt(t), size=len(edges))
    for (u, v), phi in zip(edges, couplings):
        table = phi * np.outer(_SPIN, _SPIN)
        factors.append(Factor.from_log((u, v), (2, 2), table))
    return FactorGraph((2,) * n, tuple(factors))


def _detect_grid(g):
    """Recover (rows, cols, singleton fid per var, fid per edge) or fail."""
    singles = {}
    edge_fids = {}
    for i, f in enumerate(g.factors):
        if f.arity == 1:
            if f.scope[0] in singles:
                raise NotAGrid(f"variable {f.scope[0]} has two singletons")
            singles[f.scope[0]] = i
        elif f.arity == 2:
            key = tuple(sorted(f.scope))
            if key in edge_fids:
                raise NotAGrid(f"duplicate pairwise factor on {key}")
            edge_fids[key] = i
        else:
            raise NotAGrid(f"factor {i} has arity {f.arity}")
    n = g.num_vars
    if set(singles) != set(range(n)):
        raise NotAGrid("missing singleton factors")
    nb0 = sorted(v for e in edge_fids for v in e if 0 in e and v != 0)
    if not nb0:
        raise NotAGrid("vertex 0 has no pairwise neighbor")
    cols = nb0[-1] if nb0[-1] != 1 or len(nb0) > 1 else n
    if cols == n and len(nb0) == 1:
        rows = 1
    else:
        if n % cols:
            raise NotAGrid("vertex count is not rows * cols")
        rows = n // cols
    expected = set()
    for i in range(rows):
        for j in range(cols - 1):
            expected.add((i * cols + j, i * cols + j + 1))
    for i in range(rows - 1):
        for j in range(cols):
            expected.add((i * cols + j, (i + 1) * cols + j))
    if expected != set(edge_fids):
        raise NotAGrid("pairwise factors do not match a grid edge set")
    return rows, cols, singles, edge_fids


def ising_to_forney(g):
    """Contract a grid model into degree-2 form (checkerboard plaquettes).

    Requires a graph structured as by gen_ising_grid with rows, cols >= 2.
    New factor order: contracted plaquettes over cells (i, j) with
    (i + j) even, row-major; then uncovered boundary edges in original
    factor order; then uniform partners for leftover degree-1 vertices.
    Each vertex's singleton is absorbed into its first covering factor.
    """
    rows, cols, singles, edge_fids = _detect_grid(g)
    if rows < 2 or cols < 2:
        raise NotAGrid("plaquette contraction needs rows >= 2 and cols >= 2")

    def vid(i, j):
        return i * cols + j

    def cell_edges(i, j):
        c = [vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)]
        return [(c[0], c[1]), (c[2], c[3]), (c[0], c[2]), (c[1], c[3])]

    covered = set()
    groups = []  # list of (vertex set, list of member factor ids)
    for i in range(rows - 1):
        for j in range(cols - 1):
            if (i + j) % 2:
                continue
            edges = cell_edges(i, j)
            covered.update(edges)
            verts = sorted({v for e in edges for v in e})
            groups.append((verts, [edge_fids[e] for e in edges]))
    for e in sorted(edge_fids, key=lambda e: edge_fids[e]):
        if e not in covered:
            groups.append((list(e), [edge_fids[e]]))

    owner = {}
    for gi, (verts, _) in enumerate(groups):
        for v in verts:
            owner.setdefault(v, gi)
    new_factors = []
    for gi, (verts, fids) in enumerate(groups):
        members = [g.factors[fid] for fid in fids]
        members += [g.factors[singles[v]] for v in verts if owner[v] == gi]
        new_factors.append(multiply_factors(members))

    nbrs = adjacent_factors(g.num_vars, new_factors)
    for v in range(g.num_vars):
        if len(nbrs[v]) == 1:
            new_factors.append(Factor.uniform((v,), (g.cards[v],)))
    return validate_forney(FactorGraph(g.cards, tuple(new_factors)))


def _cycle_chord_scopes(num_factors):
    n = int(num_factors)
    if n < 4 or n % 2:
        raise OddFactorCount(
            f"need an even number of factors >= 4, got {n}"
        )
    half = n // 2
    scopes = []
    for i in range(n):
        cyc_prev = (i - 1) % n
        cyc_next = i
        chord = n + (i % half)
        scopes.append(tuple(sorted((cyc_prev, cyc_next, chord))))
    return n + half, scopes


def gen_forney_3regular(num_factors, t, seed=0):
    """Degree-2 model: arity-3 factors on a cycle plus opposite chords.

    Variables 0..num_factors-1 sit on the cycle edges; variable
    num_factors+i ties factor i to factor i + num_factors/2.  Entries
    are exp(g) with g ~ N(0, t) per table cell.
    """
    num_vars, scopes = _cycle_chord_scopes(num_factors)
    rng = np.random.default_rng(seed)
    factors = []
    for scope in scopes:
        logvals = rng.normal(0.0, np.sqrt(t), size=(2, 2, 2))
        factors.append(Factor.from_log(scope, (2, 2, 2), logvals))
    return validate_forney(FactorGraph((2,) * num_vars, tuple(factors)))


def gen_symmetric_forney(num_factors, t, seed=0):
    """Like gen_forney_3regular but every table is flip-symmetric.

    Entries with first index 0 are sampled; the mirrored entry under
    simultaneous flip of all three arguments is copied bit-for-bit, so
    f(x) == f(flip(x)) holds exactly.
    """
    num_vars, scopes = _cycle_chord_scopes(num_factors)
    rng = np.random.default_rng(seed)
    factors = []
    for scope in scopes:
        logvals = np.empty((2, 2, 2))
        logvals[0] = rng.normal(0.0, np.sqrt(t), size=(2, 2))
        logvals[1] = logvals[0, ::-1, ::-1]
        factors.append(Factor.from_log(scope, (2, 2, 2), logvals))
    return validate_forney(FactorGraph((2,) * num_vars, tuple(factors)))
