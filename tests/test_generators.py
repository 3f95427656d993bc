"""Model generators: grids, degree-2 conversions, 3-regular families."""

import numpy as np
import pytest

from gmbe import (
    brute_z,
    gen_forney_3regular,
    gen_ising_grid,
    gen_symmetric_forney,
    ising_to_forney,
    validate_forney,
)
from gmbe.errors import NotAGrid, OddFactorCount

from conftest import random_pairwise_graph

# Hand 8-state enumeration of gen_ising_grid(1, 3, t=1.0, seed=0),
# summing table products with pure-python loops (frozen below).
LOG_Z_1X3_T1_SEED0 = 2.2475561487532105


class TestIsingGrid:
    def test_counts_10x10(self):
        g = gen_ising_grid(10, 10, t=1.0, seed=0)
        assert g.num_vars == 100
        arities = [f.arity for f in g.factors]
        assert arities.count(1) == 100
        assert arities.count(2) == 180
        assert g.num_factors == 280

    def test_factor_layout(self):
        g = gen_ising_grid(2, 3, t=1.0, seed=1)
        scopes = [f.scope for f in g.factors]
        # singletons first, then horizontal edges row-major, then vertical
        assert scopes[:6] == [(v,) for v in range(6)]
        assert scopes[6:10] == [(0, 1), (1, 2), (3, 4), (4, 5)]
        assert scopes[10:] == [(0, 3), (1, 4), (2, 5)]

    def test_spin_encoding(self):
        # state 0 is spin +1, so tables are exp(+phi) then exp(-phi)
        g = gen_ising_grid(1, 2, t=1.0, seed=3)
        single = g.factors[0].logmag
        assert single[0] == pytest.approx(-single[1], abs=1e-15)
        pair = g.factors[2].logmag
        np.testing.assert_allclose(pair, [[pair[0, 0], -pair[0, 0]],
                                          [-pair[0, 0], pair[0, 0]]],
                                   atol=1e-15)

    def test_independent_when_t_zero(self):
        g = gen_ising_grid(2, 2, t=0.0, field_sigma=0.0, seed=0)
        assert brute_z(g).logabs == pytest.approx(4 * np.log(2), rel=1e-14)

    def test_1x3_hand_enumeration(self):
        g = gen_ising_grid(1, 3, t=1.0, seed=0)
        tabs = [f.linear() for f in g.factors]
        z = 0.0
        for s0 in (0, 1):
            for s1 in (0, 1):
                for s2 in (0, 1):
                    z += (tabs[0][s0] * tabs[1][s1] * tabs[2][s2]
                          * tabs[3][s0, s1] * tabs[4][s1, s2])
        assert brute_z(g).logabs == pytest.approx(np.log(z), rel=1e-14)
        assert np.log(z) == pytest.approx(LOG_Z_1X3_T1_SEED0, rel=1e-14)

    def test_deterministic(self):
        a = gen_ising_grid(3, 3, t=0.8, seed=9)
        b = gen_ising_grid(3, 3, t=0.8, seed=9)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa.logmag, fb.logmag)
        c = gen_ising_grid(3, 3, t=0.8, seed=10)
        assert any(
            not np.array_equal(fa.logmag, fc.logmag)
            for fa, fc in zip(a.factors, c.factors)
        )


class TestIsingToForney:
    def test_2x2_single_plaquette(self):
        g = gen_ising_grid(2, 2, t=0.7, seed=5)
        fg = ising_to_forney(g)
        validate_forney(fg)
        assert fg.num_vars == 4
        arities = sorted(f.arity for f in fg.factors)
        assert arities == [1, 1, 1, 1, 4]
        assert brute_z(fg).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-12
        )

    @pytest.mark.parametrize("rows,cols,seed", [
        (2, 3, 0), (3, 3, 1), (3, 4, 2), (4, 4, 3),
    ])
    def test_z_preserved(self, rows, cols, seed):
        g = gen_ising_grid(rows, cols, t=1.0, seed=seed)
        fg = ising_to_forney(g)
        validate_forney(fg)
        assert brute_z(fg).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-10
        )

    def test_all_factors_positive(self):
        fg = ising_to_forney(gen_ising_grid(4, 4, t=1.0, seed=2))
        for f in fg.factors:
            assert (f.sign > 0).all()

    def test_rejects_non_grid(self):
        g = random_pairwise_graph(6, 8, seed=0)
        with pytest.raises(NotAGrid):
            ising_to_forney(g)

    def test_rejects_single_row(self):
        g = gen_ising_grid(1, 4, t=1.0, seed=0)
        with pytest.raises(NotAGrid):
            ising_to_forney(g)


class TestForney3Regular:
    def test_counts(self):
        g = gen_forney_3regular(180, t=0.5, seed=0)
        assert g.num_vars == 270
        assert g.num_factors == 180
        assert all(f.arity == 3 for f in g.factors)
        assert all(len(fids) == 2 for fids in g.var_neighbors)

    def test_small_instance(self):
        g = gen_forney_3regular(4, t=0.5, seed=1)
        assert g.num_vars == 6
        z = brute_z(g)
        assert z.sign == 1
        assert np.isfinite(z.logabs)

    def test_chord_pattern(self):
        g = gen_forney_3regular(8, t=0.5, seed=0)
        # factor i shares a chord variable with factor i + 4
        for i in range(4):
            shared = set(g.factors[i].scope) & set(g.factors[i + 4].scope)
            assert len(shared) == 1

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_bad_strength_rejected(self, t):
        # a variance below zero would give nan tables
        for gen in (gen_forney_3regular, gen_symmetric_forney):
            with pytest.raises(ValueError, match="t must be"):
                gen(6, t=t, seed=0)
        with pytest.raises(ValueError, match="t must be"):
            gen_ising_grid(3, 3, t=t, seed=0)
        with pytest.raises(ValueError, match="field_sigma must be"):
            gen_ising_grid(3, 3, t=1.0, field_sigma=t, seed=0)

    def test_odd_count_rejected(self):
        with pytest.raises(OddFactorCount):
            gen_forney_3regular(5, t=0.5, seed=0)
        with pytest.raises(OddFactorCount):
            gen_forney_3regular(2, t=0.5, seed=0)

    def test_t_zero_all_ones(self):
        g = gen_forney_3regular(4, t=0.0, seed=0)
        assert brute_z(g).logabs == pytest.approx(6 * np.log(2), rel=1e-13)

    def test_deterministic(self):
        a = gen_forney_3regular(6, t=0.9, seed=4)
        b = gen_forney_3regular(6, t=0.9, seed=4)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa.logmag, fb.logmag)


class TestSymmetricForney:
    def test_flip_invariance_exact(self):
        g = gen_symmetric_forney(6, t=0.8, seed=7)
        for f in g.factors:
            lin = f.logmag
            np.testing.assert_array_equal(lin, lin[::-1, ::-1, ::-1])

    def test_topology_matches_3regular(self):
        g = gen_symmetric_forney(6, t=0.8, seed=7)
        h = gen_forney_3regular(6, t=0.8, seed=7)
        assert [f.scope for f in g.factors] == [f.scope for f in h.factors]

    def test_z_positive_finite(self):
        g = gen_symmetric_forney(4, t=1.0, seed=0)
        z = brute_z(g)
        assert z.sign == 1 and np.isfinite(z.logabs)


@pytest.mark.parametrize("builder", [
    lambda: gen_ising_grid(3, 3, t=1.0, seed=0),
    lambda: gen_forney_3regular(6, t=1.0, seed=0),
    lambda: gen_symmetric_forney(6, t=1.0, seed=0),
    lambda: ising_to_forney(gen_ising_grid(3, 4, t=0.5, seed=1)),
])
def test_desk_scale_z_positive(builder):
    g = builder()
    if g.num_vars <= 14:
        z = brute_z(g)
        assert z.sign == 1
        assert np.isfinite(z.logabs)
