"""Edge transforms: Z-invariance, conjugacy bookkeeping, golden tables.

The golden fixtures are a published worked example on the four-factor
complete graph: six binary variables, each shared by two of the factors
a, b, c, d; the free edge of every variable carries the same symmetric
matrix and the partner edge its transpose-inverse.  Printed tables are
rounded to integers, hence the 0.5 absolute tolerance.
"""

import numpy as np
import pytest

from gmbe import (
    Factor,
    FactorGraph,
    apply_gauges,
    brute_z,
    gauge_pair,
    gauge_transform_factor,
    gen_ising_grid,
    random_valid_gauges,
)
from gmbe import gauges as gauges_module
from gmbe.errors import (
    DegreeViolation,
    DimensionMismatch,
    GenerationFailed,
    SingularGaugeStep,
)

A = np.array([[0.75, 0.25], [0.25, 0.75]])
B = np.array([[1.5, -0.5], [-0.5, 1.5]])

# The published example prints each factor as two stacked 2x2 blocks.
# The one nesting consistent across all four factor/transform pairs is
# first variable outermost, i.e. plain C order over the scope.  Two of
# the printed tables carry provable defects, each cross-checked by an
# independent identity in TestPublishedTableDefects below:
#   * the transformed a-table's last entry reads 2077 (duplicating its
#     neighbor); the columns of both matrices sum to one, so the table
#     total must be preserved, which forces 3143,
#   * the original c-table's second block duplicates the d-table's;
#     inverting the printed transformed c-table (the matrices are each
#     other's inverses) recovers an exactly-integer original whose
#     first block agrees with print, fixing the second block.
F_A = np.array([[[2432., 832], [4672, 640]], [[4864, 384], [5120, 4160]]])
F_B = np.array([[[1088., 128], [4928, 4608]], [[448, 1664], [3264, 1344]]])
F_C_PRINTED = np.array([[[1216., 5440], [768, 1856]],
                        [[5568, 896], [640, 512]]])
F_C = np.array([[[1216., 5440], [768, 1856]],
                [[1920, 960], [3264, 4416]]])
F_D = np.array([[[5632., 5632], [6080, 6208]], [[5568, 896], [640, 512]]])

G_A_PRINTED = np.array([[[2837., 1559], [3591, 2077]],
                        [[3631, 2005], [4261, 2077]]])
G_A = np.array([[[2837., 1559], [3591, 2077]], [[3631, 2005], [4261, 3143]]])
G_B = np.array([[[2142., 1434], [4634, 4558]], [[966, 1490], [1490, 758]]])
G_C = np.array([[[3960., 8808], [-1608, -2520]],
                [[-328, -3288], [6520, 8296]]])
G_D = np.array([[[2408., 9160], [10760, 9192]],
                [[14536, -6232], [-7448, -1208]]])


def golden_model():
    """Four factors on the complete graph; variable v sits on two."""
    factors = (
        Factor.from_linear((0, 1, 2), (2, 2, 2), F_A),
        Factor.from_linear((0, 3, 4), (2, 2, 2), F_B),
        Factor.from_linear((1, 3, 5), (2, 2, 2), F_C),
        Factor.from_linear((2, 4, 5), (2, 2, 2), F_D),
    )
    return FactorGraph((2,) * 6, factors)


def cycle_model(n=6, seed=0):
    rng = np.random.default_rng(seed)
    factors = tuple(
        Factor.from_log(tuple(sorted((i, (i + 1) % n))), (2, 2),
                        rng.normal(0, 1, (2, 2)))
        for i in range(n)
    )
    return FactorGraph((2,) * n, factors)


class TestGaugeTransformFactor:
    def test_transcription_blocks(self):
        np.testing.assert_array_equal(
            F_A[0], [[2432, 832], [4672, 640]])
        np.testing.assert_array_equal(
            F_A[1], [[4864, 384], [5120, 4160]])
        np.testing.assert_array_equal(
            G_D[1], [[14536, -6232], [-7448, -1208]])

    def test_identity_is_noop(self):
        f = Factor.from_linear((0, 1), (2, 2),
                               np.array([[1.0, -2.0], [3.0, 4.0]]))
        out = gauge_transform_factor(f, {0: np.eye(2), 1: np.eye(2)})
        np.testing.assert_allclose(out.linear(), f.linear(), rtol=1e-14)

    def test_single_axis_contraction(self):
        f = Factor.from_linear((7,), (2,), np.array([1.0, 2.0]))
        out = gauge_transform_factor(f, {7: np.array([[1.0, 1.0],
                                                      [0.0, 2.0]])})
        np.testing.assert_allclose(out.linear(), [3.0, 4.0], rtol=1e-14)

    def test_dimension_mismatch(self):
        f = Factor.uniform((0, 1), (2, 3))
        with pytest.raises(DimensionMismatch):
            gauge_transform_factor(f, {0: np.eye(3), 1: np.eye(3)})

    def test_golden_factor_a(self):
        f = Factor.from_linear((0, 1, 2), (2, 2, 2), F_A)
        out = gauge_transform_factor(f, {0: A, 1: A, 2: A})
        np.testing.assert_allclose(out.linear(), G_A, atol=0.5)
        assert out.linear()[0, 0, 0] == pytest.approx(2837, abs=0.5)

    def test_golden_factor_c_negative_entry(self):
        f = Factor.from_linear((1, 3, 5), (2, 2, 2), F_C)
        out = gauge_transform_factor(f, {1: B, 3: B, 5: A})
        np.testing.assert_allclose(out.linear(), G_C, atol=0.5)
        assert out.linear()[0, 1, 0] == pytest.approx(-1608, abs=0.5)
        assert not (out.sign >= 0).all()

    def test_linearity(self):
        rng = np.random.default_rng(5)
        mats = {0: rng.normal(size=(2, 2)), 1: rng.normal(size=(2, 2))}
        fa = Factor.from_linear((0, 1), (2, 2), rng.normal(size=(2, 2)))
        fb = Factor.from_linear((0, 1), (2, 2), rng.normal(size=(2, 2)))
        fsum = Factor.from_linear((0, 1), (2, 2),
                                  fa.linear() + fb.linear())
        lhs = gauge_transform_factor(fsum, mats).linear()
        rhs = (gauge_transform_factor(fa, mats).linear()
               + gauge_transform_factor(fb, mats).linear())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(6)
        f = Factor.from_linear((0, 1), (2, 2), rng.uniform(0.5, 2, (2, 2)))
        g1 = {0: np.eye(2) + 0.1 * rng.normal(size=(2, 2)),
              1: np.eye(2) + 0.1 * rng.normal(size=(2, 2))}
        g2 = {0: np.eye(2) + 0.1 * rng.normal(size=(2, 2)),
              1: np.eye(2) + 0.1 * rng.normal(size=(2, 2))}
        two_step = gauge_transform_factor(
            gauge_transform_factor(f, g1), g2
        ).linear()
        one_step = gauge_transform_factor(
            f, {v: g2[v] @ g1[v] for v in (0, 1)}
        ).linear()
        np.testing.assert_allclose(two_step, one_step, rtol=1e-10)


class TestPublishedTableDefects:
    """Machine checks for the two corrections applied to the fixtures.

    Both matrices have unit column sums, so every transform preserves
    the table total; and they are mutual inverses, so any transformed
    table can be pulled back exactly.  Those two identities pin down
    each correction independently of our transform code.
    """

    def test_matrices_are_stochastic_columns_and_inverses(self):
        np.testing.assert_allclose(A.sum(axis=0), [1.0, 1.0], rtol=1e-15)
        np.testing.assert_allclose(B.sum(axis=0), [1.0, 1.0], rtol=1e-15)
        np.testing.assert_allclose(A @ B, np.eye(2), atol=1e-15)

    def test_sum_identity_forces_a_entry(self):
        # Printed transformed table falls short of the preserved total
        # by exactly the difference between 3143 and the printed 2077
        # (a duplicate of its neighbour one row up).
        assert F_A.sum() == G_A.sum() == 23104
        assert F_A.sum() - G_A_PRINTED.sum() == 3143 - 2077
        f = Factor.from_linear((0, 1, 2), (2, 2, 2), F_A)
        out = gauge_transform_factor(f, {0: A, 1: A, 2: A}).linear()
        mismatch = np.abs(out - G_A_PRINTED) > 0.5
        assert np.argwhere(mismatch).tolist() == [[1, 1, 1]]

    def test_inversion_recovers_original_c(self):
        # Pulling the printed transformed c-table back through the
        # inverse matrices lands on exact integers whose first block
        # agrees with the printed original; the printed second block
        # is a verbatim copy of the d-table's and is replaced.
        f = Factor.from_linear((1, 3, 5), (2, 2, 2), G_C)
        back = gauge_transform_factor(f, {1: A, 3: A, 5: B}).linear()
        np.testing.assert_allclose(back, np.round(back), atol=1e-9)
        np.testing.assert_allclose(back, F_C, atol=1e-9)
        np.testing.assert_array_equal(F_C_PRINTED[0], F_C[0])
        np.testing.assert_array_equal(F_C_PRINTED[1], F_D[1])
        assert F_C.sum() == G_C.sum() == 19840


def pair_deviation(mat):
    """Max-abs entry of G_a^T G_b - I for the pair a free matrix makes."""
    ga, gb = gauge_pair(mat)
    return np.abs(ga.T @ gb - np.eye(len(ga))).max()


class TestCheckConstraint:
    """The pair ``gauge_pair`` derives satisfies G_a^T G_b = I."""

    def test_conjugate_pair_is_exact(self):
        assert pair_deviation(A) < 1e-12
        np.testing.assert_allclose(gauge_pair(A)[1], B, atol=1e-15)

    def test_identity_zero(self):
        ga, gb = gauge_pair(np.eye(2))
        np.testing.assert_array_equal(ga, np.eye(2))
        np.testing.assert_array_equal(gb, np.eye(2))
        assert pair_deviation(np.eye(2)) == 0.0

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularGaugeStep):
            gauge_pair(np.array([[1.0, 2.0], [2.0, 4.0]]))
        g = cycle_model()
        with pytest.raises(SingularGaugeStep):
            apply_gauges(g, {3: np.zeros((2, 2))})


class TestApplyGauges:
    def test_identity_unchanged(self):
        g = cycle_model()
        out = apply_gauges(g, {v: np.eye(2) for v in range(6)})
        for fa, fb in zip(g.factors, out.factors):
            np.testing.assert_allclose(fa.linear(), fb.linear(), rtol=1e-14)

    def test_left_out_variables_keep_the_identity(self):
        g = cycle_model()
        out = apply_gauges(g, {})
        assert all(x is y for x, y in zip(out.factors, g.factors))
        # variable 0 sits on factors 0 and 5 only
        a, b = g.var_neighbors[0]
        assert (a, b) == (0, 5)
        out = apply_gauges(g, {0: A})
        for fid in range(1, 5):
            assert out.factors[fid] is g.factors[fid]
        np.testing.assert_allclose(
            out.factors[a].linear(),
            gauge_transform_factor(g.factors[a], {0: A}).linear(),
            rtol=1e-14)
        np.testing.assert_allclose(
            out.factors[b].linear(),
            gauge_transform_factor(g.factors[b], {0: B}).linear(),
            rtol=1e-14)
        assert brute_z(out).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-12
        )

    def test_variable_off_degree_two_is_named(self):
        # variable 0 of a 2x2 spin grid sits on three factors
        g = gen_ising_grid(2, 2, 1.0, seed=0)
        with pytest.raises(DegreeViolation) as err:
            apply_gauges(g, {0: np.eye(2)})
        assert err.value.violations == [(0, len(g.var_neighbors[0]))]
        assert "var 0" in str(err.value)

    def test_wrong_shape_raises(self):
        g = cycle_model()
        with pytest.raises(DimensionMismatch):
            apply_gauges(g, {2: np.eye(3)})
        with pytest.raises(DimensionMismatch):
            apply_gauges(g, {2: np.ones(2)})

    def test_golden_supplement_model(self):
        g = golden_model()
        assert pair_deviation(A) < 1e-12
        out = apply_gauges(g, {v: A for v in range(6)})
        for got, want in zip(out.factors, (G_A, G_B, G_C, G_D)):
            np.testing.assert_allclose(got.linear(), want, atol=0.5)
        assert brute_z(out).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_z_invariance_random(self, seed):
        g = cycle_model(seed=seed)
        gauges = random_valid_gauges(g, scale=0.3, seed=seed)
        out = apply_gauges(g, gauges)
        assert brute_z(out).logabs == pytest.approx(
            brute_z(g).logabs, abs=1e-9
        )


class TestRandomValidGauges:
    def test_scale_zero_identity(self):
        g = cycle_model()
        gauges = random_valid_gauges(g, scale=0.0, seed=3)
        assert sorted(gauges) == list(range(6))
        for mat in gauges.values():
            for m in gauge_pair(mat):
                np.testing.assert_array_equal(m, np.eye(2))

    def test_constraint_tight(self):
        g = cycle_model()
        gauges = random_valid_gauges(g, scale=0.2, seed=1)
        assert max(pair_deviation(m) for m in gauges.values()) < 1e-12

    def test_condition_bounded(self):
        g = cycle_model()
        gauges = random_valid_gauges(g, scale=0.5, seed=2)
        for mat in gauges.values():
            assert np.linalg.cond(mat) < 1e3

    def test_generation_failed_when_impossible(self, monkeypatch):
        monkeypatch.setattr(gauges_module, "RANDOM_COND_LIMIT", 1.0 + 1e-9)
        monkeypatch.setattr(gauges_module, "RANDOM_MAX_ATTEMPTS", 3)
        g = cycle_model()
        with pytest.raises(GenerationFailed, match="after 3 attempts"):
            random_valid_gauges(g, scale=1e9, seed=0)


class TestReparam:
    """A reparameterization is the diagonal gauge {v: diag(exp(theta))}."""

    def test_as_gauges_diagonal_example(self):
        theta = np.log(np.array([2.0, 3.0]))
        ga, gb = gauge_pair(np.diag(np.exp(theta)))
        np.testing.assert_allclose(ga, np.diag([2.0, 3.0]), rtol=1e-14)
        np.testing.assert_allclose(gb, np.diag([0.5, 1 / 3.0]), rtol=1e-14)
        assert pair_deviation(ga) < 1e-12

    def test_matches_direct_scaling(self):
        g = cycle_model(seed=9)
        vec = np.array([0.4, -0.4])
        v = 2
        a, b = g.var_neighbors[v]
        out = apply_gauges(g, {v: np.diag(np.exp(vec))})
        direct_a = g.factors[a].scale_axis_log(v, vec)
        direct_b = g.factors[b].scale_axis_log(v, -vec)
        np.testing.assert_allclose(out.factors[a].linear(),
                                   direct_a.linear(), rtol=1e-12)
        np.testing.assert_allclose(out.factors[b].linear(),
                                   direct_b.linear(), rtol=1e-12)
        assert brute_z(out).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-12
        )
