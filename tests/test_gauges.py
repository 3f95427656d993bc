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
    ForneyGraph,
    GaugeSet,
    Reparam,
    apply_gauges,
    brute_z,
    check_constraint,
    gauge_transform_factor,
    random_valid_gauges,
    reparam_as_gauges,
    to_forney,
    validate_forney,
)
from gmbe.errors import ConstraintViolated, DimensionMismatch, GenerationFailed

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
    return ForneyGraph((2,) * 6, factors)


def cycle_model(n=6, seed=0):
    rng = np.random.default_rng(seed)
    factors = tuple(
        Factor.from_log(tuple(sorted((i, (i + 1) % n))), (2, 2),
                        rng.normal(0, 1, (2, 2)))
        for i in range(n)
    )
    return ForneyGraph((2,) * n, factors)


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
        assert not out.is_nonnegative()

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


class TestCheckConstraint:
    def test_conjugate_pair_is_exact(self):
        per_var, overall = check_constraint(
            GaugeSet.from_free(cycle_model(), {v: A for v in range(6)})
        )
        assert overall < 1e-12
        assert all(d < 1e-12 for d in per_var.values())

    def test_identity_zero(self):
        _, overall = check_constraint(GaugeSet.identity(cycle_model()))
        assert overall == 0.0

    def test_broken_pair_deviation_half(self):
        g = cycle_model()
        gs = GaugeSet.from_free(g, {v: A for v in range(6)})
        mats = dict(gs.matrices)
        v = 0
        a, b = g.edge_pair(v)
        mats[(v, a)] = np.eye(2)  # leave only the conjugate B on the pair
        broken = GaugeSet(g, mats, gs.free)
        per_var, overall = check_constraint(broken)
        # I^T B - I = B - I has max-magnitude entry 0.5
        assert per_var[v] == pytest.approx(0.5, abs=1e-12)
        assert overall == pytest.approx(0.5, abs=1e-12)


class TestApplyGauges:
    def test_identity_unchanged(self):
        g = cycle_model()
        out = apply_gauges(g, GaugeSet.identity(g))
        for fa, fb in zip(g.factors, out.factors):
            np.testing.assert_allclose(fa.linear(), fb.linear(), rtol=1e-14)

    def test_golden_supplement_model(self):
        g = golden_model()
        gauges = GaugeSet.from_free(g, {v: A for v in range(6)})
        _, dev = check_constraint(gauges)
        assert dev < 1e-12
        out = apply_gauges(g, gauges)
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

    def test_constraint_violated(self):
        g = cycle_model()
        gs = GaugeSet.identity(g)
        mats = dict(gs.matrices)
        mats[(0, g.edge_pair(0)[0])] = np.array([[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ConstraintViolated):
            apply_gauges(g, GaugeSet(g, mats, gs.free))


class TestRandomValidGauges:
    def test_scale_zero_identity(self):
        g = cycle_model()
        gs = random_valid_gauges(g, scale=0.0, seed=3)
        for mat in gs.matrices.values():
            np.testing.assert_array_equal(mat, np.eye(2))

    def test_constraint_tight(self):
        g = cycle_model()
        gs = random_valid_gauges(g, scale=0.2, seed=1)
        _, dev = check_constraint(gs)
        assert dev < 1e-12

    def test_condition_bounded(self):
        g = cycle_model()
        gs = random_valid_gauges(g, scale=0.5, seed=2)
        for (v, fid), mat in gs.matrices.items():
            if gs.free[v] == fid:
                assert np.linalg.cond(mat) < 1e3

    def test_generation_failed_when_impossible(self):
        g = cycle_model()
        with pytest.raises(GenerationFailed):
            random_valid_gauges(g, scale=1e9, seed=0, cond_limit=1.0 + 1e-9)


class TestReparam:
    def test_zero_sum_enforced(self):
        g = cycle_model()
        a, b = g.edge_pair(0)
        thetas = {(v, fid): np.zeros(2) for v in range(6)
                  for fid in g.edge_pair(v)}
        thetas[(0, a)] = np.array([0.1, -0.2])
        with pytest.raises(ValueError):
            Reparam(g, thetas)

    def test_from_free_cancels(self):
        g = cycle_model()
        r = Reparam.from_free(g, {v: np.array([0.3, -0.7])
                                  for v in range(6)})
        for v in range(6):
            a, b = g.edge_pair(v)
            np.testing.assert_allclose(
                r.thetas[(v, a)] + r.thetas[(v, b)], 0.0, atol=1e-15
            )

    def test_as_gauges_diagonal_example(self):
        g = cycle_model()
        r = Reparam.from_free(
            g, {v: np.log(np.array([2.0, 3.0])) for v in range(6)}
        )
        gs = reparam_as_gauges(r)
        a, b = g.edge_pair(0)
        np.testing.assert_allclose(gs.matrices[(0, a)],
                                   np.diag([2.0, 3.0]), rtol=1e-14)
        np.testing.assert_allclose(gs.matrices[(0, b)],
                                   np.diag([0.5, 1 / 3.0]), rtol=1e-14)
        _, dev = check_constraint(gs)
        assert dev < 1e-12

    def test_matches_direct_scaling(self):
        g = cycle_model(seed=9)
        vec = np.array([0.4, -0.4])
        v = 2
        a, b = g.edge_pair(v)
        r = Reparam.from_free(g, {v: vec})
        out = apply_gauges(g, reparam_as_gauges(r))
        direct_a = g.factors[a].scale_axis_log(v, vec)
        direct_b = g.factors[b].scale_axis_log(v, -vec)
        np.testing.assert_allclose(out.factors[a].linear(),
                                   direct_a.linear(), rtol=1e-12)
        np.testing.assert_allclose(out.factors[b].linear(),
                                   direct_b.linear(), rtol=1e-12)
        assert brute_z(out).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-12
        )
