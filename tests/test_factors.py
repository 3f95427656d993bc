"""Signed log-magnitude values and factor tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmbe import Factor
from gmbe.factors import (
    expand_to,
    multiply_factors,
    product_over,
    signed_sum_axes,
)


class TestFactor:
    def test_from_linear_and_back(self):
        vals = np.array([[1.0, -2.0], [0.0, 4.0]])
        f = Factor.from_linear((0, 1), (2, 2), vals)
        np.testing.assert_allclose(f.linear(), vals)
        assert not (f.sign >= 0).all()
        assert f.arity == 2

    def test_sign_zero_iff_neginf(self):
        f = Factor.from_linear((0,), (3,), np.array([1.0, 0.0, -2.0]))
        assert f.sign[1] == 0
        assert np.isneginf(f.logmag[1])
        assert f.sign[0] == 1 and f.sign[2] == -1

    def test_duplicate_scope_rejected(self):
        with pytest.raises(ValueError):
            Factor.from_linear((0, 0), (2, 2), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Factor.from_linear((0, 1), (2, 3), np.ones((2, 2)))

    def test_axis_of(self):
        f = Factor.uniform((4, 2, 9), (2, 3, 2))
        assert f.axis_of(2) == 1
        assert f.axis_of(9) == 2
        with pytest.raises(ValueError):
            f.axis_of(5)

    def test_equality_factor(self):
        f = Factor.equality((0, 1, 2), 2)
        lin = f.linear()
        assert lin[0, 0, 0] == 1 and lin[1, 1, 1] == 1
        assert lin.sum() == 2
        assert (f.sign[lin == 0] == 0).all()

    def test_uniform(self):
        f = Factor.uniform((3,), (4,))
        np.testing.assert_array_equal(f.linear(), np.ones(4))

    def test_scale_axis_log(self):
        f = Factor.from_linear((0, 1), (2, 2),
                               np.array([[1.0, 2.0], [3.0, -4.0]]))
        g = f.scale_axis_log(1, np.log(np.array([2.0, 5.0])))
        np.testing.assert_allclose(
            g.linear(), [[2.0, 10.0], [6.0, -20.0]], rtol=1e-14
        )


class TestCombination:
    def test_expand_to(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = expand_to(arr, (1, 3), (0, 1, 3))
        assert out.shape == (1, 2, 2)
        np.testing.assert_array_equal(np.broadcast_to(out, (5, 2, 2))[3],
                                      arr)

    def test_product_over_matches_linear(self):
        rng = np.random.default_rng(7)
        fa = Factor.from_linear((0, 1), (2, 3), rng.normal(size=(2, 3)))
        fb = Factor.from_linear((1, 2), (3, 2), rng.normal(size=(3, 2)))
        sign, logmag = product_over([fa, fb], (0, 1, 2), (2, 3, 2))
        got = sign * np.exp(logmag)
        want = fa.linear()[:, :, None] * fb.linear()[None, :, :]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_signed_sum_axes_mixed_signs(self):
        vals = np.array([[1.0, -3.0], [2.0, 4.0]])
        f = Factor.from_linear((0, 1), (2, 2), vals)
        res = signed_sum_axes(f.sign, f.logmag, (0,))
        got = res.sign * np.exp(res.logmag) if np.ndim(res) == 0 else None
        sign, logmag = res
        np.testing.assert_allclose(sign * np.exp(logmag), vals.sum(axis=0),
                                   rtol=1e-14)

    def test_signed_sum_cancellation(self):
        vals = np.array([5.0, -5.0])
        f = Factor.from_linear((0,), (2,), vals)
        sign, logmag = signed_sum_axes(f.sign, f.logmag, (0,))
        assert sign == 0
        assert np.isneginf(logmag)

    def test_multiply_factors(self):
        rng = np.random.default_rng(3)
        fa = Factor.from_linear((2, 0), (2, 2), rng.uniform(1, 2, (2, 2)))
        fb = Factor.from_linear((1, 2), (2, 2), rng.uniform(1, 2, (2, 2)))
        prod = multiply_factors([fa, fb])
        assert prod.scope == (0, 1, 2)
        want = (np.transpose(fa.linear())[:, None, :]
                * fb.linear()[None, :, :].transpose(0, 2, 1).transpose(
                    0, 2, 1))
        got = prod.linear()
        for x0 in range(2):
            for x1 in range(2):
                for x2 in range(2):
                    assert got[x0, x1, x2] == pytest.approx(
                        fa.linear()[x2, x0] * fb.linear()[x1, x2],
                        rel=1e-13,
                    )

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_product_random_property(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(2, 2)) * rng.choice([0.0, 1.0], (2, 2),
                                                    p=[0.2, 0.8])
        f = Factor.from_linear((0, 1), (2, 2), vals)
        np.testing.assert_allclose(f.linear(), vals, atol=1e-300)
