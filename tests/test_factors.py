"""Signed log-magnitude values and factor tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmbe import Factor
from gmbe.elimination import _lse_axis
from gmbe.factors import (
    _normalize_pair,
    expand_to,
    multiply_factors,
    product_over,
    signed_sum_axes,
)

OFFSETS = (0.0, 700.0, -700.0)


def signed_table(vals, offset=0.0):
    """(sign, log|vals| + offset) of a linear table."""
    vals = np.asarray(vals, dtype=float)
    f = Factor.from_linear(tuple(range(vals.ndim)), vals.shape, vals)
    return f.sign, f.logmag + offset


def fsum_reference(sign, logmag, axes):
    """(sign, log|sum|) over ``axes``, each slice summed by math.fsum
    after one shift common to the whole table."""
    finite = logmag[np.isfinite(logmag)]
    shift = finite.max() if finite.size else 0.0
    vals = sign * np.exp(logmag - shift)
    kept = [ax for ax in range(vals.ndim) if ax not in axes]
    rows = np.transpose(vals, kept + list(axes)).reshape(
        [vals.shape[ax] for ax in kept] + [-1])
    totals = np.apply_along_axis(math.fsum, -1, rows)
    with np.errstate(divide="ignore"):
        return np.sign(totals), np.log(np.abs(totals)) + shift


def log_atol(offset):
    """Absolute tolerance on a log result near ``offset``: 1e-14 plus
    four units in the last place of the offset."""
    return 1e-14 + 4 * np.spacing(abs(offset))


def assert_matches_fsum(sign, logmag, axes):
    got_sign, got_log = signed_sum_axes(sign, logmag, axes)
    want_sign, want_log = fsum_reference(sign, logmag, axes)
    finite = logmag[np.isfinite(logmag)]
    offset = np.abs(finite).max() if finite.size else 0.0
    np.testing.assert_array_equal(got_sign, want_sign)
    np.testing.assert_allclose(got_log, want_log, rtol=0,
                               atol=log_atol(offset))
    assert ((got_sign == 0) == np.isneginf(got_log)).all()


def bitwise_equal(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and (x.view(np.int64) == y.view(np.int64)).all()


def random_table(rng, signed):
    """(sign, logs) of a small random table, sometimes transposed, with
    ties, zero slices and offsets of +-700.  A signed table has sign 0
    (and log -inf) at its zeros; an unsigned one has no sign table and
    holds -inf and +inf logs instead."""
    shape = tuple(int(c) for c in rng.integers(1, 5, rng.integers(1, 5)))
    logs = rng.normal(size=shape) * rng.choice([1.0, 10.0, 700.0])
    if rng.random() < 0.3:
        logs = np.round(logs)                       # ties at the maximum
    logs += rng.choice([0.0, 700.0, -700.0])
    if signed:
        sign = rng.choice([-1.0, 0.0, 1.0], shape, p=[0.3, 0.2, 0.5])
        sign, logs = _normalize_pair(sign, logs)
    else:
        sign = None
        logs[rng.random(shape) < 0.4] = -np.inf
        logs[rng.random(shape) < 0.05] = np.inf
    if rng.random() < 0.3:
        logs = logs.T
        sign = None if sign is None else sign.T
    return sign, logs


_RNG = np.random.default_rng(11)
RANDOM_VALS = _RNG.normal(size=(3, 4, 2)) * _RNG.choice(
    [0.0, 1.0], (3, 4, 2), p=[0.2, 0.8])


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
        # a -inf log is a zero entry, not a bad value
        f = Factor.from_log((0,), (2,), [-np.inf, 0.0])
        np.testing.assert_array_equal(f.sign, [0.0, 1.0])

    def test_duplicate_scope_rejected(self):
        with pytest.raises(ValueError):
            Factor.from_linear((0, 0), (2, 2), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Factor.from_linear((0, 1), (2, 3), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_linear_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Factor.from_linear((0,), (2,), [bad, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_log_rejects_nan_and_plus_inf(self, bad):
        with pytest.raises(ValueError):
            Factor.from_log((0,), (2,), [bad, 0.0])

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

    def test_product_over_empty(self):
        sign, logmag = product_over([], (), ())
        assert sign.shape == logmag.shape == ()
        assert sign == 1.0 and logmag == 0.0

    def test_signed_sum_axes_mixed_signs(self):
        vals = np.array([[1.0, -3.0], [2.0, 4.0]])
        sign, logmag = signed_sum_axes(*signed_table(vals), (0,))
        np.testing.assert_allclose(sign * np.exp(logmag), vals.sum(axis=0),
                                   rtol=1e-14)
        for offset in OFFSETS[1:]:
            sign, logmag = signed_sum_axes(*signed_table(vals, offset), (0,))
            np.testing.assert_array_equal(sign, [1.0, 1.0])
            np.testing.assert_allclose(logmag - offset, np.log([3.0, 1.0]),
                                       rtol=0, atol=log_atol(offset))

    def test_signed_sum_cancellation(self):
        for vals in ([5.0, -5.0],                             # exact
                     [[5.0, -5.0, 1.0], [-2.0, 2.0, -0.25]],  # at the max
                     [[0.0, 0.0, 0.0], [1.0, -0.5, 0.0]]):    # all zero
            for offset in OFFSETS:
                sign, logmag = signed_table(vals, offset)
                assert_matches_fsum(sign, logmag, (np.ndim(vals) - 1,))

    @pytest.mark.parametrize("sign,logmag,want", [
        ([1.0, -1.0, 1.0], [800.0, 800.0, 799.0], (1.0, 799.0)),
        ([1.0, -1.0, -1.0], [800.0, 800.0, 799.0], (-1.0, 799.0)),
        ([1.0, -1.0], [800.0, 800.0], (0.0, -np.inf)),
    ], ids=["rest-positive", "rest-negative", "exact"])
    def test_signed_sum_cancellation_past_overflow(self, sign, logmag, want):
        # exp(800) overflows, so the direct sum is inf - inf; the slice
        # must be summed shifted by its maximum
        sign, logmag = np.array(sign), np.array(logmag)
        assert_matches_fsum(sign, logmag, (0,))
        got_sign, got_log = signed_sum_axes(sign, logmag, (0,))
        assert got_sign == want[0]
        assert got_log == pytest.approx(want[1], abs=log_atol(800.0))

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("vals,axes", [
        *[(RANDOM_VALS, (ax,)) for ax in range(3)],
        (RANDOM_VALS, (0, 2)),
        ([[2.0, -2.0, 2.0, 1.0], [3.0, 3.0, -1.0, 0.5]], (1,)),
    ], ids=["random-0", "random-1", "random-2", "random-02", "ties"])
    def test_signed_sum_axes_matches_fsum(self, vals, axes, offset):
        assert_matches_fsum(*signed_table(vals, offset), axes)

    def test_signed_sum_axes_bitwise_equals_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(5)
        for _ in range(500):
            sign, logs = random_table(rng, signed=True)
            axes = tuple(sorted({int(a) for a in
                                 rng.integers(0, logs.ndim, 2)}))
            with np.errstate(all="ignore"):
                want_log, want_sign = special.logsumexp(
                    logs, axis=axes, b=sign, return_sign=True)
            want_sign, want_log = _normalize_pair(want_sign, want_log)
            got_sign, got_log = signed_sum_axes(sign, logs, axes)
            assert bitwise_equal(got_sign, want_sign)
            assert bitwise_equal(got_log, want_log)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("axes", [0, 1, 2, (0, 2)])
    def test_sign_free_sum_bitwise_equals_signed(self, axes, offset):
        # a None sign must give the log of the sign 1 where the log is
        # finite and 0 at its zeros, and a sign that follows it
        rng = np.random.default_rng(17)
        summed = axes if isinstance(axes, tuple) else (axes,)
        for _ in range(50):
            logs = rng.normal(size=(3, 4, 2)) * rng.choice([1.0, 10.0])
            if rng.random() < 0.5:
                logs = np.round(logs)                   # ties at the max
            logs += offset
            logs[rng.random(logs.shape) < 0.2] = -np.inf
            # one slice all -inf
            logs[tuple(slice(None) if ax in summed
                       else int(rng.integers(0, n))
                       for ax, n in enumerate(logs.shape))] = -np.inf
            sign = (logs > -np.inf).astype(float)
            want_sign, want_log = signed_sum_axes(sign, logs, axes)
            got_sign, got_log = signed_sum_axes(None, logs, axes)
            assert got_sign is None
            assert bitwise_equal(got_log, want_log)
            assert bitwise_equal(want_sign, want_log > -np.inf)
            assert np.isneginf(want_log).any()

    def test_lse_fallback_bitwise_equals_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(6)
        for _ in range(500):
            _, logs = random_table(rng, signed=False)
            axis = int(rng.integers(0, logs.ndim))
            # an all -inf slice or a +inf entry leaves the fast path
            first = [0] * logs.ndim
            if rng.random() < 0.5:
                first[axis] = slice(None)
                logs[tuple(first)] = -np.inf
            else:
                logs[tuple(first)] = np.inf
            with np.errstate(all="ignore"):
                want = special.logsumexp(logs, axis=axis)
                got = _lse_axis(logs, axis)
            assert bitwise_equal(got, want)

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
