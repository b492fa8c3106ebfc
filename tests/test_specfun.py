"""Incomplete gamma/beta implementations against quadrature and scipy."""

import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from crmimo.specfun import regularized_incomplete_beta, regularized_lower_gamma


def gamma_quad(k, x):
    # direct numerical integral of the regularized lower gamma
    norm = math.lgamma(k)
    val, err = quad(lambda t: math.exp((k - 1) * math.log(t) - t - norm)
                    if t > 0 else 0.0, 0.0, x, limit=200)
    return val, err


def beta_quad(x, a, b):
    norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    val, err = quad(lambda t: math.exp((a - 1) * math.log(t)
                                       + (b - 1) * math.log1p(-t) - norm)
                    if 0 < t < 1 else 0.0, 0.0, x, limit=200)
    return val, err


class TestGammaIdentities:
    def test_boundaries(self):
        assert regularized_lower_gamma(3.7, 0.0) == 0.0
        assert regularized_lower_gamma(3.7, math.inf) == 1.0

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.5, 10.0])
    def test_shape_one_is_exponential(self, x):
        assert regularized_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-14)

    def test_half_shape_is_erf(self):
        for x in (0.1, 1.0, 4.0):
            expect = math.erf(math.sqrt(x))
            assert regularized_lower_gamma(0.5, x) == pytest.approx(expect, rel=1e-13)

    def test_recurrence(self):
        # P(k+1,x) = P(k,x) - x^k e^-x / Gamma(k+1)
        for k, x in [(2.0, 1.5), (5.5, 3.0), (10.0, 20.0)]:
            lhs = regularized_lower_gamma(k + 1, x)
            rhs = regularized_lower_gamma(k, x) - math.exp(
                k * math.log(x) - x - math.lgamma(k + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_series_cf_seam(self):
        # both branches agree around the switch point x = k + 1
        for k in (0.7, 3.0, 42.0):
            seam = k + 1.0
            lo = regularized_lower_gamma(k, seam * (1 - 1e-9))
            hi = regularized_lower_gamma(k, seam * (1 + 1e-9))
            assert abs(hi - lo) < 1e-7

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(math.nan, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(2.0, -0.5)
        with pytest.raises(ValueError):
            regularized_lower_gamma(2.0, math.nan)


class TestBetaIdentities:
    def test_boundaries(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    @pytest.mark.parametrize("x", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_uniform_case(self, x):
        assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_symmetry(self):
        for x, a, b in [(0.3, 2.0, 5.0), (0.77, 11.5, 0.8), (0.5, 4.0, 4.0)]:
            lhs = regularized_incomplete_beta(x, a, b)
            rhs = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_power_case(self):
        # I_x(a, 1) = x^a
        for x, a in [(0.4, 3.0), (0.9, 0.5), (0.2, 7.0)]:
            assert regularized_incomplete_beta(x, a, 1.0) == pytest.approx(x ** a, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(math.nan, 1.0, 1.0)


class TestAgainstScipy:
    def test_gamma_dense_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            k = float(rng.uniform(0.05, 2000.0))
            x = float(rng.uniform(0.0, 3.0) * k)
            got = regularized_lower_gamma(k, x)
            expect = float(scipy.special.gammainc(k, x))
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-12)

    def test_beta_dense_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            a = float(rng.uniform(0.05, 500.0))
            b = float(rng.uniform(0.05, 500.0))
            x = float(rng.uniform(0.0, 1.0))
            got = regularized_incomplete_beta(x, a, b)
            expect = float(scipy.special.betainc(a, b, x))
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-12)


class TestAgainstQuadrature:
    def test_gamma_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            k = float(rng.uniform(0.3, 80.0))
            x = float(rng.uniform(0.05, 2.5) * k)
            got = regularized_lower_gamma(k, x)
            expect, err = gamma_quad(k, x)
            assert abs(got - expect) <= max(1e-10, 10 * err)

    def test_beta_quadrature(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            a = float(rng.uniform(0.5, 60.0))
            b = float(rng.uniform(0.5, 60.0))
            x = float(rng.uniform(0.02, 0.98))
            got = regularized_incomplete_beta(x, a, b)
            expect, err = beta_quad(x, a, b)
            assert abs(got - expect) <= max(1e-10, 10 * err)


class TestProperties:
    def test_gamma_monotone_and_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            k = float(rng.uniform(0.1, 300.0))
            xs = np.sort(rng.uniform(0.0, 4.0, size=4) * k)
            vals = [regularized_lower_gamma(k, float(x)) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_beta_monotone_and_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            a = float(rng.uniform(0.1, 100.0))
            b = float(rng.uniform(0.1, 100.0))
            xs = np.sort(rng.uniform(0.0, 1.0, size=4))
            vals = [regularized_incomplete_beta(float(x), a, b) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(hi >= lo - 1e-14 for lo, hi in zip(vals, vals[1:]))


def scalar_map(fn, *args):
    """fn called element by element with Python floats, over the broadcast shape."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    flat = zip(*(v.ravel().tolist() for v in arrays))
    return np.array([fn(*vals) for vals in flat]).reshape(arrays[0].shape)


class TestArrayForms:
    """An array argument gives exactly the scalar result of every element."""

    def gamma_grid(self):
        rng = np.random.default_rng(41)
        k = np.exp(rng.uniform(math.log(0.05), math.log(2000.0), size=(32, 32)))
        x = rng.uniform(0.0, 3.0, size=k.shape) * k
        seam = k[:4] + 1.0  # series below x = k + 1, continued fraction from it
        x[:4] = seam
        x[4:8] = np.nextafter(seam, 0.0)
        x[8:12] = np.nextafter(seam, np.inf)
        x[12, :8] = 0.0
        x[12, 8:16] = np.inf
        return k, x

    def beta_grid(self):
        rng = np.random.default_rng(42)
        a = np.exp(rng.uniform(math.log(0.05), math.log(500.0), size=(32, 32)))
        b = np.exp(rng.uniform(math.log(0.05), math.log(500.0), size=a.shape))
        x = rng.uniform(0.0, 1.0, size=a.shape)
        switch = (a[:4] + 1.0) / (a[:4] + b[:4] + 2.0)  # symmetry switch
        x[:4] = switch
        x[4:8] = np.nextafter(switch, 0.0)
        x[8:12] = np.nextafter(switch, 1.0)
        x[12, :8] = 0.0
        x[12, 8:16] = 1.0
        return x, a, b

    def test_gamma_equals_scalar(self):
        k, x = self.gamma_grid()
        got = regularized_lower_gamma(k, x)
        assert got.shape == k.shape
        assert np.array_equal(got, scalar_map(regularized_lower_gamma, k, x))

    def test_beta_equals_scalar(self):
        x, a, b = self.beta_grid()
        got = regularized_incomplete_beta(x, a, b)
        assert got.shape == x.shape
        assert np.array_equal(got, scalar_map(regularized_incomplete_beta, x, a, b))

    @pytest.mark.parametrize("n", [1, 7, 256, 1024])
    def test_broadcast_shapes(self, n):
        # a float shape against an array argument, and the other way round
        x = np.linspace(0.0, 30.0, n)
        assert np.array_equal(regularized_lower_gamma(10.0, x),
                              scalar_map(regularized_lower_gamma, 10.0, x))
        k = np.linspace(0.5, 40.0, n)
        assert np.array_equal(regularized_lower_gamma(k, 12.0),
                              scalar_map(regularized_lower_gamma, k, 12.0))
        u = np.linspace(0.0, 1.0, n)
        assert np.array_equal(regularized_incomplete_beta(u, 54.0, 3.3),
                              scalar_map(regularized_incomplete_beta, u, 54.0, 3.3))

    def test_empty(self):
        assert regularized_lower_gamma(2.0, np.array([])).shape == (0,)
        assert regularized_incomplete_beta(np.array([]), 2.0, 3.0).shape == (0,)

    @pytest.mark.parametrize("fn,scalar_args,array_args", [
        (regularized_lower_gamma, (-2.0, 1.0), (np.array([1.0, -2.0, 3.0]), 1.0)),
        (regularized_lower_gamma, (2.0, math.nan), (2.0, np.array([0.5, math.nan]))),
        (regularized_incomplete_beta, (1.5, 2.0, 3.0), (np.array([0.5, 1.5]), 2.0, 3.0)),
        (regularized_incomplete_beta, (0.5, 2.0, math.inf), (0.5, 2.0, np.array([1.0, math.inf]))),
    ])
    def test_domain_error_is_the_scalar_one(self, fn, scalar_args, array_args):
        with pytest.raises(ValueError) as scalar:
            fn(*scalar_args)
        with pytest.raises(ValueError) as array:
            fn(*array_args)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("fn,args", [
        # a huge shape just below the seam needs far more than MAX_ITER series terms
        (regularized_lower_gamma, (1e6, 0.99e6)),
        # huge equal shapes at the symmetry switch: the continued fraction is too slow
        (regularized_incomplete_beta, (0.5, 1e8, 1e8)),
    ])
    def test_no_convergence_is_the_scalar_error(self, fn, args):
        with pytest.raises(ArithmeticError) as scalar:
            fn(*args)
        with pytest.raises(ArithmeticError) as array:
            fn(*(np.array([0.25, v]) for v in args))
        assert str(array.value) == str(scalar.value)
