"""Closed-form distribution models against sampling and quadrature oracles."""

import dataclasses
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import gamma as gamma_dist

import crmimo.analytics as analytics
from crmimo.analytics import (
    EqualPowerOptimum,
    GammaParams,
    GenFParams,
    InverseGammaParams,
    PointMassParams,
    equal_power_bounds,
    expected_max_eig,
    meb_interference_cdf,
    meb_sinr_cdf,
    meb_sinr_params,
    optimize_equal_power,
    q_k,
    zfb_interference_cdf,
    zfb_sinr_cdf,
    zfb_sinr_exact_cdf,
    zfb_sinr_params,
)
from crmimo.beamforming import MEB, ZFB, AntennaShortageError, compute_zfb
from crmimo.network import NetworkConfig, generate_channels

BASE = NetworkConfig()  # m_b=64, m_u=4, k_su=10, l_tx=l_rx=1

# E[lambda_max] of H H^H, H m_u x m_b with CN(0, 1) entries: the exact law,
# det(I - A(x)) with A(x) in closed form through upper incomplete gammas,
# integrated by mpmath at 40 digits and, from (4, 12) on, again at 60 (the
# two agree in all 30 printed digits); the first four are exact rationals
EXACT_MEANS = {
    (2, 2): 3.5,
    (2, 3): 4.875,
    (2, 4): 99 / 16,
    (3, 3): 313 / 48,
    (4, 12): 21.58256918653215330372801,
    (4, 64): 85.13659801241927985066289,
    (4, 100): 126.2063327022452397548459,
    (5, 300): 354.6425609285483209048043,
    (4, 1000): 1080.908543462587479279629,
    (6, 50): 77.21770865530002416235987,
}


def shipped_table():
    """{(m_u, m_b): (mean, stderr)} of the shipped Wishart table file."""
    text = resources.files("crmimo").joinpath("data/wishart_means.txt").read_text()
    rows = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    return {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows}


def ks_against(samples, cdf):
    xs = np.sort(samples)
    n = xs.size
    f = np.array([cdf(float(x)) for x in xs])
    hi = np.arange(1, n + 1) / n
    lo = hi - 1.0 / n  # as EmpiricalCdf.ks_distance forms them, so the two agree bit for bit
    return float(max(np.max(np.abs(f - hi)), np.max(np.abs(f - lo))))


class TestDistributionPrimitives:
    def test_gamma_cdf_matches_quadrature(self):
        g = GammaParams(shape=3.2, scale=0.7)
        norm = math.lgamma(3.2) + 3.2 * math.log(0.7)
        for x in (0.5, 2.0, 6.0):
            expect, err = quad(
                lambda t: math.exp(2.2 * math.log(t) - t / 0.7 - norm), 0, x)
            assert g.cdf(x) == pytest.approx(expect, abs=max(1e-12, 10 * err))
        assert g.cdf(0.0) == 0.0 and g.cdf(-1.0) == 0.0

    def test_inverse_gamma_reciprocal_identity(self):
        ig = InverseGammaParams(shape=4.0, theta=0.5)
        g = GammaParams(shape=4.0, scale=0.5)
        for s in (0.2, 1.0, 5.0):
            assert ig.cdf(s) == pytest.approx(1.0 - g.cdf(1.0 / s), abs=1e-14)

    def test_inverse_gamma_median_sampling(self):
        ig = InverseGammaParams(shape=3.0, theta=0.8)
        rng = np.random.default_rng(5)
        draws = 1.0 / (rng.gamma(3.0, 0.8, size=200_000))
        ks = ks_against(np.sort(draws)[::200], ig.cdf)  # thin to keep it fast
        assert ks < 0.05
        med = float(np.median(draws))
        assert ig.cdf(med) == pytest.approx(0.5, abs=0.01)

    def test_genf_is_gamma_ratio(self):
        p = GenFParams(k_n=5.0, k_d=3.0, lam=2.0)
        rng = np.random.default_rng(6)
        n = 1_000_000
        # lam = theta_d/theta_n; draw with theta_n = 1, theta_d = lam
        w = rng.gamma(5.0, 1.0, n)
        d = rng.gamma(3.0, 2.0, n)
        samples = np.sort(w / d)
        ks = ks_against(samples[::1000], p.cdf)
        assert ks < 0.01
        assert p.cdf(0.0) == 0.0 and p.cdf(math.inf) == 1.0

    # 1/0 and an overflow at a valid extreme point must not warn in any form
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", [float, np.float64, lambda s: np.array([s])],
                             ids=["float", "float64", "array"])
    def test_inverse_gamma_where_s_theta_underflows(self, form):
        # 5e-324 * 0.5 rounds to 0, so 1/(s theta) is inf and the CDF is 0
        ig = InverseGammaParams(shape=3.0, theta=0.5)
        for cdf in (ig.cdf, lambda s: meb_sinr_cdf(ig, s)):
            got = cdf(form(5e-324))
            assert np.shape(got) == np.shape(form(5e-324)) and got == 0.0
            assert cdf(form(1e-3)) == ig.cdf(1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", [float, np.float64, lambda s: np.array([s])],
                             ids=["float", "float64", "array"])
    def test_genf_where_lam_s_overflows(self, form):
        # 10 * 1e308 overflows to inf, where the CDF is 1
        law = GenFParams(k_n=2.0, k_d=3.0, lam=10.0)
        for cdf in (law.cdf, lambda s: zfb_sinr_cdf(law, s)):
            got = cdf(form(1e308))
            assert np.shape(got) == np.shape(form(1e308)) and got == 1.0
            assert cdf(form(1e-3)) == law.cdf(1e-3)
        assert np.array_equal(law.cdf(np.array([1e308, 1e-3, math.inf])),
                              [1.0, law.cdf(1e-3), 1.0])

    @pytest.mark.filterwarnings("error")
    def test_array_overflow_does_not_warn(self):
        # x/scale and s theta overflow to inf at valid points, as Python floats do silently
        for law, big in ((GammaParams(shape=3.0, scale=1e-10), 1e300),
                         (InverseGammaParams(shape=3.0, theta=1e10), 1e300)):
            assert law.cdf(big) == 1.0
            assert np.array_equal(law.cdf(np.array([big, 1e-3])), [1.0, law.cdf(1e-3)])

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaParams(shape=0.0, scale=1.0)
        with pytest.raises(ValueError):
            InverseGammaParams(shape=1.0, theta=-1.0)
        with pytest.raises(ValueError):
            GenFParams(k_n=0.5, k_d=1.0, lam=1.0)  # k_n below 1
        with pytest.raises(ValueError):
            GenFParams(k_n=2.0, k_d=math.inf, lam=1.0)


class TestWishartMeans:
    def test_single_row_is_exact(self):
        assert expected_max_eig(1, 7) == 7.0
        assert expected_max_eig(1, 7, sigma2_h=2.5) == 17.5

    def test_linear_scaling(self):
        base = expected_max_eig(4, 64)
        assert expected_max_eig(4, 64, sigma2_h=3.0) == pytest.approx(3 * base, rel=1e-12)

    def test_shipped_value_against_fresh_estimate(self):
        # independent RNG stream, same statistic
        rng = np.random.default_rng(987654321)
        n = 20_000
        h = (rng.standard_normal((n, 4, 64)) + 1j * rng.standard_normal((n, 4, 64))) / np.sqrt(2)
        top = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))[:, -1]
        fresh = top.mean()
        cached = expected_max_eig(4, 64)
        assert abs(cached - fresh) / fresh < 0.005

    @pytest.mark.parametrize("shape,exact", EXACT_MEANS.items())
    def test_exact_law_against_high_precision(self, shape, exact):
        assert analytics._exact_max_eig(*shape) == pytest.approx(exact, rel=1e-11, abs=0)

    def test_shipped_rows_read_the_table_bit_for_bit(self):
        for (m_u, m_b), (mean, _) in shipped_table().items():
            for sigma2_h in (1.0, 2.5):
                assert expected_max_eig(m_u, m_b, sigma2_h) == sigma2_h * mean
                assert expected_max_eig(m_b, m_u, sigma2_h) == sigma2_h * mean

    def test_shipped_rows_within_three_stderr_of_exact_law(self):
        z = {shape: (mean - analytics._exact_max_eig(*shape)) / stderr
             for shape, (mean, stderr) in shipped_table().items()}
        assert len(z) == 27
        assert max(abs(v) for v in z.values()) < 3.0, z

    def test_unshipped_shape_takes_the_exact_law_once(self):
        analytics._exact_max_eig.cache_clear()
        assert expected_max_eig(5, 300) == pytest.approx(EXACT_MEANS[(5, 300)], rel=1e-11)
        assert expected_max_eig(300, 5, sigma2_h=2.0) == 2.0 * expected_max_eig(5, 300)
        info = analytics._exact_max_eig.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_exact_law_is_quiet(self):
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for shape in [(2, 2), (3, 3), (6, 6), (2, 3), (6, 1024)]:
                analytics._exact_max_eig.__wrapped__(*shape)

    @pytest.mark.parametrize("m_u,m_b", [(2.5, 4), (True, 4), (np.True_, 4), (4, False),
                                         (1, 7.5), (4, math.inf)])
    def test_shape_must_be_integral(self, m_u, m_b):
        with pytest.raises(ValueError, match="must be an integer"):
            expected_max_eig(m_u, m_b)

    def test_numpy_integers_accepted(self):
        assert expected_max_eig(np.int64(4), np.int32(64)) == expected_max_eig(4, 64)
        assert expected_max_eig(np.int64(1), np.int64(7)) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_max_eig(0, 4)
        # H H^H and H^H H share their largest eigenvalue
        assert expected_max_eig(8, 4) == expected_max_eig(4, 8)
        with pytest.raises(ValueError):
            expected_max_eig(2, 4, sigma2_h=0.0)


def meb_aggregates(cfg, p_eq):
    """Mean a, second moment b and constant c of the MEB reciprocal SINR."""
    pe = p_eq * expected_max_eig(cfg.m_u, cfg.m_b, cfg.sigma2_h)
    a = cfg.l_tx * cfg.p_p * cfg.sigma2_h / pe + (cfg.k_su - 1) / cfg.m_b
    b = cfg.l_tx * (cfg.p_p * cfg.sigma2_h / pe) ** 2 + (cfg.k_su - 1) / cfg.m_b ** 2
    return a, b, cfg.sigma2_w / pe


class TestMebSinrModel:
    def test_moment_identities(self):
        law = meb_sinr_params(BASE, 0.5)
        a, b, c = meb_aggregates(BASE, 0.5)
        assert law.shape * law.theta == pytest.approx(c + a, rel=1e-12)
        assert law.shape * law.theta ** 2 == pytest.approx(b, rel=1e-12)

    def test_aggregates_closed_form(self):
        cfg = NetworkConfig(m_b=64, m_u=4, k_su=10, l_tx=1, p_p=1.0, sigma2_h=1.0)
        p_eq = 0.25
        e = expected_max_eig(4, 64)
        a = 1.0 / (p_eq * e) + 9 / 64
        b = 1.0 / (p_eq * e) ** 2 + 9 / 64 ** 2
        c = 1.0 / (p_eq * e)
        assert meb_aggregates(cfg, p_eq) == pytest.approx((a, b, c), rel=1e-12)
        law = meb_sinr_params(cfg, p_eq)
        assert law.shape == pytest.approx((c + a) ** 2 / b, rel=1e-12)
        assert law.theta == pytest.approx(b / (c + a), rel=1e-12)

    def test_point_mass_branch(self):
        cfg = NetworkConfig(k_su=1, l_tx=0)
        law = meb_sinr_params(cfg, 2.0)
        assert isinstance(law, PointMassParams)
        e = expected_max_eig(4, 64)
        assert law.value == pytest.approx(2.0 * e / cfg.sigma2_w, rel=1e-12)
        assert meb_sinr_cdf(law, law.value * 0.99) == 0.0
        assert meb_sinr_cdf(law, law.value) == 1.0

    def test_cdf_sampling_oracle(self):
        # draw the modeled quantity itself: 1/(c + z), z ~ Gamma(a^2/b, b/a)
        law = meb_sinr_params(BASE, 0.5)
        a, b, c = meb_aggregates(BASE, 0.5)
        rng = np.random.default_rng(8)
        z = rng.gamma(a ** 2 / b, b / a, 400_000)
        sinr = 1.0 / (c + z)
        # the law gammafies c + z; verify its CDF matches the two-moment fit
        ks = ks_against(np.sort(sinr)[::400], lambda s: meb_sinr_cdf(law, s))
        assert ks < 0.05  # moment matching, not exact: loose bar

    def test_cdf_monotone(self):
        law = meb_sinr_params(BASE, 0.5)
        ss = np.logspace(-3, 2, 40)
        vals = [meb_sinr_cdf(law, float(s)) for s in ss]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[0] >= 0 and vals[-1] <= 1

    def test_accepts_raw_params(self):
        law = meb_sinr_params(BASE, 0.5)
        raw = InverseGammaParams(shape=law.shape, theta=law.theta)
        assert meb_sinr_cdf(raw, 1.0) == meb_sinr_cdf(law, 1.0) == law.cdf(1.0)
        assert meb_sinr_cdf(law, 0.0) == 0.0


class TestInterferenceModels:
    def test_meb_gamma_law(self):
        # sum of k_su exponential(p_eq sigma2_h) terms
        cfg = NetworkConfig(k_su=4, sigma2_h=2.0)
        p_eq = 0.3
        rng = np.random.default_rng(9)
        draws = rng.exponential(p_eq * 2.0, size=(200_000, 4)).sum(axis=1)
        ks = ks_against(np.sort(draws)[::200],
                        lambda x: meb_interference_cdf(cfg, p_eq, x))
        assert ks < 0.01

    def test_meb_single_su_exponential(self):
        cfg = NetworkConfig(k_su=1)
        for x in (0.1, 1.0, 3.0):
            expect = 1.0 - math.exp(-x / 0.5)
            assert meb_interference_cdf(cfg, 0.5, x) == pytest.approx(expect, rel=1e-12)

    def test_zfb_error_scale(self):
        cfg = NetworkConfig(k_su=3, sigma2_delta=0.1)
        # same gamma with scale p_eq * sigma2_delta
        g = GammaParams(shape=3.0, scale=0.2 * 0.1)
        for x in (0.01, 0.05, 0.2):
            assert zfb_interference_cdf(cfg, 0.2, x) == pytest.approx(g.cdf(x), rel=1e-12)

    def test_zfb_perfect_csi_step(self):
        cfg = NetworkConfig(sigma2_delta=0.0)
        assert zfb_interference_cdf(cfg, 1.0, 0.0) == 1.0
        assert zfb_interference_cdf(cfg, 1.0, 5.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            meb_interference_cdf(BASE, 0.0, 1.0)
        with pytest.raises(ValueError):
            meb_interference_cdf(BASE, 1.0, -1.0)
        with pytest.raises(ValueError):
            zfb_interference_cdf(BASE, -1.0, 1.0)


class TestZfbSinrModel:
    def test_parameter_plug_in(self):
        cfg = NetworkConfig(m_b=64, m_u=4, k_su=10, l_tx=1, p_p=1.0,
                            sigma2_h=1.0, sigma2_w=1.0)
        p_eq = 0.5
        e = expected_max_eig(4, 64)
        law = zfb_sinr_params(cfg, p_eq)
        assert law.k_n == 64 - 10 - 1 + 1
        # k_d = (1 + 1)^2 / 1 = 4 for one unit-power PU in unit noise
        assert law.k_d == pytest.approx(4.0, rel=1e-12)
        assert law.lam == pytest.approx(64 / (p_eq * e * 2.0), rel=1e-12)
        # ZF nulls the other k_su - 1 streams and the l_rx receiving PUs,
        # so k_n counts l_rx; the transmitting PUs only shape the denominator
        law = zfb_sinr_params(NetworkConfig(l_tx=2, l_rx=0), p_eq)
        assert law.k_n == 64 - 10 - 0 + 1
        # k_d = (1 + 2)^2 / 2 for two unit-power PUs in unit noise
        assert law.k_d == pytest.approx(4.5, rel=1e-12)
        assert law.lam == pytest.approx(2 * 64 / (p_eq * e * 3.0), rel=1e-12)
        law = zfb_sinr_params(NetworkConfig(l_tx=1, l_rx=3), p_eq)
        assert law.k_n == 64 - 10 - 3 + 1
        assert law.k_d == pytest.approx(4.0, rel=1e-12)

    def test_no_pu_reduces_to_gamma(self):
        cfg = NetworkConfig(l_tx=0)  # l_rx stays 1: one PU estimate is nulled
        law = zfb_sinr_params(cfg, 0.5)
        assert isinstance(law, GammaParams)
        e = expected_max_eig(4, 64)
        assert law.shape == 64 - 10 - 1 + 1
        assert law.scale == pytest.approx(0.5 * e / 64, rel=1e-12)
        assert zfb_sinr_cdf(law, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_antenna_floor(self):
        with pytest.raises(ValueError):
            zfb_sinr_params(NetworkConfig(m_b=10, k_su=10, l_tx=1), 1.0)

    @pytest.mark.parametrize("l_tx,l_rx", [(0, 3), (5, 2), (2, 0)])
    def test_antenna_floor_matches_beamformer(self, l_tx, l_rx):
        # the model's domain is exactly where compute_zfb has a null space
        for m_b in (10 + l_rx - 1, 10 + l_rx):
            cfg = NetworkConfig(m_b=m_b, k_su=10, l_tx=l_tx, l_rx=l_rx)
            real = generate_channels(cfg, 0)
            if m_b < 10 + l_rx:
                with pytest.raises(ValueError):
                    zfb_sinr_params(cfg, 1.0)
                with pytest.raises(AntennaShortageError):
                    compute_zfb(real)
            else:
                assert zfb_sinr_params(cfg, 1.0) is not None
                assert compute_zfb(real).v.shape == (10, m_b)

    def test_cdf_sampling_oracle(self):
        law = zfb_sinr_params(BASE, 0.5)
        rng = np.random.default_rng(10)
        n = 1_000_000
        w = rng.gamma(law.k_n, 1.0, n)
        d = rng.gamma(law.k_d, law.lam, n)
        samples = np.sort(w / d)
        ks = ks_against(samples[::1000], law.cdf)
        assert ks < 0.01

    def test_monotone_in_lambda(self):
        # larger lam means a weaker SINR: CDF grows pointwise
        cdf_lo = GenFParams(k_n=50.0, k_d=4.0, lam=0.5)
        cdf_hi = GenFParams(k_n=50.0, k_d=4.0, lam=1.5)
        for s in (0.05, 0.2, 1.0):
            assert cdf_hi.cdf(s) > cdf_lo.cdf(s)

    def test_model_types(self):
        assert type(zfb_sinr_params(BASE, 1.0)) is GenFParams
        assert type(zfb_sinr_params(NetworkConfig(l_tx=0), 1.0)) is GammaParams
        assert type(meb_sinr_params(BASE, 1.0)) is InverseGammaParams
        assert type(meb_sinr_params(NetworkConfig(k_su=1, l_tx=0), 1.0)) is PointMassParams


def exact_law_oracle(cfg, p_eq, s):
    """E_Y[P(k_n, s (sigma2_w + Y)/theta_n)], Y ~ Gamma(l_tx, p_p sigma2_h),
    by adaptive quadrature with scipy's incomplete gamma."""
    k_n = cfg.m_b - cfg.k_su - cfg.l_rx + 1
    theta_n = p_eq * expected_max_eig(cfg.m_u, cfg.m_b, cfg.sigma2_h) / cfg.m_b
    if cfg.l_tx == 0:
        return float(gammainc(k_n, s * cfg.sigma2_w / theta_n))
    beta = cfg.p_p * cfg.sigma2_h
    value, err = quad(
        lambda y: gammainc(k_n, s * (cfg.sigma2_w + y) / theta_n)
        * gamma_dist.pdf(y, cfg.l_tx, scale=beta),
        0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500)
    assert err < 1e-11
    return value


def exact_law_scalar_loop(cfg, p_eq, s):
    """The exact law's finite sum at one point 0 < s < inf, on Python floats
    through math's log, log1p and lgamma: the sum the array kernel must
    equal bit for bit (numpy's SIMD log and log1p differ in the last bit)."""
    k_n = cfg.m_b - cfg.k_su - cfg.l_rx + 1
    theta_n = p_eq * expected_max_eig(cfg.m_u, cfg.m_b, cfg.sigma2_h) / cfg.m_b
    lam1 = s * cfg.sigma2_w / theta_n
    x = s * cfg.p_p * cfg.sigma2_h / theta_n
    if math.isinf(lam1 + x):
        return 1.0
    j = np.arange(k_n, dtype=float)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(k_n)])
    poisson_cdf = np.add.accumulate(np.exp(j * math.log(lam1) - log_fact - lam1))
    if cfg.l_tx == 0 or x == 0.0:
        tail = float(poisson_cdf[-1])
    else:
        # sum over j of Pr(N2 = j) Pr(N1 <= k_n - 1 - j), in index order
        log_binom = (np.array([math.lgamma(i + cfg.l_tx) for i in range(k_n)])
                     - (math.lgamma(cfg.l_tx) + log_fact))
        log1p_x = math.log1p(x)
        log_pmf = j * (math.log(x) - log1p_x) + log_binom - cfg.l_tx * log1p_x
        tail = float(np.exp(log_pmf) @ poisson_cdf[::-1])
    return min(max(1.0 - tail, 0.0), 1.0)


class TestZfbSinrExactLaw:
    @pytest.mark.parametrize("m_b", [64, 128, 1024])
    @pytest.mark.parametrize("l_tx", [0, 1, 2, 3])
    def test_matches_quadrature(self, m_b, l_tx):
        for cfg, p_eq in ((NetworkConfig(m_b=m_b, l_tx=l_tx), 1.0),
                          (NetworkConfig(m_b=m_b, k_su=5, l_tx=l_tx, l_rx=2,
                                         p_p=3.0, sigma2_w=0.5), 0.05)):
            k_n = m_b - cfg.k_su - cfg.l_rx + 1
            theta_n = p_eq * expected_max_eig(4, m_b) / m_b
            median = k_n * theta_n / (cfg.sigma2_w + l_tx * cfg.p_p)
            for s in median * np.array([0.2, 0.6, 0.9, 1.0, 1.2, 2.0, 5.0]):
                expect = exact_law_oracle(cfg, p_eq, float(s))
                assert zfb_sinr_exact_cdf(cfg, p_eq, float(s)) == pytest.approx(
                    expect, abs=1e-10)

    @pytest.mark.parametrize("l_tx,l_rx", [(1, 1), (3, 1), (2, 0), (1, 4)])
    def test_sampling_oracle(self, l_tx, l_rx):
        # draw the modeled quantity itself: W/(sigma2_w + Y)
        cfg = NetworkConfig(k_su=8, l_tx=l_tx, l_rx=l_rx, p_p=2.0, sigma2_w=0.5)
        p_eq = 0.3
        k_n = 64 - 8 - l_rx + 1
        theta_n = p_eq * expected_max_eig(4, 64) / 64
        rng = np.random.default_rng(11)
        n = 400_000
        w = rng.gamma(k_n, theta_n, n)
        y = rng.gamma(l_tx, 2.0, n)
        samples = np.sort(w / (0.5 + y))
        ks = ks_against(samples[::400], lambda s: zfb_sinr_exact_cdf(cfg, p_eq, s))
        assert ks < 0.01

    def test_array_power_raises(self):
        with pytest.raises(ValueError, match="p_eq"):
            zfb_sinr_exact_cdf(BASE, np.array([0.1, 0.2]), 1.0)
        with pytest.raises(ValueError, match="p_eq"):
            zfb_sinr_exact_cdf(BASE, np.array([0.1, 0.2]), np.array([1.0, 2.0]))
        # a numpy scalar is one power
        assert zfb_sinr_exact_cdf(BASE, np.float64(0.1), 1.0) == zfb_sinr_exact_cdf(BASE, 0.1, 1.0)

    def test_no_pu_equals_gamma_law(self):
        cfg = NetworkConfig(l_tx=0, l_rx=2)
        model = zfb_sinr_params(cfg, 0.4)
        silent = NetworkConfig(l_tx=3, l_rx=2, p_p=0.0)  # PUs present but mute
        for s in np.logspace(-2, 2, 30):
            expect = zfb_sinr_cdf(model, float(s))
            assert zfb_sinr_exact_cdf(cfg, 0.4, float(s)) == pytest.approx(expect, abs=1e-13)
            assert zfb_sinr_exact_cdf(silent, 0.4, float(s)) == pytest.approx(expect, abs=1e-13)

    def test_mute_pus_paper_law_and_q_k(self):
        # l_tx > 0 with p_p = 0 is valid: the paper's law, and so q_k and
        # the optimizer, reduce to the exact law's plain gamma there
        cfg = NetworkConfig(l_tx=2, l_rx=1, p_p=0.0)
        p_eq = 0.015
        model = zfb_sinr_params(cfg, p_eq)
        for s in np.logspace(-2, 2, 30):
            assert zfb_sinr_cdf(model, float(s)) == pytest.approx(
                zfb_sinr_exact_cdf(cfg, p_eq, float(s)), abs=1e-13)
        thr = 2.0 ** cfg.r0 - 1.0
        expect = ((1.0 - zfb_sinr_exact_cdf(cfg, p_eq, thr)) ** cfg.k_su
                  * zfb_interference_cdf(cfg, p_eq, cfg.i0) ** cfg.l_rx)
        assert 0.01 < expect < 0.99
        assert q_k(ZFB, cfg, p_eq) == pytest.approx(expect, abs=1e-12)
        assert 0.0 <= optimize_equal_power(ZFB, cfg).q <= 1.0

    @pytest.mark.parametrize("m_b,l_tx", [(64, 0), (64, 1), (128, 3), (1024, 2)])
    def test_cdf_properties(self, m_b, l_tx):
        cfg = NetworkConfig(m_b=m_b, l_tx=l_tx)
        ss = np.logspace(-4, 6, 200)
        vals = [zfb_sinr_exact_cdf(cfg, 0.5, float(s)) for s in ss]
        assert all(0.0 <= v <= 1.0 for v in vals)
        # 1 - tail carries about k_n ulps of rounding: monotone up to 1e-13
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-12
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert zfb_sinr_exact_cdf(cfg, 0.5, 0.0) == 0.0
        assert zfb_sinr_exact_cdf(cfg, 0.5, 1e300) == 1.0
        assert zfb_sinr_exact_cdf(cfg, 0.5, math.inf) == 1.0

    def test_mute_pus_at_infinity(self):
        # inf * p_p is NaN at p_p = 0: s = inf must still give 1
        cfg = NetworkConfig(l_tx=2, p_p=0.0)
        assert zfb_sinr_exact_cdf(cfg, 0.5, math.inf) == 1.0
        assert np.array_equal(zfb_sinr_exact_cdf(cfg, 0.5, np.array([math.inf, 0.0])), [1.0, 0.0])

    @pytest.mark.parametrize("cfg,p_eq", [
        (NetworkConfig(), 0.0),
        (NetworkConfig(), -1.0),
        (NetworkConfig(), math.inf),
        (NetworkConfig(), math.nan),
        (NetworkConfig(m_b=10, k_su=10), 1.0),
        (NetworkConfig(m_b=12, k_su=10, l_tx=0, l_rx=3), 1.0),
    ])
    def test_domain_errors_match_params(self, cfg, p_eq):
        with pytest.raises(ValueError):
            zfb_sinr_params(cfg, p_eq)
        with pytest.raises(ValueError):
            zfb_sinr_exact_cdf(cfg, p_eq, 1.0)

    def test_argument_validation(self):
        for s in (-1.0, math.nan):
            with pytest.raises(ValueError):
                zfb_sinr_exact_cdf(BASE, 1.0, s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cfg", [BASE, NetworkConfig(l_tx=0)])
    def test_where_the_poisson_rate_underflows(self, cfg):
        # s sigma2_w/theta_n rounds to 0 at s = 5e-324: the CDF is 0 there, as at s = 0
        p_eq = 4.0
        assert 5e-324 * cfg.sigma2_w / (p_eq * expected_max_eig(4, 64) / 64) == 0.0
        assert zfb_sinr_exact_cdf(cfg, p_eq, 5e-324) == 0.0
        got = zfb_sinr_exact_cdf(cfg, p_eq, np.array([5e-324, 1.0]))
        assert np.array_equal(got, [0.0, zfb_sinr_exact_cdf(cfg, p_eq, 1.0)])


class TestServingProbability:
    def test_vacuous_limits(self):
        # tiny rate floor and huge cap: probability approaches one
        cfg = NetworkConfig(r0=1e-9, i0=1e6)
        assert q_k(ZFB, cfg, 1.0) > 0.999
        assert q_k(MEB, cfg, 1.0) > 0.999

    def test_impossible_interference_cap(self):
        cfg = NetworkConfig(i0=1e-12, sigma2_delta=0.1)
        assert q_k(ZFB, cfg, 1.0) < 1e-6
        assert q_k(MEB, cfg, 1.0) < 1e-6

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            q_k("MRT", BASE, 1.0)

    @pytest.mark.parametrize("cfg", [BASE, NetworkConfig(l_tx=0), NetworkConfig(k_su=1, l_tx=0)])
    def test_product_of_law_cdfs(self, cfg):
        # generalized F / gamma for ZFB; inverse gamma, and a point mass
        # at k_su = 1 with l_tx = 0, for MEB
        thr = 2.0 ** cfg.r0 - 1.0
        for p_eq in (0.005, 0.05, 0.5):
            for scheme, law, interference_cdf in (
                    (MEB, meb_sinr_params(cfg, p_eq), meb_interference_cdf),
                    (ZFB, zfb_sinr_params(cfg, p_eq), zfb_interference_cdf)):
                expect = ((1.0 - law.cdf(thr)) ** cfg.k_su
                          * interference_cdf(cfg, p_eq, cfg.i0) ** cfg.l_rx)
                assert q_k(scheme, cfg, p_eq) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("cfg,laws", [
        (BASE, (InverseGammaParams, GenFParams)),
        (NetworkConfig(k_su=1, l_tx=0), (PointMassParams, GammaParams)),
        (NetworkConfig(p_p=0.0), (InverseGammaParams, GammaParams)),
        (NetworkConfig(k_su=4, sigma2_delta=0.0, r0=2.0), (InverseGammaParams, GenFParams)),
    ])
    def test_array_call_equals_scalar_calls(self, cfg, laws):
        # p_eq from far below p_min to far above p_max, so q_k crosses every regime;
        # sigma2_delta = 0 makes the ZFB compliance identically 1
        grid = np.logspace(-4.0, 1.5, 300)
        for scheme, params, law in ((MEB, meb_sinr_params, laws[0]),
                                    (ZFB, zfb_sinr_params, laws[1])):
            assert type(params(cfg, grid)) is law
            expect = [q_k(scheme, cfg, p) for p in grid.tolist()]
            assert np.array_equal(q_k(scheme, cfg, grid), expect)

    def test_array_law_parameters_equal_scalar_ones(self):
        # dense enough that numpy's arr ** 2 would differ from Python's pow somewhere
        grid = np.logspace(-4.0, 1.5, 20000)
        for cfg in (BASE, NetworkConfig(p_p=0.0)):
            for params in (meb_sinr_params, zfb_sinr_params):
                law = params(cfg, grid)
                scalar_laws = [params(cfg, p) for p in grid.tolist()]
                for field in dataclasses.fields(law):
                    got = np.broadcast_to(getattr(law, field.name), grid.shape)
                    assert np.array_equal(got, [getattr(x, field.name) for x in scalar_laws])

    @pytest.mark.parametrize("cfg", [BASE, NetworkConfig(l_tx=0), NetworkConfig(p_p=0.0),
                                     NetworkConfig(l_tx=3, p_p=1e-3)])
    def test_powers_where_the_meb_squares_overflow(self, cfg):
        # (p_p sigma2_h/(p_eq e))^2 or (c + a)^2 exceeds the float range: nothing is served
        assert q_k(MEB, cfg, 1e-160) == 0.0
        assert type(q_k(MEB, cfg, 1e-160)) is float
        grid = np.array([1e-160, 1e-3, 0.5, 1e-200])
        expect = [0.0, q_k(MEB, cfg, 1e-3), q_k(MEB, cfg, 0.5), 0.0]
        assert np.array_equal(q_k(MEB, cfg, grid), expect)

    def test_shape_bound_is_where_lgamma_overflows(self):
        below = math.nextafter(analytics._SHAPE_MAX, 0.0)
        assert math.isfinite(math.lgamma(below))
        with pytest.raises(OverflowError):
            math.lgamma(analytics._SHAPE_MAX)
        assert GammaParams(shape=below, scale=1.0).shape == below
        for law in (GammaParams, InverseGammaParams):
            with pytest.raises(ValueError, match="shape must be positive and below"):
                law(analytics._SHAPE_MAX, 1.0)

    @pytest.mark.parametrize("p", [1e-154, 2e-154, 3e-155])
    def test_meb_shape_past_the_lgamma_range_serves_nobody(self, p):
        # (c + a)^2/b is finite but lgamma overflows on it, so the law is out of
        # the float range and q_k takes the point mass at 1/(c + a), whose
        # relative spread 1/sqrt(shape) is below 1e-152
        cfg = NetworkConfig(l_tx=0)
        with pytest.raises(ValueError, match="shape must be positive and below"):
            meb_sinr_params(cfg, p)
        expect = np.array([0.0, q_k(MEB, cfg, 0.1)])
        for state in ("warn", "raise"):
            with np.errstate(all=state):
                q, grid = q_k(MEB, cfg, p), q_k(MEB, cfg, np.array([p, 0.1]))
            assert q == 0.0 and type(q) is float
            assert grid.tobytes() == expect.tobytes()

    def test_meb_shape_inside_the_lgamma_range_keeps_its_law(self):
        cfg = NetworkConfig(l_tx=0)
        assert meb_sinr_params(cfg, 1e-153).shape < analytics._SHAPE_MAX
        assert q_k(MEB, cfg, 1e-153).hex() == "0x0.0p+0"
        assert q_k(MEB, cfg, np.array([1e-153])).tobytes() == bytes(8)

    # powers where a law's parameters leave the float range: lam overflows,
    # the gamma scale underflows, the point mass sinks to 0, the shape is NaN,
    # and p_eq e underflows to 0 (a division by zero)
    SUBNORMAL = [(ZFB, BASE, 1e-315), (ZFB, NetworkConfig(l_tx=0), 5e-324),
                 (MEB, NetworkConfig(k_su=1, l_tx=0), 1e-315), (MEB, BASE, 5e-324),
                 (MEB, NetworkConfig(sigma2_h=1e-3, sigma2_delta=1e-4), 5e-324),
                 (ZFB, NetworkConfig(sigma2_h=1e-3, sigma2_delta=1e-4), 5e-324)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme, cfg, p", SUBNORMAL)
    def test_subnormal_power_serves_nobody(self, scheme, cfg, p):
        q = q_k(scheme, cfg, p)
        assert q == 0.0 and type(q) is float
        grid = np.array([0.1, p, 1e-3, 1e-300])
        expect = [q_k(scheme, cfg, 0.1), 0.0, q_k(scheme, cfg, 1e-3), q_k(scheme, cfg, 1e-300)]
        assert np.array_equal(q_k(scheme, cfg, grid), expect)

    # float-range cases that q_k's own error state covers, as a float and in an array
    RAISING = [(ZFB, BASE, 1e-320), (ZFB, NetworkConfig(l_tx=0), 5e-324),
               (MEB, BASE, 1e-160), (MEB, NetworkConfig(k_su=1, l_tx=0), 1e-315)]

    @pytest.mark.parametrize("scheme, cfg, p", RAISING)
    def test_float_range_rule_ignores_callers_error_state(self, scheme, cfg, p):
        for power in (p, np.array([p, 0.1])):
            expect = q_k(scheme, cfg, power)
            with np.errstate(all="raise"):
                got = q_k(scheme, cfg, power)
            assert type(got) is type(expect)
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()

    def test_underflow_ignores_callers_error_state(self):
        # the ZFB SINR law's terms underflow at 1e-320; the default-state bytes
        with np.errstate(all="raise"):
            assert q_k(ZFB, BASE, 1e-320) == 0.0
            got = q_k(ZFB, BASE, np.array([1e-320, 0.1]))
        assert got.tobytes() == np.array([0.0, float.fromhex("0x1.fafec004ec449p-1")]).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_subnormal_budget_optimum(self):
        for scheme in (MEB, ZFB):
            opt = optimize_equal_power(scheme, NetworkConfig(p0=1e-318))
            assert opt == EqualPowerOptimum(p_eq=1e-319, q=0.0, range_feasible=False)

    def test_subnormal_power_keeps_config_errors(self):
        cfg = BASE.replace(k_su=64)  # m_b < k_su + l_rx
        for p in (1e-315, np.array([0.1, 1e-315])):
            with pytest.raises(ValueError, match="need m_b >= k_su \\+ l_rx"):
                q_k(ZFB, cfg, p)

    @pytest.mark.filterwarnings("error")
    def test_config_out_of_float_range_raises_at_every_power(self):
        # the ZFB denominator shape k_d depends on the config alone: p_p^2 sigma2_h^2
        # is subnormal (k_d = inf) or 0 (k_d divides by 0), and no power is a limit
        for p_p, error in ((1e-160, ValueError), (1e-170, ZeroDivisionError)):
            cfg = NetworkConfig(p_p=p_p)
            for p in (0.1, 1e-315, np.array([0.1]), np.array([0.1, 1e-315])):
                with pytest.raises(error):
                    q_k(ZFB, cfg, p)

    @pytest.mark.filterwarnings("error")
    def test_interference_limit_follows_its_own_scale(self):
        # p_eq sigma2_delta underflows to 0, so nothing leaks and every cap holds,
        # while p_eq e is far above the noise: every SU is served
        cfg = NetworkConfig(sigma2_w=1e-310, l_tx=0, sigma2_delta=1e-20)
        q = q_k(ZFB, cfg, 1e-305)
        assert q == q_k(ZFB, cfg.replace(l_rx=0), 1e-305) > 0.99
        assert np.array_equal(q_k(ZFB, cfg, np.array([1e-305, 1e-3])),
                              [q, q_k(ZFB, cfg, 1e-3)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme, cfg", [(ZFB, BASE), (ZFB, NetworkConfig(l_tx=0)),
                                             (MEB, NetworkConfig(k_su=1))])
    def test_overflowing_power_is_served_until_a_cap_binds(self, scheme, cfg):
        # p_eq e overflows: the SINR and the PU interference grow without bound
        assert q_k(scheme, cfg.replace(l_rx=0), 1.7e308) == 1.0
        assert q_k(scheme, cfg.replace(l_rx=1), 1.7e308) < 1e-300
        for cfg in (cfg.replace(l_rx=0), cfg.replace(l_rx=1)):
            expect = [q_k(scheme, cfg, 0.1), q_k(scheme, cfg, 1.7e308)]
            assert np.array_equal(q_k(scheme, cfg, np.array([0.1, 1.7e308])), expect)

    def test_overflowing_power_at_a_zero_threshold(self):
        # 2^r0 - 1 rounds to 0: every SU is served at any power, as at p_eq = 1e-100
        cfg = NetworkConfig(r0=1e-17, i0=1e6)
        assert q_k(MEB, cfg, 1e-160) == q_k(MEB, cfg, 1e-100) == 1.0

    def test_huge_mute_pu_power_still_evaluates(self):
        # no transmitting PU: the unused PU square must not decide q_k
        cfg = NetworkConfig(l_tx=0, p_p=1e200)
        assert q_k(MEB, cfg, 0.1) == q_k(MEB, NetworkConfig(l_tx=0), 0.1) > 0.0

    def test_array_with_invalid_power_raises_scalar_error(self):
        for scheme in (MEB, ZFB):
            with pytest.raises(ValueError) as scalar:
                q_k(scheme, BASE, -0.5)
            with pytest.raises(ValueError) as array:
                q_k(scheme, BASE, np.array([0.1, -0.5, 0.2]))
            assert str(array.value) == str(scalar.value)

    def test_zero_dim_power_is_one_power(self):
        for scheme in (MEB, ZFB):
            for p in (0.1, 1e-160, 1e-320):
                q = q_k(scheme, BASE, np.array(p))
                assert type(q) is float and q.hex() == q_k(scheme, BASE, p).hex()

    def test_in_unit_interval(self):
        for p_db in (-20, -10, 0, 10):
            for scheme in (MEB, ZFB):
                q = q_k(scheme, BASE, 10.0 ** (p_db / 10))
                assert 0.0 <= q <= 1.0

    def test_zfb_plateau(self):
        # moderate power serves everyone with near certainty
        for p_db in (-10, -6, -2, 0):
            assert q_k(ZFB, BASE, 10.0 ** (p_db / 10)) > 0.99


def seam(c):
    """c and its neighbours: one ulp and one part in 10^9 to either side."""
    return [c * (1.0 - 1e-9), np.nextafter(c, 0.0), c, np.nextafter(c, np.inf), c * (1.0 + 1e-9)]


def law_points(law):
    """Points over every branch of law.cdf: below 0, at 0, a log grid, inf, and each
    side of the specfun seam (gamma series/continued fraction, beta switch) or point mass."""
    if isinstance(law, GammaParams):
        cut = (law.shape + 1.0) * law.scale
    elif isinstance(law, InverseGammaParams):
        cut = 1.0 / ((law.shape + 1.0) * law.theta)
    elif isinstance(law, GenFParams):
        u = (law.k_n + 1.0) / (law.k_n + law.k_d + 2.0)
        cut = u / (1.0 - u) / law.lam
    else:
        cut = law.value
    return np.array([-1.0, 0.0, *seam(cut), *(cut * np.logspace(-3, 3, 61)), math.inf])


ARRAY_CONFIGS = [
    BASE,                                   # inverse gamma, generalized F
    NetworkConfig(l_tx=0),                  # inverse gamma, gamma
    NetworkConfig(k_su=1, l_tx=0),          # point mass, gamma
    NetworkConfig(p_p=0.0),                 # gamma with mute PUs
    NetworkConfig(sigma2_delta=0.0),        # ZFB interference identically 0
    NetworkConfig(m_b=128, k_su=5, l_tx=3, l_rx=2, p_p=2.0),
]


def public_cdfs(cfg, p_eq):
    """(name, cdf of points, points) for the public CDFs of a config."""
    meb, zfb = meb_sinr_params(cfg, p_eq), zfb_sinr_params(cfg, p_eq)
    interference = GammaParams(shape=float(cfg.k_su), scale=p_eq * cfg.sigma2_h)
    positive = law_points(meb)[2:]
    return [
        ("meb_sinr", lambda s: meb_sinr_cdf(meb, s), positive),
        ("zfb_sinr", lambda s: zfb_sinr_cdf(zfb, s), law_points(zfb)[1:]),
        ("meb_interference", lambda x: meb_interference_cdf(cfg, p_eq, x),
         law_points(interference)[1:]),
        ("zfb_interference", lambda x: zfb_interference_cdf(cfg, p_eq, x),
         np.array([0.0, cfg.i0, *law_points(interference)[2:]])),
        ("zfb_sinr_exact", lambda s: zfb_sinr_exact_cdf(cfg, p_eq, s), law_points(zfb)[1:]),
    ]


class TestArrayPoints:
    """Every CDF takes an array of points and equals its scalar calls bit for bit."""

    @pytest.mark.parametrize("law", [
        GammaParams(shape=3.2, scale=0.7),
        GammaParams(shape=500.0, scale=0.01),
        meb_sinr_params(BASE, 0.05),
        meb_sinr_params(NetworkConfig(k_su=1, l_tx=0), 0.05),
        zfb_sinr_params(BASE, 0.05),
        zfb_sinr_params(NetworkConfig(l_tx=0), 0.05),
        zfb_sinr_params(NetworkConfig(m_b=1024, l_tx=3, p_p=10.0), 0.5),
    ], ids=lambda law: type(law).__name__)
    def test_law_cdf_equals_scalar_calls(self, law):
        pts = law_points(law)
        got = law.cdf(pts)
        assert got.shape == pts.shape and got.dtype == float
        assert np.array_equal(got, [law.cdf(float(x)) for x in pts])
        assert np.array_equal(law.cdf(pts.reshape(3, 23)), got.reshape(3, 23))
        assert np.array_equal(law.cdf(pts[2:]), got[2:])  # inf the only boundary point

    @pytest.mark.parametrize("cfg", ARRAY_CONFIGS)
    def test_public_cdfs_equal_scalar_calls(self, cfg):
        for p_eq in (0.005, 0.05, 0.5):
            for name, cdf, pts in public_cdfs(cfg, p_eq):
                expect = [cdf(float(x)) for x in pts]
                assert np.array_equal(cdf(pts), expect), name

    # s = 1e308 overflows the Poisson rate to inf, where the CDF is 1, without
    # a warning (a float point runs as a one-element array)
    @pytest.mark.filterwarnings("error")
    def test_exact_law_in_chunks(self, monkeypatch):
        # chunks of 3 samples at k_n = 123 (m_b=128), and a 2-D array of points
        cfg = NetworkConfig(m_b=128, k_su=5, l_tx=3, l_rx=2, p_p=2.0)
        pts = np.concatenate([[0.0, math.inf, 1e-300, 1e308], np.logspace(-4, 4, 96)])
        expect = [zfb_sinr_exact_cdf(cfg, 0.05, float(s)) for s in pts]
        monkeypatch.setattr(analytics, "_EXACT_CHUNK_ELEMENTS", 3 * 123)
        assert np.array_equal(zfb_sinr_exact_cdf(cfg, 0.05, pts), expect)
        got = zfb_sinr_exact_cdf(cfg, 0.05, pts.reshape(10, 10))
        assert np.array_equal(got, np.reshape(expect, (10, 10)))

    @pytest.mark.parametrize("cfg", [NetworkConfig(l_tx=0),
                                     NetworkConfig(m_b=128, k_su=5, l_tx=3, l_rx=2, p_p=2.0)])
    def test_exact_law_dense(self, cfg):
        # dense enough that numpy's log or log1p would differ from math's somewhere
        pts = np.logspace(-3.0, 3.0, 20000)
        expect = [exact_law_scalar_loop(cfg, 0.05, s) for s in pts.tolist()]
        assert np.array_equal(zfb_sinr_exact_cdf(cfg, 0.05, pts), expect)

    def test_array_with_bad_point_raises_scalar_error(self):
        for name, cdf, _ in public_cdfs(NetworkConfig(l_tx=2), 0.05):
            for bad in (-0.5, math.nan):
                with pytest.raises(ValueError) as scalar:
                    cdf(bad)
                with pytest.raises(ValueError) as array:
                    cdf(np.array([1.0, bad, 2.0, -1.0]))
                assert str(array.value) == str(scalar.value), name

    @pytest.mark.parametrize("cfg", ARRAY_CONFIGS)
    def test_float_points_stay_float(self, cfg):
        # a numpy round trip on the float path would return np.float64
        for name, cdf, _ in public_cdfs(cfg, 0.05):
            for s in (1e-3, 1.0, 30.0):
                assert type(cdf(s)) is float, name
        for law in (meb_sinr_params(cfg, 0.05), zfb_sinr_params(cfg, 0.05)):
            assert type(law.cdf(1.0)) is float


class TestBoundaryPoints:
    """Every CDF is 0 at s <= 0 and 1 at s = inf; a float point gives a Python float
    there, also from a law with array parameters."""

    @pytest.mark.parametrize("cfg", ARRAY_CONFIGS)
    @pytest.mark.parametrize("p_eq", [0.05, np.logspace(-3.0, 0.0, 7)], ids=["float", "array"])
    def test_float_boundary_points(self, cfg, p_eq):
        meb, zfb = meb_sinr_params(cfg, p_eq), zfb_sinr_params(cfg, p_eq)
        for law in (meb, zfb, GammaParams(shape=float(cfg.k_su), scale=p_eq * cfg.sigma2_h)):
            for s, expect in ((-1.0, 0.0), (0.0, 0.0), (math.inf, 1.0)):
                got = law.cdf(s)
                assert type(got) is float and got == expect, (type(law).__name__, s)
        # the public CDFs reject s < 0; ZFB interference is a unit step without CSI error
        public = [(lambda s: meb_sinr_cdf(meb, s), 0.0), (lambda s: zfb_sinr_cdf(zfb, s), 0.0),
                  (lambda x: meb_interference_cdf(cfg, p_eq, x), 0.0),
                  (lambda x: zfb_interference_cdf(cfg, p_eq, x), float(cfg.sigma2_delta == 0.0))]
        if not isinstance(p_eq, np.ndarray):
            public.append((lambda s: zfb_sinr_exact_cdf(cfg, p_eq, s), 0.0))
        for cdf, at_zero in public:
            for s, expect in ((0.0, at_zero), (math.inf, 1.0)):
                got = cdf(s)
                assert type(got) is float and got == expect, s


class TestEqualPowerSearch:
    def test_bounds_closed_form(self):
        p_min, p_max = equal_power_bounds(BASE)
        assert p_max == pytest.approx(1.0, rel=1e-12)  # p0=10, k_su=10
        e = expected_max_eig(4, 64)
        assert p_min == pytest.approx(1.0 / e, rel=1e-12)  # thr=1, sigma2_w=1

    def test_exact_antenna_count_case(self):
        # m_u = 1, m_b = 100 makes e exactly 100
        cfg = NetworkConfig(m_u=1, m_b=100, r0=1.0, sigma2_w=1.0)
        p_min, _ = equal_power_bounds(cfg)
        assert p_min == pytest.approx(0.01, rel=1e-12)

    def test_meb_optimum_location(self):
        opt = optimize_equal_power(MEB, BASE)
        assert opt.range_feasible
        db = 10 * math.log10(opt.p_eq)
        assert abs(db - (-12.74)) < 1.0
        assert abs(opt.q - 0.27) < 0.05

    def test_grid_refinement_consistency(self):
        # a dense grid cannot beat the returned optimum by more than a hair
        for scheme in (MEB, ZFB):
            opt = optimize_equal_power(scheme, BASE)
            p_min, p_max = equal_power_bounds(BASE)
            dense = np.logspace(math.log10(p_min), math.log10(p_max), 4096)
            best_dense = max(q_k(scheme, BASE, float(p)) for p in dense)
            assert opt.q >= best_dense - 1e-9

    def test_constant_objective_returns_lowest_power(self):
        # the point-mass MEB law (one SU, no PUs) makes q exactly 1.0 at
        # every power above p_min: ties must resolve to the lowest power
        cfg = NetworkConfig(k_su=1, l_tx=0, l_rx=0)
        p_min, p_max = equal_power_bounds(cfg)
        assert q_k(MEB, cfg, p_min * 1.01) == 1.0
        assert q_k(MEB, cfg, p_max) == 1.0
        opt = optimize_equal_power(MEB, cfg)
        assert opt.q == 1.0
        # first maximum on the 256-point log grid sits within one cell of p_min
        cell = (p_max / p_min) ** (1 / 255)
        assert p_min * 0.999 <= opt.p_eq <= p_min * cell * 1.001

    def test_grid_at_ceiling_skips_refinement(self, monkeypatch):
        # the default ZFB config reaches q = 1 on the grid; the first such
        # grid point is the optimum and the grid is the only evaluation of
        # the config's q_k kernel, which is built once
        opt = optimize_equal_power(ZFB, BASE)
        p_min, p_max = equal_power_bounds(BASE)
        grid = np.logspace(math.log10(p_min), math.log10(p_max), 256)
        values = q_k(ZFB, BASE, grid)
        assert opt == EqualPowerOptimum(p_eq=float(grid[np.argmax(values == 1.0)]), q=1.0,
                                        range_feasible=True)
        builds, calls = [], []
        kernel = analytics._q_kernel

        def counted_kernel(*args):
            builds.append(args)
            q = kernel(*args)
            return lambda p: calls.append(p) or q(p)

        monkeypatch.setattr(analytics, "_q_kernel", counted_kernel)
        assert optimize_equal_power(ZFB, BASE) == opt
        assert len(builds) == 1 and len(calls) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", [MEB, ZFB])
    def test_zero_threshold_optimum(self, scheme):
        # 2^r0 - 1 rounds to 0, so p_min is 0 and every positive power serves
        cfg = NetworkConfig(r0=1e-17, i0=1e6)
        assert equal_power_bounds(cfg)[0] == 0.0
        opt = optimize_equal_power(scheme, cfg)
        assert opt.range_feasible and 0.0 < opt.p_eq <= cfg.p0 / cfg.k_su
        assert opt.q == q_k(scheme, cfg, opt.p_eq) == 1.0

    def test_infeasible_range(self):
        cfg = NetworkConfig(p0=1e-9, r0=10.0)
        opt = optimize_equal_power(MEB, cfg)
        assert not opt.range_feasible
        assert opt.p_eq == pytest.approx(1e-9 / cfg.k_su, rel=1e-12)
        assert isinstance(opt, EqualPowerOptimum)

    def test_deterministic(self):
        a = optimize_equal_power(MEB, BASE)
        b = optimize_equal_power(MEB, BASE)
        assert a == b
