"""Closed-form serving-probability machinery.

Under equal per-SU power p_eq, the SINR of an MEB stream is well
modeled by an inverse-gamma law (moment-matched after replacing the
principal channel gain by its mean), the SINR of a ZF stream by a
generalized-F law (ratio of two moment-matched gammas, the paper's
law) or by the exact-denominator law of zfb_sinr_exact_cdf, and the
aggregate interference at a receiving PU by a gamma law with shape
k_su.  laws(scheme, config, p_eq) is the one table of these laws that
q_k, cdf_validation and the tests read; its in_q rows are the paper's
laws, from which q_k gives the probability that all k_su SUs reach
rate r0 while every receiving PU stays below the cap i0.  So q_k(ZFB)
reads the generalized-F law, while Criterion 4c asserts the exact one.
optimize_equal_power finds the best p_eq inside the feasible bracket.
The law functions and q_k also take a 1-D array of powers and then
return laws with array parameters and an array of q_k values.  Every
CDF, the laws' cdf methods and the public *_cdf functions, takes a
float or an array of points, so a KS validation takes one call per pass
over its samples.  All of them share two rules: _bounded gives 0 at
s <= 0 and 1 at s = inf around each law's formula for the points
between, and _check_point makes each public *_cdf reject a negative or
NaN point.
Array results equal scalar calls bit for bit (see specfun for how).

q_k runs in two stages: _q_kernel(scheme, config) reads the scheme's row
of the table and computes every constant of the config once, and its
kernel scores a power, a float without building a dataclass or an array
in one specfun pass; optimize_equal_power builds it once for its search.

The mean principal Wishart eigenvalue E[sigma2_k1] that the models
need is read from the table of Monte Carlo means in
data/wishart_means.txt for the 27 shapes it ships, until the benchmark
references are re-recorded with the exact law; every other shape takes
the exact law of the largest eigenvalue, computed once per shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources

import numpy as np

from .beamforming import MEB, ZFB
from .network import NetworkConfig, _count
from .specfun import _elementwise, regularized_incomplete_beta, regularized_lower_gamma

__all__ = [
    "GammaParams",
    "InverseGammaParams",
    "GenFParams",
    "PointMassParams",
    "EqualPowerOptimum",
    "expected_max_eig",
    "meb_sinr_params",
    "meb_sinr_cdf",
    "meb_interference_cdf",
    "zfb_sinr_params",
    "zfb_sinr_cdf",
    "zfb_sinr_exact_cdf",
    "zfb_interference_cdf",
    "laws",
    "q_k",
    "equal_power_bounds",
    "optimize_equal_power",
]


# the least float whose math.lgamma overflows: a gamma shape at or above it
# is out of the float range, as an infinite one is
_SHAPE_MAX = float.fromhex("0x1.754d9278b51a8p+1014")


def _check_positive(name: str, val, upper: float = math.inf):
    """Raise ValueError unless val (a float or an array, not a bool) is positive and below upper."""
    if isinstance(val, bool) or getattr(val, "dtype", None) == bool:
        raise ValueError(f"{name} must be a number, got {val!r}")
    if isinstance(val, np.ndarray):
        bad = ~((val > 0.0) & (val < upper))
        if not bad.any():
            return
        val = val[bad][0].item()
    if not 0.0 < val < upper:
        bound = "finite and positive" if upper == math.inf else f"positive and below {upper!r}"
        raise ValueError(f"{name} must be {bound}, got {val!r}")


def _square(v):
    """pow(v, 2) (element by element for an array, see specfun), inf where it overflows."""
    try:
        return _elementwise(pow, v, 2)
    except OverflowError:
        return _elementwise(_square, v) if isinstance(v, np.ndarray) else math.inf


def _check_point(name: str, s):
    """Raise ValueError unless s (a float or an array) is nonnegative; NaN is not."""
    if isinstance(s, np.ndarray):
        bad = ~(s >= 0.0)
        if not bad.any():
            return
        s = s[bad][0].item()
    if not (s >= 0.0):
        raise ValueError(f"{name} must be nonnegative, got {s!r}")


def _bounded(formula, s, *params):
    """formula(s, *params), a law's CDF at 0 < s < inf, extended to every s.

    0.0 at s <= 0 and 1.0 at s = inf are Python floats for a float s,
    whatever the law's parameters; other floats reach formula as floats.
    An array s takes one call of formula on its points between (NaN too),
    with numpy's overflow and divide warnings off as Python floats have
    none; a law with array parameters takes only boundary-free arrays.
    """
    if not isinstance(s, np.ndarray):
        if s <= 0.0:
            return 0.0
        return 1.0 if s == math.inf else formula(float(s), *params)
    top = s == math.inf
    mid = ~((s <= 0.0) | top)
    with np.errstate(over="ignore", divide="ignore"):
        if mid.all():
            return formula(s, *params)
        out = np.where(top, 1.0, 0.0)
        if mid.any():
            out[mid] = formula(s[mid], *params)
    return out


class _Law:
    """A law's parameters as dataclass fields and its CDF _formula(s, *params)
    at 0 < s < inf.  Each parameter must be positive and below its entry of
    _upper (inf: finite), so that the formula stays in the float range."""

    def __post_init__(self):
        for (name, val), upper in zip(vars(self).items(), self._upper):
            _check_positive(name, val, upper)

    def cdf(self, s: float | np.ndarray) -> float | np.ndarray:
        """The CDF at s, a float or an array of points (see _bounded)."""
        return _bounded(self._formula, s, *vars(self).values())


class _GammaFamily(_Law):
    """A law whose CDF at 0 < s < inf is _from_gamma(P(k, z)), with P the
    regularized lower incomplete gamma and (k, z) = _gamma_args(s, *params)."""

    _upper = (_SHAPE_MAX, math.inf)

    @classmethod
    def _formula(cls, s, *params):
        return cls._from_gamma(regularized_lower_gamma(*cls._gamma_args(s, *params)))


@dataclass(frozen=True)
class GammaParams(_GammaFamily):
    """Gamma distribution with density x^(shape-1) e^(-x/scale)."""

    shape: float
    scale: float

    @staticmethod
    def _gamma_args(x, shape, scale):
        return shape, x / scale

    @staticmethod
    def _from_gamma(p):
        return p


@dataclass(frozen=True)
class InverseGammaParams(_GammaFamily):
    """Inverse-gamma distribution; theta is the reciprocal of the scale.

    If X ~ Gamma(shape, theta) then 1/X has this law, so
    Pr(1/X <= s) = 1 - P(shape, 1/(s theta)).
    """

    shape: float
    theta: float

    @staticmethod
    def _gamma_args(s, shape, theta):
        # 1/(s theta) is inf where s theta underflows to 0, and the CDF 0
        st = s * theta
        if not isinstance(st, np.ndarray) and st == 0.0:
            return shape, math.inf
        return shape, 1.0 / st

    @staticmethod
    def _from_gamma(p):
        return 1.0 - p


@dataclass(frozen=True)
class GenFParams(_Law):
    """Generalized F law of a ratio of independent gammas.

    If W ~ Gamma(k_n, theta_n) and D ~ Gamma(k_d, theta_d) then W/D has
    CDF I_{lam s / (1 + lam s)}(k_n, k_d) with lam = theta_d/theta_n.
    """

    k_n: float
    k_d: float
    lam: float

    _upper = (_SHAPE_MAX, _SHAPE_MAX, math.inf)

    def __post_init__(self):
        super().__post_init__()
        if self.k_n < 1.0:
            raise ValueError(f"k_n must be at least 1, got {self.k_n!r}")

    @staticmethod
    def _formula(s, k_n, k_d, lam):
        z = lam * s  # inf on overflow, where the CDF is 1
        if isinstance(z, np.ndarray):
            x = np.divide(z, 1.0 + z, out=np.ones(z.shape), where=z != math.inf)
        elif z == math.inf:
            return 1.0
        else:
            x = z / (1.0 + z)
        return regularized_incomplete_beta(x, k_n, k_d)


@dataclass(frozen=True)
class PointMassParams(_Law):
    """Unit point mass at value: the MEB SINR when its denominator is
    deterministic (k_su = 1 with no transmitting PU)."""

    value: float

    _upper = (math.inf,)

    @staticmethod
    def _formula(s, value):
        return 1.0 * (s >= value)


@lru_cache(maxsize=1)
def _shipped_means() -> dict:
    """{(m_u, m_b): mean} from data/wishart_means.txt, lines
    `m_u m_b mean stderr n_samples` of 10^5-sample Monte Carlo means."""
    text = resources.files("crmimo").joinpath("data/wishart_means.txt").read_text()
    rows = (line.split("#", 1)[0].split() for line in text.splitlines())
    return {(int(f[0]), int(f[1])): float(f[2]) for f in rows if f}


@lru_cache(maxsize=None)
def _exact_max_eig(m_u: int, m_b: int) -> float:
    """E[lambda_max] of H H^H, H of shape (m_u, m_b) with CN(0, 1) entries and
    2 <= m_u <= m_b, from the exact law (Khatri 1964; Zanella, Chiani & Win 2009).

    The eigenvalues form the Laguerre unitary ensemble with alpha = m_b - m_u:
    F(x) = P(lambda_max <= x) = det(I - A(x)), A(x)[i, j] the integral over
    (x, inf) of phi_i phi_j over the orthonormal Laguerre functions phi_0..
    phi_{m_u-1}, and 1 - F = -expm1(sum log1p(-mu)) over the eigenvalues mu
    of A(x).  E integrates 1 - F over [lo, hi]: F < e^-64 below lo, as each
    row norm of H is Gamma(m_b, 1), and 1 - F < e^-49 above hi, as the
    spectral norm of H concentrates within e^(-t^2) of sqrt(m_b) + sqrt(m_u).
    The map x(u) = lo + (hi - lo)(u - sin(2 pi u)/(2 pi)) makes the integrand
    flat at both ends, so the trapezoid rule on 200 steps of u converges
    faster than any power of the step; each step adds its part of A by an
    8-point Gauss-Legendre rule (Golub-Welsch on the Jacobi matrix).
    """
    panels, order = 200, 8
    alpha = m_b - m_u
    lo = max(0.0, m_b - 8.0 * math.sqrt(m_b))
    hi = (math.sqrt(m_b) + math.sqrt(m_u) + 7.0) ** 2
    u = np.linspace(0.0, 1.0, panels + 1)
    edges = lo + (hi - lo) * (u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi))
    half = 0.5 * np.diff(edges)
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    t, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * vecs[0] ** 2
    x = edges[:-1, None] + half[:, None] * (t + 1.0)  # (panels, order)
    # phi_k by the normalized three-term Laguerre recurrence
    phi = [np.exp(0.5 * (alpha * np.log(x) - x - math.lgamma(alpha + 1.0)))]
    for k in range(m_u - 1):
        back = math.sqrt(k * (k + alpha)) * phi[k - 1] if k else 0.0
        phi.append(((2 * k + 1 + alpha - x) * phi[k] - back) / math.sqrt((k + 1) * (k + 1 + alpha)))
    phi = np.stack(phi, axis=-1)  # (panels, order, m_u)
    blocks = (phi * (half[:, None] * w)[..., None]).transpose(0, 2, 1) @ phi
    tails = np.cumsum(blocks[:0:-1], axis=0)[::-1]  # A at edges[1:-1]
    mu = np.linalg.eigvalsh(tails)
    floor = (mu >= 1.0).any(axis=1)  # F rounds to 0: 1 - F is 1, not log1p(-1)
    sf = np.where(floor, 1.0, -np.expm1(np.log1p(-np.where(floor[:, None], 0.0, mu)).sum(axis=1)))
    dx = (hi - lo) * (1.0 - np.cos(2.0 * np.pi * u[1:-1])) / panels
    return lo + float(sf @ dx)


def expected_max_eig(m_u: int, m_b: int, sigma2_h: float = 1.0) -> float:
    """Mean principal eigenvalue E[sigma2_k1] of an m_u x m_b channel.

    H H^H and H^H H share their largest eigenvalue, so the shape is taken
    as (min, max).  Exact when min = 1 (chi-square mean sigma2_h * max).
    A shape in the shipped table data/wishart_means.txt reads its
    10^5-sample Monte Carlo mean, until the benchmark references are
    re-recorded with the exact law; every other shape takes the exact
    law of the largest eigenvalue (_exact_max_eig), computed once per
    shape in about a millisecond.  Both scale linearly by sigma2_h.
    ValueError unless m_u and m_b are positive integers (a bool is not).
    """
    m_u, m_b = _count("m_u", m_u), _count("m_b", m_b)
    if m_u < 1 or m_b < 1:
        raise ValueError(f"need m_u >= 1 and m_b >= 1, got m_u={m_u}, m_b={m_b}")
    if sigma2_h <= 0 or not math.isfinite(sigma2_h):
        raise ValueError(f"sigma2_h must be finite and positive, got {sigma2_h!r}")
    if m_u > m_b:
        m_u, m_b = m_b, m_u
    if m_u == 1:
        return sigma2_h * m_b
    mean = _shipped_means().get((m_u, m_b))
    return sigma2_h * (_exact_max_eig(m_u, m_b) if mean is None else mean)


def meb_sinr_params(config: NetworkConfig, p_eq: float) -> InverseGammaParams | PointMassParams:
    """Moment-matched MEB SINR law at equal power p_eq.

    With e = E[sigma2_k1], the reciprocal SINR is c + x, where x
    collects the PU and inter-stream terms with mean a and second
    moment b:
    a = l_tx p_p sigma2_h/(p_eq e) + (k_su - 1)/m_b,
    b = l_tx p_p^2 sigma2_h^2/(p_eq e)^2 + (k_su - 1)/m_b^2,
    c = sigma2_w/(p_eq e).  The gamma with shape (c + a)^2/b and scale
    b/(c + a) has the mean c + a and variance b of c + x, so the SINR
    law is the inverse gamma with those values.  When b = 0 (k_su = 1
    with no transmitting PU, or one whose square underflows) the SINR is
    the constant 1/(c + a).  ValueError where a parameter leaves the
    float range (p_eq below about 1e-154 at p_p = 1).
    """
    _check_positive("p_eq", p_eq)
    law, params, _ = _meb_sinr_law(config)(p_eq)
    return law(*params)


def _meb_sinr_law(config: NetworkConfig):
    """meb_sinr_params of config as a function of the power: law(p_eq), for a
    float or an array, gives the law class, its unchecked parameters and the
    SINR scale 1/(c + a).  The terms of a, b and c that depend on the config
    alone are computed once, in the order meb_sinr_params gives them."""
    e = expected_max_eig(config.m_u, config.m_b, config.sigma2_h)
    a0 = (config.k_su - 1) / config.m_b
    b0 = (config.k_su - 1) / config.m_b ** 2
    # no PU transmits: a large p_p must not overflow an unused square
    pu_tx = bool(config.l_tx and config.p_p)
    if pu_tx:
        pu_mean = config.l_tx * config.p_p * config.sigma2_h
        pu_amp = config.p_p * config.sigma2_h

    def law(p_eq):
        u = p_eq * e
        pu = pu2 = 0.0
        if pu_tx:
            pu = pu_mean / u
            pu2 = config.l_tx * _square(pu_amp / u)
        a = pu + a0
        b = pu2 + b0
        c = config.sigma2_w / u
        scale = 1.0 / (c + a)
        if config.k_su == 1 and not np.any(b):
            return PointMassParams, (scale,), scale
        return InverseGammaParams, (_square(c + a) / b, b / (c + a)), scale
    return law


def meb_sinr_cdf(law: InverseGammaParams | PointMassParams,
                 s: float | np.ndarray) -> float | np.ndarray:
    """Pr(MEB SINR <= s) under a law from meb_sinr_params; s may be an array."""
    _check_point("s", s)
    return law.cdf(s)


def meb_interference_cdf(config: NetworkConfig, p_eq: float,
                         x: float | np.ndarray) -> float | np.ndarray:
    """Pr(interference at a receiving PU <= x) under MEB at power p_eq; x may be an array."""
    return _interference_cdf(MEB, config, p_eq, x)


def _interference_cdf(scheme: str, config: NetworkConfig, p_eq: float, x):
    """Pr(interference at a receiving PU <= x): the gamma CDF of shape k_su and
    scale p_eq sigma2_leak (see _SCHEMES), or the unit step at 0 when nothing leaks."""
    _check_positive("p_eq", p_eq)
    _check_point("x", x)
    sigma2_leak = getattr(config, _SCHEMES[scheme][2])
    if sigma2_leak == 0.0:
        return np.ones(x.shape) if isinstance(x, np.ndarray) else 1.0
    return GammaParams(shape=float(config.k_su), scale=p_eq * sigma2_leak).cdf(x)


def _zfb_shape(config: NetworkConfig) -> int:
    """Shape k_n of the ZF signal gain W ~ Gamma(k_n, theta_n).

    theta_n = p_eq e/m_b with e the mean principal gain, and
    k_n = m_b - k_su - l_rx + 1 is the ZF null-space dimension: the
    beam of SU k nulls the other k_su - 1 streams and the l_rx
    estimated receiving-PU channels.
    """
    k_n = config.m_b - config.k_su - config.l_rx + 1
    if k_n < 1:
        raise ValueError(
            f"need m_b >= k_su + l_rx for the ZFB SINR model, got "
            f"m_b={config.m_b}, k_su={config.k_su}, l_rx={config.l_rx}"
        )
    return k_n


def zfb_sinr_params(config: NetworkConfig, p_eq: float) -> GenFParams | GammaParams:
    """Moment-matched ZFB SINR law at equal power p_eq (the paper's law).

    The numerator gain concentrates on a gamma with shape
    k_n = m_b - k_su - l_rx + 1 (the ZF null-space dimension) and the
    denominator noise-plus-PU power on a gamma with shape k_d; their
    ratio is generalized F.  Without transmitting PUs (l_tx = 0, or
    p_p = 0) the denominator is the constant sigma2_w and the SINR is
    the plain scaled gamma.
    """
    _check_positive("p_eq", p_eq)
    law, params, _ = _zfb_sinr_law(config)(p_eq)
    return law(*params)


def _zfb_sinr_law(config: NetworkConfig):
    """zfb_sinr_params of config as a function of the power: law(p_eq), for a
    float or an array, gives the law class, its unchecked parameters and the
    SINR scale (the gamma scale or 1/lam).  k_n and the denominator shape
    k_d depend on the config alone and are checked here, once."""
    k_n = float(_zfb_shape(config))
    e = expected_max_eig(config.m_u, config.m_b, config.sigma2_h)
    if config.l_tx == 0 or config.p_p == 0.0:
        def law(p_eq):
            scale = p_eq * e / config.m_b / config.sigma2_w
            return GammaParams, (k_n, scale), scale
        return law
    pu_mean = config.l_tx * config.p_p * config.sigma2_h
    pu_var = config.l_tx * (config.p_p * config.sigma2_h) ** 2
    k_d = (config.sigma2_w + pu_mean) ** 2 / pu_var
    _check_positive("k_d", k_d, _SHAPE_MAX)
    lam_num = pu_mean * config.m_b
    noise_pu = config.sigma2_w + pu_mean

    def law(p_eq):
        lam = lam_num / (p_eq * e * noise_pu)
        return GenFParams, (k_n, k_d, lam), 1.0 / lam
    return law


def zfb_sinr_cdf(law: GenFParams | GammaParams, s: float | np.ndarray) -> float | np.ndarray:
    """Pr(ZFB SINR <= s) under a law from zfb_sinr_params; s may be an array."""
    _check_point("s", s)
    return law.cdf(s)


def zfb_interference_cdf(config: NetworkConfig, p_eq: float,
                         x: float | np.ndarray) -> float | np.ndarray:
    """Pr(interference at a receiving PU <= x) under ZFB at power p_eq; x may be an array.

    ZF nulls the estimated PU channels, so only the CSI error leaks:
    the gamma scale uses sigma2_delta, and with perfect CSI the
    interference is identically zero (unit step at 0).
    """
    return _interference_cdf(ZFB, config, p_eq, x)


@lru_cache(maxsize=64)
def _exact_log_tables(k_n: int, l_tx: int):
    """Counts j = 0..k_n-1 with log j! and, when l_tx > 0, the log
    negative-binomial coefficients log C(j + l_tx - 1, j)."""
    j = np.arange(k_n, dtype=float)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(k_n)])
    if not l_tx:
        return j, log_fact, None
    log_binom = np.array([math.lgamma(i + l_tx) for i in range(k_n)])
    log_binom -= math.lgamma(l_tx) + log_fact
    return j, log_fact, log_binom


def zfb_sinr_exact_cdf(config: NetworkConfig, p_eq: float,
                       s: float | np.ndarray) -> float | np.ndarray:
    """Pr(ZFB SINR <= s) at power p_eq with the exact noise-plus-PU denominator.

    Under ZF the inter-stream term vanishes and the SINR is
    W/(sigma2_w + Y).  W ~ Gamma(k_n, theta_n) as in zfb_sinr_params.
    Y = p_p sum_l |u_k^H h_lk|^2 ~ Gamma(l_tx, beta), beta = p_p sigma2_h,
    exactly, because the unit-norm receive beam u_k is independent of
    the PU-to-SU channels.  k_n is an integer, so
    Pr(W > s(sigma2_w + Y)) = Pr(N1 + N2 <= k_n - 1) with
    N1 ~ Poisson(s sigma2_w/theta_n) and
    N2 ~ NegBin(l_tx, s beta/(theta_n + s beta)): a finite sum of
    positive terms.  l_tx = 0 (or p_p = 0) makes N2 = 0, which is the
    plain gamma law of zfb_sinr_params.  s may be an array (see
    _exact_cdf); a float is evaluated as a one-element array.  p_eq is
    one power: an array raises ValueError.
    """
    if np.ndim(p_eq):
        raise ValueError(f"p_eq must be one power, got an array of shape {np.shape(p_eq)}")
    _check_positive("p_eq", p_eq)
    k_n = _zfb_shape(config)
    e = expected_max_eig(config.m_u, config.m_b, config.sigma2_h)
    _check_point("s", s)
    return _bounded(_exact_cdf, s, config, k_n, p_eq * e / config.m_b)


# doubles in each (k_n, samples) temporary of _exact_cdf (1 MB), so that
# its peak memory does not grow with the number of samples
_EXACT_CHUNK_ELEMENTS = 2 ** 17


def _exact_cdf(s, config, k_n, theta_n):
    """zfb_sinr_exact_cdf at points 0 < s < inf.

    A float runs as a one-element array.  The samples are the columns of
    (k_n, chunk) arrays.  Pr(N1 <= m) is a running sum of the Poisson
    pmf, and the final sum over j adds its terms in index order, so each
    element does not depend on the others in its chunk: a one-element
    array gives the same bits.
    """
    l_tx = config.l_tx
    j, log_fact, log_binom = _exact_log_tables(k_n, l_tx)
    pts = np.array(s, dtype=float, ndmin=1).ravel()
    with np.errstate(over="ignore"):  # inf where the CDF is 1
        lam1 = pts * config.sigma2_w / theta_n
        x = pts * config.p_p * config.sigma2_h / theta_n
    top = np.isinf(lam1 + x)
    out = 1.0 * top
    mid = np.flatnonzero(~top & (lam1 > 0.0))  # the CDF is 0 where lam1 underflows to 0
    step = max(1, _EXACT_CHUNK_ELEMENTS // j.size)
    for start in range(0, mid.size, step):
        cols = mid[start:start + step]
        lam, xs = lam1[cols], x[cols]
        log_pmf = j[:, None] * _elementwise(math.log, lam)
        log_pmf -= log_fact[:, None]
        log_pmf -= lam
        poisson_cdf = np.add.accumulate(np.exp(log_pmf))
        tail = poisson_cdf[-1].copy()
        nb = np.zeros(cols.size, bool) if log_binom is None else xs != 0.0
        if nb.any():
            # sum over j of Pr(N2 = j) Pr(N1 <= k_n - 1 - j)
            log1p_x = _elementwise(math.log1p, xs[nb])
            log_pmf = j[:, None] * (_elementwise(math.log, xs[nb]) - log1p_x)
            log_pmf += log_binom[:, None]
            log_pmf -= l_tx * log1p_x
            dot = np.zeros(log1p_x.size)
            for pmf, cdf in zip(np.exp(log_pmf), poisson_cdf[::-1, nb]):
                dot += pmf * cdf
            tail[nb] = dot
        out[cols] = _clip_unit(1.0 - tail)
    return out.reshape(s.shape) if isinstance(s, np.ndarray) else out.item()


def _clip_unit(v):
    """min(max(v, 0), 1), element by element for an array."""
    if isinstance(v, np.ndarray):
        v = np.where(0.0 > v, 0.0, v)
        return np.where(1.0 < v, 1.0, v)
    return min(max(v, 0.0), 1.0)


class _Schemes(dict):
    """The table of laws() and q_k, per scheme: the SINR law of q_k as a function of
    the config (see _meb_sinr_law), its public CDF, the config field of the variance
    leaking to a receiving PU, and the (quantity, public CDF) of validated-only laws."""

    def __missing__(self, scheme):
        raise ValueError(f"unknown scheme {scheme!r}")


_SCHEMES = _Schemes({
    MEB: (_meb_sinr_law, meb_sinr_cdf, "sigma2_h", ()),
    ZFB: (_zfb_sinr_law, zfb_sinr_cdf, "sigma2_delta", (("sinr_exact", zfb_sinr_exact_cdf),)),
})


def laws(scheme: str, config: NetworkConfig, p_eq: float) -> list[tuple]:
    """The closed-form laws of scheme at power p_eq, as rows (quantity, the
    ExperimentResult sample field it describes, its public *_cdf at config and
    p_eq, in_q): MEB's sinr and interference, ZFB's sinr (the paper's law),
    sinr_exact and interference.  q_k multiplies the in_q rows' 1 - F(2^r0 - 1)
    per SU and F(i0) per receiving PU."""
    sinr_law, sinr_cdf, _, validated = _SCHEMES[scheme]
    _check_positive("p_eq", p_eq)
    law, params, _ = sinr_law(config)(p_eq)
    return [("sinr", "sinr_true", partial(sinr_cdf, law(*params)), True),
            *((quantity, "sinr_true", partial(cdf, config, p_eq), False)
              for quantity, cdf in validated),
            ("interference", "int_to_pu_true", partial(_interference_cdf, scheme, config, p_eq),
             True)]


def q_k(scheme: str, config: NetworkConfig, p_eq: float | np.ndarray) -> float | np.ndarray:
    """Probability of serving all k_su SUs at equal power p_eq.

    [1 - sinr_cdf(2^r0 - 1)]^k_su * [interference_cdf(i0)]^l_rx with the
    in_q rows of laws().  p_eq may be a 1-D array of powers: the laws
    then carry array parameters and the result is the array of q_k
    values, equal element for element to scalar calls (a 0-d array is
    one power, and gives a float).  Where p_eq takes
    a law's own parameters out of the float range, q_k takes the law's
    limit, the point mass at its scale: 1/(c + a) for the MEB SINR (see
    meb_sinr_params), the gamma scale or 1/lam for the ZFB SINR and
    p_eq sigma2_leak for the interference.  A gamma shape is out of
    range where its lgamma overflows, too.  A float power whose laws
    leave the range or raise runs as a one-element array, which raises
    again for a bad power; a bad config raises before any power is read.
    """
    return _q_kernel(scheme, config)(p_eq)


def _q_kernel(scheme: str, config: NetworkConfig):
    """q_k of one scheme and config as a function of the power alone.

    The config is validated, and everything that depends on it alone
    (2^r0 - 1, E[sigma2_k1], sigma2_leak and the law constants) computed,
    once here; the returned q(p_eq) does the per-power work.  A float
    power takes each law's CDF formula directly, with the range checks
    inline; an array takes the array rule of q_k, where the gamma-family
    terms share one specfun pass (see _cdfs_in_range).
    """
    thr = 2.0 ** config.r0 - 1.0
    entry = _SCHEMES[scheme]
    sinr_law, sigma2_leak = entry[0](config), getattr(config, entry[2])
    k_su = float(config.k_su)

    def served(exceed, comply):
        return (_elementwise(pow, _clip_unit(exceed), config.k_su)
                * _elementwise(pow, _clip_unit(comply), config.l_rx))

    def q_array(p):
        _check_positive("p_eq", p)
        # out of the float range a parameter is 0, inf or NaN and a CDF term
        # over- or underflows, silently as for a float whatever the caller's
        # error state
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            law, params, sinr_scale = sinr_law(p)
            leak = p * sigma2_leak
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            sinr_cdf, comply = _cdfs_in_range(((law, params, sinr_scale, thr),
                                               (GammaParams, (k_su, leak), leak, config.i0)))
        return served(1.0 - sinr_cdf, comply)

    def q(p_eq):
        if isinstance(p_eq, np.ndarray) and p_eq.ndim:
            return q_array(p_eq)
        _check_positive("p_eq", p_eq)
        try:
            p = float(p_eq)
            law, params, _ = sinr_law(p)
            leak = p * sigma2_leak
            if (all(0.0 < v < upper for v, upper in zip(params, law._upper))
                    and (sigma2_leak == 0.0 or 0.0 < leak < math.inf)):
                exceed = 1.0 - _bounded(law._formula, thr, *params)
                comply = (1.0 if sigma2_leak == 0.0
                          else _bounded(GammaParams._formula, config.i0, k_su, leak))
                return served(exceed, comply)
        except (ValueError, ZeroDivisionError):
            pass
        return q_array(np.array([p_eq], dtype=float)).item()
    return q


def _cdfs_in_range(terms):
    """law(*params).cdf(s) for each (law, params, scale, s) of terms, where the
    law's array parameters (one per power) are in range, else the unit step
    at scale (0 at s <= 0).

    The gamma-family terms at a point 0 < s < inf go through one
    regularized_lower_gamma call over their concatenated (shape, point)
    arrays, so its series and continued-fraction loops run once for all of
    them; each element's arithmetic, and so its bits, is that of its own
    call, and an element that does not converge raises its own error.
    """
    outs, gammas = [], []
    for law, params, scale, s in terms:
        ok = np.logical_and.reduce([(v > 0.0) & (v < upper) for v, upper in zip(params, law._upper)
                                    if isinstance(v, np.ndarray)])
        if not ok.all():
            params = [v[ok] if isinstance(v, np.ndarray) else v for v in params]
        out = 1.0 * ((s > 0.0) & (s >= scale))
        outs.append(out)
        if not ok.any():
            continue
        if issubclass(law, _GammaFamily) and 0.0 < s < math.inf:
            gammas.append((law, out, ok, *law._gamma_args(s, *params)))
        else:
            out[ok] = _bounded(law._formula, s, *params)
    if len(gammas) == 1:  # a float shape stays a float
        law, out, ok, k, z = gammas[0]
        out[ok] = law._from_gamma(regularized_lower_gamma(k, z))
    elif gammas:
        shapes = np.concatenate([np.broadcast_to(k, z.shape) for *_, k, z in gammas])
        p = regularized_lower_gamma(shapes, np.concatenate([z for *_, z in gammas]))
        ends = np.cumsum([z.size for *_, z in gammas])
        for (law, out, ok, _, z), end in zip(gammas, ends):
            out[ok] = law._from_gamma(p[end - z.size:end])
    return outs


def equal_power_bounds(config: NetworkConfig) -> tuple[float, float]:
    """Bracket [p_min, p_max] for the equal-power search.

    p_max = p0/k_su splits the budget evenly; p_min is the power that
    meets the rate threshold over noise alone at the mean principal
    gain.  p_min may exceed p_max on infeasible configs; the optimizer
    handles that case.
    """
    p_max = config.p0 / config.k_su
    e = expected_max_eig(config.m_u, config.m_b, config.sigma2_h)
    p_min = config.sigma2_w * (2.0 ** config.r0 - 1.0) / e
    return p_min, p_max


@dataclass(frozen=True)
class EqualPowerOptimum:
    """Result of the equal-power search; range_feasible is False when
    p_min exceeded p_max and the value is the p_max endpoint."""

    p_eq: float
    q: float
    range_feasible: bool


_GRID_POINTS = 256
_GOLDEN_ITERS = 100
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_equal_power(scheme: str, config: NetworkConfig) -> EqualPowerOptimum:
    """Maximize q_k over the equal-power bracket, deterministically.

    A 256-point log-spaced grid scan (one array evaluation) guards
    against local maxima, then golden-section refines around the best
    grid cell with scalar evaluations, unless the grid already reaches
    the ceiling q = 1.  The config's q_k kernel is built once and scores
    the grid and every golden-section point, with the bits of q_k.
    Exact ties keep the lowest power (the grid argmax takes the first
    maximum and refinement must strictly improve to replace it).
    """
    p_min, p_max = equal_power_bounds(config)
    q = _q_kernel(scheme, config)
    if p_min > p_max:
        return EqualPowerOptimum(p_eq=p_max, q=q(p_max), range_feasible=False)

    # p_min is 0 where 2^r0 - 1 rounds to 0; q then only falls with power
    lo, hi = math.log10(max(p_min, math.ulp(0.0))), math.log10(p_max)
    grid = np.logspace(lo, hi, _GRID_POINTS)
    values = q(grid)
    best = int(np.argmax(values))
    best_p, best_q = float(grid[best]), float(values[best])
    if best_q == 1.0:
        # q_k <= 1 and refinement must strictly improve: nothing to refine
        return EqualPowerOptimum(p_eq=best_p, q=best_q, range_feasible=True)

    a = math.log10(grid[max(best - 1, 0)])
    b = math.log10(grid[min(best + 1, _GRID_POINTS - 1)])
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = q(10.0 ** x1)
    f2 = q(10.0 ** x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = q(10.0 ** x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = q(10.0 ** x1)
        if b - a < 1e-12:
            break
    refined = 10.0 ** ((a + b) / 2.0)
    refined_q = q(refined)
    if refined_q > best_q:
        best_p, best_q = refined, refined_q
    return EqualPowerOptimum(p_eq=best_p, q=best_q, range_feasible=True)
