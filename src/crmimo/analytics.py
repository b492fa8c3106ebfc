"""Closed-form serving-probability machinery.

Under equal per-SU power p_eq, the SINR of an MEB stream is well
modeled by an inverse-gamma law (moment-matched after replacing the
principal channel gain by its mean), the SINR of a ZF stream by a
generalized-F law (ratio of two moment-matched gammas, the paper's
law) or by the exact-denominator law of zfb_sinr_exact_cdf, and the
aggregate interference at a receiving PU by a gamma law with shape
k_su.  From the paper's laws, q_k gives the probability that all k_su
SUs reach rate r0 while every receiving PU stays below the cap i0, and
optimize_equal_power finds the best p_eq inside the feasible bracket.
The law functions and q_k also take a 1-D array of powers and then
return laws with array parameters and an array of q_k values.  Every
CDF, the laws' cdf methods and the public *_cdf functions, takes a
float or an array of points, so a KS validation takes one call per pass
over its samples.  All of them share two rules: _bounded_cdf gives 0 at
s <= 0 and 1 at s = inf around each law's formula for the points
between, and _check_point makes each public *_cdf reject a negative or
NaN point.
Array results equal scalar calls bit for bit (see specfun for how).

The mean principal Wishart eigenvalue E[sigma2_k1] that the models
need is estimated once per shape by Monte Carlo and cached, with
precomputed values shipped in data/wishart_means.txt.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .beamforming import MEB, ZFB
from .network import NetworkConfig
from .specfun import _elementwise, regularized_incomplete_beta, regularized_lower_gamma

__all__ = [
    "GammaParams",
    "InverseGammaParams",
    "GenFParams",
    "PointMassParams",
    "EqualPowerOptimum",
    "WISHART_SAMPLES",
    "expected_max_eig",
    "load_wishart_cache",
    "save_wishart_cache",
    "meb_sinr_params",
    "meb_sinr_cdf",
    "meb_interference_cdf",
    "zfb_sinr_params",
    "zfb_sinr_cdf",
    "zfb_sinr_exact_cdf",
    "zfb_interference_cdf",
    "q_k",
    "equal_power_bounds",
    "optimize_equal_power",
]


def _check_positive(name: str, val):
    """Raise ValueError unless val (a float or an array) is finite and positive."""
    if isinstance(val, np.ndarray):
        bad = ~(np.isfinite(val) & (val > 0.0))
        if not bad.any():
            return
        val = val[bad][0].item()
    if not math.isfinite(val) or val <= 0:
        raise ValueError(f"{name} must be finite and positive, got {val!r}")


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


def _bounded_cdf(formula):
    """Make formula(law, s), the law's CDF at 0 < s < inf, its CDF at every s.

    0.0 at s <= 0 and 1.0 at s = inf are Python floats for a float s,
    whatever the law's parameters; other floats reach formula as floats.
    An array s takes one call of formula on its points between (NaN too),
    with numpy's overflow and divide warnings off as Python floats have
    none; a law with array parameters takes only boundary-free arrays.
    """
    def cdf(law, s):
        if not isinstance(s, np.ndarray):
            if s <= 0.0:
                return 0.0
            return 1.0 if s == math.inf else formula(law, float(s))
        top = s == math.inf
        mid = ~((s <= 0.0) | top)
        with np.errstate(over="ignore", divide="ignore"):
            if mid.all():
                return formula(law, s)
            out = np.where(top, 1.0, 0.0)
            if mid.any():
                out[mid] = formula(law, s[mid])
        return out
    return cdf


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution with density x^(shape-1) e^(-x/scale)."""

    shape: float
    scale: float

    def __post_init__(self):
        _check_positive("shape", self.shape)
        _check_positive("scale", self.scale)

    @_bounded_cdf
    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        return regularized_lower_gamma(self.shape, x / self.scale)


@dataclass(frozen=True)
class InverseGammaParams:
    """Inverse-gamma distribution; theta is the reciprocal of the scale.

    If X ~ Gamma(shape, theta) then 1/X has this law, so
    Pr(1/X <= s) = 1 - P(shape, 1/(s theta)).
    """

    shape: float
    theta: float

    def __post_init__(self):
        _check_positive("shape", self.shape)
        _check_positive("theta", self.theta)

    @_bounded_cdf
    def cdf(self, s: float | np.ndarray) -> float | np.ndarray:
        st = s * self.theta
        if not isinstance(st, np.ndarray) and st == 0.0:
            return 0.0  # s theta underflows to 0; an array gets 1/0 = inf, so 0 too
        return 1.0 - regularized_lower_gamma(self.shape, 1.0 / st)


@dataclass(frozen=True)
class GenFParams:
    """Generalized F law of a ratio of independent gammas.

    If W ~ Gamma(k_n, theta_n) and D ~ Gamma(k_d, theta_d) then W/D has
    CDF I_{lam s / (1 + lam s)}(k_n, k_d) with lam = theta_d/theta_n.
    """

    k_n: float
    k_d: float
    lam: float

    def __post_init__(self):
        for name in ("k_n", "k_d", "lam"):
            _check_positive(name, getattr(self, name))
        if self.k_n < 1.0:
            raise ValueError(f"k_n must be at least 1, got {self.k_n!r}")

    @_bounded_cdf
    def cdf(self, s: float | np.ndarray) -> float | np.ndarray:
        z = self.lam * s  # inf on overflow, where the CDF is 1
        if isinstance(z, np.ndarray):
            x = np.divide(z, 1.0 + z, out=np.ones(z.shape), where=z != math.inf)
        elif z == math.inf:
            return 1.0
        else:
            x = z / (1.0 + z)
        return regularized_incomplete_beta(x, self.k_n, self.k_d)


@dataclass(frozen=True)
class PointMassParams:
    """Unit point mass at value: the MEB SINR when its denominator is
    deterministic (k_su = 1 with no transmitting PU)."""

    value: float

    def __post_init__(self):
        _check_positive("value", self.value)

    @_bounded_cdf
    def cdf(self, s: float | np.ndarray) -> float | np.ndarray:
        return 1.0 * (s >= self.value)


WISHART_SAMPLES = 100_000

_cache: dict[tuple[int, int], tuple[float, float, int]] | None = None


def _wishart_seed(m_u: int, m_b: int) -> int:
    return m_u * 1_000_003 + m_b


def _simulate_max_eig(m_u: int, m_b: int, n_samples: int = WISHART_SAMPLES):
    """Mean largest eigenvalue of H H^H, H of shape (m_u, m_b) with unit
    per-entry variance, by batched Monte Carlo.  Deterministic per shape."""
    rng = np.random.default_rng(_wishart_seed(m_u, m_b))
    batch = 2000 if m_b <= 256 else 400
    total = total_sq = 0.0
    done = 0
    while done < n_samples:
        size = min(batch, n_samples - done)
        h = (rng.standard_normal((size, m_u, m_b))
             + 1j * rng.standard_normal((size, m_u, m_b))) / np.sqrt(2.0)
        top = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))[:, -1]
        total += top.sum()
        total_sq += (top ** 2).sum()
        done += size
    mean = total / n_samples
    stderr = math.sqrt(max(total_sq / n_samples - mean ** 2, 0.0) / n_samples)
    return mean, stderr, n_samples


def load_wishart_cache(path_or_file) -> dict:
    """Parse cache lines `m_u m_b mean stderr n_samples` into a dict."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    cache = {}
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        m_u, m_b, mean, stderr, n = body.split()
        cache[(int(m_u), int(m_b))] = (float(mean), float(stderr), int(n))
    return cache


def save_wishart_cache(path, cache: dict):
    """Write the cache in the same text format load_wishart_cache reads."""
    with open(path, "w") as fh:
        fh.write("# m_u m_b mean stderr n_samples\n")
        for (m_u, m_b), (mean, stderr, n) in sorted(cache.items()):
            fh.write(f"{m_u} {m_b} {mean:.6f} {stderr:.6f} {n}\n")


def _get_cache() -> dict:
    global _cache
    if _cache is None:
        ref = resources.files("crmimo").joinpath("data/wishart_means.txt")
        with ref.open() as fh:
            _cache = load_wishart_cache(fh)
    return _cache


def expected_max_eig(m_u: int, m_b: int, sigma2_h: float = 1.0) -> float:
    """Mean principal eigenvalue E[sigma2_k1] of an m_u x m_b channel.

    H H^H and H^H H share their largest eigenvalue, so the shape is taken
    as (min, max).  Exact when min = 1 (chi-square mean sigma2_h * max);
    otherwise a cached 10^5-sample Monte Carlo estimate, scaled linearly
    by sigma2_h.  An uncached shape is simulated on first request, which
    emits a RuntimeWarning naming the shape and the seconds it took.
    """
    if m_u < 1 or m_b < 1:
        raise ValueError(f"need m_u >= 1 and m_b >= 1, got m_u={m_u}, m_b={m_b}")
    if sigma2_h <= 0 or not math.isfinite(sigma2_h):
        raise ValueError(f"sigma2_h must be finite and positive, got {sigma2_h!r}")
    if m_u > m_b:
        m_u, m_b = m_b, m_u
    if m_u == 1:
        return sigma2_h * m_b
    cache = _get_cache()
    key = (int(m_u), int(m_b))
    if key not in cache:
        start = time.perf_counter()
        cache[key] = _simulate_max_eig(*key)
        warnings.warn(f"Wishart mean of shape (m_u, m_b) = {key} is not in the shipped table; "
                      f"simulated it in {time.perf_counter() - start:.2f} s",
                      RuntimeWarning, stacklevel=2)
    return sigma2_h * cache[key][0]


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
    law, params, _ = _meb_sinr_law(config, p_eq)
    return law(*params)


def _meb_sinr_law(config: NetworkConfig, p_eq):
    """meb_sinr_params as its law class, unchecked parameters and SINR scale 1/(c + a)."""
    _check_positive("p_eq", p_eq)
    e = expected_max_eig(config.m_u, config.m_b, config.sigma2_h)
    u = p_eq * e
    pu = pu2 = 0.0  # no PU transmits: a large p_p must not overflow an unused square
    if config.l_tx and config.p_p:
        pu = config.l_tx * config.p_p * config.sigma2_h / u
        pu2 = config.l_tx * _square(config.p_p * config.sigma2_h / u)
    a = pu + (config.k_su - 1) / config.m_b
    b = pu2 + (config.k_su - 1) / config.m_b ** 2
    c = config.sigma2_w / u
    scale = 1.0 / (c + a)
    if config.k_su == 1 and not np.any(b):
        return PointMassParams, (scale,), scale
    return InverseGammaParams, (_square(c + a) / b, b / (c + a)), scale


def meb_sinr_cdf(law: InverseGammaParams | PointMassParams,
                 s: float | np.ndarray) -> float | np.ndarray:
    """Pr(MEB SINR <= s) under a law from meb_sinr_params; s may be an array."""
    _check_point("s", s)
    return law.cdf(s)


def meb_interference_cdf(config: NetworkConfig, p_eq: float,
                         x: float | np.ndarray) -> float | np.ndarray:
    """Pr(interference at a receiving PU <= x) under MEB at power p_eq; x may be an array."""
    return _interference_cdf(config, p_eq, x, config.sigma2_h)


def _interference_cdf(config: NetworkConfig, p_eq: float, x, sigma2_leak: float):
    """Pr(interference at a receiving PU <= x): the gamma CDF of shape k_su and
    scale p_eq sigma2_leak, or the unit step at 0 when nothing leaks."""
    _check_positive("p_eq", p_eq)
    _check_point("x", x)
    if sigma2_leak == 0.0:
        return np.ones(x.shape) if isinstance(x, np.ndarray) else 1.0
    return GammaParams(shape=float(config.k_su), scale=p_eq * sigma2_leak).cdf(x)


def _zfb_numerator(config: NetworkConfig, p_eq: float) -> tuple[int, float]:
    """Shape k_n of the ZF signal gain W and the mean principal gain e.

    W ~ Gamma(k_n, theta_n) with theta_n = p_eq e/m_b, and
    k_n = m_b - k_su - l_rx + 1 is the ZF null-space dimension: the
    beam of SU k nulls the other k_su - 1 streams and the l_rx
    estimated receiving-PU channels.
    """
    _check_positive("p_eq", p_eq)
    k_n = config.m_b - config.k_su - config.l_rx + 1
    if k_n < 1:
        raise ValueError(
            f"need m_b >= k_su + l_rx for the ZFB SINR model, got "
            f"m_b={config.m_b}, k_su={config.k_su}, l_rx={config.l_rx}"
        )
    return k_n, expected_max_eig(config.m_u, config.m_b, config.sigma2_h)


def zfb_sinr_params(config: NetworkConfig, p_eq: float) -> GenFParams | GammaParams:
    """Moment-matched ZFB SINR law at equal power p_eq (the paper's law).

    The numerator gain concentrates on a gamma with shape
    k_n = m_b - k_su - l_rx + 1 (the ZF null-space dimension) and the
    denominator noise-plus-PU power on a gamma with shape k_d; their
    ratio is generalized F.  Without transmitting PUs (l_tx = 0, or
    p_p = 0) the denominator is the constant sigma2_w and the SINR is
    the plain scaled gamma.
    """
    law, params, _ = _zfb_sinr_law(config, p_eq)
    return law(*params)


def _zfb_sinr_law(config: NetworkConfig, p_eq):
    """zfb_sinr_params as its law class, unchecked parameters and SINR scale (scale or 1/lam)."""
    k_n, e = _zfb_numerator(config, p_eq)
    theta_n = p_eq * e / config.m_b
    if config.l_tx == 0 or config.p_p == 0.0:
        scale = theta_n / config.sigma2_w
        return GammaParams, (float(k_n), scale), scale
    pu_mean = config.l_tx * config.p_p * config.sigma2_h
    pu_var = config.l_tx * (config.p_p * config.sigma2_h) ** 2
    k_d = (config.sigma2_w + pu_mean) ** 2 / pu_var
    lam = pu_mean * config.m_b / (p_eq * e * (config.sigma2_w + pu_mean))
    return GenFParams, (float(k_n), k_d, lam), 1.0 / lam


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
    return _interference_cdf(config, p_eq, x, config.sigma2_delta)


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
    k_n, e = _zfb_numerator(config, p_eq)
    _check_point("s", s)
    return _exact_cdf((config, k_n, p_eq * e / config.m_b), s)


# doubles in each (k_n, samples) temporary of _exact_cdf (1 MB), so that
# its peak memory does not grow with the number of samples
_EXACT_CHUNK_ELEMENTS = 2 ** 17


@_bounded_cdf
def _exact_cdf(law, s):
    """zfb_sinr_exact_cdf at points 0 < s < inf for law = (config, k_n, theta_n).

    A float runs as a one-element array.  The samples are the columns of
    (k_n, chunk) arrays.  Pr(N1 <= m) is a running sum of the Poisson
    pmf, and the final sum over j adds its terms in index order, so each
    element does not depend on the others in its chunk: a one-element
    array gives the same bits.
    """
    config, k_n, theta_n = law
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


def q_k(scheme: str, config: NetworkConfig, p_eq: float | np.ndarray) -> float | np.ndarray:
    """Probability of serving all k_su SUs at equal power p_eq.

    [1 - sinr_cdf(2^r0 - 1)]^k_su * [interference_cdf(i0)]^l_rx with the
    scheme's distributions.  p_eq may be a 1-D array of powers: the laws
    then carry array parameters and the result is the array of q_k
    values, equal element for element to scalar calls.  Where p_eq takes
    a law's own parameters out of the float range, q_k takes the law's
    limit, the point mass at its scale: 1/(c + a) for the MEB SINR (see
    meb_sinr_params), the gamma scale or 1/lam for the ZFB SINR and
    p_eq sigma2_leak for the interference.  A float power whose laws
    raise runs as a one-element array, which raises again for a bad
    config or power.
    """
    thr = 2.0 ** config.r0 - 1.0
    if scheme == MEB:
        sinr_law, sigma2_leak = _meb_sinr_law, config.sigma2_h
    elif scheme == ZFB:
        sinr_law, sigma2_leak = _zfb_sinr_law, config.sigma2_delta
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if isinstance(p_eq, np.ndarray):
        # out of the float range a parameter is 0, inf or NaN and a CDF term
        # over- or underflows, silently as for a float whatever the caller's
        # error state
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            law, params, sinr_scale = sinr_law(config, p_eq)
            leak = p_eq * sigma2_leak
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            exceed = 1.0 - _cdf_in_range(law, params, sinr_scale, thr)
            comply = _cdf_in_range(GammaParams, (float(config.k_su), leak), leak, config.i0)
    else:
        try:
            p = float(p_eq)
            law, params, _ = sinr_law(config, p)
            exceed = 1.0 - law(*params).cdf(thr)
            comply = _interference_cdf(config, p, config.i0, sigma2_leak)
        except (ValueError, ZeroDivisionError):
            return q_k(scheme, config, np.array([p_eq], dtype=float)).item()
    return (_elementwise(pow, _clip_unit(exceed), config.k_su)
            * _elementwise(pow, _clip_unit(comply), config.l_rx))


def _cdf_in_range(law, params, scale, s):
    """law(*params).cdf(s) where its array parameters (one per power) are
    finite and positive, else the unit step at scale (0 at s <= 0).  A
    bad float parameter (the config's) raises."""
    ok = np.logical_and.reduce([np.isfinite(v) & (v > 0.0)
                                for v in params if isinstance(v, np.ndarray)])
    if ok.all():
        return law(*params).cdf(s)
    out = 1.0 * ((s > 0.0) & (s >= scale))
    law = law(*(v[ok] if isinstance(v, np.ndarray) else v for v in params))
    if ok.any():
        out[ok] = law.cdf(s)
    return out


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

    A 256-point log-spaced grid scan (one array call of q_k) guards
    against local maxima, then golden-section refines around the best
    grid cell with scalar calls, unless the grid already reaches the
    ceiling q = 1.  Exact ties keep
    the lowest power (the grid argmax takes the first maximum and
    refinement must strictly improve to replace it).
    """
    p_min, p_max = equal_power_bounds(config)
    if p_min > p_max:
        return EqualPowerOptimum(p_eq=p_max, q=q_k(scheme, config, p_max),
                                 range_feasible=False)

    # p_min is 0 where 2^r0 - 1 rounds to 0; q then only falls with power
    lo, hi = math.log10(max(p_min, math.ulp(0.0))), math.log10(p_max)
    grid = np.logspace(lo, hi, _GRID_POINTS)
    values = q_k(scheme, config, grid)
    best = int(np.argmax(values))
    best_p, best_q = float(grid[best]), float(values[best])
    if best_q == 1.0:
        # q_k <= 1 and refinement must strictly improve: nothing to refine
        return EqualPowerOptimum(p_eq=best_p, q=best_q, range_feasible=True)

    a = math.log10(grid[max(best - 1, 0)])
    b = math.log10(grid[min(best + 1, _GRID_POINTS - 1)])
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = q_k(scheme, config, 10.0 ** x1)
    f2 = q_k(scheme, config, 10.0 ** x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = q_k(scheme, config, 10.0 ** x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = q_k(scheme, config, 10.0 ** x1)
        if b - a < 1e-12:
            break
    refined = 10.0 ** ((a + b) / 2.0)
    refined_q = q_k(scheme, config, refined)
    if refined_q > best_q:
        best_p, best_q = refined, refined_q
    return EqualPowerOptimum(p_eq=best_p, q=best_q, range_feasible=True)
