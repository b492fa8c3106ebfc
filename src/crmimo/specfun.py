"""Regularized incomplete gamma and beta functions.

Double-precision implementations: the lower incomplete gamma P(k, x)
uses a power series for x < k + 1 and a Lentz continued fraction for
the complement above it; the incomplete beta I_x(a, b) uses the
standard continued fraction with the symmetry switch at
x = (a + 1)/(a + b + 2).  Shapes up to a few thousand converge well
inside the iteration caps.

Both functions take floats or numpy arrays.  Floats run the scalar
loops, which stay the reference.  Arrays (broadcast together) run the
same loops as array operations, dropping each element once it
converges, and give every element exactly the scalar result: the loops
use only +, -, *, / and comparisons, which numpy rounds as Python does,
in the same order.  The exp, log, log1p and lgamma fronts, and any
power, must not go through numpy: its SIMD exp, log and log1p and its
power loops differ from libm in the last bit on part of their inputs
(with numpy 2.4 on an AVX-512 CPU, 9169 of 200k random inputs for exp,
16000 for log1p, 25 for log, 10697 for arr ** 10, 168 for arr ** 2).
So the array forms take them per element through math (_elementwise).
An element outside the domain, or one that does not converge, raises
the ValueError or ArithmeticError the scalar call raises.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["regularized_lower_gamma", "regularized_incomplete_beta"]

MAX_ITER = 1000
EPS = 3.0e-15
_FPMIN = 1.0e-300


def regularized_lower_gamma(k: float, x: float) -> float:
    """P(k, x) = lower incomplete gamma over Gamma(k), in [0, 1].

    Args:
        k: shape, k > 0 (float or array).
        x: evaluation point, x >= 0 (float or array).

    Raises:
        ValueError: outside the domain.
        ArithmeticError: no convergence within MAX_ITER terms.
    """
    if isinstance(k, np.ndarray) or isinstance(x, np.ndarray):
        return _lower_gamma_array(k, x)
    k = float(k)
    x = float(x)
    if not (k > 0.0) or not math.isfinite(k):
        raise ValueError(f"shape must be positive and finite, got {k!r}")
    if not (x >= 0.0):
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < k + 1.0:
        return _gamma_series(k, x)
    return 1.0 - _gamma_cf(k, x)


def _gamma_series(k, x):
    # P(k,x) as a power series in x
    ap = k
    term = 1.0 / k
    total = term
    for _ in range(MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * EPS:
            log_front = k * math.log(x) - x - math.lgamma(k)
            return total * math.exp(log_front)
    raise ArithmeticError(f"gamma series did not converge for k={k}, x={x}")


def _gamma_cf(k, x):
    # Q(k,x) = 1 - P(k,x) by modified Lentz continued fraction
    b = x + 1.0 - k
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, MAX_ITER + 1):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            log_front = k * math.log(x) - x - math.lgamma(k)
            return math.exp(log_front) * h
    raise ArithmeticError(f"gamma continued fraction did not converge for k={k}, x={x}")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) = incomplete beta over B(a, b), in [0, 1].

    Args:
        x: evaluation point in [0, 1] (float or array).
        a: first shape, a > 0 (float or array).
        b: second shape, b > 0 (float or array).

    Raises:
        ValueError: outside the domain.
        ArithmeticError: no convergence within MAX_ITER terms.
    """
    if isinstance(x, np.ndarray) or isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _incomplete_beta_array(x, a, b)
    x = float(x)
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"shapes must be positive and finite, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"argument must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def _beta_cf(x, a, b):
    # continued fraction for the incomplete beta, modified Lentz form
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ArithmeticError(f"beta continued fraction did not converge for x={x}, a={a}, b={b}")


# Array forms.  Each loop repeats its scalar twin above operation for
# operation, in the same order, on the elements not yet converged.

def _elementwise(fn, v, *args):
    """fn(v, *args) for a float; for an array, fn of each element taken as
    a Python float, so that the result matches the scalar code bit for bit."""
    if isinstance(v, np.ndarray):
        values = map(fn, v.ravel().tolist(), *(itertools.repeat(a, v.size) for a in args))
        return np.fromiter(values, float, v.size).reshape(v.shape)
    return fn(v, *args)


def _as_arrays(*values):
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def _raise_domain_error(bad, scalar_fn, *arrays):
    """Raise the scalar function's ValueError for the first flagged element."""
    if bad.any():
        i = np.flatnonzero(bad)[0]
        scalar_fn(*(v.flat[i].item() for v in arrays))


def _lower_gamma_array(k, x):
    k, x = _as_arrays(k, x)
    _raise_domain_error(~((k > 0.0) & np.isfinite(k) & (x >= 0.0)),
                        regularized_lower_gamma, k, x)
    out = np.where(x == 0.0, 0.0, 1.0)
    series = (x > 0.0) & (x < k + 1.0)
    cf = (x >= k + 1.0) & ~np.isinf(x)
    if series.any():
        out[series] = _gamma_series_array(k[series], x[series])
    if cf.any():
        out[cf] = 1.0 - _gamma_cf_array(k[cf], x[cf])
    return out


def _gamma_front_array(k, x):
    log_front = k * _elementwise(math.log, x) - x - _elementwise(math.lgamma, k)
    return _elementwise(math.exp, log_front)


def _gamma_series_array(k, x):
    out = np.empty_like(k)
    left = np.arange(k.size)
    ap = k.copy()
    term = 1.0 / k
    total = term.copy()
    xs = x
    for _ in range(MAX_ITER):
        ap += 1.0
        term *= xs / ap
        total += term
        done = np.abs(term) < np.abs(total) * EPS
        if done.any():
            out[left[done]] = total[done]
            keep = ~done
            left, ap, term, total, xs = left[keep], ap[keep], term[keep], total[keep], xs[keep]
            if not left.size:
                return out * _gamma_front_array(k, x)
    first = left[0]
    raise ArithmeticError(f"gamma series did not converge for "
                          f"k={k[first].item()}, x={x[first].item()}")


def _gamma_cf_array(k, x):
    out = np.empty_like(k)
    left = np.arange(k.size)
    ks = k
    b = x + 1.0 - k
    c = np.full_like(k, 1.0 / _FPMIN)
    d = 1.0 / np.where(b != 0.0, b, _FPMIN)
    h = d.copy()
    for i in range(1, MAX_ITER + 1):
        an = -i * (i - ks)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < EPS
        if done.any():
            out[left[done]] = h[done]
            keep = ~done
            left, ks, b, c, d, h = left[keep], ks[keep], b[keep], c[keep], d[keep], h[keep]
            if not left.size:
                return _gamma_front_array(k, x) * out
    first = left[0]
    raise ArithmeticError(f"gamma continued fraction did not converge for "
                          f"k={k[first].item()}, x={x[first].item()}")


def _incomplete_beta_array(x, a, b):
    x, a, b = _as_arrays(x, a, b)
    _raise_domain_error(~((a > 0.0) & (b > 0.0) & np.isfinite(a) & np.isfinite(b)
                          & (0.0 <= x) & (x <= 1.0)),
                        regularized_incomplete_beta, x, a, b)
    out = np.where(x == 0.0, 0.0, 1.0)
    inner = (x > 0.0) & (x < 1.0)
    if not inner.any():
        return out
    x, a, b = x[inner], a[inner], b[inner]
    log_front = (
        _elementwise(math.lgamma, a + b) - _elementwise(math.lgamma, a)
        - _elementwise(math.lgamma, b)
        + a * _elementwise(math.log, x) + b * _elementwise(math.log1p, -x)
    )
    front = _elementwise(math.exp, log_front)
    # below the switch I_x(a, b) directly, above it 1 - I_{1-x}(b, a)
    lower = x < (a + 1.0) / (a + b + 2.0)
    p = np.where(lower, a, b)
    part = front * _beta_cf_array(np.where(lower, x, 1.0 - x), p, np.where(lower, b, a)) / p
    out[inner] = np.where(lower, part, 1.0 - part)
    return out


def _beta_cf_array(x, a, b):
    out = np.empty_like(x)
    left = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _FPMIN] = _FPMIN
    d = 1.0 / d
    h = d.copy()
    for m in range(1, MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < EPS
        if done.any():
            out[left[done]] = h[done]
            keep = ~done
            left, x, a, b, qab, qap, qam, c, d, h = (
                v[keep] for v in (left, x, a, b, qab, qap, qam, c, d, h))
            if not left.size:
                return out
    raise ArithmeticError(f"beta continued fraction did not converge for "
                          f"x={x[0].item()}, a={a[0].item()}, b={b[0].item()}")
