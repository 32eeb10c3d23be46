"""Kernels: gamma and modified Bessel machinery.

``specfun`` is the public front end; callers are expected to have
validated their inputs (finite, in domain) before reaching this layer.
The scalar kernels take floats; ``bessel_ratio_array`` takes a 1-D array
and reproduces the scalar ``bessel_ratio`` bit for bit.
"""

import math

import numpy as np

from .errors import ConvergenceError

SERIES_MAX_TERMS = 500
SERIES_RTOL = 1e-17
UNSCALED_OVERFLOW_X = 700.0
HALF_INTEGER_MIN_X = 1.0
RATIO_MAX_ITER = 50_000
# below this x the ratio is its leading term x/(2p): the next term's relative
# size x^2/(4p(p+1)) is under half an ulp, while Lentz's 1e-300 seed is no
# longer negligible against x/(2p)
RATIO_LEADING_TERM_X = 1e-150

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def series_cutoff(p):
    """Largest x handled by the power series for order p."""
    return max(30.0, 0.5 * p * p + 10.0)


def gamma(x):
    """Gamma function for x > 0 (Lanczos approximation, g=7, 9 terms)."""
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    # split the power so arguments up to x ~ 170 stay representable
    half_pow = math.pow(t, 0.5 * (z + 0.5))
    return math.sqrt(2.0 * math.pi) * acc * half_pow * math.exp(-t) * half_pow


def _bessel_series(p, x):
    """Power-series I_p(x); valid for x <= series_cutoff(p)."""
    half = 0.5 * x
    term = math.pow(half, p) / gamma(p + 1.0)
    acc = term
    q = half * half
    for m in range(1, SERIES_MAX_TERMS + 1):
        term *= q / (m * (p + m))
        acc += term
        if term <= acc * SERIES_RTOL:
            if not math.isfinite(acc):
                break
            return acc
    raise ConvergenceError(
        f"Bessel series did not converge in {SERIES_MAX_TERMS} terms "
        f"(p={p}, x={x})"
    )


def _bessel_asymptotic_scaled(p, x):
    """Large-x expansion of e^(-x) I_p(x), truncated at the smallest term."""
    mu = 4.0 * p * p
    acc = 1.0
    term = 1.0
    for m in range(1, 1000):
        nxt = term * (((2 * m - 1) ** 2 - mu) / (8.0 * x * m))
        if abs(nxt) >= abs(term):
            break
        term = nxt
        acc += term
        if abs(term) <= abs(acc) * SERIES_RTOL:
            break
    return acc / math.sqrt(2.0 * math.pi * x)


def _half_integer_scaled(p, x):
    """Closed-form e^(-x) I_p(x) for p in {1/2, 3/2, 5/2}."""
    s = math.sqrt(2.0 / (math.pi * x))
    em = math.exp(-2.0 * x)
    sh = 0.5 * (1.0 - em)  # e^{-x} sinh x
    ch = 0.5 * (1.0 + em)  # e^{-x} cosh x
    if p == 0.5:
        return s * sh
    if p == 1.5:
        return s * (ch - sh / x)
    return s * ((1.0 + 3.0 / (x * x)) * sh - (3.0 / x) * ch)


def bessel_i_parts(p, x):
    """Evaluate I_p(x); returns (value, scaled_value, method_name).

    scaled_value is e^(-x) I_p(x); value is +inf above the unscaled
    overflow threshold.
    """
    if x == 0.0:
        v = 1.0 if p == 0.0 else 0.0
        return v, v, "series"
    if p in (0.5, 1.5, 2.5) and x >= HALF_INTEGER_MIN_X:
        scaled = _half_integer_scaled(p, x)
        method = "closed_form_half_integer"
    elif x <= series_cutoff(p):
        value = _bessel_series(p, x)
        return value, value * math.exp(-x), "series"
    else:
        scaled = _bessel_asymptotic_scaled(p, x)
        method = "asymptotic"
    if x > UNSCALED_OVERFLOW_X:
        value = math.inf
    else:
        value = scaled * math.exp(x)
    return value, scaled, method


def _ratio_lentz(p, x):
    """Continued fraction for I_p(x)/I_{p-1}(x), modified Lentz scheme."""
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    two_over_x = 2.0 / x
    for j in range(1, RATIO_MAX_ITER + 1):
        b = two_over_x * (p + j - 1.0)
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled (p={p}, x={x})"
    )


_ONE_BELOW = math.nextafter(1.0, 0.0)


def bessel_ratio(p, x):
    """I_p(x) / I_{p-1}(x) without overflow; p >= 1/2, x >= 0.

    The true ratio is strictly below 1 but can round to 1.0 (tanh
    saturates for p = 1/2); results are capped one ulp below 1.
    """
    if x < RATIO_LEADING_TERM_X:
        return x / (2.0 * p)
    if p == 0.5:
        r = math.tanh(x)
    elif x > series_cutoff(p):
        r = _bessel_asymptotic_scaled(p, x) / _bessel_asymptotic_scaled(p - 1.0, x)
    else:
        r = _ratio_lentz(p, x)
    return r if r < 1.0 else _ONE_BELOW


# ---------------------------------------------------------------------------
# array kernels: each element takes the scalar kernel's branch and the same
# floating-point operations in the same order, so results are bit-identical


def _bessel_asymptotic_scaled_array(p, x):
    """``_bessel_asymptotic_scaled`` elementwise over a 1-D array."""
    mu = 4.0 * p * p
    acc = np.ones(x.shape)
    live = np.arange(x.size)  # elements still summing
    term = np.ones(x.shape)
    xs = x
    for m in range(1, 1000):
        if not live.size:
            break
        nxt = term * (((2 * m - 1) ** 2 - mu) / (8.0 * xs * m))
        go = ~(np.abs(nxt) >= np.abs(term))
        live, term, xs = live[go], nxt[go], xs[go]
        acc[live] += term
        go = ~(np.abs(term) <= np.abs(acc[live]) * SERIES_RTOL)
        live, term, xs = live[go], term[go], xs[go]
    return acc / np.sqrt(2.0 * math.pi * x)


def _ratio_lentz_array(p, x):
    """``_ratio_lentz`` elementwise over a 1-D array."""
    tiny = 1e-300
    out = np.empty(x.shape)
    live = np.arange(x.size)  # elements not yet converged
    f = np.full(x.shape, tiny)
    c = f.copy()
    d = np.zeros(x.shape)
    two_over_x = 2.0 / x
    for j in range(1, RATIO_MAX_ITER + 1):
        if not live.size:
            return out
        b = two_over_x * (p + j - 1.0)
        d = b + d
        d[d == 0.0] = tiny
        c = b + 1.0 / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[live[done]] = f[done]
            go = ~done
            live, f, c, d, two_over_x = live[go], f[go], c[go], d[go], two_over_x[go]
    if not live.size:
        return out
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled (p={p}, x={x[live[0]]})"
    )


def bessel_ratio_array(p, x):
    """``bessel_ratio`` elementwise over a 1-D array of x >= 0."""
    out = x / (2.0 * p)
    live = x >= RATIO_LEADING_TERM_X
    if p == 0.5:
        # np.tanh differs from libm's tanh in the last bit for about 1 in 5 inputs
        out[live] = [math.tanh(v) for v in x[live].tolist()]
    else:
        far = x > series_cutoff(p)
        xf = x[far]
        near = live & ~far
        # IEEE overflow stays silent, as in the scalar kernels
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out[far] = _bessel_asymptotic_scaled_array(p, xf) / _bessel_asymptotic_scaled_array(
                p - 1.0, xf
            )
            out[near] = _ratio_lentz_array(p, x[near])
    return np.where(out < 1.0, out, _ONE_BELOW)
