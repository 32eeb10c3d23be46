"""Kernels: modified Bessel machinery.

``specfun`` is the public front end; callers are expected to have
validated their inputs (finite, in domain) before reaching this layer.
The scalar kernels take floats; ``bessel_ratio_array`` takes a 1-D array
of arguments with one order or one order per argument, and reproduces the
scalar ``bessel_ratio`` bit for bit, each order taking its own branch.
``bessel_ratio_slope`` and its array twin carry the derivative of the ratio
through the same pass, leaving the ratio's own operations as they are.
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


def series_cutoff(p):
    """Largest x handled by the power series for order p (a number or an array)."""
    cut = 0.5 * p * p + 10.0
    # a number keeps max(): np.maximum would add about 1 us to each scalar kernel call
    return np.maximum(30.0, cut) if isinstance(cut, np.ndarray) else max(30.0, cut)


def _bessel_series(p, x):
    """Power-series I_p(x); valid for x <= series_cutoff(p).  Raises
    OverflowError where (x/2)^p or Gamma(p + 1) overflows a double."""
    half = 0.5 * x
    term = math.pow(half, p) / math.gamma(p + 1.0)
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


def _ratio_lentz_slope(p, x):
    """``_ratio_lentz`` and the derivative in x of each of its steps, carried
    forward: (f, df/dx).  b, d and c never vanish for p >= 1/2 and x > 0, so
    the f recurrence is ``_ratio_lentz``'s without its zero guards."""
    f = c = 1e-300
    d = fd = cd = dd = 0.0
    two_over_x = 2.0 / x
    for j in range(1, RATIO_MAX_ITER + 1):
        b = two_over_x * (p + j - 1.0)
        bd = -b / x
        d = b + d
        dd = bd + dd
        cd = bd - cd / c / c
        c = b + 1.0 / c
        d = 1.0 / d
        dd = -dd * d * d
        delta = c * d
        fd = fd * delta + f * (cd * d + c * dd)
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f, fd
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled (p={p}, x={x})"
    )


def _bessel_asymptotic_sums(p, x):
    """The sum of ``_bessel_asymptotic_scaled``'s series, terms t_m in x^-m, and
    the sum of m t_m over the same terms, so that d(sum)/dx = -(sum of m t_m)/x."""
    mu = 4.0 * p * p
    acc = 1.0
    term = 1.0
    weighted = 0.0
    for m in range(1, 1000):
        nxt = term * (((2 * m - 1) ** 2 - mu) / (8.0 * x * m))
        if abs(nxt) >= abs(term):
            break
        term = nxt
        acc += term
        weighted += m * term
        if abs(term) <= abs(acc) * SERIES_RTOL:
            break
    return acc, weighted


def bessel_ratio_slope(p, x):
    """(``bessel_ratio(p, x)``, its derivative in x); p >= 1, x >= 0.

    The ratio is ``bessel_ratio``'s to the last bit.  The derivative comes
    from the same pass: differentiated Lentz steps, the asymptotic series
    differentiated term by term, and 1/(2p) below x = 1e-150.  No difference of numbers near 1 forms it, so it keeps its
    relative accuracy where it is far below the ratio.
    """
    if x < RATIO_LEADING_TERM_X:
        return x / (2.0 * p), 1.0 / (2.0 * p)
    if x > series_cutoff(p):
        above, above_w = _bessel_asymptotic_sums(p, x)
        below, below_w = _bessel_asymptotic_sums(p - 1.0, x)
        root = math.sqrt(2.0 * math.pi * x)
        r = (above / root) / (below / root)
        slope = r * (below_w / below - above_w / above) / x
    else:
        r, slope = _ratio_lentz_slope(p, x)
    return (r if r < 1.0 else _ONE_BELOW), slope


# ---------------------------------------------------------------------------
# array kernels: each element takes the scalar kernel's branch and the same
# floating-point operations in the same order, so results are bit-identical;
# orders are arrays too, compacted along with the arguments


def _bessel_asymptotic_scaled_array(p, x):
    """``_bessel_asymptotic_scaled`` elementwise over 1-D arrays of p and x."""
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
        live, term, xs, mu = live[go], nxt[go], xs[go], mu[go]
        acc[live] += term
        go = ~(np.abs(term) <= np.abs(acc[live]) * SERIES_RTOL)
        live, term, xs, mu = live[go], term[go], xs[go], mu[go]
    return acc / np.sqrt(2.0 * math.pi * x)


def _ratio_lentz_array(p, x):
    """``_ratio_lentz`` elementwise over 1-D arrays of p and x."""
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
            live, f, c, d, two_over_x, p = live[go], f[go], c[go], d[go], two_over_x[go], p[go]
    if not live.size:
        return out
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled (p={p[0]}, x={x[live[0]]})"
    )


def _bessel_asymptotic_sums_array(p, x):
    """``_bessel_asymptotic_sums`` elementwise over 1-D arrays of p and x."""
    mu = 4.0 * p * p
    acc = np.ones(x.shape)
    weighted = np.zeros(x.shape)
    live = np.arange(x.size)  # elements still summing
    term = np.ones(x.shape)
    xs = x
    for m in range(1, 1000):
        if not live.size:
            break
        nxt = term * (((2 * m - 1) ** 2 - mu) / (8.0 * xs * m))
        go = ~(np.abs(nxt) >= np.abs(term))
        live, term, xs, mu = live[go], nxt[go], xs[go], mu[go]
        acc[live] += term
        weighted[live] += m * term
        go = ~(np.abs(term) <= np.abs(acc[live]) * SERIES_RTOL)
        live, term, xs, mu = live[go], term[go], xs[go], mu[go]
    return acc, weighted


def _ratio_lentz_slope_array(p, x):
    """``_ratio_lentz_slope`` elementwise over 1-D arrays of p and x."""
    out = np.empty(x.shape)
    out_d = np.empty(x.shape)
    live = np.arange(x.size)  # elements not yet converged
    f = np.full(x.shape, 1e-300)
    c = f.copy()
    d = np.zeros(x.shape)
    fd, cd, dd = d.copy(), d.copy(), d.copy()
    xs = x
    two_over_x = 2.0 / x
    for j in range(1, RATIO_MAX_ITER + 1):
        if not live.size:
            return out, out_d
        b = two_over_x * (p + j - 1.0)
        bd = -b / xs
        d = b + d
        dd = bd + dd
        cd = bd - cd / c / c
        c = b + 1.0 / c
        d = 1.0 / d
        dd = -dd * d * d
        delta = c * d
        fd = fd * delta + f * (cd * d + c * dd)
        f *= delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[live[done]] = f[done]
            out_d[live[done]] = fd[done]
            go = ~done
            live, f, c, d, fd, cd, dd = (a[go] for a in (live, f, c, d, fd, cd, dd))
            xs, two_over_x, p = xs[go], two_over_x[go], p[go]
    if not live.size:
        return out, out_d
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled (p={p[0]}, x={x[live[0]]})"
    )


def bessel_ratio_array(p, x):
    """``bessel_ratio`` elementwise over a 1-D array of x >= 0; ``p`` is one
    order or a 1-D array of one order per entry of x."""
    p = np.broadcast_to(p, x.shape)
    # IEEE overflow stays silent, as in the scalar kernels
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = x / (2.0 * p)
        live = x >= RATIO_LEADING_TERM_X
        half = live & (p == 0.5)
        # np.tanh differs from libm's tanh in the last bit for about 1 in 5 inputs
        out[half] = [math.tanh(v) for v in x[half].tolist()]
        far = live & ~half & (x > series_cutoff(p))
        near = live & ~half & ~far
        pf, xf = p[far], x[far]
        # orders p and p - 1 in one pass
        scaled = _bessel_asymptotic_scaled_array(np.concatenate([pf, pf - 1.0]),
                                                 np.concatenate([xf, xf]))
        out[far] = np.divide(*np.split(scaled, 2))
        out[near] = _ratio_lentz_array(p[near], x[near])
    return np.where(out < 1.0, out, _ONE_BELOW)


def bessel_ratio_slope_array(p, x):
    """``bessel_ratio_slope`` elementwise over a 1-D array of x >= 0, as
    ``bessel_ratio_array`` takes them: (ratios, derivatives)."""
    p = np.broadcast_to(p, x.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = x / (2.0 * p)
        slope = 1.0 / (2.0 * p)
        live = x >= RATIO_LEADING_TERM_X
        far = live & (x > series_cutoff(p))
        near = live & ~far
        pf, xf = p[far], x[far]
        sums, weighted = _bessel_asymptotic_sums_array(np.concatenate([pf, pf - 1.0]),
                                                       np.concatenate([xf, xf]))
        above, below = np.split(sums, 2)
        above_w, below_w = np.split(weighted, 2)
        root = np.sqrt(2.0 * math.pi * xf)
        r = (above / root) / (below / root)
        out[far] = r
        slope[far] = r * (below_w / below - above_w / above) / xf
        out[near], slope[near] = _ratio_lentz_slope_array(p[near], x[near])
    return np.where(out < 1.0, out, _ONE_BELOW), slope
