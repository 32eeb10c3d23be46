"""Gamma function and modified Bessel functions of the first kind.

Self-contained evaluation (power series, large-argument expansion,
half-integer closed forms) for real nonnegative order, plus the
overflow-safe ratio I_p/I_{p-1} that parameterizes every closed-form
moment in this package, alone or with its derivative.  The scalar
kernels live in ``_kernels_py``; this module validates inputs and wraps
their results.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py
from .errors import DomainError

__all__ = ["BesselEval", "gamma", "bessel_i", "bessel_ratio", "bessel_ratio_slope"]


@dataclass(frozen=True)
class BesselEval:
    """Result of a modified-Bessel evaluation.

    ``scaled_value`` is e^(-x) I_p(x); ``value`` is +inf when the
    unscaled function overflows (x above ~700).
    """

    value: float
    scaled_value: float
    method_used: str


def gamma(x):
    """Gamma function for finite x > 0; the result is always finite.

    ``math.gamma``, exact at the integers up to 23.  Raises DomainError where
    Gamma(x) overflows a double: x above ~171.62, or x so close to 0
    that 1/x does.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires finite x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a double") from None


def _check_order(p):
    p = float(p)
    if not math.isfinite(p) or p < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {p}")
    return p


def _check_argument(x):
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x}")
    if math.isinf(x):
        raise DomainError("argument must be finite")
    return x


def _check_argument_array(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"argument must be a number or a 1-D array, got shape {x.shape}")
    if not np.all(x >= 0.0):
        raise DomainError("argument must be >= 0 (an array entry is negative or NaN)")
    if not np.all(np.isfinite(x)):
        raise DomainError("argument must be finite (an array entry is infinite)")
    return x


def bessel_i(p, x):
    """Modified Bessel function I_p(x) for p >= 0, x >= 0.

    Dispatches between the power series, the large-argument expansion and
    sinh/cosh closed forms for p in {1/2, 3/2, 5/2}; the method actually
    used is reported in the result.  Raises DomainError where the power
    series overflows a double: (x/2)^p, or Gamma(p + 1) for p >= 171.
    """
    p = _check_order(p)
    x = _check_argument(x)
    try:
        return BesselEval(*_kernels_py.bessel_i_parts(p, x))
    except OverflowError:
        raise DomainError(f"the power series of I_p(x) overflows at p={p}, x={x}") from None


def bessel_ratio(p, x):
    """Ratio I_p(x)/I_{p-1}(x), in [0, 1), safe for x up to at least 1e5.

    Uses a continued fraction for moderate x and exponentially scaled
    large-argument expansions beyond, so no intermediate overflows; below
    x = 1e-150 the ratio is its leading term x/(2p) to the last bit.

    ``x`` is a number, giving a float, or a 1-D array, giving an array of
    the same length.  An array is evaluated in one pass per branch, with
    results bit-identical to evaluating each entry as a number; a number
    keeps the scalar kernels, which are faster for a single value.  With an
    array ``x``, ``p`` may be an array of the same shape holding each
    entry's order, so several orders share one pass.
    """
    p, x, batch = _ratio_arguments(p, x)
    if batch:
        return _kernels_py.bessel_ratio_array(p, x)
    return _kernels_py.bessel_ratio(p, x)


def bessel_ratio_slope(p, x):
    """(``bessel_ratio(p, x)``, its derivative in x), from one pass.

    The ratio is ``bessel_ratio``'s to the last bit.  The derivative is
    carried through the same continued fraction or series, so it keeps its
    relative accuracy where it is far below the ratio: for the vMF on
    S^(n-1), with p = n/2 and x = k, it is Var(u.x), about (n-1)/(2k^2) at
    large k.  Takes numbers and arrays as ``bessel_ratio`` does, orders
    p >= 1 only, and an array gives two arrays, each entry bit-identical
    to that of a number.
    """
    p, x, batch = _ratio_arguments(p, x)
    if np.any(p < 1.0) if isinstance(p, np.ndarray) else p < 1.0:
        raise DomainError("the ratio's slope takes orders p >= 1, the vMF's n/2 for n >= 2")
    if batch:
        return _kernels_py.bessel_ratio_slope_array(p, x)
    return _kernels_py.bessel_ratio_slope(p, x)


def _ratio_arguments(p, x):
    """Checked (p, x, whether x is an array) for the ratio kernels."""
    if isinstance(p, np.ndarray) and p.ndim:
        if not (isinstance(x, np.ndarray) and p.shape == x.shape):
            raise DomainError(f"an order array must have the shape of x, got {p.shape}")
        p = p.astype(float)
        if not np.all(np.isfinite(p) & (p >= 0.5)):
            raise DomainError("ratio requires finite orders p >= 1/2")
    else:
        p = _check_order(p)
        if p < 0.5:
            raise DomainError(f"ratio requires order p >= 1/2, got {p}")
    if isinstance(x, np.ndarray) and x.ndim:
        return p, _check_argument_array(x), True
    return p, _check_argument(x), False
