"""Gamma function and modified Bessel functions of the first kind.

Self-contained evaluation (power series, large-argument expansion,
half-integer closed forms) for real nonnegative order, plus the
overflow-safe ratio I_p/I_{p-1} that parameterizes every closed-form
moment in this package.  The scalar kernels live in ``_kernels_py``;
this module validates inputs and wraps their results.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py
from .errors import DomainError

__all__ = ["BesselEval", "gamma", "bessel_i", "bessel_ratio"]


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

    Relative error is ~1e-14 on [0.5, 50].  Raises DomainError where
    Gamma(x) overflows a double: x above ~171.62, or x so close to 0
    that 1/x does.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires finite x > 0, got {x}")
    try:
        value = _kernels_py.gamma(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"gamma({x}) overflows a double")
    return value


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
    used is reported in the result.
    """
    p = _check_order(p)
    x = _check_argument(x)
    return BesselEval(*_kernels_py.bessel_i_parts(p, x))


def bessel_ratio(p, x):
    """Ratio I_p(x)/I_{p-1}(x), in [0, 1), safe for x up to at least 1e5.

    Uses a continued fraction for moderate x and exponentially scaled
    large-argument expansions beyond, so no intermediate overflows; below
    x = 1e-150 the ratio is its leading term x/(2p) to the last bit.

    ``x`` is a number, giving a float, or a 1-D array, giving an array of
    the same length.  An array is evaluated in one pass per branch, with
    results bit-identical to evaluating each entry as a number; a number
    keeps the scalar kernels, which are faster for a single value.
    """
    p = _check_order(p)
    if p < 0.5:
        raise DomainError(f"ratio requires order p >= 1/2, got {p}")
    if isinstance(x, np.ndarray) and x.ndim:
        return _kernels_py.bessel_ratio_array(p, _check_argument_array(x))
    return _kernels_py.bessel_ratio(p, _check_argument(x))
