"""Gamma function and modified Bessel functions of the first kind.

Self-contained evaluation (power series, large-argument expansion,
half-integer closed forms) for real nonnegative order, plus the
overflow-safe ratio I_p/I_{p-1} that parameterizes every closed-form
moment in this package.  The scalar kernels live in ``_kernels_py``;
this module validates inputs and wraps their results.
"""

import math
from dataclasses import dataclass

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
    """Gamma function for finite x > 0.

    Relative error is ~1e-14 on [0.5, 50].
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires finite x > 0, got {x}")
    return _kernels_py.gamma(x)


def _check_order_argument(p, x):
    p = float(p)
    x = float(x)
    if not math.isfinite(p) or p < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {p}")
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x}")
    if math.isinf(x):
        raise DomainError("argument must be finite")
    return p, x


def bessel_i(p, x):
    """Modified Bessel function I_p(x) for p >= 0, x >= 0.

    Dispatches between the power series, the large-argument expansion and
    sinh/cosh closed forms for p in {1/2, 3/2, 5/2}; the method actually
    used is reported in the result.
    """
    p, x = _check_order_argument(p, x)
    return BesselEval(*_kernels_py.bessel_i_parts(p, x))


def bessel_ratio(p, x):
    """Ratio I_p(x)/I_{p-1}(x), in [0, 1), safe for x up to at least 1e5.

    Uses a continued fraction for moderate x and exponentially scaled
    large-argument expansions beyond, so no intermediate overflows.
    """
    p, x = _check_order_argument(p, x)
    if p < 0.5:
        raise DomainError(f"ratio requires order p >= 1/2, got {p}")
    return _kernels_py.bessel_ratio(p, x)
