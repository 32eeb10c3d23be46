import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphermoments import _kernels_py, specfun
from sphermoments.errors import ConvergenceError, DomainError

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# gamma


def test_gamma_known_values():
    assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_against_high_precision_reference():
    for x in np.linspace(0.5, 50.0, 181):
        ref = float(mp.gamma(float(x)))
        assert specfun.gamma(float(x)) == pytest.approx(ref, rel=1e-13)


def test_gamma_largest_finite_values():
    # Gamma(171) = 170!, just below the overflow threshold at x ~ 171.62
    assert specfun.gamma(171.0) == pytest.approx(float(math.factorial(170)), rel=1e-12)
    assert math.isfinite(specfun.gamma(171.6))


def test_gamma_small_arguments():
    for x in (0.05, 0.1, 0.25, 0.49):
        assert specfun.gamma(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13)


def test_gamma_is_accurate_to_2e15_and_exact_at_integers():
    # math.gamma stays below 8.4e-16 on 22,000 points; a 9-term Lanczos series errs by 1e-13
    for x in np.geomspace(0.01, 171.0, 1500):
        ref = mp.gamma(mp.mpf(float(x)))
        assert abs(specfun.gamma(float(x)) - ref) <= 2e-15 * ref
    for k in range(1, 21):
        assert specfun.gamma(float(k)) == math.factorial(k - 1)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
def test_gamma_recurrence(x):
    assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x), rel=1e-12)


@pytest.mark.parametrize(
    # from 171.7 up, and for subnormal x, Gamma(x) overflows a double
    "bad", [0.0, -1.0, math.nan, math.inf, -math.inf, 171.7, 172.0, 400.0, 1e6, 1e-320]
)
def test_gamma_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        specfun.gamma(bad)


# ---------------------------------------------------------------------------
# bessel_i

_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 5.0, 10.0, 20.0)


def test_bessel_at_zero():
    assert specfun.bessel_i(0.0, 0.0).value == 1.0
    assert specfun.bessel_i(1.5, 0.0).value == 0.0
    assert specfun.bessel_i(0.0, 0.0).scaled_value == 1.0


def test_bessel_half_integer_closed_form():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
    for x in (1.0, 2.5, 10.0):
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert specfun.bessel_i(0.5, x).value == pytest.approx(ref, rel=1e-10)
    assert specfun.bessel_i(0.5, 1.0).value == pytest.approx(0.93767, abs=5e-6)


def test_bessel_against_high_precision_reference():
    xs = np.concatenate([np.linspace(1e-3, 30.0, 25), np.geomspace(30.0, 500.0, 25)])
    for p in _ORDERS:
        for x in xs:
            x = float(x)
            got = specfun.bessel_i(p, x)
            ref_scaled = float(mp.besseli(p, x) * mp.exp(-x))
            assert got.scaled_value == pytest.approx(ref_scaled, rel=1e-10)


def test_bessel_scaled_value_consistency():
    for p in _ORDERS:
        for x in np.geomspace(0.1, 600.0, 40):
            got = specfun.bessel_i(p, float(x))
            if got.value > 0 and math.isfinite(got.value):
                assert got.scaled_value == pytest.approx(
                    got.value * math.exp(-float(x)), rel=1e-14
                )


def test_bessel_overflow_flag():
    got = specfun.bessel_i(1.0, 800.0)
    assert got.value == math.inf
    assert math.isfinite(got.scaled_value)
    ref_scaled = float(mp.besseli(1.0, 800.0) * mp.exp(-800.0))
    assert got.scaled_value == pytest.approx(ref_scaled, rel=1e-10)


def test_bessel_method_dispatch():
    assert specfun.bessel_i(1.0, 5.0).method_used == "series"
    assert specfun.bessel_i(1.0, 200.0).method_used == "asymptotic"
    assert specfun.bessel_i(1.5, 5.0).method_used == "closed_form_half_integer"
    assert specfun.bessel_i(1.5, 0.5).method_used == "series"


@pytest.mark.parametrize("args", [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0),
                                  (1.0, math.nan), (1.0, math.inf)])
def test_bessel_rejects_out_of_domain(args):
    with pytest.raises(DomainError):
        specfun.bessel_i(*args)


@pytest.mark.parametrize("p, x", [(94.0, 4400.0), (1000.0, 3.0), (171.0, 3.0)])
def test_bessel_series_overflow_is_domain_error(p, x):
    # (x/2)^p or Gamma(p + 1) overflows a double; I_171(3) ~ 1e-279 must not read 0
    with pytest.raises(DomainError, match=f"p={p}, x={x}"):
        specfun.bessel_i(p, x)
    assert specfun.bessel_i(170.0, 3.0).value > 0.0


def test_series_asymptotic_agreement_in_handover_window():
    for p in (0.0, 1.0, 2.0, 3.5, 5.0):
        cutoff = _kernels_py.series_cutoff(p)
        for x in np.linspace(0.85 * cutoff, 1.2 * cutoff, 9):
            x = float(x)
            series = _kernels_py._bessel_series(p, x) * math.exp(-x)
            asymptotic = _kernels_py._bessel_asymptotic_scaled(p, x)
            assert series == pytest.approx(asymptotic, rel=1e-9)


def test_half_integer_agrees_with_series_and_asymptotic():
    for p in (0.5, 1.5, 2.5):
        for x in np.geomspace(1.0, 30.0, 15):
            x = float(x)
            closed = _kernels_py._half_integer_scaled(p, x)
            series = _kernels_py._bessel_series(p, x) * math.exp(-x)
            assert closed == pytest.approx(series, rel=1e-11)
        for x in np.geomspace(40.0, 500.0, 8):
            x = float(x)
            closed = _kernels_py._half_integer_scaled(p, x)
            asymptotic = _kernels_py._bessel_asymptotic_scaled(p, x)
            assert closed == pytest.approx(asymptotic, rel=1e-11)


def test_series_budget_exhaustion_raises():
    with pytest.raises(ConvergenceError):
        _kernels_py._bessel_series(0.0, 1e4)


def test_recurrence_identity():
    # I_{p-1}(x) - I_{p+1}(x) = (2p/x) I_p(x)
    for p in (1.0, 1.5, 2.0, 3.5):
        for x in np.geomspace(0.1, 100.0, 30):
            x = float(x)
            lo = specfun.bessel_i(p - 1.0, x).value
            mid = specfun.bessel_i(p, x).value
            hi = specfun.bessel_i(p + 1.0, x).value
            assert lo - hi == pytest.approx((2.0 * p / x) * mid, rel=1e-9)


# ---------------------------------------------------------------------------
# bessel_ratio


def test_ratio_at_zero_and_near_zero():
    assert specfun.bessel_ratio(1.5, 0.0) == 0.0
    assert specfun.bessel_ratio(1.5, 1e-12) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 5.0])
@pytest.mark.parametrize("x", [1e-200, 1e-290, 1e-300, 1e-305])
def test_ratio_at_tiny_argument_against_high_precision_reference(p, x):
    # below ~1e-290 a continued fraction seeded with 1e-300 would swamp x/(2p)
    ref = float(mp.besseli(p, x) / mp.besseli(p - 1.0, x))
    assert specfun.bessel_ratio(p, x) == pytest.approx(ref, rel=1e-15)
    assert specfun.bessel_ratio(p, np.array([x]))[0] == pytest.approx(ref, rel=1e-15)


def test_ratio_coth_value():
    # I_{3/2}/I_{1/2} at 2 equals coth 2 - 1/2
    ref = 1.0 / math.tanh(2.0) - 0.5
    assert specfun.bessel_ratio(1.5, 2.0) == pytest.approx(ref, abs=1e-10)
    assert ref == pytest.approx(0.53731, abs=5e-6)


def test_ratio_large_argument():
    assert abs(specfun.bessel_ratio(1.0, 1e4) - 0.99995) < 1e-6


def test_ratio_against_high_precision_reference():
    for p in (0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 10.0):
        for x in np.geomspace(1e-4, 1e5, 40):
            x = float(x)
            ref = float(mp.besseli(p, x) / mp.besseli(p - 1.0, x))
            assert specfun.bessel_ratio(p, x) == pytest.approx(ref, rel=1e-10)


def test_ratio_coth_identity_on_grid():
    for k in np.geomspace(0.05, 50.0, 120):
        k = float(k)
        ref = 1.0 / math.tanh(k) - 1.0 / k
        assert abs(specfun.bessel_ratio(1.5, k) - ref) <= 1e-10


def test_ratio_second_identity_on_grid():
    # I_{5/2}/I_{1/2} - (I_{3/2}/I_{1/2})^2 in terms of coth
    for k in np.geomspace(0.1, 30.0, 80):
        k = float(k)
        coth = 1.0 / math.tanh(k)
        r = specfun.bessel_ratio(1.5, k)
        r2 = specfun.bessel_ratio(2.5, k) * r
        rhs = 1.0 - coth / k + 2.0 / k**2 - coth * coth
        assert abs(r2 - r * r - rhs) <= 1e-9


def test_ratio_bounded_and_monotone():
    for p in (0.5, 1.0, 1.5, 2.5, 4.0):
        values = [specfun.bessel_ratio(p, float(x)) for x in np.geomspace(1e-6, 1e5, 200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=12.0, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e5, allow_nan=False),
    st.floats(min_value=1.0001, max_value=4.0, allow_nan=False),
)
def test_ratio_monotone_property(p, x, step):
    lo = specfun.bessel_ratio(p, x)
    hi = specfun.bessel_ratio(p, x * step)
    assert 0.0 <= lo < 1.0
    assert hi >= lo - 1e-14


def test_ratio_rejects_low_order():
    with pytest.raises(DomainError):
        specfun.bessel_ratio(0.3, 1.0)


# the orders of the mixed case, interleaved over its x values
MIXED_ORDERS = [0.5, 1.0, 1.5, 2.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.5, 5.0, 6.0, "mixed"])
def test_ratio_array_is_bit_identical_to_scalar(p):
    # every branch: the leading term x/(2p) (x = 0 and tiny x, subnormals too),
    # tanh (p = 1/2), Lentz up to series_cutoff(p), asymptotic above
    mixed = p == "mixed"
    cut = _kernels_py.series_cutoff(MIXED_ORDERS[-1] if mixed else p)
    lead = _kernels_py.RATIO_LEADING_TERM_X
    x = np.concatenate([
        [0.0, 5e-324, 1e-310, 1e-305, 1e-300, 1e-290, 1e-12],
        [np.nextafter(lead, 0.0), lead, np.nextafter(lead, np.inf)],
        [cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf), 1e5],
        np.geomspace(1e-4, 1e5, 400),
        np.random.default_rng(7 if mixed else int(2 * p)).uniform(0.5 * cut, 2.0 * cut, 200),
    ])
    if mixed:
        # in (34.5, 42] order 7 takes the asymptotic branch and order 8 Lentz,
        # so each entry takes its own order's branch; every order meets each x
        x = np.concatenate([x, np.linspace(34.5, 42.0, 8 * 9)[1:], np.repeat(x, 8)])
        p = np.resize(MIXED_ORDERS, x.size)
        assert _kernels_py.series_cutoff(7.0) == 34.5
    got = specfun.bessel_ratio(p, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    orders = np.broadcast_to(p, x.shape).tolist()
    want = np.array([specfun.bessel_ratio(q, v) for q, v in zip(orders, x.tolist())])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert specfun.bessel_ratio(p[:0] if mixed else p, x[:0]).shape == (0,)


@pytest.mark.parametrize("bad", [
    [1.0, math.nan], [2.0, -1.0], [1.0, math.inf], [-0.5], [[1.0, 2.0]],
    # (orders, x): another shape than x, an order below 1/2, a NaN order, an
    # infinite order, a 2-D order array against 1-D and 2-D x
    ([1.5, 2.5, 3.5], [1.0, 2.0]), ([1.5, 0.4], [1.0, 2.0]), ([math.nan, 1.5], [1.0, 2.0]),
    ([1.5, math.inf], [1.0, 2.0]), ([[1.5, 2.5]], [1.0, 2.0]), ([[1.5, 2.5]], [[1.0, 2.0]]),
])
def test_ratio_array_rejects_out_of_domain(bad):
    p, x = (np.array(bad[0]), bad[1]) if isinstance(bad, tuple) else (1.5, bad)
    with pytest.raises(DomainError):
        specfun.bessel_ratio(p, np.array(x))


# ---------------------------------------------------------------------------
# ratio with its derivative


def _nudged(x, steps):
    """x moved by ``steps`` ulps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ratio_slope_array_is_bit_identical_to_scalar(data):
    # entries on and around every branch boundary: the leading term below
    # 1e-150, Lentz up to series_cutoff(p), asymptotic above
    orders = data.draw(st.lists(
        st.sampled_from([1.0, 1.5, 2.5, 5.0, 7.0, 8.0, 60.0]) | st.floats(1.0, 60.0),
        min_size=1, max_size=10,
    ))
    x = []
    for p in orders:
        edges = st.sampled_from([_kernels_py.RATIO_LEADING_TERM_X, _kernels_py.series_cutoff(p)])
        x.append(data.draw(st.one_of(
            st.builds(_nudged, edges, st.integers(-2, 2)),
            st.floats(0.25, 4.0).map(lambda f, p=p: f * _kernels_py.series_cutoff(p)),
            st.floats(0.0, 1e6),
        )))
    ratios, slopes = specfun.bessel_ratio_slope(np.array(orders), np.array(x))
    scalar = [specfun.bessel_ratio_slope(p, v) for p, v in zip(orders, x)]
    assert _bits(ratios) == _bits([r for r, _ in scalar])
    assert _bits(slopes) == _bits([s for _, s in scalar])
    # the ratio is bessel_ratio's, and one order for the whole array takes the same path
    assert _bits(ratios) == _bits([specfun.bessel_ratio(p, v) for p, v in zip(orders, x)])
    one = specfun.bessel_ratio_slope(orders[0], np.array(x))
    assert _bits(one) == _bits(list(zip(*[specfun.bessel_ratio_slope(orders[0], v) for v in x])))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 7, 10, 20, 100, 1000]),
    st.floats(-12.0, 150.0),
)
def test_ratio_slope_lies_between_zero_and_ratio_over_argument(n, e):
    # Var(u.x) = dr/dk of the vMF on S^(n-1) is positive and below r/k, the
    # variance across u; where their relative gap, about 2k^2/(n(n+2)), is
    # below the rounding of either, they may meet or cross by an ulp
    k = 10.0**e
    r, var = specfun.bessel_ratio_slope(0.5 * n, k)
    across = r / k
    assert 0.0 < var
    if 2.0 * k * k > 1e-11 * n * (n + 2):
        assert var < across
    else:
        assert var <= across * (1.0 + 4 * 2.0**-52)


def test_ratio_slope_rejects_what_ratio_rejects_and_orders_below_one():
    for p, x in ((0.3, 1.0), (1.5, -1.0), (1.5, math.inf), (np.array([1.5, 2.5]), np.ones(3)),
                 (0.5, 1.0), (np.array([1.5, 0.5]), np.ones(2))):
        with pytest.raises(DomainError):
            specfun.bessel_ratio_slope(p, x)
