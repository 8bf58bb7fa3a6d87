"""Accuracy tests for the standard normal CDF and quantile.

Reference values were computed with mpmath at 50 significant digits and
frozen here, so the suite checks the implementation against an
independent oracle rather than against itself.
"""

import numpy as np
import pytest

from f1bench.normal import _erfc_nonneg, std_normal_cdf, std_normal_quantile

# (z, Phi(z)) pairs; the implementation must agree to 1e-12 absolute
# and, since the relative accuracy matters deep in the lower tail, to
# 1e-12 relative as well.
CDF_REFERENCE = (
    (-8.0, 6.220960574271784e-16),
    (-4.9, 4.791832765903198e-07),
    (-3.0, 0.0013498980316300946),
    (-1.150349, 0.1250000783017612),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.46875, 0.6803758284828824),
    (1.0, 0.8413447460685429),
    (2.5, 0.9937903346742238),
    (4.9, 0.9999995208167234),
    (8.0, 0.9999999999999993),
)

# (p, quantile(p)) pairs.  Near p = 1 the CDF is so flat that a one-ulp
# change in p moves the quantile by ~3e-11, so 1e-9 is the honest
# direct tolerance; the round-trip test below pins the accuracy that
# actually matters.
QUANTILE_REFERENCE = (
    (0.001, -3.0902323061678136),
    (0.02425, -1.972961051311885),
    (0.125, -1.150349380376008),
    (1.0 / 12.0, -1.3829941271006383),
    (0.3, -0.5244005127080408),
    (0.5, 0.0),
    (0.975, 1.9599639845400538),
    (0.999999, 4.753424308817087),
)

# (x, erfc(x)) pairs from near zero out to the far tail.
ERFC_REFERENCE = (
    (0.25, 0.72367360983176307),
    (0.5, 0.47950012218695346),
    (1.0, 0.15729920705028513),
    (2.0, 0.0046777349810472658),
    (3.5, 7.4309837234141275e-07),
    (6.0, 2.1519736712498913e-17),
)


def bisect_quantile(p, tol=1e-12):
    """Invert std_normal_cdf by bisection, as an in-house cross-check."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_reference_values():
    for z, expected in CDF_REFERENCE:
        got = std_normal_cdf(z)
        assert abs(got - expected) <= 1e-12
        assert abs(got - expected) <= 1e-12 * max(expected, 1e-300)


def test_cdf_at_one_eighth_boundary():
    # the calibration hinges on this value: Phi(-1.150349) = 0.125
    assert abs(std_normal_cdf(-1.150349) - 0.125) <= 1e-6


def test_quantile_reference_values():
    for p, expected in QUANTILE_REFERENCE:
        assert abs(std_normal_quantile(p) - expected) <= 1e-9


def test_quantile_named_constants():
    assert abs(std_normal_quantile(1.0 / 8.0) - (-1.150349)) <= 1e-6
    assert abs(std_normal_quantile(1.0 / 12.0) - (-1.382994)) <= 1e-6


def erfc_at(x):
    """The CDF's erfc kernel at one non-negative point."""
    return _erfc_nonneg(np.array([x]))[0]


def test_erfc_reference_values():
    for x, expected in ERFC_REFERENCE:
        assert abs(erfc_at(x) - expected) <= 1e-13 * expected
    assert erfc_at(0.0) == 1.0


def test_round_trip_grid():
    p = np.arange(1, 1000) / 1000.0
    err = np.abs(std_normal_cdf(std_normal_quantile(p)) - p)
    assert err.max() <= 1e-9
    # the Newton polish should actually land within a few ulps
    assert err.max() <= 1e-12


def test_quantile_antisymmetry():
    p = np.arange(1, 1000) / 1000.0
    q = std_normal_quantile(p)
    q_mirror = std_normal_quantile(1.0 - p)
    assert np.abs(q_mirror + q).max() <= 1e-9


def test_cdf_symmetry():
    # include the off-grid points |z| = 0.46875 / sqrt(0.5) and
    # 4 / sqrt(0.5) alongside a uniform grid
    z = np.concatenate([
        np.linspace(-8.0, 8.0, 3203),
        [0.6629126073623883, -0.6629126073623883,
         5.656854249492381, -5.656854249492381],
    ])
    total = std_normal_cdf(z) + std_normal_cdf(-z)
    assert np.abs(total - 1.0).max() <= 1e-12


def test_cdf_strictly_increasing():
    z = np.linspace(-6.0, 6.0, 1201)
    values = std_normal_cdf(z)
    assert (np.diff(values) > 0.0).all()


def test_quantile_strictly_increasing():
    p = np.arange(1, 1000) / 1000.0
    q = std_normal_quantile(p)
    assert (np.diff(q) > 0.0).all()


def test_quantile_against_bisection():
    for p in (1.0 / 8.0, 1.0 / 12.0, 0.05, 0.3, 0.7, 0.95):
        assert abs(std_normal_quantile(p) - bisect_quantile(p)) <= 1e-9


def test_extreme_tail_round_trip():
    # the simulator floors uniforms at 2^-53, so this is the most
    # extreme probability the quantile ever sees
    lo = 2.0 ** -53
    hi = 1.0 - 2.0 ** -53
    q_lo = std_normal_quantile(lo)
    q_hi = std_normal_quantile(hi)
    assert -9.0 < q_lo < -8.0
    assert 8.0 < q_hi < 9.0
    assert abs(std_normal_cdf(q_lo) - lo) <= 1e-12 * lo
    assert abs(std_normal_cdf(q_hi) - hi) <= 1e-12


def test_scalar_in_scalar_out():
    assert isinstance(std_normal_cdf(0.3), float)
    assert isinstance(std_normal_quantile(0.3), float)


def test_array_in_array_out():
    z = np.array([-1.0, 0.0, 1.0])
    out = std_normal_cdf(z)
    assert isinstance(out, np.ndarray)
    assert out.shape == z.shape
    p = np.array([0.2, 0.5, 0.8])
    out = std_normal_quantile(p)
    assert isinstance(out, np.ndarray)
    assert out.shape == p.shape


def test_nd_input_keeps_its_shape():
    # an n-d array is evaluated as its flattened entries, in place
    z = np.array([[-8.0, -1.0, 0.0], [0.3, 2.5, 6.0]])
    p = np.array([[2.0 ** -53, 0.01, 0.3], [0.5, 0.99, 0.999999]])
    for function, x in ((std_normal_cdf, z), (std_normal_quantile, p)):
        out = function(x)
        assert out.shape == (2, 3)
        assert out.tobytes() == function(x.ravel()).tobytes()


def test_cdf_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)
    with pytest.raises(ValueError):
        std_normal_cdf(np.array([0.0, np.nan]))


def test_quantile_rejects_out_of_domain():
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)
    with pytest.raises(ValueError):
        std_normal_quantile(np.array([0.5, 1.0]))
