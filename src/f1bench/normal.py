"""Standard normal CDF and quantile.

The only transcendental machinery the package needs.  Both functions
accept scalars or numpy arrays of any shape and evaluate in double
precision.

``std_normal_cdf`` goes through the complementary error function of
the standard library, ``math.erfc``, which is the platform libm's
``erfc`` (CPython's ``HAVE_ERFC``).  ``std_normal_quantile`` starts
from Acklam's rational approximation and applies one Newton correction
against the CDF, which drives the round-trip error
|Phi(Phi^-1(p)) - p| down to machine epsilon.  Results are
reproducible on one host with one numpy and one libm; numpy's SIMD
``exp`` and ``log`` and the libm ``erfc`` may differ in the last bit
from one platform to another.
"""

import math

import numpy as np

__all__ = ["std_normal_cdf", "std_normal_quantile"]

_SQRT1_2 = np.sqrt(0.5)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _erfc_nonneg(y):
    """erfc(y) for an array of non-negative doubles, elementwise."""
    return np.fromiter(map(math.erfc, y.ravel().tolist()), np.float64, y.size).reshape(y.shape)


def std_normal_cdf(z):
    """N(0, 1) cumulative distribution function Phi(z).

    Parameters
    ----------
    z : float or array_like
        Evaluation points; must be finite.

    Returns
    -------
    float or ndarray
        Phi(z), accurate to about 1e-16 absolute.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("std_normal_cdf requires finite input")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    nonneg = _erfc_nonneg(np.abs(z) * _SQRT1_2)
    out = np.where(z <= 0.0, 0.5 * nonneg, 1.0 - 0.5 * nonneg)
    return float(out[0]) if scalar else out


# Acklam's rational approximation to the normal quantile.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam(p):
    """Raw Acklam approximation (relative error below 1.2e-9).

    The central rational, which ~95% of uniform draws need, is evaluated
    on the whole array; only the tail entries are then overwritten.  Its
    denominator's smallest positive root is (p - 0.5)^2 = 0.2535, beyond
    the 0.25 that p in (0, 1) reaches, so the central values computed
    for tail entries are finite and simply discarded.
    """
    a = _ACK_A
    b = _ACK_B
    r = p - 0.5
    s = r * r
    q = (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r / \
        (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0)

    # the two tails mirror each other: q(1 - p) = -q(p)
    c = _ACK_C
    d = _ACK_D
    tail = (p < _P_LOW) | (p > 1.0 - _P_LOW)
    if tail.any():
        pt = p[tail]
        r = np.sqrt(-2.0 * np.log(np.minimum(pt, 1.0 - pt)))
        qt = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
             ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
        q[tail] = np.where(pt < 0.5, qt, -qt)
    return q


def std_normal_quantile(p):
    """Inverse of the N(0, 1) CDF.

    Parameters
    ----------
    p : float or array_like
        Probabilities, strictly inside (0, 1).

    Returns
    -------
    float or ndarray
        z with Phi(z) = p, round-trip accurate to machine epsilon.

    Raises
    ------
    ValueError
        If any entry is outside the open interval (0, 1); the
        quantile diverges at the endpoints.
    """
    p = np.asarray(p, dtype=np.float64)
    if not (np.isfinite(p).all() and (p > 0.0).all() and (p < 1.0).all()):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    scalar = p.ndim == 0
    p = np.atleast_1d(p)

    q = _acklam(p)
    # one Newton step against the high-accuracy CDF, written
    # multiplicatively to stay stable in the tails
    err = std_normal_cdf(q) - p
    q = q - err * _SQRT_2PI * np.exp(0.5 * q * q)
    return float(q[0]) if scalar else q
