"""Standard normal CDF and quantile.

The only transcendental machinery the package needs.  Both functions
accept scalars or numpy arrays and evaluate in double precision.

``std_normal_cdf`` goes through the complementary error function using
W. J. Cody's rational Chebyshev approximations (the SPECFUN ``calerf``
coefficients), which keep the absolute error near 1e-16 over the whole
real line.  ``std_normal_quantile`` starts from Acklam's rational
approximation and applies one Newton correction against the CDF, which
drives the round-trip error |Phi(Phi^-1(p)) - p| down to machine
epsilon.  No external math library is involved, so results are
bit-stable across platforms that implement IEEE 754 doubles.
"""

import numpy as np

__all__ = ["std_normal_cdf", "std_normal_quantile"]

# Cody's coefficients: erf on |y| <= 0.46875, erfc on 0.46875 < y <= 4,
# and the asymptotic erfc expansion beyond 4.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346047e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1

_SQRT1_2 = np.sqrt(0.5)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _erfc_nonneg(y):
    """erfc(y) for an array of non-negative doubles."""
    out = np.empty_like(y)

    small = y <= 0.46875
    if small.any():
        ysq = y[small] * y[small]
        xnum = _ERF_A[4] * ysq
        xden = ysq
        for i in range(3):
            xnum = (xnum + _ERF_A[i]) * ysq
            xden = (xden + _ERF_B[i]) * ysq
        out[small] = 1.0 - y[small] * (xnum + _ERF_A[3]) / (xden + _ERF_B[3])

    mid = (y > 0.46875) & (y <= 4.0)
    if mid.any():
        ym = y[mid]
        xnum = _ERFC_C[8] * ym
        xden = ym
        for i in range(7):
            xnum = (xnum + _ERFC_C[i]) * ym
            xden = (xden + _ERFC_D[i]) * ym
        r = (xnum + _ERFC_C[7]) / (xden + _ERFC_D[7])
        # split exp(-y^2) as exp(-ysq^2) * exp(-del) with ysq a 1/16
        # truncation of y; the product loses far less precision than
        # a single exp of the full argument
        ysq = np.floor(ym * 16.0) / 16.0
        delta = (ym - ysq) * (ym + ysq)
        out[mid] = np.exp(-ysq * ysq) * np.exp(-delta) * r

    tail = y > 4.0
    if tail.any():
        yt = y[tail]
        ysq = 1.0 / (yt * yt)
        xnum = _ERFC_P[5] * ysq
        xden = ysq
        for i in range(4):
            xnum = (xnum + _ERFC_P[i]) * ysq
            xden = (xden + _ERFC_Q[i]) * ysq
        r = ysq * (xnum + _ERFC_P[4]) / (xden + _ERFC_Q[4])
        r = (_INV_SQRT_PI - r) / yt
        ysq = np.floor(yt * 16.0) / 16.0
        delta = (yt - ysq) * (yt + ysq)
        out[tail] = np.exp(-ysq * ysq) * np.exp(-delta) * r

    return out


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

    c = _ACK_C
    d = _ACK_D
    lo = p < _P_LOW
    if lo.any():
        r = np.sqrt(-2.0 * np.log(p[lo]))
        q[lo] = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
                ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    hi = p > 1.0 - _P_LOW
    if hi.any():
        r = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        q[hi] = -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
                ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
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
