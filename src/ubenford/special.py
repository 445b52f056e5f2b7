"""Vectorized special functions: error function family and normal quantile.

numpy-only implementations so the library does not depend on a full
scientific stack: a cancellation-free scaled series for erf on [0, 3], a
continued fraction for the complementary function beyond, and Wichura's
PPND16 rational approximations for the quantile. Accuracy is a few ulp,
which the uniformity machinery's 1e-12 budgets absorb easily.
"""

import numpy as np

_TWO_OVER_SQRT_PI = 1.1283791670955126
_INV_SQRT_PI = 0.5641895835477563
_SQRT2 = 1.4142135623730951
_SERIES_CUT = 3.0
_CF_CUT = 1.5  # continued fraction is machine precision from here up


def _erf_series(x):
    # erf(x) = (2/sqrt(pi)) x e^{-x^2} sum_j (2x^2)^j / (1*3*...*(2j+1)),
    # all terms positive so there is no cancellation on [0, 3]
    x2 = 2.0 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(1, 80):
        term = term * x2 / (2.0 * j + 1.0)
        total += term
        if term.max(initial=0.0) < 1e-18:
            break
    return _TWO_OVER_SQRT_PI * x * np.exp(-x * x) * total


def _erfc_cf(x):
    # erfc(x) = e^{-x^2}/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated bottom-up at fixed depth; ample for x >= 1.5
    f = np.zeros_like(x)
    for j in range(90, 0, -1):
        f = (0.5 * j) / (x + f)
    return _INV_SQRT_PI * np.exp(-x * x) / (x + f)


def erf(x):
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUT
    if small.any():
        out[small] = _erf_series(ax[small])
    if (~small).any():
        out[~small] = 1.0 - _erfc_cf(ax[~small])
    return np.copysign(out, x) if x.shape else float(np.copysign(out, x))


def erfc(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    big = x > _CF_CUT
    if big.any():
        out[big] = _erfc_cf(x[big])
    rest = ~big
    if rest.any():
        out[rest] = 1.0 - erf(x[rest])
    return out if x.shape else float(out)


def normal_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    out = 0.5 * erfc(-z / _SQRT2)
    return out if z.shape else float(out)


def normal_sf(z):
    z = np.asarray(z, dtype=np.float64)
    out = 0.5 * erfc(z / _SQRT2)
    return out if z.shape else float(out)


# PPND16 (Wichura's algorithm AS 241): rational minimax pieces for the
# standard normal quantile, accurate to about 1e-16 relative.

_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
      1.78482653991729133580e0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, r):
    out = np.full_like(r, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * r + c
    return out


def probit(p):
    """Standard normal quantile, vectorized; p must lie strictly in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if ((p <= 0.0) | (p >= 1.0)).any():
        raise ValueError("probit requires 0 < p < 1")
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly(_A, r) / _poly(_B, r)

    wings = ~central
    if wings.any():
        pw = np.where(q[wings] < 0.0, p[wings], 1.0 - p[wings])
        r = np.sqrt(-np.log(pw))
        mid = r <= 5.0
        val = np.empty_like(r)
        if mid.any():
            rm = r[mid] - 1.6
            val[mid] = _poly(_C, rm) / _poly(_D, rm)
        if (~mid).any():
            rt = r[~mid] - 5.0
            val[~mid] = _poly(_E, rt) / _poly(_F, rt)
        out[wings] = np.copysign(val, q[wings])

    return out if p.shape else float(out)
