"""Vectorized special functions: the error function and normal quantile.

numpy-only implementations so the library does not depend on a full
scientific stack. One dispatch, _erfc(t, s, out, erf), gives erfc, or erf
where asked, at x = t*sqrt(s): HalfNormal reads erf (its cdf) and erfc (its
sf) at s = 1, LognormalBase10 half of erfc at s = 1/2 (of -z for its cdf,
of z for its sf), and stats the public erfc. Below |x| = 0.5, erf is a
positive series of a few terms. From 0.5 up, erfc(x) = exp(-x*x) erfcx(x),
with erfcx from Weideman's rational series at N = 40 (SIAM J. Numer. Anal.
31(5), 1994); erf is 1 - erfc there and erfc(-x) is 2 - erfc(x). The
exponent is never rounded: exp(-x*x) = exp(-s*hi*hi) exp(-s*lo*(t + hi))
with hi = t rounded to 12 fractional bits, so hi*hi is exact and no
rounded x enters it. Against mpmath at 50 digits erf, erfc and the normal
laws stay within 8 ulp on [-6, 27] where the result is a normal double
(5.6 the worst seen); erfcx's truncation at N = 40 is below 1e-4 ulp. The
former erfc, a continued fraction from 1.5 up and 1 - erf below, was up to
124 ulp off on [0.5, 1.5) and 484 ulp on [6, 27), where it exponentiated a
rounded x*x. The quantile is Wichura's PPND16.
"""

import functools
import math

import numpy as np

_TWO_OVER_SQRT_PI = 1.1283791670955126
_INV_SQRT_PI = 0.5641895835477563
_CUT = 0.5  # the series below, the erfcx kernel from here up
_T_MAX = 40.0  # erfc(40 * sqrt(1/2)) underflows; keeps inf out of Z
_SPLIT = 1.5 * 2.0 ** 40  # t + _SPLIT - _SPLIT rounds t to 12 fraction bits


@functools.cache
def _weideman(n):
    # erfcx(x) = 2 p(Z) / (L+x)^2 + 1 / (sqrt(pi) (L+x)), Z = (L-x)/(L+x),
    # L = sqrt(n / sqrt 2). The n coefficients of p are the DFT of
    # f = exp(-t^2) (L^2 + t^2) at t = L tan(k pi / 2m), |k| < m = 2n. f is
    # even in k, so that is a cosine sum. It is taken in plain floats on
    # the first call, since numpy.fft and numpy's trig loops, or libm's at
    # import, would add up to 1 MB to processes that never call erfc
    m = 2 * n
    lam = math.sqrt(n / math.sqrt(2.0))
    f = [math.exp(-t * t) * (lam * lam + t * t)
         for t in (lam * math.tan(k * math.pi / (2 * m)) for k in range(1, m))]
    cos = [math.cos(math.pi * j / m) for j in range(2 * m)]
    a = [(lam * lam + 2.0 * math.fsum(fk * cos[r * k % (2 * m)]
                                      for k, fk in enumerate(f, 1))) / (2 * m)
         for r in range(n, 0, -1)]  # highest power first, for Horner
    return lam, tuple(a)


def _erf_series(x):
    # erf(x) = (2/sqrt(pi)) x e^{-x^2} sum_j (2x^2)^j / (1*3*...*(2j+1)),
    # all terms positive so there is no cancellation on [0, 0.5)
    x2 = 2.0 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(1, 80):
        term = term * x2 / (2.0 * j + 1.0)
        total += term
        if term.max(initial=0.0) < 1e-18:
            break
    return _TWO_OVER_SQRT_PI * x * np.exp(-x * x) * total


@functools.cache
def _cut_below(s):
    # the least double t with t * sqrt(s) >= _CUT in doubles; the product
    # rounds monotonically in t, and to nearest alike on either sign, so
    # t >= _cut_below(s) exactly where t * sqrt(s) reaches the cut and
    # t <= -_cut_below(s) where it reaches -_CUT, nan in neither
    r = math.sqrt(s)
    t = _CUT / r
    while t * r >= _CUT:
        t = math.nextafter(t, 0.0)
    while t * r < _CUT:
        t = math.nextafter(t, math.inf)
    return t


def _erfc_big(t, s, out):
    # erfc(x) for x = t * sqrt(s) >= 0.5 and s = 1 or 1/2, into out, which
    # may be t; t is not written otherwise. Works in out and in one array
    # of three more of t's size
    lam, coeffs = _weideman(40)
    d, z, p = (w.reshape(np.shape(t)) for w in np.empty((3, np.size(t))))
    t = np.minimum(t, _T_MAX, out=out)
    np.multiply(t, math.sqrt(s), out=d)
    np.subtract(lam, d, out=z)
    d += lam
    z /= d
    p.fill(coeffs[0])
    for c in coeffs[1:]:
        p *= z
        p += c
    p *= 2.0
    p /= d
    p += _INV_SQRT_PI
    p /= d  # erfcx(x)
    hi = np.add(t, _SPLIT, out=z)
    hi -= _SPLIT
    lo = np.subtract(t, hi, out=d)
    t += hi
    lo *= t
    lo *= -s
    p *= np.exp(lo, out=lo)
    hi *= hi
    hi *= -s
    return np.multiply(p, np.exp(hi, out=hi), out=out)


def _erfc(t, s, out=None, erf=False):
    # erfc(t * sqrt(s)), or erf where erf is set, into out, a fresh array
    # where omitted, which may be t. From the kernel k, erfc is k above the
    # cut and 2 - k below -cut, erf 1 - k and k - 1 (exactly -(1 - k));
    # between them the series (where nan falls, and stays). Each side reads
    # its own entries of t before it writes them; a block wholly above the
    # cut goes to the kernel whole, with no gather or scatter. A fresh out
    # keeps 0-d input an array
    cut = _cut_below(s)
    up, down = t >= cut, t <= -cut
    if out is None:
        out = np.empty_like(t)
    if up.all():
        out = _erfc_big(t, s, out)
        return np.subtract(1.0, out, out=out) if erf else out
    mid = ~(up | down)
    if mid.any():
        series = _erf_series(t[mid] * math.sqrt(s))
        out[mid] = series if erf else 1.0 - series
    if up.any():
        t_up = t[up]
        k = _erfc_big(t_up, s, t_up)
        out[up] = 1.0 - k if erf else k
    if down.any():
        t_down = np.negative(t[down])
        k = _erfc_big(t_down, s, t_down)
        out[down] = k - 1.0 if erf else 2.0 - k
    return out


def erfc(x):
    out = _erfc(np.asarray(x, dtype=np.float64), 1.0)
    return out if out.shape else float(out)


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
