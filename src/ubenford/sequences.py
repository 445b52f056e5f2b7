"""Deterministic positive sequences and their mod-1 fractional samples.

Each sequence produces BigReal terms: exact integers where the value is an
integer (primes, factorials, n**n), and certified approximations for
irrational terms (sqrt n, pi*n, e**n, n**alpha) generated as binary fixed
point with as many significant bits as the downstream transform asks for.
One rule in bits sizes a term: a sequence with inexact terms bounds their
integer bits (int_bits_estimate), and the certifier's start_bits turns
that into the bits the term is generated at. An exact term ignores its
bits. frac_sample drives the whole pipeline term by term, regenerating a
term at doubled bits whenever the transform refuses to certify its
fractional part, up to the policy's cap.
"""

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .bigreal import DEFAULT_POLICY, BigReal
from .errors import DomainError, InsufficientPrecision, InvalidParameter, \
    count, real, string
from .kernels import e_fixed, exp_fixed, ln2_fixed, ln_int_fixed, \
    pi_fixed, pow_fixed
from .transforms import Power, _Certifier

_LOG2_E_FIXED64 = 26613026195688644984  # ceil(log2(e) * 2**64)


# ---------------------------------------------------------------------------
# prime generation: growing sieve cache

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
_SIEVE_LIMIT = 30


def _extend_primes(count):
    global _SIEVE_LIMIT
    while len(_PRIMES) < count:
        k = max(count, 6)
        # Rosser bound, then a margin so one pass usually suffices
        limit = int(k * (math.log(k) + math.log(math.log(k)))) + 10
        limit = max(limit, _SIEVE_LIMIT * 2)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        _PRIMES.clear()
        _PRIMES.extend(int(v) for v in np.nonzero(sieve)[0])
        _SIEVE_LIMIT = limit


def nth_prime(n):
    """n-th prime, 1-indexed: nth_prime(1) == 2."""
    if n < 1:
        raise InvalidParameter("prime index starts at 1")
    if n > len(_PRIMES):
        _extend_primes(n)
    return _PRIMES[n - 1]


# ---------------------------------------------------------------------------
# sequences

class Sequence:
    """Base: positive terms indexed from n = 1.

    nth_term(n, bits) returns term n, certified to `bits` significant
    bits where it is not exact.
    """

    name = "?"

    def nth_term(self, n, bits):
        raise NotImplementedError

    def int_bits_estimate(self, n):
        """An upper bound on the integer bits of term n, which sizes the
        bits it is generated at. An exact term ignores `bits`, so a
        sequence of exact terms keeps this 0."""
        return 0

    def __repr__(self):
        return f"<Sequence {self.name}>"


class SqrtN(Sequence):
    name = "sqrt_n"

    def nth_term(self, n, bits):
        r = isqrt(n)
        if r * r == n:
            return BigReal.from_int(r)
        return BigReal(isqrt(n << 2 * bits), -bits, bits, False)

    def int_bits_estimate(self, n):
        return (n.bit_length() + 1) // 2


class PiN(Sequence):
    name = "pi_n"

    def nth_term(self, n, bits):
        return BigReal(pi_fixed(bits) * n, -bits, bits, False)

    def int_bits_estimate(self, n):
        return n.bit_length() + 2


class Primes(Sequence):
    name = "primes"

    def nth_term(self, n, bits):
        return BigReal.from_int(nth_prime(n))


class ExpN(Sequence):
    name = "exp_n"

    def nth_term(self, n, bits):
        # e**n = (e/2)**n * 2**n, and floor(e * 2**(p-1)) at scale 2**p
        # is e/2; its last-bit error grows n-fold
        lost = n.bit_length() + 2
        p = bits + lost
        mant, e2 = pow_fixed(e_fixed(p - 1), p, n)
        return BigReal(mant, e2 + n - p, p - lost, False)

    def int_bits_estimate(self, n):
        return (n * _LOG2_E_FIXED64 >> 64) + 1


class Factorial(Sequence):
    name = "factorial"

    def nth_term(self, n, bits):
        return BigReal.from_int(math.factorial(n))


class NPowN(Sequence):
    name = "n_pow_n"

    def nth_term(self, n, bits):
        return BigReal.from_int(n ** n)


class PowerLaw(Sequence):
    """n**alpha. alpha is "1/pi" or a positive float expanded exactly."""

    def __init__(self, alpha):
        self._constants = (None, None, None)  # see _constants_at
        if isinstance(alpha, str) and alpha.strip() == "1/pi":
            self._inv_pi = True
            self._ratio = self._exact = None
            self._alpha_float = 1.0 / math.pi
            self.name = "power_law(1/pi)"
            return
        a = real("power-law exponent", alpha)
        self._inv_pi = False
        self._ratio = p, q = a.as_integer_ratio()  # exact, lowest terms
        # x**(p/q) finds every term exact for q = 1, squares' roots for 2
        self._exact = Power(p, q) if q <= 2 else None
        self._alpha_float = a
        self.name = f"power_law({a:g})"

    def nth_term(self, n, bits):
        if n == 1:
            return BigReal.from_int(1)  # 1**alpha is exactly 1
        if self._exact is not None:
            r = self._exact._try_exact(BigReal.from_int(n))
            if r is not None:
                return r
        # ulps of ln n, scaled by alpha, become relative error of exp
        slop = int(self._alpha_float * (n.bit_length() + 4)) + 6
        lost = slop.bit_length() + 2
        g = bits + lost
        _, ln2, pi = self._constants_at(g)
        ln_n = ln_int_fixed(n, g, ln2)
        if self._inv_pi:
            x = (ln_n << g) // pi
        else:
            x = ln_n * self._ratio[0] // self._ratio[1]
        mant, e2 = exp_fixed(x, g)
        return BigReal(mant, e2 - g, g - lost, False)

    def _constants_at(self, g):
        """(g, ln 2, pi or None) at scale 2**-g, kept for the last g: the
        terms of a cell share g over long runs."""
        if self._constants[0] != g:
            self._constants = (g, ln2_fixed(g),
                               pi_fixed(g) if self._inv_pi else None)
        return self._constants

    def int_bits_estimate(self, n):
        return int(self._alpha_float * math.log2(n)) + 2


SEQUENCES = {
    "sqrt_n": SqrtN,
    "pi_n": PiN,
    "primes": Primes,
    "exp_n": ExpN,
    "factorial": Factorial,
    "n_pow_n": NPowN,
}


def parse_sequence(text):
    """Registry lookup; power laws take a parameter: "power_law:1/pi"."""
    t = string("sequence", text).strip().lower()
    if t.startswith("power_law"):
        _, _, arg = t.partition(":")
        return PowerLaw(arg if arg else "1/pi")
    if t in SEQUENCES:
        return SEQUENCES[t]()
    raise InvalidParameter(f"unknown sequence {text!r}")


def odd_nonsquare(n):
    """Index filter for the pathological subsequence of sqrt n."""
    return n % 2 == 1 and isqrt(n) ** 2 != n


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class FracSample:
    """Fractional parts of u(x_n), with domain-exclusion accounting."""

    values: np.ndarray
    excluded: int
    n_requested: int

    @property
    def size(self):
        return int(self.values.size)


def frac_sample(sequence, transform, n_max, policy=DEFAULT_POLICY,
                index_filter=None):
    """{u(x_n)} for n = 1..n_max as certified doubles in [0, 1).

    Terms outside the transform's domain (e.g. x <= 1 under the iterated
    log) are skipped and counted in `excluded`. One certifier serves the
    whole cell. Each term is generated at the start_bits of its estimated
    integer bits, so its significant bits cover the first working
    precision; when the transform refuses the term, it is regenerated at
    doubled bits, and PrecisionCapExceeded is raised once they pass the
    policy's cap.
    """
    n_max = count("n_max", n_max, 1)
    certifier = _Certifier(transform, policy)
    out = []
    excluded = 0
    requested = 0
    for n in range(1, n_max + 1):
        if index_filter is not None and not index_filter(n):
            continue
        requested += 1
        bits = certifier.start_bits(sequence.int_bits_estimate(n))
        while True:
            x = sequence.nth_term(n, bits)
            try:
                out.append(certifier.frac(x))
                break
            except DomainError:
                excluded += 1
                break
            except InsufficientPrecision:
                bits *= 2
                certifier.check_cap(bits, f"term {n} of {sequence.name} "
                                          f"under {transform.label()}")
    return FracSample(np.asarray(out, dtype=np.float64), excluded, requested)
