"""Exact rational scalars.

All coefficient arithmetic in this package runs in exact rational numbers,
``fractions.Fraction``, kept in canonical reduced form by its constructor.
``QQ`` is the one name the other modules use for it.
"""

import math
from fractions import Fraction

QQ = Fraction
# the benchmark header prints it
BACKEND = "fraction"

ZERO = QQ(0)
ONE = QQ(1)


def isqrt_exact(n):
    """Integer square root of ``n`` if ``n`` is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rat_sqrt(q):
    """Exact nonnegative square root of a rational, or None if not a square."""
    num = isqrt_exact(q.numerator)
    if num is None:
        return None
    den = isqrt_exact(q.denominator)
    if den is None:
        return None
    return QQ(num) / QQ(den)


def rat_str(q):
    """Canonical string form, ``p/q`` or ``p``."""
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else "%d/%d" % (n, d)


def signed_sum(terms):
    """"c1*m1 + c2*m2 - ..." from (monomial text, nonzero coefficient) pairs;
    a unit coefficient is left out, and a constant monomial is "1"."""
    out = ""
    for mono, coeff in terms:
        if mono == "1":
            body = rat_str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = "%s*%s" % (rat_str(abs(coeff)), mono)
        if not out:
            out = ("-" if coeff < 0 else "") + body
        else:
            out += " %s %s" % ("-" if coeff < 0 else "+", body)
    return out or "0"


def over_common_denominator(values):
    """(ints, den): values[i] == ints[i] / den, den the lcm of the denominators.

    Reads ``numerator`` and ``denominator``, which Python ints provide too.
    """
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def clear_denominators(values):
    """Scale rationals to coprime integers; returns list of ints.

    The common sign is preserved; an all-zero input maps to all zeros.
    """
    ints, _den = over_common_denominator(values)
    g = math.gcd(*ints)
    if g > 1:
        ints = [i // g for i in ints]
    return ints
