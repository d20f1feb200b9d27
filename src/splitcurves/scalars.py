"""Exact rational scalars.

All coefficient arithmetic in this package runs in exact rational numbers.
Two interchangeable backends are supported and one is selected at import
time: the compiled ``gmpy2.mpq`` type when gmpy2 is installed, and the
pure-Python ``fractions.Fraction`` otherwise.

Both types are kept in canonical reduced form by their constructors, and
their arithmetic semantics agree exactly, so every result of this package
is byte-identical under either backend.
"""

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as QQ  # type: ignore

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - environment dependent
    QQ = Fraction
    BACKEND = "fraction"

ZERO = QQ(0)
ONE = QQ(1)


def numer(q):
    return int(q.numerator)


def denom(q):
    return int(q.denominator)


def isqrt_exact(n):
    """Integer square root of ``n`` if ``n`` is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rat_sqrt(q):
    """Exact nonnegative square root of a rational, or None if not a square."""
    num = isqrt_exact(numer(q))
    if num is None:
        return None
    den = isqrt_exact(denom(q))
    if den is None:
        return None
    return QQ(num) / QQ(den)


def rat_str(q):
    """Canonical string form, ``p/q`` or ``p``."""
    n, d = numer(q), denom(q)
    return str(n) if d == 1 else "%d/%d" % (n, d)


def over_common_denominator(values):
    """(ints, den): values[i] == ints[i] / den, den the lcm of the denominators.

    Reads ``numerator`` and ``denominator``, which Python ints and both
    rational backends provide.
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
