"""Exact scalar and univariate-polynomial arithmetic.

Univariate polynomials over the rationals or over a number field
``QQ[a]/(p)``, complete factorization over the rationals (squarefree
decomposition, a scan for the rational roots p/q with |p|, q <= 30 that
tries only the divisors the rational root theorem allows and evaluates in
integers, then Berlekamp + Hensel lifting + Zassenhaus recombination from a
single good prime), and binary forms in two variables with exact
square-root extraction.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely between threads.
"""

import itertools
import math

from .errors import DegreeTooLarge, FieldMismatch, ReducibleMinimalPolynomial
from .scalars import QQ, ZERO, ONE, clear_denominators, rat_sqrt, rat_str

FACTOR_DEGREE_BOUND = 24

_PRIMES = []


def _primes():
    if not _PRIMES:
        sieve = bytearray([1]) * 2000
        sieve[0] = sieve[1] = 0
        for i in range(2, 45):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _PRIMES.extend(i for i in range(2000) if sieve[i])
    return _PRIMES


# ---------------------------------------------------------------------------
# raw coefficient-list kernels (constant term first)
# ---------------------------------------------------------------------------


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _zz_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(out)


def _zz_sub(f, g):
    out = list(f) + [0] * max(0, len(g) - len(f))
    for j, b in enumerate(g):
        out[j] -= b
    return _trim(out)


def _zz_add(f, g):
    out = list(f) + [0] * max(0, len(g) - len(f))
    for j, b in enumerate(g):
        out[j] += b
    return _trim(out)


def _sym_mod(a, m):
    a %= m
    if 2 * a > m:
        a -= m
    return a


def _zz_trunc(f, m):
    return _trim([_sym_mod(a, m) for a in f])


def _zz_primitive(f):
    g = 0
    for a in f:
        g = math.gcd(g, a)
    if g == 0:
        return f, 0
    if f[-1] < 0:
        g = -g
    return [a // g for a in f], g


def _zz_divmod_monic(f, g, m=None):
    """Divide by g with unit leading coefficient, optionally modulo m."""
    f = list(f)
    dg = len(g) - 1
    inv_lc = g[-1]
    if m is not None:
        inv_lc = pow(g[-1], -1, m)
    q = [0] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * inv_lc if m is None else (f[i] * inv_lc) % m
        if m is None and g[-1] not in (1, -1):
            raise ArithmeticError("non-unit leading coefficient")
        q[i - dg] = c
        if c:
            for j, b in enumerate(g):
                f[i - dg + j] -= c * b
                if m is not None:
                    f[i - dg + j] %= m
    return _trim(q), _trim(f[:dg])


# mod-p helpers -------------------------------------------------------------


def _gf(f, p):
    return _trim([a % p for a in f])


def _gf_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _gf_sub(f, g, p):
    out = list(f) + [0] * max(0, len(g) - len(f))
    for j, b in enumerate(g):
        out[j] = (out[j] - b) % p
    return _trim(out)


def _gf_divmod(f, g, p):
    f = [a % p for a in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = (f[i] * inv) % p
        q[i - dg] = c
        if c:
            for j, b in enumerate(g):
                f[i - dg + j] = (f[i - dg + j] - c * b) % p
    return _trim(q), _trim(f[:dg])


def _gf_monic(f, p):
    inv = pow(f[-1], -1, p)
    return [(a * inv) % p for a in f]


def _gf_gcd(f, g, p):
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    return _gf_monic(f, p) if f else []


def _gf_gcdex(f, g, p):
    """Extended Euclid mod p: returns (s, t, h) with s*f + t*g = h monic."""
    r0, r1 = _gf(f, p), _gf(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    scale = lambda h: [(a * inv) % p for a in h]
    return scale(s0), scale(t0), scale(r0)


def _gf_pow_mod(f, e, mod, p):
    out = [1]
    base = _gf_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            out = _gf_divmod(_gf_mul(out, base, p), mod, p)[1]
        base = _gf_divmod(_gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def _gf_deriv(f, p):
    return _trim([(i * a) % p for i, a in enumerate(f)][1:])


def _gf_nullspace(mat, p):
    """Nullspace basis of a square matrix over GF(p) (row vectors v, vM=0)."""
    n = len(mat)
    m = [row[:] for row in mat]
    # we solve M^T x = 0, i.e. treat columns of M as equations
    mt = [[m[i][j] for i in range(n)] for j in range(n)]
    pivots = {}
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if mt[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        mt[row], mt[sel] = mt[sel], mt[row]
        inv = pow(mt[row][col], -1, p)
        mt[row] = [(a * inv) % p for a in mt[row]]
        for r in range(n):
            if r != row and mt[r][col] % p:
                c = mt[r][col]
                mt[r] = [(a - c * b) % p for a, b in zip(mt[r], mt[row])]
        pivots[col] = row
        row += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        v = [0] * n
        v[col] = 1
        for pc, pr in pivots.items():
            v[pc] = (-mt[pr][col]) % p
        basis.append(v)
    return basis


def _gf_berlekamp(f, p):
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    xp = _gf_pow_mod([0, 1], p, f, p)
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = _gf_divmod(_gf_mul(cur, xp, p), f, p)[1]
    for i in range(n):
        rows[i][i] = (rows[i][i] - 1) % p
    basis = _gf_nullspace(rows, p)
    r = len(basis)
    factors = [f]
    if r == 1:
        return factors
    for v in basis:
        if len(_trim([a % p for a in v])) <= 1:
            continue
        vv = _trim([a % p for a in v])
        new = []
        for u in factors:
            if len(u) - 1 <= 1:
                new.append(u)
                continue
            rest = u
            for c in range(p):
                if len(rest) - 1 <= 0:
                    break
                g = _gf_gcd(rest, _gf_sub(vv, [c], p), p)
                if 0 < len(g) - 1 < len(rest) - 1:
                    new.append(g)
                    rest = _gf_divmod(rest, g, p)[0]
            if len(rest) - 1 > 0:
                new.append(rest)
        factors = new
        if len(factors) == r:
            break
    return sorted(factors)


def _berlekamp_factor_count(f, p):
    n = len(f) - 1
    xp = _gf_pow_mod([0, 1], p, f, p)
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = _gf_divmod(_gf_mul(cur, xp, p), f, p)[1]
    for i in range(n):
        rows[i][i] = (rows[i][i] - 1) % p
    return len(_gf_nullspace(rows, p))


# Hensel lifting -----------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: f = g*h, s*g + t*h = 1 from mod m to mod m**2.

    h must be monic; returns (G, H, S, T) mod m**2 with H monic.
    """
    M = m * m
    e = _zz_trunc(_zz_sub(f, _zz_mul(g, h)), M)
    q, r = _zz_divmod_monic(_zz_mul(s, e), h, M)
    q = _zz_trunc(q, M)
    r = _zz_trunc(r, M)
    u = _zz_add(_zz_mul(t, e), _zz_mul(q, g))
    G = _zz_trunc(_zz_add(g, u), M)
    H = _zz_trunc(_zz_add(h, r), M)
    u = _zz_add(_zz_mul(s, G), _zz_mul(t, H))
    b = _zz_trunc(_zz_sub(u, [1]), M)
    c, d = _zz_divmod_monic(_zz_mul(s, b), H, M)
    c = _zz_trunc(c, M)
    d = _zz_trunc(d, M)
    u = _zz_add(_zz_mul(t, b), _zz_mul(c, G))
    S = _zz_trunc(_zz_sub(s, d), M)
    T = _zz_trunc(_zz_sub(t, u), M)
    return G, H, S, T


def _hensel_lift(p, f, factors_mod_p, l):
    """Lift a mod-p factorization of f (primitive over ZZ) to mod p**l."""
    r = len(factors_mod_p)
    lc = f[-1]
    if r == 1:
        inv = pow(lc % p**l, -1, p**l) if lc % p else None
        if inv is None:
            raise ArithmeticError("leading coefficient divisible by p")
        return [_zz_trunc([a * inv for a in f], p**l)]
    m = p
    k = r // 2
    d = max(1, math.ceil(math.log2(l))) if l > 1 else 1
    g = [lc % p]
    for fac in factors_mod_p[:k]:
        g = _gf_mul(g, fac, p)
    h = factors_mod_p[k]
    for fac in factors_mod_p[k + 1 :]:
        h = _gf_mul(h, fac, p)
    s, t, _ = _gf_gcdex(g, h, p)
    g = _zz_trunc(g, p)
    h = _zz_trunc(h, p)
    s = _zz_trunc(s, p)
    t = _zz_trunc(t, p)
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
        if m >= p**l:
            break
    g = _zz_trunc(g, p**l)
    h = _zz_trunc(h, p**l)
    return _hensel_lift(p, g, factors_mod_p[:k], l) + _hensel_lift(
        p, h, factors_mod_p[k:], l
    )


def _zassenhaus(f):
    """Irreducible factors of a primitive squarefree int poly with lc > 0."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    lc = f[-1]
    norm = max(abs(a) for a in f)
    B = (math.isqrt(n + 1) + 1) * 2**n * norm * abs(lc)
    # pick the good prime with the fewest modular factors among candidates
    candidates = []
    for p in _primes():
        if p == 2 or lc % p == 0:
            continue
        fp = _gf_monic(_gf(f, p), p)
        if len(fp) - 1 != n:
            continue
        if len(_gf_gcd(fp, _gf_deriv(fp, p), p)) - 1 != 0:
            continue
        candidates.append((p, fp))
        if len(candidates) == 5:
            break
    if not candidates:
        raise ArithmeticError("no good prime found")
    scored = [(_berlekamp_factor_count(fp, p), p, fp) for p, fp in candidates]
    scored.sort()
    _, p, fp = scored[0]
    modular = _gf_berlekamp(fp, p)
    if len(modular) == 1:
        return [f]
    l = max(1, math.ceil(math.log(2 * B + 1, p)))
    lifted = _hensel_lift(p, f, modular, l)
    pl = p**l
    result = []
    T = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(T):
        found = None
        for S in itertools.combinations(T, s):
            G = [f[-1]]
            for i in S:
                G = _zz_trunc(_zz_mul(G, lifted[i]), pl)
            H = [f[-1]]
            for i in T:
                if i not in S:
                    H = _zz_trunc(_zz_mul(H, lifted[i]), pl)
            if _zz_mul(G, H) == [a * f[-1] for a in f]:
                found = (S, _zz_primitive(G)[0], _zz_primitive(H)[0])
                break
        if found is None:
            s += 1
            continue
        S, Gp, Hp = found
        result.append(Gp)
        f = Hp
        T = [i for i in T if i not in S]
    result.append(f)
    return result


# ---------------------------------------------------------------------------
# univariate polynomials over QQ or a number field
# ---------------------------------------------------------------------------


class UPoly:
    """Dense univariate polynomial; coefficient list starts at the constant.

    ``field`` is None for rational coefficients or a NumberField whose
    elements the coefficients are.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=None):
        coeffs = list(coeffs)
        if field is None:
            coeffs = [QQ(c) if not isinstance(c, type(ZERO)) else c for c in coeffs]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        else:
            coeffs = [field.coerce(c) for c in coeffs]
            while coeffs and coeffs[-1].is_zero():
                coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.field = field

    # -- construction helpers
    @classmethod
    def zero(cls, field=None):
        return cls([], field)

    @classmethod
    def x(cls, field=None):
        if field is None:
            return cls([0, 1])
        return cls([field.zero(), field.one()], field)

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        return self.coeffs[-1]

    def _zero_c(self):
        return ZERO if self.field is None else self.field.zero()

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._zero_c()

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("mixed coefficient fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[i] + other[i] for i in range(n)], self.field)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[i] - other[i] for i in range(n)], self.field)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return self.scale(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UPoly.zero(self.field)
        out = [self._zero_c()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out, self.field)

    def scale(self, c):
        if self.field is not None:
            c = self.field.coerce(c)
        else:
            c = QQ(c)
        return UPoly([a * c for a in self.coeffs], self.field)

    def __pow__(self, e):
        out = UPoly([1] if self.field is None else [self.field.one()], self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _inv_c(self, c):
        return ONE / c if self.field is None else c.inv()

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg = other.degree()
        inv = self._inv_c(other.lc())
        q = [self._zero_c()] * max(0, len(rem) - dg)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i] * inv
            q[i - dg] = c
            for j, b in enumerate(other.coeffs):
                rem[i - dg + j] = rem[i - dg + j] - c * b
            rem[i] = self._zero_c()
        return UPoly(q, self.field), UPoly(rem[:dg], self.field)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self._inv_c(self.lc()))

    def derivative(self):
        if self.field is None:
            return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])
        return UPoly(
            [c * self.field.from_rat(QQ(i)) for i, c in enumerate(self.coeffs)][1:],
            self.field,
        )

    def eval(self, x):
        """Horner evaluation; x may be rational, NFElem, or any ring element."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "UPoly(0)"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if (c == 0) if self.field is None else c.is_zero():
                continue
            cs = rat_str(c) if self.field is None else str(c)
            terms.append("%s*x^%d" % (cs, i) if i else cs)
        return "UPoly(%s)" % " + ".join(terms)


def _content_scale(p):
    """A rational c such that p.scale(c) has small integer-ish coefficients.

    Rescaling by a nonzero rational is free over a field; this keeps
    coefficient heights bounded during Euclidean remainder sequences.
    """
    if p.is_zero():
        return ONE
    if p.field is None:
        flat = list(p.coeffs)
    else:
        flat = [c for e in p.coeffs for c in e.coords]
    ints = clear_denominators(flat)
    for orig, scaled in zip(flat, ints):
        if scaled != 0:
            return QQ(scaled) / orig
    return ONE


def upoly_gcd(a, b):
    """Monic gcd over the coefficient field (Euclidean algorithm)."""
    if a.field != b.field:
        raise FieldMismatch("mixed coefficient fields")
    while not b.is_zero():
        r = a % b
        a, b = b, r.scale(_content_scale(r))
    return a.monic() if not a.is_zero() else a


def upoly_gcdex(a, b):
    """Extended Euclid: returns (s, t, g) monic g = gcd with s*a + t*b = g."""
    field = a.field
    one = UPoly([1] if field is None else [field.one()], field)
    zero = UPoly.zero(field)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        scale = _content_scale(r)
        r0, r1 = r1, r.scale(scale)
        s0, s1 = s1, (s0 - q * s1).scale(scale)
        t0, t1 = t1, (t0 - q * t1).scale(scale)
    if r0.is_zero():
        return s0, t0, r0
    inv = ONE / r0.lc() if field is None else r0.lc().inv()
    return s0.scale(inv), t0.scale(inv), r0.scale(inv)


def upoly_from_int(coeffs):
    return UPoly([QQ(c) for c in coeffs])


def _to_primitive_int(p):
    ints = clear_denominators(list(p.coeffs))
    prim, _ = _zz_primitive(ints)
    return prim


def upoly_squarefree(p):
    """Yun decomposition: list of (monic squarefree factor, multiplicity)."""
    f = p.monic()
    df = f.derivative()
    a0 = upoly_gcd(f, df)
    if a0.degree() == 0:
        return [(f, 1)]
    b = f // a0
    c = df // a0
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        ai = upoly_gcd(b, d)
        if ai.degree() > 0:
            out.append((ai, i))
        b = b // ai
        c = d // ai
        d = c - b.derivative()
        i += 1
    return out


def _bounded_rational_roots(ints, bound=30):
    """Rational roots p/q with |p|, q <= bound of a primitive int poly.

    By the rational root theorem a root p/q in lowest terms has p dividing
    the lowest nonzero coefficient and q dividing the leading one, so only
    those divisors up to ``bound`` are tried, and each candidate is tested
    in integers as sum a_i p^i q^(n-i) == 0 (n the degree).  Root 0 is
    present exactly when the constant term is 0.
    """
    low = next(a for a in ints if a)
    nums = [p for p in range(1, bound + 1) if low % p == 0]
    roots = [ZERO] if ints[0] == 0 else []
    for q in range(1, bound + 1):
        if ints[-1] % q:
            continue
        for p in nums:
            if math.gcd(p, q) != 1:
                continue
            for sp in (p, -p):
                acc = 0
                qpow = 1
                for a in reversed(ints):
                    acc = acc * sp + a * qpow
                    qpow *= q
                if acc == 0:
                    roots.append(QQ(sp, q))
    return sorted(roots)


def upoly_factor(p, max_degree=FACTOR_DEGREE_BOUND):
    """Factor a nonzero rational polynomial into monic irreducibles.

    Returns a list of (factor, multiplicity) pairs, sorted by degree then
    coefficients; the product of factor**multiplicity differs from p by the
    rational unit p.lc().
    """
    if p.field is not None:
        raise FieldMismatch("factorization is only over the rationals")
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree() > max_degree:
        raise DegreeTooLarge(
            "degree %d exceeds bound %d" % (p.degree(), max_degree)
        )
    result = {}
    for part, mult in upoly_squarefree(p):
        ints = _to_primitive_int(part)
        for root in _bounded_rational_roots(ints):
            lin = UPoly([-root, 1])
            result[lin] = result.get(lin, 0) + mult
            part = part // lin
        if part.degree() == 0:
            continue
        ints = _to_primitive_int(part)
        for fac in _zassenhaus(ints):
            mf = upoly_from_int(fac).monic()
            result[mf] = result.get(mf, 0) + mult
    return sorted(result.items(), key=lambda fm: (fm[0].degree(), fm[0].coeffs))


def upoly_is_irreducible(p, max_degree=FACTOR_DEGREE_BOUND):
    facs = upoly_factor(p, max_degree)
    return len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree() == p.degree()


# ---------------------------------------------------------------------------
# number fields QQ[a]/(minimal polynomial)
# ---------------------------------------------------------------------------


class NumberField:
    """The field QQ[a]/(p) for a monic irreducible rational polynomial p."""

    def __init__(self, minimal_polynomial, name="a", check=True):
        mp = minimal_polynomial.monic()
        if mp.degree() < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if check and mp.degree() > 1 and not upoly_is_irreducible(mp):
            raise ReducibleMinimalPolynomial(repr(minimal_polynomial))
        self.minimal_polynomial = mp
        self.degree = mp.degree()
        self.name = name
        # reduction table: a^k mod p for k = degree .. 2*degree-2
        self._red = []
        n = self.degree
        cur = [-c for c in mp.coeffs[:-1]]
        for _ in range(n - 1):
            self._red.append(tuple(cur))
            cur = [ZERO] + cur
            top = cur.pop()
            if top != 0:
                cur = [c + top * r for c, r in zip(cur, self._red[0])]

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.minimal_polynomial.coeffs == other.minimal_polynomial.coeffs
        )

    def __hash__(self):
        return hash(self.minimal_polynomial.coeffs)

    def __repr__(self):
        return "NumberField(%s, %s)" % (self.name, self.minimal_polynomial)

    def zero(self):
        return NFElem(self, (ZERO,) * self.degree)

    def one(self):
        return NFElem(self, (ONE,) + (ZERO,) * (self.degree - 1))

    def gen(self):
        if self.degree == 1:
            return self.from_rat(-self.minimal_polynomial.coeffs[0])
        coords = [ZERO] * self.degree
        coords[1] = ONE
        return NFElem(self, tuple(coords))

    def from_rat(self, q):
        coords = [ZERO] * self.degree
        coords[0] = QQ(q)
        return NFElem(self, tuple(coords))

    def coerce(self, v):
        if isinstance(v, NFElem):
            if v.owner != self:
                raise FieldMismatch("element of a different number field")
            return v
        return self.from_rat(v)

    def elem(self, coeffs):
        """Element from a coefficient list in the power basis (low first)."""
        coords = [QQ(c) for c in coeffs]
        if len(coords) > self.degree:
            poly = UPoly(coords) % self.minimal_polynomial
            coords = list(poly.coeffs)
        coords += [ZERO] * (self.degree - len(coords))
        return NFElem(self, tuple(coords))

    def reduce_product(self, conv):
        """Reduce a raw convolution (length <= 2*degree-1) into the field."""
        n = self.degree
        coords = list(conv[:n]) + [ZERO] * max(0, n - len(conv))
        for k in range(n, len(conv)):
            c = conv[k]
            if c != 0:
                red = self._red[k - n]
                coords = [a + c * b for a, b in zip(coords, red)]
        return NFElem(self, tuple(coords))


class NFElem:
    """Residue in a number field, stored in the power basis of degree < n."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner, coords):
        self.owner = owner
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.owner != self.owner:
                raise FieldMismatch("elements of different number fields")
            return other
        return self.owner.from_rat(other)

    def __eq__(self, other):
        if isinstance(other, NFElem):
            return self.owner == other.owner and self.coords == other.coords
        try:
            return self == self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other):
        other = self._coerce(other)
        return NFElem(self.owner, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NFElem(self.owner, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return NFElem(self.owner, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if not isinstance(other, NFElem):
            q = QQ(other)
            return NFElem(self.owner, tuple(a * q for a in self.coords))
        other = self._coerce(other)
        a, b = self.coords, other.coords
        conv = [ZERO] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x != 0:
                for j, y in enumerate(b):
                    conv[i + j] = conv[i + j] + x * y
        return self.owner.reduce_product(conv)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in number field")
        poly = UPoly(list(self.coords))
        s, _, g = upoly_gcdex(poly, self.owner.minimal_polynomial)
        if g.degree() != 0:
            raise ZeroDivisionError("zero divisor in number field")
        return self.owner.elem(list(s.coeffs))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = self.owner.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __repr__(self):
        name = self.owner.name
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_str(c))
            elif i == 1:
                terms.append("%s*%s" % (rat_str(c), name))
            else:
                terms.append("%s*%s^%d" % (rat_str(c), name, i))
        return " + ".join(terms) if terms else "0"


def scalar_is_zero(v):
    """Zero test for a rational or number-field scalar."""
    if isinstance(v, NFElem):
        return v.is_zero()
    return v == 0


# ---------------------------------------------------------------------------
# binary forms in (s, t)
# ---------------------------------------------------------------------------


class BinForm:
    """Homogeneous binary form; coeffs[i] is the coefficient of s^i t^(d-i)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = [c if type(c) is QQ else QQ(c) for c in coeffs]
        if len(coeffs) != degree + 1:
            raise ValueError("need %d coefficients" % (degree + 1))
        self.degree = degree
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, degree):
        return cls(degree, [ZERO] * (degree + 1))

    @classmethod
    def from_upoly(cls, poly, degree):
        """Homogenize a rational UPoly in s to the given total degree."""
        if poly.degree() > degree:
            raise ValueError("polynomial degree exceeds form degree")
        coeffs = list(poly.coeffs) + [ZERO] * (degree - poly.degree())
        return cls(degree, coeffs)

    def to_upoly(self):
        """Dehomogenize at t = 1 (chart x = s/t)."""
        return UPoly(list(self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("binary forms of different degrees")
        return BinForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("binary forms of different degrees")
        return BinForm(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinForm(self.degree, [-a for a in self.coeffs])

    def scale(self, c):
        c = QQ(c)
        return BinForm(self.degree, [a * c for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, BinForm):
            return self.scale(other)
        out = [ZERO] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a != 0:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return BinForm(self.degree + other.degree, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = BinForm(0, [ONE])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def eval(self, s, t):
        """Evaluate at scalars (rational or NFElem)."""
        acc = None
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = c * s**i * t ** (self.degree - i) if i < self.degree else c * s**i
            if i == 0:
                term = c * t**self.degree
            acc = term if acc is None else acc + term
        if acc is None:
            return s * 0
        return acc

    def s_degree(self):
        """Largest i with a nonzero s^i coefficient (-1 for the zero form)."""
        for i in range(self.degree, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def t_multiplicity(self):
        """Multiplicity of the root (1:0)."""
        if self.is_zero():
            raise ValueError("zero form")
        return self.degree - self.s_degree()

    def content(self):
        g = ZERO
        for c in self.coeffs:
            if c != 0:
                g = c if g == 0 else None
                break
        ints = clear_denominators(list(self.coeffs))
        prim, _ = _zz_primitive(ints)
        if all(c == 0 for c in ints):
            return ZERO
        # content = original / primitive on the first nonzero slot
        for orig, pr in zip(self.coeffs, prim):
            if pr != 0:
                return orig / QQ(pr)
        raise AssertionError("unreachable")

    def primitive(self):
        """Integer-primitive representative with positive leading coefficient."""
        ints = clear_denominators(list(self.coeffs))
        prim, _ = _zz_primitive(ints)
        sd = self.s_degree()
        if sd >= 0 and prim[sd] < 0:
            prim = [-c for c in prim]
        return BinForm(self.degree, prim)

    def factor(self, max_degree=FACTOR_DEGREE_BOUND):
        """Full factorization: (content, [(primitive irreducible, mult)]).

        The root (1:0) appears as the factor ``t`` (that is, BinForm(1,[1,0])).
        """
        if self.is_zero():
            raise ValueError("cannot factor the zero form")
        out = []
        tmult = self.t_multiplicity()
        if tmult:
            out.append((BinForm(1, [ONE, ZERO]), tmult))
        dehom = self.to_upoly()
        if dehom.degree() > 0:
            for fac, mult in upoly_factor(dehom, max_degree):
                b = BinForm.from_upoly(fac, fac.degree()).primitive()
                out.append((b, mult))
        ordered = sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))
        prod = BinForm(0, [ONE])
        for fac, mult in ordered:
            prod = prod * fac**mult
        content = self.coeffs[self.s_degree()] / prod.coeffs[prod.s_degree()]
        return content, ordered

    def __repr__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            parts = []
            if c != 1 or i == self.degree == 0:
                parts.append(rat_str(c))
            if i:
                parts.append("s^%d" % i if i > 1 else "s")
            if self.degree - i:
                parts.append("t^%d" % (self.degree - i) if self.degree - i > 1 else "t")
            terms.append("*".join(parts) if parts else "1")
        return " + ".join(terms) if terms else "0"


def binform_gcd(f, g):
    """Primitive gcd of two binary forms (1 for coprime forms)."""
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    tm = min(f.t_multiplicity(), g.t_multiplicity())
    h = upoly_gcd(f.to_upoly(), g.to_upoly())
    core = BinForm.from_upoly(h, h.degree() + tm)
    return core.primitive()


def binform_divides(t, f):
    """Does the binary form t divide f exactly?"""
    if f.is_zero():
        return True
    if t.is_zero():
        return False
    if t.t_multiplicity() > f.t_multiplicity():
        return False
    _q, r = f.to_upoly().divmod(t.to_upoly())
    return r.is_zero()


def binary_form_sqrt(f):
    """Exact square root of a binary form over QQ, or None.

    Returns g with g*g == f when f is a rational square; the leading
    coefficient of g is chosen positive.
    """
    if f.degree % 2 != 0:
        return None
    e = f.degree // 2
    if f.is_zero():
        return BinForm.zero(e)
    top = f.s_degree()
    if top % 2 != 0:
        return None
    gtop = top // 2
    lead = rat_sqrt(f.coeffs[top])
    if lead is None:
        return None
    g = [ZERO] * (e + 1)
    g[gtop] = lead
    for m in range(gtop - 1, -1, -1):
        # coefficient of s^(m+gtop) in g*g is 2*g[gtop]*g[m] + cross terms
        acc = ZERO
        for i in range(m + 1, gtop):
            j = m + gtop - i
            if 0 <= j <= e and j < i:
                acc = acc + 2 * g[i] * g[j]
            elif j == i:
                acc = acc + g[i] * g[i]
        g[m] = (f.coeffs[m + gtop] - acc) / (2 * lead)
    cand = BinForm(e, g)
    if cand * cand == f:
        return cand
    return None
