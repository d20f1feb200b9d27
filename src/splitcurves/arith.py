"""Exact scalar and univariate-polynomial arithmetic.

Univariate polynomials over the rationals, number fields ``QQ[a]/(p)``
with products, reductions and inverses in integers, complete factorization
over the rationals (Yun's squarefree decomposition in integers, then
Berlekamp + Hensel lifting + Zassenhaus recombination of each squarefree
part at the first good prime: the first odd prime that divides no leading
coefficient and keeps the part squarefree), binary forms in two variables,
one exact division and one exact square root of polynomials in any number
of variables, and the one square-and-multiply power that every ring of the
package uses.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely between threads.
"""

import itertools
import math

from .errors import (
    DegreeMismatch,
    FieldMismatch,
    ReducibleMinimalPolynomial,
)
from .linalg import solve_linear
from .scalars import (
    QQ,
    ZERO,
    ONE,
    clear_denominators,
    over_common_denominator,
    rat_sqrt,
    rat_str,
    signed_sum,
)

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


def power(base, e, one):
    """base**e for an integer e >= 0 by square-and-multiply; ``one`` is the
    unit of base's ring, returned for e = 0."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


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


def _horner(f, a, b=1):
    """b^k f(a / b) for an integer list f of length k + 1 (constant first)
    and integers a, b: f(a) for b = 1."""
    acc, bk = 0, 1
    for c in reversed(f):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _zz_deriv(f):
    return _trim([i * a for i, a in enumerate(f)][1:])


def _zz_primitive(f):
    g = 0
    for a in f:
        g = math.gcd(g, a)
    if g == 0:
        return f, 0
    if f[-1] < 0:
        g = -g
    return [a // g for a in f], g


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


def _gf_berlekamp_basis(f, p):
    """Nullspace basis of Q - I for a monic squarefree f over GF(p).

    Q is the Berlekamp matrix, whose row i is x^(i*p) mod f; the basis has
    one vector per irreducible factor of f.
    """
    n = len(f) - 1
    # x^p mod f by p shifts, each folding the top term back with the monic f
    xp = [1]
    for _ in range(p):
        xp = [0] + xp
        if len(xp) > n:
            top = xp.pop()
            xp = [(a - top * b) % p for a, b in zip(xp, f)]
    xp = _trim(xp)
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = _gf_divmod(_gf_mul(cur, xp, p), f, p)[1]
    for i in range(n):
        rows[i][i] = (rows[i][i] - 1) % p
    return _gf_nullspace(rows, p)


def _gf_berlekamp(f, p):
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    basis = _gf_berlekamp_basis(f, p)
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


# Hensel lifting -----------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: f = g*h, s*g + t*h = 1 from mod m to mod m**2.

    h must be monic; returns (G, H, S, T) mod m**2 with H monic.
    """
    M = m * m
    e = _zz_trunc(_zz_sub(f, _zz_mul(g, h)), M)
    q, r = _gf_divmod(_zz_mul(s, e), h, M)
    q = _zz_trunc(q, M)
    r = _zz_trunc(r, M)
    u = _zz_add(_zz_mul(t, e), _zz_mul(q, g))
    G = _zz_trunc(_zz_add(g, u), M)
    H = _zz_trunc(_zz_add(h, r), M)
    u = _zz_add(_zz_mul(s, G), _zz_mul(t, H))
    b = _zz_trunc(_zz_sub(u, [1]), M)
    c, d = _gf_divmod(_zz_mul(s, b), H, M)
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
    # the first good prime: p does not divide lc and f stays squarefree mod p
    for p in _primes():
        if p == 2 or lc % p == 0:
            continue
        fp = _gf_monic(_gf(f, p), p)
        if len(_gf_gcd(fp, _gf_deriv(fp, p), p)) == 1:
            break
    else:
        raise ArithmeticError("no good prime found")
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
# univariate polynomials over QQ
# ---------------------------------------------------------------------------


class UPoly:
    """Dense univariate polynomial with rational coefficients; the
    coefficient list starts at the constant.

    A polynomial over a number field is no UPoly: ``curves`` reads the
    point over an algebraic x off two integer polynomials in x, the first
    subresultant's coefficients, reduced by ``NumberField.elem``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, QQ) else QQ(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls([])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def scale(self, c):
        return UPoly([a * c for a in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(ONE / self.lc())

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
            if c == 0:
                continue
            cs = rat_str(c)
            terms.append("%s*x^%d" % (cs, i) if i else cs)
        return "UPoly(%s)" % " + ".join(terms)


def _zz_prem(f, g):
    """A pseudo-remainder of f by g: (r, k) with r = lc(g)^k * f mod g."""
    r = _trim(list(f))
    dg = len(g) - 1
    lc = g[-1]
    k = 0
    while len(r) > dg:
        c = r[-1]
        shift = len(r) - 1 - dg
        if lc != 1:
            r = [lc * a for a in r]
            k += 1
        for j, b in enumerate(g):
            r[shift + j] -= c * b
        r.pop()
        _trim(r)
    return r, k


def _zz_exquo(f, d):
    """The quotient f / d in Z[x] of integer lists, or None when d does not
    divide f there: long division that stops at the first quotient
    coefficient that is not an integer."""
    r = list(f)
    dd = len(d) - 1
    lc = d[-1]
    q = [0] * max(0, len(r) - dd)
    while len(r) > dd:
        c, rem = divmod(r[-1], lc)
        if rem:
            return None
        shift = len(r) - 1 - dd
        q[shift] = c
        for j, b in enumerate(d):
            r[shift + j] -= c * b
        r.pop()
        _trim(r)
    return None if r else q


def _zz_gcd_heuristic(f, g):
    """GCDHEU (Char, Geddes & Gonnet): the gcd of primitive f, g, or None.

    For xi >= 2 min(|f|, |g|) + 2 (max norms), the balanced base-xi digits
    of gcd(f(xi), g(xi)) are the coefficients of a polynomial G, and if
    pp(G) divides f and g it is their gcd (Geddes, Czapor & Labahn,
    Theorem 7.7).  A false candidate only makes xi grow; after six tries
    the caller falls back to the remainder sequence.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(6):
        gamma = math.gcd(_horner(f, xi), _horner(g, xi))
        digits = []
        while gamma:
            d = _sym_mod(gamma, xi)
            digits.append(d)
            gamma = (gamma - d) // xi
        cand = _zz_primitive(digits)[0]
        if cand and _zz_exquo(f, cand) is not None and _zz_exquo(g, cand) is not None:
            return cand
        xi = xi * 73794 // 27011
    return None


def _zz_gcd_prs(f, g):
    """The gcd of primitive f, g by the primitive remainder sequence: each
    pseudo-remainder is divided by its content, which keeps the
    coefficients no larger than the gcd's cofactors need."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _zz_primitive(_zz_prem(f, g)[0])[0]
    return f


def _zz_gcd(f, g):
    """Primitive gcd, positive leading coefficient, of nonzero integer lists.

    GCDHEU on the primitive parts, and the primitive remainder sequence
    only when its tries fail.
    """
    f = _zz_primitive(f)[0]
    g = _zz_primitive(g)[0]
    return _zz_gcd_heuristic(f, g) or _zz_gcd_prs(f, g)


def upoly_gcd(a, b):
    """Monic gcd of two rational polynomials, in integers.

    Both operands are scaled to integer coefficients and ``_zz_gcd``
    (GCDHEU, the primitive pseudo-remainder sequence as its fallback) gives
    the gcd up to a rational unit, which is divided out.  The gcd with zero
    is the other operand made monic.  The package itself no longer calls
    it; the benchmark's tracer still names it as a target.
    """
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    g = _zz_gcd(clear_denominators(list(a.coeffs)), clear_denominators(list(b.coeffs)))
    return UPoly([QQ(c, g[-1]) for c in g])


def upoly_squarefree(f):
    """Yun's squarefree decomposition of a nonzero integer polynomial.

    f is an integer list, constant term first; trailing zeros are ignored.
    Runs on its primitive part and returns (primitive squarefree part,
    multiplicity) pairs, each part an integer list with a positive leading
    coefficient.  Every gcd is primitive, so by Gauss's lemma each cofactor
    is an exact quotient in Z[x], which ``_zz_exquo`` finds; a constant or
    squarefree f is one part.
    """
    f = _zz_primitive(_trim(list(f)))[0]
    df = _zz_deriv(f)
    a = _zz_gcd(f, df) if df else [1]
    if len(a) == 1:
        return [(f, 1)]
    b = _zz_exquo(f, a)
    d = _zz_sub(_zz_exquo(df, a), _zz_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        # d = 0 exactly when the rest of b all has multiplicity i
        a = _zz_gcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b = _zz_exquo(b, a)
        d = _zz_sub(_zz_exquo(d, a), _zz_deriv(b))
        i += 1
    return out


def upoly_factor(p):
    """Factor a nonzero rational polynomial into monic irreducibles.

    Each squarefree part from ``upoly_squarefree`` goes to ``_zassenhaus``.
    Returns a list of (factor, multiplicity) pairs, sorted by degree then
    coefficients; the product of factor**multiplicity differs from p by the
    rational unit p.lc().
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    result = {}
    for part, mult in upoly_squarefree(clear_denominators(list(p.coeffs))):
        if len(part) == 1:
            continue
        for fac in _zassenhaus(part):
            mf = UPoly(fac).monic()
            result[mf] = result.get(mf, 0) + mult
    return sorted(result.items(), key=lambda fm: (fm[0].degree(), fm[0].coeffs))


def upoly_is_irreducible(p):
    facs = upoly_factor(p)
    return len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree() == p.degree()


# ---------------------------------------------------------------------------
# number fields QQ[a]/(minimal polynomial)
# ---------------------------------------------------------------------------


def _times_gen(vec, p):
    """Coordinates of P_n a v for v in QQ[a]/(p), P the integer vector of p.

    v is shifted up one place and its top term cancelled against P,
    P_n a v = P_n shift(v) - v_(n-1) P, so an integer v gives integers.
    """
    top = vec[-1]
    return [p[-1] * x - top * c for x, c in zip([0] + vec[:-1], p)]


# the generator's name in printed elements and parsed minimal polynomials
GENERATOR = "a"


def _generator_power(i):
    """The monomial a^i as text, "1" at i = 0."""
    return "1" if i == 0 else GENERATOR if i == 1 else "%s^%d" % (GENERATOR, i)


class NumberField:
    """The field QQ[a]/(p) for a monic irreducible rational polynomial p.

    Products, reductions and inverses run in integers.  At construction p
    is scaled to a primitive integer vector P = (P_0, ..., P_n), P_n > 0,
    and a^k mod p for k = n .. 2n - 2 is stored as an integer row over one
    common denominator P_n^(n - 1): a^n = -(P_0 + ... + P_(n-1) a^(n-1)) / P_n,
    and each further power is one shift and one fold of the top term.
    """

    def __init__(self, minimal_polynomial, check=True):
        mp = minimal_polynomial.monic()
        if mp.degree() < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if check and mp.degree() > 1 and not upoly_is_irreducible(mp):
            terms = enumerate(minimal_polynomial.coeffs)
            text = signed_sum([(_generator_power(i), c) for i, c in terms if c][::-1])
            raise ReducibleMinimalPolynomial(
                "the minimal polynomial %s is reducible over the rationals" % text
            )
        self.minimal_polynomial = mp
        self.degree = n = mp.degree()
        # monic p has coprime integer coefficients after one lcm scaling
        self._int_poly = ints = clear_denominators(list(mp.coeffs))
        lc = ints[-1]
        # row j is lc^(j + 1) a^(n + j), then all are put over lc^(n - 1)
        rows = [[-c for c in ints[:-1]]] if n > 1 else []
        while len(rows) < n - 1:
            rows.append(_times_gen(rows[-1], ints))
        self._red_den = lc ** (n - 1)
        self._red_rows = [
            [x * lc ** (n - 2 - j) for x in r] for j, r in enumerate(rows)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.minimal_polynomial.coeffs == other.minimal_polynomial.coeffs
        )

    def __hash__(self):
        return hash(self.minimal_polynomial.coeffs)

    def __repr__(self):
        return "NumberField(%s, %s)" % (GENERATOR, self.minimal_polynomial)

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

    def _zz_product(self, a, b):
        """P_n^(n - 1) a b for integer coordinate vectors a, b, in integers.

        The convolution A * B has its top n - 1 terms folded in with the
        integer rows of a^k mod p, which share the denominator P_n^(n - 1).
        """
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        coords = conv[:n]
        red_den = self._red_den
        if red_den != 1:
            coords = [x * red_den for x in coords]
        for c, row in zip(conv[n:], self._red_rows):
            if c:
                coords = [x + c * r for x, r in zip(coords, row)]
        return coords

    def elem(self, coeffs):
        """Element from a coefficient list in the power basis (low first).

        A list longer than the degree is reduced modulo p in integers: put
        over one denominator, its pseudo-remainder by the scaled P is
        P_n^k times the reduction.
        """
        n = self.degree
        coords = [QQ(c) for c in coeffs]
        if len(coords) <= n:
            return NFElem(self, tuple(coords) + (ZERO,) * (n - len(coords)))
        ints, den = over_common_denominator(coords)
        rem, k = _zz_prem(ints, self._int_poly)
        den *= self._int_poly[-1] ** k
        rem += [0] * (n - len(rem))
        return NFElem(self, tuple(QQ(x, den) for x in rem))


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
        """Product: both operands over integers, one ``_zz_product``.

        With a = A / s and b = B / t (A, B integer vectors), each coordinate
        is one rational over s t P_n^(n - 1).
        """
        if not isinstance(other, NFElem):
            q = QQ(other)
            return NFElem(self.owner, tuple(a * q for a in self.coords))
        other = self._coerce(other)
        field = self.owner
        a, s = over_common_denominator(self.coords)
        b, t = over_common_denominator(other.coords)
        den = s * t * field._red_den
        return NFElem(field, tuple(QQ(x, den) for x in field._zz_product(a, b)))

    __rmul__ = __mul__

    def inv(self):
        """Inverse by one exact solve: M x = e_0, column i of M being a * a^i.

        The columns are built in integers, a * a^(i + 1) from a * a^i by a
        shift and a fold of the top term against P, and are put over one
        denominator s P_n^(n - 1) (a = A / s); x is that denominator times
        the solution of the integer system.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in number field")
        field = self.owner
        n = field.degree
        p = field._int_poly
        lc = p[-1]
        col, s = over_common_denominator(self.coords)
        cols = [col]
        while len(cols) < n:
            cols.append(_times_gen(cols[-1], p))
        rows = [
            [v[r] * lc ** (n - 1 - i) for i, v in enumerate(cols)] for r in range(n)
        ]
        x = solve_linear(rows, [1] + [0] * (n - 1))
        if x is None:
            raise ZeroDivisionError("zero divisor in number field")
        scale = s * lc ** (n - 1)
        return NFElem(field, tuple(v * scale for v in x))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return power(self, e, self.owner.one())

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_str(c))
            elif i == 1:
                terms.append("%s*%s" % (rat_str(c), GENERATOR))
            else:
                terms.append("%s*%s^%d" % (rat_str(c), GENERATOR, i))
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
        return power(self, e, BinForm(0, [ONE]))

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

    def primitive(self):
        """Integer-primitive representative with positive leading coefficient."""
        prim = _dehomogenized(self)[0]
        return BinForm(self.degree, prim + [0] * (self.degree + 1 - len(prim)))

    def squarefree_parts(self):
        """Yun's decomposition: (content, [(primitive squarefree part, mult)]).

        The parts are pairwise coprime, their multiplicities distinct, and
        the product of part**mult is self / content.  Yun's algorithm on
        f(s, 1) misses the root (1:0), so t^k, k its multiplicity, is a part
        of its own, listed first; a constant form has no parts.
        """
        if self.is_zero():
            raise ValueError("cannot decompose the zero form")
        tmult = self.t_multiplicity()
        out = [(BinForm(1, [ONE, ZERO]), tmult)] if tmult else []
        # the parts of the primitive F multiply to F, so the content of
        # self = c F is c
        ints, content = _dehomogenized(self)
        out.extend(
            (BinForm(len(part) - 1, part), mult)
            for part, mult in upoly_squarefree(ints)
            if len(part) > 1
        )
        return content, out

    def factor(self):
        """Full factorization: (content, [(primitive irreducible, mult)]).

        The root (1:0) appears as the factor ``t`` (that is, BinForm(1,[1,0])).
        """
        content, parts = self.squarefree_parts()
        out = []
        for part, mult in parts:
            if part.degree == 1:
                out.append((part, mult))
            else:
                ints = _dehomogenized(part)[0]
                out.extend((BinForm(len(fac) - 1, fac), mult) for fac in _zassenhaus(ints))
        return content, sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))

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


def _dehomogenized(f):
    """(F, c) with f(s, 1) = c F for a binary form f: F is a primitive
    integer list, constant term first, with a positive leading coefficient,
    and c is rational ([] and 0 for the zero form)."""
    ints, den = over_common_denominator(f.coeffs)
    prim, content = _zz_primitive(_trim(ints))
    return prim, QQ(content, den)


def binform_gcd(f, g):
    """Primitive gcd of two binary forms (1 for coprime forms).

    The gcd of f(s, 1) and g(s, 1) is ``_zz_gcd`` of their primitive integer
    vectors; the root (1 : 0) adds the smaller t-multiplicity.
    """
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    tm = min(f.t_multiplicity(), g.t_multiplicity())
    h = _zz_gcd(_dehomogenized(f)[0], _dehomogenized(g)[0])
    return BinForm(len(h) - 1 + tm, h + [0] * tm)


def binform_quotient(f, g):
    """The exact quotient f / g of binary forms, or None when g does not divide f.

    The quotient has degree deg f - deg g, also when f is the zero form.
    With f(s, 1) = a F and g(s, 1) = b G, G primitive, G divides F over Q
    exactly when it does over Z (Gauss's lemma), so one exact division in
    integers, ``_zz_exquo``, decides it and f / g = (a / b) F / G.
    """
    if g.is_zero() or g.degree > f.degree:
        return None
    if f.is_zero():
        return BinForm.zero(f.degree - g.degree)
    if g.t_multiplicity() > f.t_multiplicity():
        return None
    f_ints, a = _dehomogenized(f)
    g_ints, b = _dehomogenized(g)
    q = _zz_exquo(f_ints, g_ints)
    if q is None:
        return None
    c = a / b
    degree = f.degree - g.degree
    return BinForm(degree, [c * x for x in q] + [ZERO] * (degree + 1 - len(q)))


def quotient_terms(f, g):
    """Exact quotient f / g of polynomials given as {exponent tuple: coefficient}.

    Coefficients are rationals or elements of one number field.  Returns the
    terms of the q with q * g == f, or None when g does not divide f.
    Leading monomial first, in descending lexicographic order: each term of
    q is the leading term of the remainder f - q g divided by g's leading
    term, with one inverse of g's leading coefficient.  The remainder is
    kept exactly and each step lowers its leading monomial, so the loop
    ends, and q is returned only when the remainder reaches zero.  If g
    divides f, g's leading monomial divides that of every remainder, so a
    step where it does not proves that g does not divide f.
    """
    rest = {e: c for e, c in f.items() if c}
    divisor = [(e, c) for e, c in g.items() if c]
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    g_top, lead = max(divisor)
    inv = ONE / lead
    quotient = {}
    while rest:
        mono = max(rest)
        expo = tuple(a - b for a, b in zip(mono, g_top))
        if min(expo) < 0:
            return None
        c = rest[mono] * inv
        for e, v in divisor:
            key = tuple(a + b for a, b in zip(e, expo))
            left = rest.get(key, ZERO) - c * v
            if left:
                rest[key] = left
            else:
                rest.pop(key, None)
        quotient[expo] = c
    return quotient


def sqrt_terms(terms):
    """Exact square root of a polynomial given as {exponent tuple: rational}.

    Returns the terms of the g with g * g == f whose leading coefficient is
    positive, or None when f is not the square of a rational polynomial.
    Leading monomial first, in descending lexicographic order of the
    exponent tuples: g's leading term is the square root of f's, and each
    further term is the leading term of the remainder f - g^2 divided by
    twice g's leading term.  The remainder is kept exactly, so the loop ends
    with the exact check: g is returned only when it reaches zero.  Each
    step lowers the remainder's leading monomial, which stays below f's, so
    each new exponent of g is below the first; the result does not depend
    on the order of ``terms``.
    """
    rest = {e: c for e, c in terms.items() if c}
    if not rest:
        return {}
    top = max(rest)
    if any(x % 2 for x in top) or rest[top] < 0:
        return None
    lead = rat_sqrt(rest.pop(top))
    if lead is None:
        return None
    g_top = tuple(x // 2 for x in top)
    root = {g_top: lead}
    while rest:
        mono = max(rest)
        expo = tuple(a - b for a, b in zip(mono, g_top))
        if min(expo) < 0:
            return None
        c = rest[mono] / (2 * lead)
        # adding c x^expo to g adds 2 c x^expo g + c^2 x^(2 expo) to g^2
        changes = [(tuple(a + b for a, b in zip(e, expo)), 2 * c * v) for e, v in root.items()]
        changes.append((tuple(2 * a for a in expo), c * c))
        for key, v in changes:
            left = rest.get(key, ZERO) - v
            if left:
                rest[key] = left
            else:
                rest.pop(key, None)
        root[expo] = c
    return root


def binary_form_sqrt(f):
    """Exact square root of a binary form over QQ, or None (``sqrt_terms``).

    Returns g with g*g == f when f is a rational square; the leading
    coefficient of g (that of the highest power of s) is positive.
    """
    if f.degree % 2 != 0:
        return None
    e = f.degree // 2
    root = sqrt_terms({(i, f.degree - i): c for i, c in enumerate(f.coeffs)})
    if root is None:
        return None
    return BinForm(e, [root.get((i, e - i), ZERO) for i in range(e + 1)])
