"""Smooth-conic handling.

An exact decision whether a conic has a rational point (Legendre's descent,
with integers factored by trial division up to a fixed bound), rational
parametrization by stereographic projection from such a point, restriction
of plane curves to the conic (giving the intersection divisor as a binary
form), contact analysis, and exact normalization of a smooth conic to
z^2 - 4xy.
"""

from itertools import combinations

from .arith import BinForm, binform_gcd
from .errors import CannotCertify, CommonComponent, ConicNotSmooth, PointNotOnConic
from .forms import PLANE_VARS, Form, ProjPoint, compose_form, form_to_str, substitute_form
from .linalg import kernel_basis, mat_inv, mat_mul, rank_bareiss
from .scalars import QQ, ZERO, ONE, over_common_denominator

NOT_CONTACT = "not_contact"
CONTACT = "contact"
EVEN_CONTACT = "even_contact"
SIMPLE_CONTACT = "simple_contact"


def conic_matrix(q):
    """Symmetric 3x3 matrix A with q(X) = X^T A X."""
    if q.degree != 2 or len(q.variables) != 3:
        raise ValueError("need a ternary quadratic form")
    a = [[ZERO] * 3 for _ in range(3)]
    for expo, c in q.terms.items():
        idx = [i for i, e in enumerate(expo) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            a[i][i] = c
        else:
            a[i][j] = a[i][j] + c / 2
            a[j][i] = a[j][i] + c / 2
    return a


def classify_conic(q):
    """Rank of the symmetric matrix: 3 -> smooth, 2 -> line pair, 1 -> double line."""
    rank = rank_bareiss(conic_matrix(q))
    return {3: "smooth", 2: "rank_two", 1: "rank_one"}[rank]


class ConicParam:
    """Rational parametrization (p0 : p1 : p2) of a smooth conic.

    The three binary quadratics are linearly independent and satisfy
    q(p0, p1, p2) = 0 identically.
    """

    __slots__ = ("conic", "p0", "p1", "p2")

    def __init__(self, conic, p0, p1, p2):
        self.conic = conic
        self.p0 = p0
        self.p1 = p1
        self.p2 = p2

    def components(self):
        return (self.p0, self.p1, self.p2)

    def coefficient_matrix(self):
        """3x3 matrix, rows = coordinates, columns = (s^2, st, t^2)."""
        return [[p.coeffs[2], p.coeffs[1], p.coeffs[0]] for p in self.components()]


def _with_sums(vectors):
    """The vectors, then their pairwise sums, in a fixed order."""
    sums = [[x + y for x, y in zip(u, w)] for u, w in combinations(vectors, 2)]
    return vectors + sums


_UNITS = [[ONE if j == k else ZERO for j in range(3)] for k in range(3)]
_CANDIDATES = _with_sums(_UNITS)  # the directions tried first


def _gram(q):
    """(M, d): the conic matrix of q as integers over one denominator, A = M / d."""
    ints, den = over_common_denominator([c for row in conic_matrix(q) for c in row])
    return [ints[0:3], ints[3:6], ints[6:9]], den


def _bilinear(a, x, y):
    """x^T A y for a = _gram(q), summed in integers and divided once."""
    m, den = a
    xs, dx = over_common_denominator(x)
    (y0, y1, y2), dy = over_common_denominator(y)
    total = sum(u * (r[0] * y0 + r[1] * y1 + r[2] * y2) for u, r in zip(xs, m))
    return QQ(total, den * dx * dy)


def not_smooth(q):
    """The error for the singular conic q, which names it."""
    return ConicNotSmooth("the conic %s is not smooth" % form_to_str(q))


def parametrize_conic(q, base):
    """Stereographic parametrization of a smooth conic from a rational point,
    which is its image of (0 : 1)."""
    if classify_conic(q) != "smooth":
        raise not_smooth(q)
    if base.field is not None:
        raise PointNotOnConic("base point must be rational")
    b = base.primitive()
    if q.eval(b) != 0:
        raise PointNotOnConic("%r does not lie on the conic" % (base,))
    a = _gram(q)
    # tangent direction v_t at the base point: a vector of ker(b^T A) other
    # than b; any u off the tangent line then completes the basis
    row = [_bilinear(a, b, e) for e in _UNITS]
    v_t = next(
        v for v in _CANDIDATES + kernel_basis([row], 3)
        if _bilinear(a, b, v) == 0 and rank_bareiss([b, v]) == 2
    )
    u = next(u for u in _CANDIDATES if rank_bareiss([b, v_t, u]) == 3)
    # direction D = s*u + t*v_t ; second intersection of the line base+D
    qd = [_bilinear(a, u, u), 2 * _bilinear(a, u, v_t), _bilinear(a, v_t, v_t)]
    bd = [_bilinear(a, b, u), _bilinear(a, b, v_t)]  # b^T A D, linear in s, t
    comps = []
    for k in range(3):
        # q(D)*b_k - 2*(b^T A D)*D_k  as binary quadratic in (s, t)
        s2 = qd[0] * b[k] - 2 * bd[0] * u[k]
        st = qd[1] * b[k] - 2 * (bd[0] * v_t[k] + bd[1] * u[k])
        t2 = qd[2] * b[k] - 2 * bd[1] * v_t[k]
        comps.append(BinForm(2, [t2, st, s2]))
    param = ConicParam(q, *comps)
    if not restrict_to_conic(q, param).is_zero():
        raise ConicNotSmooth("parametrization identity failed for %r" % (q,))
    return param


def restrict_to_conic(f, param):
    """The binary form f(p0, p1, p2) of degree 2*deg(f).

    A constant restricts to itself, as a binary form of degree 0.
    """
    if len(f.variables) != 3:
        raise ValueError("restriction needs a plane form")
    if f.degree == 0:
        return BinForm(0, [f.terms.get((0, 0, 0), ZERO)])
    return substitute_form(f, dict(zip(f.variables, param.components())))


# Integers are factored by trial division by 2, 3, 5, ... up to this bound,
# so every |n| < _TRIAL_DIVISION_BOUND**2 factors completely; a larger
# cofactor with no prime factor below the bound raises CannotCertify.
_TRIAL_DIVISION_BOUND = 10**5


def _factor(n):
    """Prime factorization {p: e} of a nonzero integer, by trial division."""
    n, factors, p = abs(n), {}, 2
    while p * p <= n:
        if p > _TRIAL_DIVISION_BOUND:
            raise CannotCertify("cannot factor %d by trial division" % n)
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def square_class(r):
    """(k, m) with r = k * m^2, k a square-free integer and m rational > 0."""
    n, d = r.numerator, r.denominator
    k = m = 1
    for p, e in _factor(n * d).items():
        k *= p ** (e % 2)
        m *= p ** (e // 2)
    return (k if n > 0 else -k), QQ(m) / d


def _sqrt_mod_prime(n, p):
    """Some r with r^2 = n (mod p), or None (Tonelli-Shanks)."""
    n %= p
    if n == 0 or p == 2:
        return n
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _legendre(a, b):
    """Integers (x, y, z), not all zero, with x^2 = a y^2 + b z^2, or None.

    a and b are nonzero square-free integers.  Legendre's descent: with
    |a| >= |b|, a solution forces t^2 = b (mod |a|); then t^2 - b = a k m^2
    with k square-free, |k| < |a|, and multiplying norms from Q(sqrt b) maps
    a solution of X^2 = k Y^2 + b Z^2 to one of the original equation.
    """
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if a < 0 and b < 0:
        return None  # no real point
    if abs(a) < abs(b):
        sol = _legendre(b, a)
        return sol and (sol[0], sol[2], sol[1])
    t, mod = 0, 1  # the square root of b modulo |a|, assembled by CRT
    for p in _factor(a):
        r = _sqrt_mod_prime(b, p)
        if r is None:
            return None  # no p-adic point
        t, mod = t + mod * ((r - t) * pow(mod, -1, p) % p), mod * p
    if 2 * t > mod:
        t -= mod
    k, m = square_class(QQ((t * t - b) // a))
    sol = _legendre(k, b)
    if sol is None:
        return None
    x, y, z = sol
    return t * x + b * z, k * m.numerator * y, x + t * z


def find_rational_point(q):
    """A rational point of the smooth conic q = 0, or None if it has none.

    Decided exactly: an orthogonal basis v1, v2, v3 for the form turns q
    into d1 X^2 + d2 Y^2 + d3 Z^2, which Legendre's descent solves after
    the coefficients are made square-free integers.  The point returned is
    checked on the conic; a singular conic raises ConicNotSmooth.
    """
    if classify_conic(q) != "smooth":
        raise not_smooth(q)
    a = _gram(q)
    basis = []
    while len(basis) < 3:
        rows = [[_bilinear(a, v, e) for e in _UNITS] for v in basis]
        space = kernel_basis(rows, 3) if rows else _UNITS
        basis.append(next(v for v in _with_sums(space) if _bilinear(a, v, v) != 0))
    d1, d2, d3 = (_bilinear(a, v, v) for v in basis)
    # X^2 = -(d2/d1) Y^2 - (d3/d1) Z^2, and -(d2/d1) Y^2 = ka (wa Y)^2
    (ka, wa), (kb, wb) = (square_class(-d / d1) for d in (d2, d3))
    sol = _legendre(ka, kb)
    if sol is None:
        return None
    coeffs = (sol[0], sol[1] / wa, sol[2] / wb)
    p = ProjPoint([sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(3)])
    if q.eval(list(p.coords)) != 0:
        raise CannotCertify("descent gave a point off the conic %r" % (q,))
    return ProjPoint(p.primitive())


def rational_parametrization(q):
    """Stereographic parametrization of q from its decided rational point."""
    base = find_rational_point(q)
    if base is None:
        raise PointNotOnConic("conic has no rational point")
    return parametrize_conic(q, base)


class ContactProfile:
    """Outcome of the contact analysis of a curve against a smooth conic."""

    __slots__ = ("kind", "contact_form", "tangent_count")

    def __init__(self, kind, contact_form, tangent_count):
        self.kind = kind
        self.contact_form = contact_form
        self.tangent_count = tangent_count

    def __repr__(self):
        return "ContactProfile(%s, tangents=%d)" % (self.kind, self.tangent_count)


def contact_profile(gamma, q, param=None):
    """Classify the contact of a curve with a smooth conic.

    Simple contact means every intersection is an ordinary tangency at a
    smooth point of the curve; the returned contact form has the tangency
    parameters as its roots.  A singular conic raises ConicNotSmooth, from
    ``rational_parametrization`` when no parametrization is given.

    The multiplicity of every root of the restriction is read from Yun's
    squarefree decomposition (``BinForm.squarefree_parts``): the kind needs
    only the multiplicities, and the contact form is the product of the
    squarefree parts, so the restriction is not factored here (``analyze``
    factors it to print the multiplicity of each irreducible factor).
    """
    if param is None:
        param = rational_parametrization(q)
    elif classify_conic(q) != "smooth":
        raise not_smooth(q)
    restriction = restrict_to_conic(gamma, param)
    if restriction.is_zero():
        raise CommonComponent("curve contains the conic")
    _content, parts = restriction.squarefree_parts()
    mults = [m for _, m in parts]
    squarefree = BinForm(0, [ONE])
    for h, _ in parts:
        squarefree = squarefree * h
    squarefree = squarefree.primitive()
    tangent_count = squarefree.degree

    if any(m == 1 for m in mults):
        return ContactProfile(NOT_CONTACT, squarefree, tangent_count)

    # the contact meets Sing(gamma) iff the contact form shares a root with
    # the restrictions of all three partials
    common = squarefree
    for p in gamma.partials():
        if common.degree == 0:
            break
        common = binform_gcd(common, restrict_to_conic(p, param))
    if common.degree >= 1:
        return ContactProfile(NOT_CONTACT, squarefree, tangent_count)

    if all(m == 2 for m in mults):
        return ContactProfile(SIMPLE_CONTACT, squarefree, tangent_count)
    if all(m % 2 == 0 for m in mults):
        return ContactProfile(EVEN_CONTACT, squarefree, tangent_count)
    return ContactProfile(CONTACT, squarefree, tangent_count)


def delta2(variables=PLANE_VARS):
    """The normalized conic z^2 - 4xy."""
    return Form(
        variables,
        2,
        {(0, 0, 2): ONE, (1, 1, 0): QQ(-4)},
    )


def delta2_param():
    """Canonical parametrization (s^2 : t^2 : 2st) of z^2 - 4xy."""
    q = delta2()
    return ConicParam(
        q,
        BinForm(2, [ZERO, ZERO, ONE]),
        BinForm(2, [ONE, ZERO, ZERO]),
        BinForm(2, [ZERO, QQ(2), ZERO]),
    )


def normalize_conic(q):
    """Invertible rational M with (q o M^{-1}) = lambda * (z^2 - 4xy).

    As a point map, M carries the conic q = 0 onto z^2 - 4xy = 0; it is
    built by matching the coefficient matrices of the two stereographic
    parametrizations (that of q from its decided rational point), and the
    identity is verified by exact expansion.
    """
    param = rational_parametrization(q)
    pq = param.coefficient_matrix()
    pstar_inv = mat_inv(delta2_param().coefficient_matrix())
    m_map = mat_mul(pq, pstar_inv)  # delta2 points -> q points
    m = mat_inv(m_map)
    if m is None:
        raise ConicNotSmooth("degenerate parametrization")
    transformed = compose_form(q, m_map)  # = q o M^{-1}
    lam = transformed.terms.get((0, 0, 2), ZERO)  # z^2 has coefficient 1 in delta2
    if lam == 0 or transformed != delta2(q.variables).scale(lam):
        raise ConicNotSmooth("normalization identity failed")
    return m
