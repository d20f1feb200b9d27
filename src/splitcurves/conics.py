"""Smooth-conic handling.

Rational parametrization by stereographic projection from a rational point,
restriction of plane curves to the conic (giving the intersection divisor as
a binary form), contact analysis, and exact normalization of a smooth conic
to z^2 - 4xy.
"""

from .arith import BinForm, NumberField, scalar_is_zero
from .errors import CommonComponent, ConicNotSmooth, PointNotOnConic
from .forms import Form, ProjPoint, all_monomial_points, compose_form
from .linalg import kernel_basis, mat_inv, mat_mul, rank_bareiss
from .scalars import QQ, ZERO, ONE

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
    q(p0, p1, p2) = 0 identically; the base point is recovered at (0 : 1).
    """

    __slots__ = ("conic", "base", "p0", "p1", "p2")

    def __init__(self, conic, base, p0, p1, p2):
        self.conic = conic
        self.base = base
        self.p0 = p0
        self.p1 = p1
        self.p2 = p2

    def components(self):
        return (self.p0, self.p1, self.p2)

    def coefficient_matrix(self):
        """3x3 matrix, rows = coordinates, columns = (s^2, st, t^2)."""
        return [[p.coeffs[2], p.coeffs[1], p.coeffs[0]] for p in self.components()]

    def point_at(self, s, t):
        coords = [p.eval(s, t) for p in self.components()]
        return ProjPoint(coords)


def _bilinear(a, x, y):
    return sum(
        (x[i] * sum((a[i][j] * y[j] for j in range(3)), ZERO) for i in range(3)),
        ZERO,
    )


def parametrize_conic(q, base):
    """Stereographic parametrization of a smooth conic from a rational point."""
    if classify_conic(q) != "smooth":
        raise ConicNotSmooth(repr(q))
    if base.field is not None:
        raise PointNotOnConic("base point must be rational")
    b = base.primitive()
    if q.eval(b) != 0:
        raise PointNotOnConic("%r does not lie on the conic" % (base,))
    a = conic_matrix(q)
    # tangent direction at the base point: second basis vector of ker(b^T A)
    row = [_bilinear(a, b, [ONE if j == k else ZERO for j in range(3)]) for k in range(3)]
    candidates = []
    units = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    for u in units:
        candidates.append(u)
    for u in units:
        for w in units:
            if u != w:
                candidates.append([x + y for x, y in zip(u, w)])
    tangents = []
    for v in candidates:
        if _bilinear(a, b, v) == 0 and rank_bareiss([b, v]) == 2:
            tangents.append(v)
    if not tangents:
        # solve b^T A v = 0 directly
        for vec in kernel_basis([row], 3):
            if rank_bareiss([b, vec]) == 2:
                tangents.append(vec)
    for v_t in tangents:
        for u in candidates:
            if rank_bareiss([b, v_t, u]) != 3:
                continue
            # direction D = s*u + t*v_t ; second intersection of the line base+D
            qd = [ZERO, ZERO, ZERO]  # q(D) as binary quadratic s^2, st, t^2
            qd[0] = _bilinear(a, u, u)
            qd[1] = 2 * _bilinear(a, u, v_t)
            qd[2] = _bilinear(a, v_t, v_t)
            bd = [_bilinear(a, b, u), _bilinear(a, b, v_t)]  # linear in s, t
            comps = []
            for k in range(3):
                # q(D)*b_k - 2*(b^T A D)*D_k  as binary quadratic in (s, t)
                s2 = qd[0] * b[k] - 2 * bd[0] * u[k]
                st = qd[1] * b[k] - 2 * (bd[0] * v_t[k] + bd[1] * u[k])
                t2 = qd[2] * b[k] - 2 * bd[1] * v_t[k]
                comps.append(BinForm(2, [t2, st, s2]))
            rows = [[p.coeffs[2], p.coeffs[1], p.coeffs[0]] for p in comps]
            if rank_bareiss(rows) != 3:
                continue
            param = ConicParam(q, ProjPoint([QQ(c) for c in b]), *comps)
            if restrict_to_conic(q, param).is_zero():
                return param
    raise ConicNotSmooth("no valid parametrization found for %r" % (q,))


def restrict_to_conic(f, param):
    """The binary form f(p0, p1, p2) of degree 2*deg(f)."""
    if len(f.variables) != 3:
        raise ValueError("restriction needs a plane form")
    comps = param.components()
    powers = [dict() for _ in comps]

    def power(i, e):
        cache = powers[i]
        if e not in cache:
            if e == 0:
                cache[e] = BinForm(0, [ONE])
            else:
                cache[e] = comps[i] ** e
        return cache[e]

    acc = BinForm.zero(2 * f.degree)
    for expo, coeff in f.sorted_terms():
        term = BinForm(0, [ONE])
        for i, e in enumerate(expo):
            if e:
                term = term * power(i, e)
        acc = acc + term.scale(coeff)
    return acc


def find_rational_point(q, height=50):
    """First rational point on the conic in the deterministic height order."""
    for p in all_monomial_points(height, 2):
        if q.eval(list(p.coords)) == 0:
            return p
    return None


class ContactProfile:
    """Outcome of the contact analysis of a curve against a smooth conic."""

    __slots__ = ("kind", "contact_form", "tangent_count", "multiplicities", "content")

    def __init__(self, kind, contact_form, tangent_count, multiplicities, content):
        self.kind = kind
        self.contact_form = contact_form
        self.tangent_count = tangent_count
        self.multiplicities = multiplicities
        self.content = content

    def __repr__(self):
        return "ContactProfile(%s, tangents=%d)" % (self.kind, self.tangent_count)


def _contact_points(factors, param):
    """One representative point per irreducible factor of the contact form."""
    points = []
    for h, _ in factors:
        if h.degree == 1 and h.coeffs == (ONE, ZERO):
            s0, t0 = ONE, ZERO
            points.append(param.point_at(s0, t0))
        elif h.degree == 1:
            s0, t0 = h.coeffs[0], -h.coeffs[1]
            points.append(param.point_at(s0, t0))
        else:
            field = NumberField(h.to_upoly().monic(), check=False)
            alpha = field.gen()
            coords = [p.eval(alpha, field.one()) for p in param.components()]
            points.append(ProjPoint(coords))
    return points


def contact_profile(gamma, q, param=None):
    """Classify the contact of a curve with a smooth conic.

    Simple contact means every intersection is an ordinary tangency at a
    smooth point of the curve; the returned contact form has the tangency
    parameters as its roots.
    """
    if classify_conic(q) != "smooth":
        raise ConicNotSmooth(repr(q))
    if param is None:
        base = find_rational_point(q)
        if base is None:
            raise PointNotOnConic("no rational point of small height on the conic")
        param = parametrize_conic(q, base)
    restriction = restrict_to_conic(gamma, param)
    if restriction.is_zero():
        raise CommonComponent("curve contains the conic")
    content, factors = restriction.factor()
    mults = [m for _, m in factors]
    squarefree = BinForm(0, [ONE])
    for h, _ in factors:
        squarefree = squarefree * h
    squarefree = squarefree.primitive() if factors else squarefree
    tangent_count = squarefree.degree

    if any(m == 1 for m in mults):
        return ContactProfile(NOT_CONTACT, squarefree, tangent_count, mults, content)

    partials = gamma.partials()
    for pt in _contact_points(factors, param):
        values = [p.eval(list(pt.coords)) for p in partials]
        if all(scalar_is_zero(v) for v in values):
            # intersection at a singular point of the curve
            return ContactProfile(NOT_CONTACT, squarefree, tangent_count, mults, content)

    if all(m == 2 for m in mults):
        return ContactProfile(
            SIMPLE_CONTACT, squarefree, tangent_count, mults, content
        )
    if all(m % 2 == 0 for m in mults):
        return ContactProfile(EVEN_CONTACT, squarefree, tangent_count, mults, content)
    return ContactProfile(CONTACT, squarefree, tangent_count, mults, content)


DELTA2_PARAM_MATRIX = [
    [ONE, ZERO, ZERO],
    [ZERO, ZERO, ONE],
    [ZERO, QQ(2), ZERO],
]


def delta2(variables=("x", "y", "z")):
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
        ProjPoint([ONE, ZERO, ZERO]),
        BinForm(2, [ZERO, ZERO, ONE]),
        BinForm(2, [ONE, ZERO, ZERO]),
        BinForm(2, [ZERO, QQ(2), ZERO]),
    )


def normalize_conic(q, base):
    """Invertible rational M with (q o M^{-1}) = lambda * (z^2 - 4xy).

    As a point map, M carries the conic q = 0 onto z^2 - 4xy = 0; it is
    built by matching the coefficient matrices of the two stereographic
    parametrizations, and the identity is verified by exact expansion.
    """
    param = parametrize_conic(q, base)
    pq = param.coefficient_matrix()
    pstar_inv = mat_inv(DELTA2_PARAM_MATRIX)
    m_map = mat_mul(pq, pstar_inv)  # delta2 points -> q points
    m = mat_inv(m_map)
    if m is None:
        raise ConicNotSmooth("degenerate parametrization")
    transformed = compose_form(q, m_map)  # = q o M^{-1}
    target = delta2(q.variables)
    lam = None
    for expo, c in transformed.terms.items():
        tc = target.terms.get(expo)
        if tc is None:
            raise ConicNotSmooth("normalization failed")
        lam = c / tc
        break
    if transformed != target.scale(lam):
        raise ConicNotSmooth("normalization identity failed")
    return m
