"""Singularity analysis of plane curves.

Node verification works in an affine chart at the point (over the rationals
or a number field); completeness of a claimed singular locus is established
by resultant elimination under a deterministic shear, matching every
irreducible factor of the eliminant against the claimed points and proving
all remaining fibers empty.
"""

import itertools
import random

from .arith import NFElem, NumberField, UPoly, upoly_factor, upoly_gcd, scalar_is_zero
from .errors import CannotCertify, FieldMismatch, ShearExhausted, TooManyNodes
from .forms import compose_form, transform_point
from .linalg import mat_det, mat_inv, rank_bareiss, rref
from .scalars import QQ, ZERO, ONE


class NodeReport:
    """Verdict of the singular-point test at one point."""

    __slots__ = ("point", "is_singular", "is_node", "local_quadratic_discriminant")

    def __init__(self, point, is_singular, is_node, disc):
        self.point = point
        self.is_singular = is_singular
        self.is_node = is_node
        self.local_quadratic_discriminant = disc

    def __repr__(self):
        return "NodeReport(%r, singular=%s, node=%s)" % (
            self.point,
            self.is_singular,
            self.is_node,
        )


def hessian_node_report(gamma, p):
    """Generic node test (plane curves and surfaces in P^3).

    A singular point is a node when the quadratic part of the affine local
    expansion is nondegenerate: for curves the 2x2 discriminant of second
    partials is nonzero, for surfaces the 3x3 one.
    """
    n = len(gamma.variables)
    if len(p.coords) != n:
        raise FieldMismatch("point/form dimension mismatch")
    coords = list(p.coords)
    partials = gamma.partials()
    vals = [q.eval(coords) for q in partials]
    singular = scalar_is_zero(gamma.eval(coords)) and all(
        scalar_is_zero(v) for v in vals
    )
    if not singular:
        return NodeReport(p, False, False, None)
    chart = p.last_nonzero()
    aff = p.affine(chart)
    others = [i for i in range(n) if i != chart]
    second = [
        [partials[i].partial(j).eval(aff) for j in others] for i in others
    ]
    if n == 3:
        disc = second[0][1] * second[0][1] - second[0][0] * second[1][1]
    else:
        a = second
        disc = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    return NodeReport(p, True, not scalar_is_zero(disc), disc)


def verify_node(gamma, p):
    """Node test for a plane curve at a rational or number-field point."""
    if len(gamma.variables) != 3:
        raise FieldMismatch("verify_node expects a plane curve")
    return hessian_node_report(gamma, p)


# ---------------------------------------------------------------------------
# deterministic shears
# ---------------------------------------------------------------------------

# The completeness and reducedness checks try shears 0, 1, ..., MAX_SHEARS - 1.
MAX_SHEARS = 20


def shear_matrix(index, size=3):
    """Deterministic invertible integer matrix number ``index``."""
    if index == 0:
        return [[QQ(1) if i == j else ZERO for j in range(size)] for i in range(size)]
    rng = random.Random(0xD1CE + 7 * index + size)
    for _ in range(200):
        m = [
            [QQ(1) if i == j else QQ(rng.randint(-3, 3)) for j in range(size)]
            for i in range(size)
        ]
        if mat_det(m) != 0:
            return m
    raise AssertionError("could not build a shear matrix")


def _elimination_weights(index):
    triples = [
        (2, 3, 5),
        (5, 7, 11),
        (3, 5, 7),
        (2, 7, 13),
        (11, 13, 17),
        (3, 11, 19),
        (5, 13, 23),
        (7, 11, 29),
    ]
    return triples[index % len(triples)]


# ---------------------------------------------------------------------------
# bivariate helpers (dict representation {(i, j): coeff} for x^i y^j)
# ---------------------------------------------------------------------------


def _affine_xy(form):
    """f(x, y, 1) as a sparse bivariate dictionary."""
    out = {}
    for (i, j, _k), c in form.terms.items():
        out[(i, j)] = out.get((i, j), ZERO) + c
    return {k: v for k, v in out.items() if v != 0}


def _y_coefficients(biv):
    """List of UPoly in x: coefficient of y^j."""
    dy = max((j for (_i, j) in biv), default=0)
    dx = max((i for (i, _j) in biv), default=0)
    cols = [[ZERO] * (dx + 1) for _ in range(dy + 1)]
    for (i, j), c in biv.items():
        cols[j][i] = c
    return [UPoly(col) for col in cols]


def _interpolate(xs, ys):
    """Exact Lagrange interpolation through (xs[i], ys[i]); returns UPoly."""
    n = len(xs)
    # Newton divided differences
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = UPoly([coef[-1]])
    for i in range(n - 2, -1, -1):
        poly = poly * UPoly([-xs[i], ONE]) + UPoly([coef[i]])
    return poly


def resultant_y(biv1, biv2):
    """Res_y of two bivariate polynomials, as a UPoly in x.

    Computed as the determinant of the formal Sylvester matrix by
    evaluation and interpolation, which is exact.
    """
    c1 = _y_coefficients(biv1)
    c2 = _y_coefficients(biv2)
    m = len(c1) - 1
    n = len(c2) - 1
    if m < 0 or n < 0:
        return UPoly.zero()
    if m == 0:
        return c1[0] ** n
    if n == 0:
        return c2[0] ** m
    # Bezout-type bound: the resultant degree is at most the product of the
    # total degrees of the two polynomials
    tot1 = max(i + j for (i, j) in biv1)
    tot2 = max(i + j for (i, j) in biv2)
    max_deg = min(
        tot1 * tot2,
        m * max((p.degree() for p in c2 if not p.is_zero()), default=0)
        + n * max((p.degree() for p in c1 if not p.is_zero()), default=0),
    )
    xs = []
    ys = []
    x0 = 0
    size = m + n
    while len(xs) < max_deg + 1:
        xv = QQ(x0)
        x0 = -x0 + (0 if x0 > 0 else 1)
        rows = []
        v1 = [p.eval(xv) for p in c1]
        v2 = [p.eval(xv) for p in c2]
        for k in range(n):
            row = [ZERO] * size
            for j, c in enumerate(reversed(v1)):
                row[k + j] = c
            rows.append(row)
        for k in range(m):
            row = [ZERO] * size
            for j, c in enumerate(reversed(v2)):
                row[k + j] = c
            rows.append(row)
        xs.append(xv)
        ys.append(mat_det(rows))
    return _interpolate(xs, ys)


# ---------------------------------------------------------------------------
# singular locus completeness
# ---------------------------------------------------------------------------


def _x_minimal_polynomial(xi):
    """Minimal polynomial of an element of a number field (monic UPoly)."""
    if not isinstance(xi, NFElem):
        return UPoly([-QQ(xi), ONE])
    n = xi.owner.degree
    powers = []
    power = xi.owner.one()
    for _ in range(n + 1):
        powers.append(power.coords)
        power = power * xi
    # columns 1, xi, ..., xi^n: the first free column k is the first power
    # that depends on the earlier ones, and its RREF column the relation
    m, pivots = rref(list(zip(*powers)))
    k = next(c for c in range(n + 1) if c >= len(pivots) or pivots[c] != c)
    return UPoly([-m[r][k] for r in range(k)] + [ONE])


def _upoly_over_field(biv, field, alpha):
    """Substitute x = alpha in a bivariate dict; UPoly in y over the field."""
    dy = max((j for (_i, j) in biv), default=0)
    coeffs = [field.zero() for _ in range(dy + 1)]
    pows = {0: field.one()}

    def apow(e):
        if e not in pows:
            pows[e] = alpha**e
        return pows[e]

    for (i, j), c in biv.items():
        coeffs[j] = coeffs[j] + apow(i) * c
    return UPoly(coeffs, field)


def _fiber_gcd(affine_partials, field, alpha):
    """Monic gcd over QQ[a]/(q) of the partials specialized at x = alpha."""
    polys = [_upoly_over_field(b, field, alpha) for b in affine_partials]
    g = polys[0]
    for p in polys[1:]:
        g = upoly_gcd(g, p)
        if g.degree() == 0 and not g.is_zero():
            return g
    return g


def _infinity_singular_points_exist(partials):
    """Do the three partials share a zero on the line z = 0?"""
    from .arith import BinForm, binform_gcd

    restricted = []
    for p in partials:
        coeffs = [ZERO] * (p.degree + 1)
        for (i, j, k), c in p.terms.items():
            if k == 0:
                coeffs[i] = coeffs[i] + c
        restricted.append(BinForm(p.degree, coeffs))
    if all(r.is_zero() for r in restricted):
        return True
    nonzero = [r for r in restricted if not r.is_zero()]
    g = nonzero[0]
    for r in nonzero[1:]:
        g = binform_gcd(g, r)
    # a partial that vanishes identically on z = 0 adds no condition there
    return g.degree >= 1


def singular_locus_complete(gamma, claimed):
    """Is the claimed point list exactly the singular locus of the curve?

    Number-field points stand for their whole conjugate orbit.  The check
    shears coordinates so claimed points are affine with separated
    x-coordinates, eliminates y by resultants of two generic combinations
    of the dehomogenized partials, factors the eliminant, and matches every
    irreducible factor to a claimed point (or proves its fiber empty).
    """
    if len(gamma.variables) != 3:
        raise FieldMismatch("plane curves only")
    keys = [p.canonical_key() for p in claimed]
    if len(set(keys)) != len(keys):
        raise ValueError("claimed points must be pairwise distinct")
    for p in claimed:
        rep = verify_node(gamma, p)
        if not rep.is_singular:
            return False

    for idx in range(MAX_SHEARS):
        m = shear_matrix(idx)
        minv = mat_inv(m)
        moved = [transform_point(minv, p) for p in claimed]
        if any(scalar_is_zero(p.coords[2]) for p in moved):
            continue
        units = []
        ok = True
        for p in moved:
            aff = p.affine(2)
            minpoly = _x_minimal_polynomial(aff[0])
            if p.field is not None and minpoly.degree() != p.field.degree:
                ok = False
                break
            units.append((p, aff, minpoly))
        if not ok:
            continue
        if len({u[2].coeffs for u in units}) != len(units):
            continue

        partials = compose_form(gamma, m).partials()
        if _infinity_singular_points_exist(partials):
            return False
        affs = [_affine_xy(p) for p in partials]
        # three generic combinations; any common zero of the partials is a
        # common zero of all three, and conversely (Vandermonde in w)
        combos = []
        for w in _elimination_weights(idx):
            out = {}
            for wt, biv in zip((1, w, w * w), affs):
                for k, c in biv.items():
                    v = out.get(k, ZERO) + wt * c
                    if v == 0:
                        out.pop(k, None)
                    else:
                        out[k] = v
            combos.append(out)
        r1 = resultant_y(combos[0], combos[1])
        r2 = resultant_y(combos[1], combos[2])
        if r1.is_zero() or r2.is_zero():
            continue
        eliminant = upoly_gcd(r1, r2)
        if eliminant.degree() == 0:
            factors = []
        else:
            factors = upoly_factor(eliminant, max_degree=max(eliminant.degree(), 24))
        matched = set()
        collision = False
        for q, _mult in factors:
            hit = None
            for ui, (_p, _aff, minpoly) in enumerate(units):
                if minpoly == q:
                    hit = ui
                    break
            if q.degree() == 1:
                field = None
                fiber = _fiber_gcd_rational(combos, -q.coeffs[0])
            else:
                field = NumberField(q, check=False)
                fiber = _fiber_gcd(combos, field, field.gen())
            if hit is None:
                if fiber.is_zero() or fiber.degree() >= 1:
                    return False
                continue
            if fiber.is_zero():
                return False
            if fiber.degree() == 0:
                # claimed point's fiber came out empty: inconsistent claim
                return False
            if fiber.degree() >= 2:
                # a multiple root is still a single point; only distinct
                # roots over one x-coordinate force another shear
                fiber = fiber.monic() // upoly_gcd(fiber, fiber.derivative())
                if fiber.degree() >= 2:
                    collision = True
                    break
                if fiber.degree() == 0:
                    return False
            _p, aff, _ = units[hit]
            eta = -fiber.monic().coeffs[0]
            if field is None:
                if not scalar_is_zero(aff[1] - eta):
                    return False
            else:
                # embed QQ[a]/(q) via a -> claimed x-coordinate and compare y
                xi = aff[0]
                emb = None
                for k, c in enumerate(eta.coords):
                    term = xi**k * c
                    emb = term if emb is None else emb + term
                if not scalar_is_zero(emb - aff[1]):
                    return False
            matched.add(hit)
        if collision:
            continue
        if len(matched) != len(units):
            return False
        return True
    raise ShearExhausted(
        "%d shears failed to separate the configuration" % MAX_SHEARS
    )


def _fiber_gcd_rational(affine_partials, alpha):
    polys = []
    for biv in affine_partials:
        dy = max((j for (_i, j) in biv), default=0)
        coeffs = [ZERO] * (dy + 1)
        for (i, j), c in biv.items():
            coeffs[j] = coeffs[j] + c * alpha**i
        polys.append(UPoly(coeffs))
    g = polys[0]
    for p in polys[1:]:
        g = upoly_gcd(g, p)
        if g.degree() == 0 and not g.is_zero():
            return g
    return g


def curve_is_reduced(gamma):
    """Is the plane curve squarefree?

    After a shear making the curve monic in y, squarefreeness is exactly
    the nonvanishing of Res_y(g, dg/dy) for the dehomogenized curve.
    """
    for idx in range(MAX_SHEARS):
        m = shear_matrix(idx)
        g = compose_form(gamma, m)
        if g.terms.get((0, gamma.degree, 0), ZERO) == 0:
            continue
        biv = _affine_xy(g)
        dbiv = {}
        for (i, j), c in biv.items():
            if j:
                dbiv[(i, j - 1)] = dbiv.get((i, j - 1), ZERO) + j * c
        return not resultant_y(biv, dbiv).is_zero()
    raise ShearExhausted("no shear made the curve monic in y")


# ---------------------------------------------------------------------------
# irreducibility of nodal sextics
# ---------------------------------------------------------------------------


def _no_five_collinear_rational(points):
    if len(points) < 5:
        return True
    for subset in itertools.combinations(points, 5):
        rows = [p.primitive() for p in subset]
        if rank_bareiss(rows) <= 2:
            return False
    return True


def irreducibility_sextic(gamma, nodes):
    """Irreducibility of an r-nodal sextic, r <= 7: no 5 nodes collinear.

    For rational nodes the 5-subsets are checked directly.  When conjugate
    orbits are present, a smooth conic through at least r-2 of the nodes is
    exhibited instead: a line meets it in at most two points, so no five
    nodes can be collinear.
    """
    if gamma.degree != 6:
        raise FieldMismatch("sextic curves only")
    r = sum(p.orbit_size() for p in nodes)
    if r > 7:
        raise TooManyNodes("criterion valid for at most 7 nodes, got %d" % r)
    if all(p.field is None for p in nodes):
        return _no_five_collinear_rational(nodes)

    from .conics import classify_conic
    from .linsys import FormSpace, cond_point, system_solve

    units = sorted(nodes, key=lambda p: -p.orbit_size())
    space = FormSpace(2, gamma.variables)
    for take in range(len(units), 0, -1):
        for subset in itertools.combinations(units, take):
            k = sum(p.orbit_size() for p in subset)
            if k < r - 2:
                continue
            conds = []
            for p in subset:
                conds.extend(cond_point(space, p))
            report = system_solve(space, conds)
            if report.dimension < 0:
                continue
            for conic in report.kernel:
                if classify_conic(conic) == "smooth":
                    return True
    raise CannotCertify(
        "no smooth conic witness found for a configuration with conjugate nodes"
    )
