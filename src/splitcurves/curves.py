"""Singularity analysis of plane curves.

Node verification reads the Hessian at the point (over the rationals or a
number field), for plane curves and for surfaces in P^3.  The singular locus
is computed by one elimination core under a deterministic shear: y is
eliminated by resultants, the eliminant is factored over the rationals, and
the fiber over each irreducible factor gives the singular points there:
rational points over a rational root, one Galois orbit over an irrational
one.  ``singular_points`` returns
those orbits; ``singular_locus_complete`` checks a claimed point list
against them.

The resultants are exact and run in integers.  Each bivariate is scaled to
coprime integer coefficients, so at an integer x its y-coefficients are
integers, and the Sylvester determinant there is one subresultant-PRS
resultant of the two value lists (with a closed-form correction where a
leading value vanishes); the scaled resultant lies in Z[x], and the divided
differences of a polynomial in Z[x] at distinct integer nodes are integers,
so the Newton interpolation divides exactly.  One rational rescaling at the
end gives the resultant of the inputs.  The gcd of the two eliminants is
``upoly_gcd``'s: GCDHEU, with the primitive remainder sequence as fallback.
A shear that leaves a singular point on z = 0 is refused from two binary
substitutions, before the curve is composed with it, and the fibers over
the eliminant's factors are built in integers.  A curve keeps its locus, so
every check on one Form shares one search.
"""

import itertools
import random
from operator import mul

from .arith import (
    BinForm,
    NFElem,
    NumberField,
    UPoly,
    _horner,
    _trim,
    _zz_mul,
    _zz_prem,
    binform_gcd,
    scalar_is_zero,
    upoly_factor,
    upoly_gcd,
)
from .conics import classify_conic
from .errors import (
    CannotCertify,
    CommonComponent,
    FieldMismatch,
    ShearExhausted,
    TooManyNodes,
)
from .forms import ProjPoint, compose_form, substitute_form, transform_point
from .linalg import dependent_subsets, mat_det, mat_inv, rref
from .linsys import FormSpace, cond_point, system_solve
from .scalars import QQ, ZERO, ONE, clear_denominators


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


def verify_node(form, points):
    """One ``NodeReport`` per point of a plane curve or a surface in P^3.

    The Hessian H is built once.  For degree d >= 2, Euler's identities
    H(p) p = (d - 1) grad F(p) and p . grad F(p) = d F(p) make p singular
    iff H(p) p = 0.  Then adj H(p) = lam p p^T, and p is a node iff the
    principal minor of H(p) at a nonzero coordinate c of p, lam p_c^2, is
    nonzero; it is the report's ``local_quadratic_discriminant``.  A form
    of degree below 2 is singular only when it is zero, and then no node.
    """
    n = len(form.variables)
    if any(len(p.coords) != n for p in points):
        raise FieldMismatch("point/form dimension mismatch")
    if form.degree < 2:
        singular = form.is_zero()
        disc = ZERO if singular else None
        return [NodeReport(p, singular, False, disc) for p in points]
    first = form.partials()
    second = {(i, j): first[i].partial(j) for i in range(n) for j in range(i, n)}
    reports = []
    for p in points:
        coords = list(p.coords)
        vals = {key: q.eval(coords) for key, q in second.items()}
        hess = [[vals[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        if not all(scalar_is_zero(sum(map(mul, coords, row))) for row in hess):
            reports.append(NodeReport(p, False, False, None))
            continue
        rest = [i for i in range(n) if i != p.last_nonzero()]
        minor = _det([[hess[i][j] for j in rest] for i in rest])
        reports.append(NodeReport(p, True, not scalar_is_zero(minor), minor))
    return reports


def _det(m):
    """Determinant by cofactor expansion (the minors here are 2x2 or 3x3)."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, a in enumerate(m[0])
    )


# ---------------------------------------------------------------------------
# deterministic shears
# ---------------------------------------------------------------------------

# The completeness and reducedness checks try shears 0, 1, ..., MAX_SHEARS - 1.
MAX_SHEARS = 20


def shear_matrix(index):
    """Deterministic invertible integer 3 x 3 matrix number ``index``."""
    if index == 0:
        return [[QQ(1) if i == j else ZERO for j in range(3)] for i in range(3)]
    rng = random.Random(0xD1CE + 7 * index + 3)
    for _ in range(200):
        m = [
            [QQ(1) if i == j else QQ(rng.randint(-3, 3)) for j in range(3)]
            for i in range(3)
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


def _scaled_y_columns(biv):
    """(columns, c): c * biv has coprime integer coefficients, c > 0 rational,
    and columns[j] is the integer coefficient list (constant first) of y^j.

    There is one column per power of y up to the largest one keyed, so an
    empty polynomial has the single column [] (the zero polynomial).
    """
    values = list(biv.values())
    ints = clear_denominators(values)
    cols = [[] for _ in range(max((j for (_i, j) in biv), default=0) + 1)]
    for (i, j), a in zip(biv, ints):
        if a:
            col = cols[j]
            col.extend([0] * (i + 1 - len(col)))
            col[i] = a
    k = next((k for k, a in enumerate(ints) if a), None)
    scale = ONE if k is None else QQ(ints[k] * values[k].denominator, values[k].numerator)
    return [_trim(col) for col in cols], scale


def _zz_pow(col, e):
    out = [1]
    for _ in range(e):
        out = _zz_mul(out, col)
    return out


def _zz_newton(xs, ys):
    """The integer polynomial of degree < len(xs) through (xs[i], ys[i]).

    The values are those of a polynomial in Z[x] at distinct integer nodes,
    so every divided difference is an integer (the divided differences of
    x^k are complete symmetric polynomials in the nodes) and each division
    is exact; a remainder means the values were not such a polynomial.
    """
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(coef[i] - coef[i - 1], xs[i] - xs[i - j])
            if r:
                raise ArithmeticError("inexact divided difference in resultant interpolation")
            coef[i] = q
    poly = [coef[-1]]
    for i in range(n - 2, -1, -1):
        # poly * (x - xs[i]) + coef[i]
        shifted = [0] + poly
        for k, a in enumerate(poly):
            shifted[k] -= xs[i] * a
        shifted[0] += coef[i]
        poly = shifted
    return _trim(poly)


def _zz_subresultant(f, g):
    """Res(f, g) of nonzero integer lists (constant first) of their actual
    degrees, by the subresultant PRS (Collins; Brown & Traub).

    Each full pseudo-remainder lc(g)^(delta + 1) f mod g is divided by
    lead h^delta (lead the leading coefficient of the previous divisor),
    which the subresultant theorem makes exact, so the coefficients stay
    those of the subresultants; the last nonzero constant, rescaled by h,
    is the resultant.
    """
    s = 1
    if len(f) < len(g):
        f, g = g, f
        if (len(f) - 1) & (len(g) - 1) & 1:
            s = -1
    lead = h = 1
    while len(g) > 1:
        delta = len(f) - len(g)
        if (len(f) - 1) & (len(g) - 1) & 1:
            s = -s
        r, k = _zz_prem(f, g)
        if not r:
            return 0
        scale = g[-1] ** (delta + 1 - k)
        div = lead * h**delta
        f, g = g, [a * scale // div for a in r]
        lead = f[-1]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = lead**delta // h ** (delta - 1)
    d = len(f) - 1
    return s * g[0] ** d if d <= 1 else s * g[0] ** d // h ** (d - 1)


def _sylvester_det(f, g):
    """The (m, n) Sylvester determinant of integer lists f, g (constant
    first, m = len(f) - 1 >= 1 and n = len(g) - 1 >= 1 their formal degrees).

    When f's leading values vanish (its degree drops by k) the determinant
    is (-1)^(k n) lc(g)^k Res(f, g); when g's drop by k, lc(f)^k Res(f, g);
    when both do, the first column is zero.
    """
    m, n = len(f) - 1, len(g) - 1
    f, g = _trim(list(f)), _trim(list(g))
    if not f or not g:
        return 0
    kf, kg = m + 1 - len(f), n + 1 - len(g)
    if kf and kg:
        return 0
    res = _zz_subresultant(f, g)
    if kf:
        return (-1) ** (kf * n) * g[-1] ** kf * res
    return f[-1] ** kg * res


def resultant_y(biv1, biv2):
    """Res_y of two bivariate polynomials, as a UPoly in x.

    The formal Sylvester determinant, computed in integers: with c, d the
    rationals that scale biv1, biv2 to coprime integer polynomials,
    Res_y(c f, d g) = c^n d^m Res_y(f, g) (m, n the y-degrees), and
    Res_y(c f, d g) lies in Z[x].  It is evaluated at the integer nodes
    0, 1, -1, 2, ... (integer Horner for the y-coefficients, one
    subresultant-PRS resultant of the two value lists, corrected where a
    leading value vanishes) up to a degree bound, then interpolated by
    Newton divided differences, which are integers for a polynomial in Z[x]
    at integer nodes, so every division is exact.  The scaling is undone
    once at the end.
    """
    c1, s1 = _scaled_y_columns(biv1)
    c2, s2 = _scaled_y_columns(biv2)
    m = len(c1) - 1
    n = len(c2) - 1
    if m == 0:
        res = _zz_pow(c1[0], n)
    elif n == 0:
        res = _zz_pow(c2[0], m)
    else:
        # Bezout-type bound: the resultant degree is at most the product of
        # the total degrees of the two polynomials
        tot1 = max(i + j for (i, j) in biv1)
        tot2 = max(i + j for (i, j) in biv2)
        max_deg = min(
            tot1 * tot2,
            m * max((len(col) - 1 for col in c2 if col), default=0)
            + n * max((len(col) - 1 for col in c1 if col), default=0),
        )
        xs = []
        ys = []
        x0 = 0
        while len(xs) < max_deg + 1:
            v1 = [_horner(col, x0) for col in c1]
            v2 = [_horner(col, x0) for col in c2]
            xs.append(x0)
            ys.append(_sylvester_det(v1, v2))
            x0 = -x0 + (0 if x0 > 0 else 1)
        res = _zz_newton(xs, ys)
    scale = s1**n * s2**m
    num, den = scale.denominator, scale.numerator
    return UPoly([QQ(a * num, den) for a in res])


# ---------------------------------------------------------------------------
# the singular locus
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


def _fiber_gcd(combos, field, x):
    """Gcd in y of the combinations over x, monic once two are combined.

    Over a rational x = a / b (field None) the y-coefficients of each
    combination, scaled to integers, are b^D c(a / b) by integer Horner (D
    the combination's x-degree).  Over x = alpha, the generator of
    ``field``, each is its x-column reduced once by ``field.elem``.  Each
    combination is a nonzero rational multiple of the polynomial in y, and
    the gcd does not see it.
    """
    if field is None:
        a, b = x.numerator, x.denominator
    g = None
    for biv in combos:
        cols, _scale = _scaled_y_columns(biv)
        if field is None:
            top = max(len(col) for col in cols)
            coeffs = [_horner(col, a, b) * b ** (top - len(col)) for col in cols]
        else:
            coeffs = [field.elem(col) for col in cols]
        p = UPoly(coeffs, field)
        g = p if g is None else upoly_gcd(g, p)
        if g.degree() == 0:
            break
    return g


def _restrict(form, images):
    """form(images) for binary images; a constant restricts to itself."""
    if form.degree == 0:
        return BinForm(0, [form.terms.get((0, 0, 0), ZERO)])
    return substitute_form(form, images)


def _infinity_singular_points_exist(gamma, m):
    """Does gamma o m have a singular point on the line z = 0?

    Decided before gamma is composed with m.  On (x : y : 0) the gradient
    of gamma o m is m^T (grad gamma)(m (x, y, 0)).  Its first two entries
    are the partials of the restriction r(x, y) = gamma(m (x, y, 0)), one
    binary substitution; when they share no root, no point of z = 0 is
    singular.  Otherwise the third entry, w . grad gamma at m (x, y, 0)
    with w the last column of m, is a second binary substitution.
    """
    line = {v: BinForm(1, [row[1], row[0]]) for v, row in zip(gamma.variables, m)}
    r = _restrict(gamma, line).coeffs
    d = len(r) - 1
    # a partial that vanishes identically on z = 0 adds no condition there
    g = binform_gcd(
        BinForm(max(d - 1, 0), [i * c for i, c in enumerate(r)][1:] or [ZERO]),
        BinForm(max(d - 1, 0), [(d - i) * c for i, c in enumerate(r)][:-1] or [ZERO]),
    )
    if not g.is_zero() and g.degree == 0:
        return False
    partials = gamma.partials()
    slope = partials[0].scale(m[0][2]) + partials[1].scale(m[1][2]) + partials[2].scale(m[2][2])
    g = binform_gcd(g, _restrict(slope, line))
    return g.is_zero() or g.degree >= 1


def _sheared_locus(gamma, m, idx):
    """Singular points of gamma o m in the chart z = 1, by x-orbit.

    Returns {q: (x, ys)}: q is the monic minimal polynomial of x.  For a
    linear q, x and the ys are rational, one y per point on the line over
    x; otherwise x = a in QQ[a]/(q) and ys is [y] with y in that field, one
    Galois orbit of points over the x-orbit.  y is eliminated by resultants
    of two of three generic combinations of the dehomogenized partials (a
    common zero of the partials is one of all three, and conversely:
    Vandermonde in the weights), in integers; the eliminant is factored and each
    factor's fiber is the gcd of the combinations over it.  Returns None
    when the shear leaves a singular point on z = 0, conjugate points on
    one line x = const, or a vanishing resultant; raises CommonComponent
    when a whole line x = const is singular.
    """
    if _infinity_singular_points_exist(gamma, m):
        return None
    # the combinations are built in integers from gamma o m scaled to
    # coprime integer coefficients: its partials in x, y and z, weighted 1,
    # w and w^2, at z = 1
    composed = compose_form(gamma, m)
    ints = clear_denominators(list(composed.terms.values()))
    combos = []
    for w in _elimination_weights(idx):
        out = {}
        for (i, j, k), a in zip(composed.terms, ints):
            for key, v in (((i - 1, j), i * a), ((i, j - 1), j * w * a), ((i, j), k * w * w * a)):
                if v:
                    out[key] = out.get(key, 0) + v
        combos.append({key: v for key, v in out.items() if v})
    r1 = resultant_y(combos[0], combos[1])
    r2 = resultant_y(combos[1], combos[2])
    if r1.is_zero() or r2.is_zero():
        return None
    locus = {}
    for q, _mult in upoly_factor(upoly_gcd(r1, r2)):
        field = None if q.degree() == 1 else NumberField(q, check=False)
        x = -q.coeffs[0] if field is None else field.gen()
        fiber = _fiber_gcd(combos, field, x)
        if fiber.is_zero():
            raise CommonComponent("the curve is singular along a line")
        if fiber.degree() >= 2:
            # a multiple root is still one point
            fiber = fiber.quotient(upoly_gcd(fiber, fiber.derivative()))
        if fiber.degree() >= 2 and field is None:
            ys = [-f.coeffs[0] for f, _mult in upoly_factor(fiber) if f.degree() == 1]
        else:
            ys = [-fiber.monic().coeffs[0]] if fiber.degree() == 1 else []
        if len(ys) < fiber.degree():
            # conjugate points over one x-coordinate need another shear
            return None
        if ys:
            locus[q] = (x, ys)
    return locus


def _first_locus(gamma):
    """(shear, locus): the first shear matrix at which ``_sheared_locus``
    separates the singular points, and the locus it gives there.

    The curve keeps the pair, so later calls on the same Form reuse it.
    """
    if gamma._locus is not None:
        return gamma._locus
    for idx in range(MAX_SHEARS):
        m = shear_matrix(idx)
        locus = _sheared_locus(gamma, m, idx)
        if locus is not None:
            gamma._locus = m, locus
            return gamma._locus
    _raise_if_not_reduced(gamma)
    raise ShearExhausted("%d shears failed to separate the singular points" % MAX_SHEARS)


def singular_points(gamma):
    """The singular points of a plane curve, one ProjPoint per Galois orbit.

    They come in the eliminant's factor order at the first shear that
    separates them.  A curve that is not reduced has a singular component
    and raises CommonComponent.
    """
    if len(gamma.variables) != 3:
        raise FieldMismatch("plane curves only")
    m, locus = _first_locus(gamma)
    points = [(x, y) for x, ys in locus.values() for y in ys]
    return [transform_point(m, ProjPoint([x, y, ONE])) for x, y in points]


def singular_locus_complete(gamma, claimed):
    """Is the claimed point list exactly the singular locus of the curve?

    Number-field points stand for their whole conjugate orbit.  The claim
    is moved to the shear of ``singular_points``, where no singular point
    lies on z = 0, the points over a rational x are rational, and an
    irrational x-orbit holds one orbit of points.  So a claimed point on
    z = 0, an orbit whose x generates a smaller field than its own, or two
    orbits with one x minimal polynomial, is not singular there.  Otherwise
    the claim holds when its x minimal polynomials are those of the locus
    and its y-coordinates are the locus's; a point so matched is singular,
    so no node test is needed.
    """
    if len(gamma.variables) != 3:
        raise FieldMismatch("plane curves only")
    keys = [p.canonical_key() for p in claimed]
    if len(set(keys)) != len(keys):
        raise ValueError("claimed points must be pairwise distinct")
    m, locus = _first_locus(gamma)
    minv = mat_inv(m)
    units = {}
    for p in claimed:
        moved = transform_point(minv, p)
        if scalar_is_zero(moved.coords[2]):
            return False
        x, y, _ = moved.affine(2)
        q = _x_minimal_polynomial(x)
        if q.degree() != moved.orbit_size() or (q.degree() > 1 and q in units):
            return False
        units.setdefault(q, (x, []))[1].append(y)
    if locus.keys() != units.keys():
        return False
    for q, (x, ys) in units.items():
        # each locus y lies in QQ[a]/(q): compare it at a = claimed x; the
        # locus ys are distinct, so each claimed y meets at most one
        lifts = [
            UPoly(eta.coords if isinstance(eta, NFElem) else [eta])
            for eta in locus[q][1]
        ]
        hits = sorted(
            i for i, lift in enumerate(lifts) for y in ys if scalar_is_zero(lift.eval(x) - y)
        )
        if len(ys) != len(lifts) or hits != list(range(len(lifts))):
            return False
    return True


def _raise_if_not_reduced(gamma):
    """Name the usual reason no shear works: a multiple component meets z = 0
    at every shear, so the elimination core never accepts one."""
    if not curve_is_reduced(gamma):
        raise CommonComponent("the curve is not reduced: it has a multiple component")


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
        rows = [p.primitive() for p in nodes]
        return next(dependent_subsets(rows, 5, 2), None) is None

    units = sorted(nodes, key=lambda p: -p.orbit_size())
    space = FormSpace(2, gamma.variables)
    rows = [cond_point(space, p) for p in units]
    for take in range(len(units), 0, -1):
        for subset in itertools.combinations(range(len(units)), take):
            k = sum(units[i].orbit_size() for i in subset)
            if k < r - 2:
                continue
            report = system_solve(space, [row for i in subset for row in rows[i]])
            if report.dimension < 0:
                continue
            for conic in report.kernel:
                if classify_conic(conic) == "smooth":
                    return True
    raise CannotCertify(
        "no smooth conic witness found for a configuration with conjugate nodes"
    )
