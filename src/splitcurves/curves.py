"""Singularity analysis of plane curves.

Node verification reads the Hessian at the point (over the rationals or a
number field), for plane curves and for surfaces in P^3.  One discriminant
finds the singular locus and certifies a claim of it.  At a deterministic
shear m whose center m (0 : 1 : 0) is off the curve, F = gamma o m at z = 1
is monic in y up to a constant, and D = Res_y(F, dF/dy) has, at each line
x = const through the center, the order sum over the line's points p of
(F, dF/dy)_p, which by Teissier's lemma is mu_p + (F, x)_p - 1: at least 2
at a singular point, and exactly 2 only at an ordinary node transversal to
the line.  So every singular point of the chart z = 1 lies over a factor of
D's repeated part, and the gcd in y of F and its partials there gives its
singular points: rational points over a rational root, one Galois orbit
over an irrational one.  ``singular_points`` returns those orbits.

``check_claim`` does not rediscover the locus to check a claim of ordinary
nodes.  It runs ``verify_node`` once on the claim and returns those node
reports with its verdict (``singular_locus_complete`` is the verdict
alone), and the certificate reads the same reports, so a caller that needs
both the node test and the verdict tests each point once.  At the first
shear whose center is off the curve, the claim is the whole locus, and
every claimed point a node, when each claimed point is singular in those
reports and D is P^2 A, P the product of the claimed x minimal
polynomials, A squarefree and coprime to P, with the degree drop of D
counting the claimed points on z = 0.  The certificate only accepts or
declines.  It declines a claim that is wrong or not of nodes, two orbits on
the same lines, and a curve that is not reduced; then the claim is compared
with the locus of ``singular_points``.  ``curve_is_reduced`` reads the same
discriminant.

The resultants are exact and run in integers.  Each bivariate is scaled to
coprime integer coefficients, so at an integer x its y-coefficients are
integers, and the Sylvester determinant there is one subresultant-PRS
resultant of the two value lists (with a closed-form correction where a
leading value vanishes); the scaled resultant lies in Z[x], and the divided
differences of a polynomial in Z[x] at distinct integer nodes are integers,
so the Newton interpolation divides exactly.  One rational rescaling at the
end gives the resultant of the inputs.  A shear that leaves a singular
point on z = 0 is refused from two binary substitutions, before the curve
is composed with it.  The fiber over a rational factor of D is read in
integers.  Over an irrational one, x = alpha, the point is read with one
division from the first subresultant S_j = sum s_ji y^i of F and dF/dy
with s_jj(alpha) != 0, usually S_1, which the same evaluation and
interpolation gives in Z[x].  A curve keeps one datum, its discriminant
(the shear and D), never its locus or a verdict on a claim, so every check
on one Form reads one D, the locus at that shear reads it too, and a second
claim reruns every other check of the certificate.
"""
import itertools
import random
from functools import reduce
from operator import add, mul, sub

from .arith import (
    BinForm,
    NFElem,
    NumberField,
    UPoly,
    _horner,
    _trim,
    _zassenhaus,
    _zz_deriv,
    _zz_exquo,
    _zz_gcd,
    _zz_mul,
    _zz_prem,
    binform_gcd,
    scalar_is_zero,
    upoly_factor,
    upoly_squarefree,
)
from .conics import classify_conic
from .errors import (
    CannotCertify,
    CommonComponent,
    FieldMismatch,
    ShearExhausted,
    TooManyNodes,
)
from .forms import (
    ProjPoint,
    compose_form,
    coordinate_field,
    integer_combination,
    monomial_basis,
    monomial_values,
    substitute_form,
    transform_point,
)
from .linalg import _bareiss, dependent_subsets, mat_det, mat_inv, rref
from .linsys import FormSpace, SubsetSystems, cond_point, system_solve
from .scalars import QQ, ZERO, ONE, clear_denominators, over_common_denominator


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

    Both tests run in integers: H(p) times a denominator D, and p times
    another, over a number field as integer coordinate vectors whose
    products (``NumberField._zz_product``) each carry the factor
    R = P_n^(n - 1).  Those factors change no zero test, and the k x k
    minor is divided once, by D^k (times R^(k - 1) over a field).
    """
    n = len(form.variables)
    if any(len(p.coords) != n for p in points):
        raise FieldMismatch("point/form dimension mismatch")
    if form.degree < 2:
        singular = form.is_zero()
        disc = ZERO if singular else None
        return [NodeReport(p, singular, False, disc) for p in points]
    # each second partial as an integer row over one denominator on the
    # degree-(d - 2) basis: a x^e adds e_i (e_j - [i = j]) a at x^(e - u_i - u_j)
    lower = monomial_basis(n, form.degree - 2)
    index = {e: k for k, e in enumerate(lower)}
    nums, cden = over_common_denominator(list(form.terms.values()))
    rows = {(i, j): [0] * len(lower) for i in range(n) for j in range(i, n)}
    for expo, a in zip(form.terms, nums):
        for (i, j), row in rows.items():
            c = expo[i] * (expo[j] - (i == j))
            if c:
                lowered = list(expo)
                lowered[i] -= 1
                lowered[j] -= 1
                row[index[tuple(lowered)]] = c * a
    reports = []
    for p in points:
        coords = list(p.coords)
        field = coordinate_field(coords)
        values, den = monomial_values(coords, lower, field)
        den *= cden
        vals = {key: integer_combination(row, values, field) for key, row in rows.items()}
        if field is None:
            ring = (mul, add, sub)
            coords = over_common_denominator(coords)[0]
        else:
            ring = (field._zz_product, _vec_add, _vec_sub)
            flat = over_common_denominator(
                [c for x in coords for c in field.coerce(x).coords]
            )[0]
            coords = [flat[i : i + field.degree] for i in range(0, len(flat), field.degree)]
        times, plus = ring[:2]
        hess = [[vals[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        if any(_nonzero(reduce(plus, map(times, coords, row))) for row in hess):
            reports.append(NodeReport(p, False, False, None))
            continue
        rest = [i for i in range(n) if i != p.last_nonzero()]
        minor = _det([[hess[i][j] for j in rest] for i in rest], ring)
        if field is None:
            minor = QQ(minor, den ** (n - 1))
        else:
            scale = field._red_den ** (n - 2) * den ** (n - 1)
            minor = NFElem(field, tuple(QQ(x, scale) for x in minor))
        reports.append(NodeReport(p, True, not scalar_is_zero(minor), minor))
    return reports


def _vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _nonzero(v):
    """An integer, or an integer coordinate vector, is not zero."""
    return any(v) if isinstance(v, list) else v != 0


def _det(m, ring):
    """Determinant by cofactor expansion (the minors here are 2x2 or 3x3),
    with the (times, plus, minus) of ``ring``."""
    times, plus, minus = ring
    if len(m) == 1:
        return m[0][0]
    total = None
    for j, a in enumerate(m[0]):
        term = times(a, _det([row[:j] + row[j + 1:] for row in m[1:]], ring))
        total = term if total is None else (minus if j % 2 else plus)(total, term)
    return total


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


# shear 0: a claim is read at it as it stands
_IDENTITY = shear_matrix(0)


# ---------------------------------------------------------------------------
# bivariate helpers (dict representation {(i, j): coeff} for x^i y^j)
# ---------------------------------------------------------------------------


def _affine_xy(form):
    """f(x, y, 1) as a sparse bivariate dictionary; the form is homogeneous,
    so (i, j) determines the power of z."""
    return {(i, j): c for (i, j, _k), c in form.terms.items()}


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


def _interpolated(cols1, cols2, count, at_node):
    """The integer polynomials of degree < count whose values at the nodes
    0, 1, -1, 2, ... are the entries of at_node(v1, v2), v1 and v2 the
    integer Horner values of the two column lists there."""
    xs = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]
    values = [at_node([_horner(c, x) for c in cols1], [_horner(c, x) for c in cols2]) for x in xs]
    return [_zz_newton(xs, list(ys)) for ys in zip(*values)]


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
        (res,) = _interpolated(c1, c2, max_deg + 1, lambda f, g: (_sylvester_det(f, g),))
    scale = s1**n * s2**m
    num, den = scale.denominator, scale.numerator
    return UPoly([QQ(a * num, den) for a in res])


def _subresultant_at(f, g, j):
    """[s_j0, ..., s_jj]: S_j = sum s_ji y^i, the j-th subresultant of the
    integer lists f, g (constant first) of formal degrees d > j, d - 1.

    Its rows are y^k f (k = d - 2 - j, ..., 0) and y^k g (k = d - 1 - j,
    ..., 0) on the columns y^(2 d - 2 - j), ..., 1; s_ji is the determinant
    of the first 2 d - 2 - 2 j columns and that of y^i.  One fraction-free
    elimination of those columns (``linalg._bareiss``) leaves every s_ji in
    the last row, up to its row sign, with no case for a defective sequence.
    """
    d = len(f) - 1
    rows = [[0] * k + f[::-1] + [0] * (d - 2 - j - k) for k in range(d - 1 - j)]
    rows += [[0] * k + g[::-1] + [0] * (d - 1 - j - k) for k in range(d - j)]
    size = len(rows)
    pivots, sign = _bareiss(rows, size - 1)
    if len(pivots) < size - 1:
        return [0] * (j + 1)
    return [sign * a for a in reversed(rows[-1][size - 1:])]


def _subresultant(biv, j):
    """[s_j0, ..., s_jj], integer lists: S_j = sum s_ji(x) y^i, the j-th
    subresultant in y of F = biv and dF/dy, up to a positive factor
    (0 < j < d).  F has total degree d and a constant y^d coefficient (the
    shear's center is off the curve), so S_j at x = alpha is that of the
    fibers: for the first j with s_jj(alpha) != 0, the gcd of the fibers
    has degree j and is S_j there (the subresultant theorem of Collins and
    Brown & Traub).

    Degree bound: the y^e coefficients of F and dF/dy have degree at most
    d - e and d - 1 - e, so the entry of row y^k f at column y^e has degree
    at most r - e, with r = d + k on the n = d - 1 - j rows of F and
    d - 1 + k on the n + 1 rows of dF/dy, which sum to
    n d + (n + 1)(d - 1) + n^2.  The columns y^(j + 1), ..., y^(2 d - 2 - j)
    and y^i sum to n (2 d - 1) + i, so deg s_ji <= n (n + 1) + j - i, and
    n (n + 1) + j + 1 integer nodes determine S_j: 44 for S_1 of an octic.
    """
    cols, _scale = _scaled_y_columns(biv)
    d = len(cols) - 1
    slope = [[e * a for a in col] for e, col in enumerate(cols)][1:]
    n = d - 1 - j
    return _interpolated(cols, slope, n * (n + 1) + j + 1, lambda f, g: _subresultant_at(f, g, j))


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
    with w the last column of m, is a second binary substitution.  (A
    nonzero constant has no points: Euler's identity needs degree >= 1.)
    """
    if gamma.degree == 0:
        return False
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


def _center_on_curve(gamma, m):
    """Does the shear's center m (0 : 1 : 0) lie on the curve?"""
    return scalar_is_zero(gamma.eval([row[1] for row in m]))


def _partial(biv, var):
    """The partial derivative of a bivariate in x (var 0) or y (var 1)."""
    out = {}
    for key, c in biv.items():
        if key[var]:
            lowered = list(key)
            lowered[var] -= 1
            out[tuple(lowered)] = key[var] * c
    return out


def _y_discriminant(biv):
    """D = Res_y(F, dF/dy) for a bivariate F, as a UPoly in x."""
    return resultant_y(biv, _partial(biv, 1))


def _sheared_locus(gamma, m):
    """Singular points of gamma o m in the chart z = 1, by x-orbit.

    Returns {q: (x, ys)}: q is the monic minimal polynomial of x.  For a
    linear q, x and the ys are rational, one y per point on the line over
    x; otherwise x = a in QQ[a]/(q) and ys is [y] with y in that field, one
    Galois orbit of points over the x-orbit.  The curve must be reduced.
    With the center off the curve, every singular point lies on a line
    x = const where D = Res_y(F, dF/dy) has order at least 2 (the module
    docstring gives the argument), so the factors of D's repeated part are
    the candidate lines; at the shear of ``_discriminant`` its D is read.
    Over a rational line the fiber is the gcd of dF/dy, dF/dx and F
    (``_fiber_points``): dF/dx drops a vertical flex and two vertical
    tangents, which give order 2 too.  Over an irrational one the gcd of F
    and dF/dy is read off a subresultant (``_orbit_points``), and dF/dx is
    tested only where that gcd is not linear.  Returns None when the center
    lies on the curve or the shear leaves a singular point on z = 0, or
    puts two points where F and dF/dy vanish on one line (conjugate points
    on a rational line, any two on an irrational one): a later shear
    separates them.
    """
    if _center_on_curve(gamma, m) or _infinity_singular_points_exist(gamma, m):
        return None
    biv = _affine_xy(gamma if m == _IDENTITY else compose_form(gamma, m))
    kept, disc = _discriminant(gamma)
    if kept != m:
        disc = _y_discriminant(biv)
    partials = [_partial(biv, 1), _partial(biv, 0), biv]
    lines = [
        UPoly(fac).monic()
        for part, mult in upoly_squarefree(clear_denominators(list(disc.coeffs)))
        if mult > 1
        for fac in _zassenhaus(part)
    ]
    locus = {}
    subresultants = {}
    for q in sorted(lines, key=lambda q: (q.degree(), q.coeffs)):
        if q.degree() == 1:
            x = -q.coeffs[0]
            ys = _fiber_points(partials, x)
        else:
            x = NumberField(q, check=False).gen()
            ys = _orbit_points(biv, subresultants, x.owner)
        if ys is None:
            return None
        if ys:
            locus[q] = (x, ys)
    return locus


def _fiber_points(bivs, x):
    """The ys of the singular points over a rational x = a / b, the roots
    of the gcd in y of the bivariates there, or None when it has a factor
    of degree 2 or more (conjugate points on one line).  Each fiber is
    b^D c(a / b) for each integer y-coefficient c (D its x-degree), and
    ``_zz_gcd`` combines them."""
    a, b = x.numerator, x.denominator
    g = []
    for biv in bivs:
        cols, _scale = _scaled_y_columns(biv)
        top = max(len(col) for col in cols)
        p = _trim([_horner(col, a, b) * b ** (top - len(col)) for col in cols])
        g = _zz_gcd(g, p) if g and p else g or p
    factors = [f for f, _mult in upoly_factor(UPoly(g))]
    ys = [-f.coeffs[0] for f in factors if f.degree() == 1]
    return ys if len(ys) == len(factors) else None


def _orbit_points(biv, subresultants, field):
    """[y0] over x = alpha, the generator of ``field``, [] when the one
    point there is smooth, or None when F and dF/dy vanish at two points
    of the line.

    The gcd of the fibers of F and dF/dy is S_j(alpha, y) for the first j
    with s_jj(alpha) != 0, usually S_1; each S_j is interpolated once per
    shear, when it is first reached, into ``subresultants``.  A single
    point is S_j(alpha, y) = s_jj (y - y0)^j, and y0 = -s_j(j-1) / (j s_jj)
    is the orbit's one inverse.  For j = 1, p = (alpha, y0) is singular with
    no partial tested: (F, x - alpha)_p = 2, so p alone gives D the order
    mu_p + 1 at alpha (Teissier's lemma, as in the module docstring), which
    is at least 2, so mu_p >= 1.  For j >= 2 the order is mu_p + j, which a
    vertical flex reaches too, so p is singular iff dF/dx vanishes there.
    """
    for j in itertools.count(1):
        if j not in subresultants:
            subresultants[j] = _subresultant(biv, j)
        s = [field.elem(c) for c in subresultants[j]]
        if not s[j].is_zero():
            break
    y0 = _power_root(s)
    if y0 is None or j == 1:
        return None if y0 is None else [y0]
    cols, _scale = _scaled_y_columns(_partial(biv, 0))
    slope = reduce(lambda acc, col: acc * y0 + field.elem(col), reversed(cols), field.zero())
    return [] if slope else [y0]


def _power_root(s):
    """y0 when the polynomial of coefficients s (constant first, a nonzero
    leading one) is s_j (y - y0)^j, else None."""
    j = len(s) - 1
    y0 = s[j - 1] * QQ(-1, j) / s[j]
    term = s[j - 1]
    for i in range(j - 2, -1, -1):
        # the y^i coefficient of s_j (y - y0)^j from that of y^(i + 1)
        term = term * (-y0) * QQ(i + 1, j - i)
        if s[i] != term:
            return None
    return y0


def _first_locus(gamma):
    """(shear, locus): the first shear matrix at which ``_sheared_locus``
    separates the singular points, and the locus it gives there.  A curve
    that is not reduced raises CommonComponent."""
    if not curve_is_reduced(gamma):
        raise CommonComponent("the curve is not reduced: it has a multiple component")
    for idx in range(MAX_SHEARS):
        m = shear_matrix(idx)
        locus = _sheared_locus(gamma, m)
        if locus is not None:
            return m, locus
    raise ShearExhausted("%d shears failed to separate the singular points" % MAX_SHEARS)


def singular_points(gamma):
    """The singular points of a plane curve, one ProjPoint per Galois orbit.

    They are read off the discriminant at the first shear that separates
    them (``_sheared_locus``), in the order of their x minimal polynomials,
    by degree and then coefficients.  A curve that is not reduced has a
    singular component and raises CommonComponent.
    """
    if len(gamma.variables) != 3:
        raise FieldMismatch("plane curves only")
    m, locus = _first_locus(gamma)
    points = [(x, y) for x, ys in locus.values() for y in ys]
    return [transform_point(m, ProjPoint([x, y, ONE])) for x, y in points]


def singular_locus_complete(gamma, claimed):
    """Is the claimed point list exactly the singular locus of the curve?
    The verdict of ``check_claim``."""
    return check_claim(gamma, claimed)[1]


def check_claim(gamma, claimed):
    """(reports, complete): ``verify_node``'s report on each claimed point,
    and whether the claim is exactly the singular locus of the curve.

    The node test runs once, and the certificate reads its reports.
    Number-field points stand for their whole conjugate orbit.  A claim of
    ordinary nodes is certified from one discriminant: at the first shear
    whose center (0 : 1 : 0) is off the curve, every claimed point must be
    singular and D = Res_y(F, dF/dy) must be P^2 A in Z[x], P the product
    of the claimed x / z minimal polynomials, A squarefree and coprime to
    P, and deg D = d (d - 1) - 2 (claimed points on z = 0).  By Teissier's
    lemma, (F, dF/dy)_p = mu_p + (F, x)_p - 1, a singular point adds at
    least 2 to the order of D at its line through the center and exactly 2
    only at an ordinary node, so no singular point is left out
    (``_node_certificate``).  The certificate declines a wrong claim, a
    singular point that is no ordinary node or is tangent to its line,
    two orbits on the same lines, an orbit on z = 0, an orbit over a field
    its x does not generate, and a curve that is not reduced; then the
    claim is compared with the locus of ``singular_points``
    (``_matches_locus``).
    """
    if len(gamma.variables) != 3:
        raise FieldMismatch("plane curves only")
    keys = [p.canonical_key() for p in claimed]
    if len(set(keys)) != len(keys):
        raise ValueError("claimed points must be pairwise distinct")
    reports = verify_node(gamma, claimed)
    if _node_certificate(gamma, claimed, reports):
        return reports, True
    return reports, _matches_locus(gamma, claimed)


def _matches_locus(gamma, claimed):
    """The claim compared with the locus of ``singular_points``.

    The claim is moved to the locus shear, where no singular point lies on
    z = 0, the points over a rational x are rational, and an irrational
    x-orbit holds one orbit of points.  So a claimed point on z = 0, an
    orbit whose x generates a smaller field than its own, or two orbits
    with one x minimal polynomial, is not singular there.  Otherwise the
    claim holds when its x minimal polynomials are those of the locus and
    its y-coordinates are the locus's; a point so matched is singular, so
    no node test is needed.
    """
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


def _discriminant(gamma):
    """(m, D) for the first shear m whose center m (0 : 1 : 0) is off the
    curve, with D = Res_y(F, dF/dy) for F = gamma o m at z = 1; None when
    every shear's center lies on the curve.

    F has a nonzero constant y^d coefficient there, so D is the
    dehomogenized binary form of degree d (d - 1) whose order at a line
    x = t z through the center is the sum of (F, dF/dy)_p over the line's
    points p, and D vanishes exactly when the curve is not reduced.  The
    curve keeps the pair, so every check on the same Form reads one D.
    """
    if gamma._disc is not None:
        return gamma._disc
    for idx in range(MAX_SHEARS):
        m = shear_matrix(idx)
        if not _center_on_curve(gamma, m):
            composed = gamma if m == _IDENTITY else compose_form(gamma, m)
            gamma._disc = m, _y_discriminant(_affine_xy(composed))
            return gamma._disc
    return None


def _node_certificate(gamma, claimed, reports):
    """True when the discriminant proves the claim to be the singular
    locus, each claimed point an ordinary node; None when it declines, as
    it does whenever a condition fails, so it never rejects or raises.

    ``reports`` are ``verify_node``'s reports on the claim.  With (m, D)
    from ``_discriminant`` and the claim moved by m^-1: every claimed point
    is singular (read from ``reports``); P, the product of the
    primitive minimal polynomials of the claimed x / z, has one factor per
    point of degree its orbit size and no irrational factor twice;
    D = P^2 A in Z[x] with A squarefree and coprime to P; and
    deg D = d (d - 1) - 2 k, k the claimed points on z = 0 (the module
    docstring gives the argument).  A point over a field of degree one,
    which may be a second copy of a rational point, and an orbit on z = 0
    are declined outright.
    """
    if gamma.degree < 2:
        return None
    if any(p.field is not None and p.field.degree < 2 for p in claimed):
        return None
    if not all(rep.is_singular for rep in reports):
        return None
    found = _discriminant(gamma)
    if found is None or found[1].is_zero():
        return None
    m, disc = found
    minv = None if m == _IDENTITY else mat_inv(m)
    prod = [1]
    seen = set()
    at_infinity = 0
    for p in claimed:
        moved = p if minv is None else transform_point(minv, p)
        if scalar_is_zero(moved.coords[2]):
            if p.field is not None:
                return None
            at_infinity += 1
            continue
        q = _x_minimal_polynomial(moved.coords[0] / moved.coords[2])
        if q.degree() != p.orbit_size() or q in seen:
            return None
        if q.degree() > 1:
            seen.add(q)
        prod = _zz_mul(prod, clear_denominators(list(q.coeffs)))
    d = gamma.degree
    ints = clear_denominators(list(disc.coeffs))
    if len(ints) - 1 != d * (d - 1) - 2 * at_infinity:
        return None
    rest = _zz_exquo(ints, _zz_mul(prod, prod))
    if rest is None:
        return None
    if len(rest) > 1 and len(_zz_gcd(rest, _zz_deriv(rest))) > 1:
        return None
    if len(rest) > 1 and len(prod) > 1 and len(_zz_gcd(rest, prod)) > 1:
        return None
    return True


def curve_is_reduced(gamma):
    """Is the plane curve squarefree?

    At the shear of ``_discriminant`` the curve is monic in y up to a
    constant, and squarefreeness is exactly the nonvanishing of
    Res_y(g, dg/dy) for the dehomogenized curve.
    """
    found = _discriminant(gamma)
    if found is None:
        raise ShearExhausted("no shear made the curve monic in y")
    return not found[1].is_zero()


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
    systems = SubsetSystems(space, [], units)
    for take in range(len(units), 0, -1):
        for subset in itertools.combinations(range(len(units)), take):
            k = sum(units[i].orbit_size() for i in subset)
            if k < r - 2 or systems.dimension(subset) < 0:
                continue
            rows = [row for i in subset for row in cond_point(space, units[i])]
            report = system_solve(space, rows)
            for conic in report.kernel:
                if classify_conic(conic) == "smooth":
                    return True
    raise CannotCertify(
        "no smooth conic witness found for a configuration with conjugate nodes"
    )
