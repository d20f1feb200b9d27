import random
import zlib

import pytest

from splitcurves.arith import NumberField, UPoly, _zk_gcd, upoly_gcd
from splitcurves.cover import ram_form
from splitcurves.forms import BiForm, Form, ProjPoint, parse_form, point
from splitcurves.linalg import (
    kernel_basis,
    mat_det,
    mat_inv,
    rank_bareiss,
    solve_linear,
)
from splitcurves.scalars import QQ, clear_denominators

PLANE = ("x", "y", "z")
SPACE = ("x", "y", "z", "w")


def rng_for(name):
    """Deterministic per-test RNG; crc32, unlike hash(), is stable across processes."""
    return random.Random(0x5EED ^ zlib.crc32(name.encode()))


def random_rat(rng, height=9):
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return QQ(num) / QQ(den)


def param_point(param, s, t):
    """The point of a conic parametrization at (s : t), read off its
    coefficient matrix (rows: coordinates; columns: s^2, st, t^2)."""
    return ProjPoint([a * s * s + b * s * t + c * t * t for a, b, c in param.coefficient_matrix()])


def euler_check(f):
    """Euler identity: sum_i x_i df/dx_i == deg(f) * f."""
    n = len(f.variables)
    total = Form.zero(f.variables, f.degree)
    for i in range(n):
        xi = Form.variable(f.variables, f.variables[i])
        total = total + xi * f.partial(i)
    return total == f.scale(f.degree)


def binform_value(b, s, t):
    """A binary form's value at (s, t), from its coefficients."""
    return sum((c * s**i * t ** (b.degree - i) for i, c in enumerate(b.coeffs)), QQ(0))


def biform_value(b, s, t, u, v):
    """A biform's value at (s, t; u, v), from its terms."""
    d1, d2 = b.bidegree
    return sum(
        (c * s**i * t ** (d1 - i) * u**j * v ** (d2 - j) for (i, j), c in b.terms.items()),
        QQ(0),
    )


def _dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), QQ(0))


def rank_naive(rows):
    """Rank by plain rational Gaussian elimination: the oracle the tests
    compare the fraction-free (Bareiss) core against."""
    if not rows:
        return 0
    m = [[QQ(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = 1 / m[row][col]
        m[row] = [a * inv for a in m[row]]
        for i in range(row + 1, nrows):
            if m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
    return rank


def _cofactor_det(m):
    if not m:
        return QQ(1)
    return sum(
        (
            (-1) ** j * m[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
            for j in range(len(m))
        ),
        QQ(0),
    )


def check_elimination(rng, mat):
    """Every view of the elimination core on one matrix, against the oracles.

    rank_naive gives the rank, direct products check kernels, solutions and
    inverses, and cofactor expansion checks determinants up to 4 x 4 (on the
    leading square block of ``mat``).
    """
    nrows, ncols = len(mat), len(mat[0])
    rank = rank_naive(mat)
    assert rank_bareiss(mat) == rank
    kernel = kernel_basis(mat, ncols)
    assert len(kernel) == ncols - rank
    assert all(_dot(row, v) == 0 for v in kernel for row in mat)
    if rng.random() < 0.5:
        x0 = [random_rat(rng, 6) for _ in range(ncols)]
        rhs = [_dot(row, x0) for row in mat]
    else:
        rhs = [random_rat(rng, 6) for _ in range(nrows)]
    x = solve_linear(mat, rhs)
    if rank_naive([list(row) + [b] for row, b in zip(mat, rhs)]) > rank:
        assert x is None
    else:
        assert [_dot(row, x) for row in mat] == rhs
    k = min(nrows, ncols)
    square = [list(row[:k]) for row in mat[:k]]
    det = mat_det(square)
    if k <= 4:
        assert det == _cofactor_det(square)
    inv = mat_inv(square)
    if det == 0:
        assert inv is None
    else:
        identity = [[QQ(int(i == j)) for j in range(k)] for i in range(k)]
        assert [[_dot(row, col) for col in zip(*square)] for row in inv] == identity


def random_form(rng, degree, nvars=3, height=9, sparsity=0.8):
    from splitcurves.forms import monomial_basis

    variables = PLANE if nvars == 3 else SPACE
    terms = {}
    for expo in monomial_basis(nvars, degree):
        if rng.random() < sparsity:
            c = random_rat(rng, height)
            if c != 0:
                terms[expo] = c
    if not terms:
        expo = tuple([degree] + [0] * (nvars - 1))
        terms[expo] = QQ(1)
    return Form(variables, degree, terms)


def upoly_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b: the long division that
    ``UPoly.divmod`` was, kept for the remainders the oracles read.  a and
    b are rational UPolys, or trimmed lists of NFElem (constant term
    first) over one number field, and q and r are of the same kind."""
    over_q = isinstance(a, UPoly)
    num, den = (a.coeffs, b.coeffs) if over_q else (a, b)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    dg = len(den) - 1
    inv = den[-1] ** -1
    zero = den[0] * 0
    q = [zero] * max(0, len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] * inv
        q[i - dg] = c
        for j, x in enumerate(den):
            rem[i - dg + j] = rem[i - dg + j] - c * x
        rem[i] = zero
    if over_q:
        return UPoly(q), UPoly(rem[:dg])
    return nf_trim(q), nf_trim(rem[:dg])


# -- polynomials over a number field: plain lists of NFElem, constant first --


def nf_trim(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return p


def nf_mul(a, b):
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return nf_trim(out)


def nf_derivative(p):
    return nf_trim([c * i for i, c in enumerate(p)][1:])


def nf_monic(p):
    if not p:
        return p
    inv = p[-1].inv()
    return [c * inv for c in p[:-1]] + [p[-1].owner.one()]


def nf_ints(p):
    """The coefficients of an NFElem list as integer coordinate vectors,
    over one denominator and without integer content."""
    if not p:
        return []
    n = p[0].owner.degree
    ints = clear_denominators([c for e in p for c in e.coords])
    return [ints[i : i + n] for i in range(0, len(ints), n)]


def nf_from_ints(f, field):
    """The monic NFElem list whose integer coordinate vectors are f up to a
    unit of the field: one inverse of the leading coefficient."""
    return nf_monic([field.elem(v) for v in f])


def nf_gcd(a, b):
    """Monic gcd of NFElem lists, as ``upoly_gcd`` computed it over a number
    field: the remainder sequence of ``_zk_gcd`` on the integer vectors,
    then one inverse of its leading coefficient."""
    if not a or not b:
        return nf_monic(b if not a else a)
    field = a[0].owner
    return nf_from_ints(_zk_gcd(nf_ints(a), nf_ints(b), field), field)


def fiber_gcd_oracle(combos, field, alpha):
    """The monic gcd in y of the bivariates at x = alpha, as the parent built
    it: each y-coefficient by Horner in NFElem or Fraction arithmetic, a
    rational UPoly over Q and an NFElem list over a number field."""
    zero, one = (QQ(0), QQ(1)) if field is None else (field.zero(), field.one())
    g = None
    for biv in combos:
        coeffs = [zero] * (max(j for (_i, j) in biv) + 1)
        for (i, j), c in biv.items():
            coeffs[j] = coeffs[j] + alpha**i * c if field is None else coeffs[j] + one * c * alpha**i
        if field is None:
            p = UPoly(coeffs)
            g = p if g is None else upoly_gcd(g, p)
        else:
            p = nf_trim(coeffs)
            g = p if g is None else nf_gcd(g, p)
        if len(g.coeffs if field is None else g) == 1:
            break
    return g.monic() if field is None else nf_monic(g)


def divide_by_ram_oracle(b):
    """b / (sv - tu), or None: the closed form ``cover.divide_by_ram`` was,
    kept as an oracle.  At t = v = 1 the divisor is s - u, monic in s, so
    synthetic division over Q[u] gives the only possible quotient, and the
    final check q * r == b decides divisibility."""
    d1, d2 = b.bidegree
    if d1 == 0 or d2 == 0:
        return None
    w = d2 + 1
    # row i: the coefficients of s^i as a polynomial in u (t = v = 1)
    rows = [b.coeffs[i * w:(i + 1) * w] for i in range(d1 + 1)]
    quotient = []
    carry = [QQ(0)] * w
    for i in range(d1, 0, -1):
        # q_(i-1) = row_i + u * q_i
        carry = [x + y for x, y in zip(rows[i], [QQ(0)] + carry[:-1])]
        quotient.append(carry[:d2])
    quotient.reverse()
    q = BiForm((d1 - 1, d2 - 1), {
        (i, j): c for i, row in enumerate(quotient) for j, c in enumerate(row)
    })
    return q if q * ram_form() == b else None


def substitute_form_oracle(f, images):
    """Substitution as the parent computed it, kept as an oracle: rational
    Form or BiForm products, each power of an image built once per call."""
    from splitcurves.errors import InhomogeneousImage

    vals = [images[v] for v in f.variables]
    if len({type(v) for v in vals}) != 1:
        raise InhomogeneousImage("images must all be Form or all BiForm")
    if isinstance(vals[0], Form):
        if len({v.degree for v in vals}) != 1 or len({v.variables for v in vals}) != 1:
            raise InhomogeneousImage("images of mixed degree")
        acc = Form.zero(vals[0].variables, f.degree * vals[0].degree)
    else:
        if len({v.bidegree for v in vals}) != 1:
            raise InhomogeneousImage("images of mixed bidegree")
        d1, d2 = vals[0].bidegree
        acc = BiForm.zero((f.degree * d1, f.degree * d2))
    powers = [dict() for _ in vals]
    for expo, coeff in f.sorted_terms():
        term = None
        for i, e in enumerate(expo):
            if e == 0:
                continue
            if e not in powers[i]:
                powers[i][e] = vals[i] ** e
            term = powers[i][e] if term is None else term * powers[i][e]
        if term is None:
            raise InhomogeneousImage("constant form cannot be substituted")
        acc = acc + term.scale(coeff)
    return acc


@pytest.fixture(scope="session")
def delta2():
    from splitcurves.conics import delta2 as d2

    return d2()


@pytest.fixture(scope="session")
def gamma6():
    return parse_form("(x^3+y^3+z^3)^2-(z^2-4*x*y)*(x*y+y*z+z*x)^2", PLANE)


@pytest.fixture(scope="session")
def gamma6_orbit():
    field = NumberField(UPoly([1, 3, 3, 1, 3, 3, 1]))
    a = field.gen()
    return ProjPoint([a, -(a**5) - 2 * a**4 - a**3 - 3 * a - 1, field.one()])


@pytest.fixture(scope="session")
def gamma6_prime():
    return parse_form(
        "(2*x^3-x^2*y+3*x^2*z-2*x*y^2-4*x*z^2+y^3+y*z^2)^2"
        "-z*(x-y)*(2*x-y)*(x+y-2*z)*(z^2-4*x*y)",
        PLANE,
    )


@pytest.fixture(scope="session")
def gamma6_prime_nodes():
    return [
        point(1, 1, 0),
        point(1, 2, 0),
        point(1, -1, 0),
        point(0, 0, 1),
        point(1, 1, 1),
        point(2, 4, 3),
    ]


@pytest.fixture(scope="session")
def gamma7_prime():
    c2 = parse_form("-61*x^2+20*x*y+4*x*z+4*y^2-4*y*z+z^2", PLANE)
    c3 = parse_form("-13*x^2*y+168*x^2*z-74*x*y*z-8*x*z^2-8*y^2*z+7*y*z^2", PLANE)
    c4 = parse_form(
        "x^2*y^2+16*x^2*y*z-112*x^2*z^2-4*x*y^2*z+64*x*y*z^2-y^2*z^2", PLANE
    )
    return c3 * c3 - (c2 * c4).scale(4), c2


@pytest.fixture(scope="session")
def gamma7_prime_nodes():
    return [
        point(0, 0, 1),
        point(0, 1, 0),
        point(1, 0, 0),
        point(1, 1, 1),
        point(1, -2, 1),
        point(-1, 6, 3),
        point(1, 2, -3),
    ]


def necessary_dim_oracle(gamma, nodes, contact_form, m, n):
    """(witnesses, failures, kernels) of ``splitting.necessary_dim_check``,
    with one ``system_solve`` per system and its dimension read off the
    kernel: the way the check computed them before it decided by rank."""
    from splitcurves.linsys import FormSpace, cond_divisible_on_conic, cond_point, system_solve
    from splitcurves.splitting import _alpha_subsets, alpha_of

    alpha = alpha_of(m, n)
    div_rows = cond_divisible_on_conic(n, contact_form)
    space_n, space_n1 = FormSpace(n, gamma.variables), FormSpace(n - 1, gamma.variables)
    witnesses, failures, kernels = [], [], []
    for subset in _alpha_subsets(nodes, alpha):
        chosen = [nodes[i] for i in subset]
        rep1 = system_solve(space_n1, [r for p in chosen for r in cond_point(space_n1, p)])
        if rep1.dimension < 0:
            failures.append({"subset": subset, "reason": "degree_n_minus_1_system",
                             "dimension": rep1.dimension, "required": 0})
            continue
        rep = system_solve(space_n, div_rows + [r for p in chosen for r in cond_point(space_n, p)])
        if rep.dimension < n - m:
            failures.append({"subset": subset, "reason": "degree_n_system",
                             "dimension": rep.dimension, "required": n - m})
            continue
        witnesses.append({"subset": subset, "dim_n": rep.dimension, "dim_n1": rep1.dimension})
        if rep.dimension == n - m:
            kernels.append(rep.kernel)
    return witnesses, failures, kernels


def criterion_24_oracle(gamma, nodes, contact_form):
    """(holds, failed, details) of ``splitting.criterion_24_7nodal`` from one
    ``system_solve`` per system and collinear triples by ``rank_naive``."""
    import itertools

    from splitcurves.conics import delta2_param, restrict_to_conic
    from splitcurves.linsys import FormSpace, cond_divisible_on_conic, cond_point, system_solve

    def solve(degree, shared, points):
        space = FormSpace(degree, gamma.variables)
        return system_solve(space, shared + [r for p in points for r in cond_point(space, p)])

    details = {"conic_dimension": solve(2, [], nodes).dimension}
    if details["conic_dimension"] >= 0:
        return False, "iii-a", details
    quartic_rows = cond_divisible_on_conic(4, contact_form)
    details["quartic_dimension"] = solve(4, quartic_rows, nodes).dimension
    if details["quartic_dimension"] < 2:
        return False, "iii-b", details
    div_rows = cond_divisible_on_conic(3, contact_form)
    rows = [p.primitive() for p in nodes]
    collinear = [t for t in itertools.combinations(range(7), 3)
                 if rank_naive([rows[i] for i in t]) <= 2]
    details["collinear_triples"] = collinear
    for triple in collinear:
        for member in solve(3, div_rows, [nodes[i] for i in triple]).kernel:
            if not restrict_to_conic(member, delta2_param()).is_zero():
                details["bad_triple"] = triple
                return False, "iii-c", details
    for five in itertools.combinations(range(7), 5):
        dim = solve(3, div_rows, [nodes[i] for i in five]).dimension
        if dim >= 0:
            details["bad_five"] = five
            details["cubic_dimension"] = dim
            return False, "iii-d", details
    return True, None, details


def irreducibility_sextic_oracle(gamma, nodes):
    """``curves.irreducibility_sextic`` (r <= 7) from ``rank_naive`` on the
    rational 5-subsets, or from one ``system_solve`` per subset of orbits."""
    import itertools

    from splitcurves.conics import classify_conic
    from splitcurves.linsys import FormSpace, cond_point, system_solve

    r = sum(p.orbit_size() for p in nodes)
    if all(p.field is None for p in nodes):
        rows = [p.primitive() for p in nodes]
        return all(rank_naive([rows[i] for i in five]) > 2
                   for five in itertools.combinations(range(len(nodes)), 5))
    units = sorted(nodes, key=lambda p: -p.orbit_size())
    space = FormSpace(2, gamma.variables)
    for take in range(len(units), 0, -1):
        for subset in itertools.combinations(range(len(units)), take):
            if sum(units[i].orbit_size() for i in subset) < r - 2:
                continue
            rep = system_solve(space, [row for i in subset for row in cond_point(space, units[i])])
            if any(classify_conic(conic) == "smooth" for conic in rep.kernel):
                return True
    return None


def seven_nodal_construction(rng):
    """(sextic, conic) of a quartic surface f3^2 - 4 f1 f2 projected from its
    node (0:0:0:1), where f1, f2, f3 span the quadrics through that node and
    six seeded rational points.  The net's eighth base point is rational too,
    so the sextic's seven nodes are rational; it splits as (2, 4)."""
    from splitcurves.linsys import FormSpace, cond_point, system_solve
    from splitcurves.quartics import QuarticSurface, project_quartic

    center = point(0, 0, 0, 1)
    space = FormSpace(2, SPACE)
    net = []
    while len(net) != 3:  # six points that impose independent conditions
        points = [center] + [
            ProjPoint([QQ(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(6)
        ]
        net = system_solve(space, [r for p in points for r in cond_point(space, p)]).kernel
    f1, f2, f3 = net
    surface = QuarticSurface.from_raw(f3 * f3 - (f1 * f2).scale(4), center)
    gamma, conic, _info = project_quartic(surface, check_contact=False)
    return gamma, conic


# -- the singular locus by weighted partials, kept as an oracle --------------

_ELIMINATION_WEIGHTS = [
    (2, 3, 5),
    (5, 7, 11),
    (3, 5, 7),
    (2, 7, 13),
    (11, 13, 17),
    (3, 11, 19),
    (5, 13, 23),
    (7, 11, 29),
]


def _sheared_locus_oracle(gamma, m, idx):
    """The singular points of gamma o m at z = 1, by x-orbit, as the parent
    found them: y eliminated by resultants of two of three weighted
    combinations of the partials, the fiber over each factor of their gcd
    the gcd of the combinations there (``fiber_gcd_oracle``), made
    squarefree.  None where a shear is refused."""
    from splitcurves import curves
    from splitcurves.arith import upoly_factor
    from splitcurves.forms import compose_form

    if curves._infinity_singular_points_exist(gamma, m):
        return None
    composed = compose_form(gamma, m)
    ints = clear_denominators(list(composed.terms.values()))
    combos = []
    for w in _ELIMINATION_WEIGHTS[idx % len(_ELIMINATION_WEIGHTS)]:
        out = {}
        for (i, j, k), a in zip(composed.terms, ints):
            for key, v in (((i - 1, j), i * a), ((i, j - 1), j * w * a), ((i, j), k * w * w * a)):
                if v:
                    out[key] = out.get(key, 0) + v
        combos.append({key: v for key, v in out.items() if v})
    r1 = curves.resultant_y(combos[0], combos[1])
    r2 = curves.resultant_y(combos[1], combos[2])
    if r1.is_zero() or r2.is_zero():
        return None
    locus = {}
    for q, _mult in upoly_factor(upoly_gcd(r1, r2)):
        field = None if q.degree() == 1 else NumberField(q, check=False)
        x = -q.coeffs[0] if field is None else field.gen()
        fiber = fiber_gcd_oracle(combos, field, x)
        if field is None:
            if fiber.degree() >= 2:
                fiber = upoly_divmod(fiber, upoly_gcd(fiber, fiber.derivative()))[0]
            if fiber.degree() >= 2:
                ys = [-f.coeffs[0] for f, _mult in upoly_factor(fiber) if f.degree() == 1]
            else:
                ys = [-fiber.monic().coeffs[0]] if fiber.degree() == 1 else []
            degree = fiber.degree()
        else:
            if len(fiber) > 2:
                fiber = upoly_divmod(fiber, nf_gcd(fiber, nf_derivative(fiber)))[0]
            ys = [-nf_monic(fiber)[0]] if len(fiber) == 2 else []
            degree = len(fiber) - 1
        if len(ys) < degree:
            return None
        if ys:
            locus[q] = (x, ys)
    return locus


def singular_points_oracle(gamma):
    """``curves.singular_points`` by the weighted-partials elimination, at
    the first shear where it separates the singular points."""
    from splitcurves import curves
    from splitcurves.forms import transform_point

    for idx in range(curves.MAX_SHEARS):
        m = curves.shear_matrix(idx)
        locus = _sheared_locus_oracle(gamma, m, idx)
        if locus is not None:
            return [
                transform_point(m, ProjPoint([x, y, QQ(1)]))
                for x, ys in locus.values()
                for y in ys
            ]
    raise AssertionError("no shear separated the singular points")
