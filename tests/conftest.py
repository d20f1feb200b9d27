import random
import zlib

import pytest

from splitcurves.arith import NumberField, UPoly
from splitcurves.cover import ram_form
from splitcurves.forms import BiForm, Form, ProjPoint, parse_form, point
from splitcurves.linalg import (
    kernel_basis,
    mat_det,
    mat_inv,
    rank_bareiss,
    rank_naive,
    solve_linear,
)
from splitcurves.scalars import QQ

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
    ``UPoly.divmod`` was, kept for the remainders the oracles read."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dg = b.degree()
    inv = b.lc() ** -1
    zero = b.coeffs[0] * 0
    q = [zero] * max(0, len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] * inv
        q[i - dg] = c
        for j, x in enumerate(b.coeffs):
            rem[i - dg + j] = rem[i - dg + j] - c * x
        rem[i] = zero
    return UPoly(q, a.field), UPoly(rem[:dg], a.field)


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
