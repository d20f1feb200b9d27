import pytest

from splitcurves.conics import conic_matrix, delta2, delta2_param
from splitcurves.cover import (
    cover_images,
    descend,
    divide_by_ram,
    involution_biform,
    pullback_curve,
    ram_form,
    tangent_line,
)
from splitcurves.errors import InhomogeneousImage
from splitcurves.forms import (
    BiForm,
    Form,
    monomial_basis,
    parse_form,
    substitute_form,
)
from splitcurves.linalg import solve_linear
from splitcurves.scalars import QQ, ZERO, ONE

from conftest import PLANE, param_point, rng_for, random_form, substitute_form_oracle


def test_pullback_of_coordinates():
    assert pullback_curve(Form.variable(PLANE, "x")) == BiForm((1, 1), {(1, 1): 1})
    assert pullback_curve(Form.variable(PLANE, "y")) == BiForm((1, 1), {(0, 0): 1})
    assert pullback_curve(Form.variable(PLANE, "z")) == BiForm(
        (1, 1), {(1, 0): 1, (0, 1): 1}
    )


def test_branch_conic_pulls_back_to_ramification_square():
    r = ram_form()
    assert pullback_curve(delta2()) == r * r
    assert involution_biform(r) == -r


def test_gamma6_pullback_factorization(gamma6):
    c3 = parse_form("x^3+y^3+z^3", PLANE)
    c2 = parse_form("xy+yz+zx", PLANE)
    r = ram_form()
    f = pullback_curve(gamma6)
    assert f.bidegree == (6, 6)
    lhs = pullback_curve(c3) ** 2 - r * r * pullback_curve(c2) ** 2
    assert lhs == f
    a = pullback_curve(c3) + r * pullback_curve(c2)
    assert a * involution_biform(a) == f


def test_involution_examples():
    su = BiForm((1, 1), {(1, 1): 1})
    assert involution_biform(su) == su
    s2u = BiForm((2, 1), {(2, 1): 1})
    assert involution_biform(s2u) == BiForm((1, 2), {(1, 2): 1})
    assert involution_biform(s2u).bidegree == (1, 2)


def test_involution_is_an_involution_200_cases():
    rng = rng_for("involution")
    for _ in range(200):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        terms = {}
        for i in range(d1 + 1):
            for j in range(d2 + 1):
                if rng.random() < 0.5:
                    terms[(i, j)] = QQ(rng.randint(-9, 9))
        b = BiForm((d1, d2), terms)
        swapped = involution_biform(b)
        assert swapped.bidegree == (d2, d1)
        assert swapped.terms == {(j, i): c for (i, j), c in b.terms.items()}
        assert involution_biform(swapped) == b


def test_pullback_multiplicative_200_cases():
    rng = rng_for("pullback-mult")
    for _ in range(200):
        f = random_form(rng, rng.randint(1, 3))
        g = random_form(rng, rng.randint(1, 3))
        assert pullback_curve(f * g) == pullback_curve(f) * pullback_curve(g)


def test_involution_fixes_pullbacks_200_cases():
    rng = rng_for("pullback-fixed")
    for _ in range(200):
        f = random_form(rng, rng.randint(1, 4))
        image = pullback_curve(f)
        assert involution_biform(image) == image


def test_pullback_shares_mirrored_coefficients():
    rng = rng_for("pullback-shared")
    images = cover_images()
    for _ in range(40):
        f = random_form(rng, rng.randint(1, 6))
        image = pullback_curve(f)
        expected = substitute_form_oracle(f, images)
        assert image == expected and substitute_form(f, images) == expected
        for (i, j), c in image.terms.items():
            assert image.terms[(j, i)] is c


def test_pullback_edge_cases():
    zero = pullback_curve(Form.zero(PLANE, 4))
    assert zero.is_zero() and zero.bidegree == (4, 4)
    with pytest.raises(InhomogeneousImage, match="constant form"):
        pullback_curve(Form(PLANE, 0, {(0, 0, 0): QQ(3)}))
    with pytest.raises(ValueError):
        pullback_curve(Form.variable(("x", "y", "z", "w"), "w"))


# The parent's inverses of the cover, kept as oracles: they solve linear
# systems where ``descend``, ``divide_by_ram`` and ``tangent_line`` read the
# answer off in closed form.


def _pullback_preimage_oracle(target, degree, variables=PLANE):
    """Solve pullback(c) == target for a plane form c of the given degree."""
    mono = monomial_basis(3, degree)
    cols = [pullback_curve(Form.monomial(variables, expo)).coeffs for expo in mono]
    rows = [list(r) for r in zip(*cols)]
    sol = solve_linear(rows, target.coeffs)
    if sol is None:
        return None
    return Form(variables, degree, dict(zip(mono, sol)))


def _divide_by_ram_oracle(biform):
    """Exact quotient by r = sv - tu, or None when not divisible."""
    d1, d2 = biform.bidegree
    q_basis = [(i, j) for i in range(d1) for j in range(d2)]
    r = ram_form()
    cols = [(BiForm((d1 - 1, d2 - 1), {e: ONE}) * r).coeffs for e in q_basis]
    rows = [list(rw) for rw in zip(*cols)]
    sol = solve_linear(rows, biform.coeffs)
    if sol is None:
        return None
    quot = BiForm((d1 - 1, d2 - 1), dict(zip(q_basis, sol)))
    return quot if quot * r == biform else None


def _split_11_biform_oracle(q):
    """Factor a (1,1)-biform as (a s + b t)(c u + d v), or None."""
    msu = q.terms.get((1, 1), ZERO)
    msv = q.terms.get((1, 0), ZERO)
    mtu = q.terms.get((0, 1), ZERO)
    mtv = q.terms.get((0, 0), ZERO)
    if msu * mtv - msv * mtu != 0:
        return None
    if msu != 0 or msv != 0:
        a, b = ONE, (mtu / msu if msu != 0 else mtv / msv)
    else:
        a, b = ZERO, ONE
    if a != 0:
        c, d = msu / a, msv / a
    else:
        c, d = mtu / b, mtv / b
    left = BiForm((1, 0), {(1, 0): a, (0, 0): b})
    right = BiForm((0, 1), {(0, 1): c, (0, 0): d})
    return (left, right) if left * right == q else None


def _tangent_line_oracle(s0, t0):
    """The parent's line at (s0 : t0), rescaled to pull back to l * sigma(l)."""
    param = delta2_param()
    p = param_point(param, QQ(s0), QQ(t0))
    a = conic_matrix(param.conic)
    coeffs = [sum((p.coords[i] * a[i][j] for i in range(3)), ZERO) for j in range(3)]
    line = Form(PLANE, 1, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)))
    l_plus, _l_minus = _split_11_biform_oracle(pullback_curve(line))
    return _pullback_preimage_oracle(l_plus * involution_biform(l_plus), 1), l_plus


def _random_biform(rng, bidegree):
    d1, d2 = bidegree
    return BiForm(
        bidegree,
        {
            (i, j): QQ(rng.randint(-9, 9), rng.randint(1, 9))
            for i in range(d1 + 1)
            for j in range(d2 + 1)
        },
    )


def test_descend_matches_oracle_on_pullbacks_of_degree_1_to_6():
    rng = rng_for("descend-oracle")
    for degree in range(1, 7):
        for _ in range(4):
            c = random_form(rng, degree)
            b = pullback_curve(c)
            assert descend(b) == _pullback_preimage_oracle(b, degree) == c
            # every sigma-invariant biform is a pullback, so move one
            # coefficient off the diagonal
            i = rng.randint(0, degree)
            j = rng.choice([k for k in range(degree + 1) if k != i])
            bump = BiForm(b.bidegree, {(i, j): ONE})
            assert descend(b + bump) is None
            assert _pullback_preimage_oracle(b + bump, degree) is None
    assert descend(_random_biform(rng, (2, 3))) is None


def test_divide_by_ram_matches_oracle():
    rng = rng_for("divide-by-ram-oracle")
    r = ram_form()
    for _ in range(30):
        d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
        q = _random_biform(rng, (d1 - 1, d2 - 1))
        product = q * r
        assert divide_by_ram(product) == _divide_by_ram_oracle(product) == q
        off = product + BiForm((d1, d2), {(d1, d2): ONE})
        assert divide_by_ram(off) is None
        assert _divide_by_ram_oracle(off) is None
    assert divide_by_ram(BiForm((0, 3), {(0, 1): ONE})) is None


def test_tangent_line_matches_oracle():
    for j in range(21):
        line, l = tangent_line(1, j)
        assert (line, l) == _tangent_line_oracle(1, j)
        assert pullback_curve(line) == l * involution_biform(l)
    # the line split7-24's certificate cites
    line, l = tangent_line(1, 2)
    assert line == parse_form("x + 1/4*y - 1/2*z", PLANE)
    assert l == BiForm((1, 0), {(1, 0): ONE, (0, 0): QQ(-1, 2)})
    assert tangent_line(0, 1)[0] == parse_form("x", PLANE)
    with pytest.raises(ValueError):
        tangent_line(0, 0)
