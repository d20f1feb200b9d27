from splitcurves.cover import (
    CoverContext,
    involution_biform,
    pullback_curve,
    ram_form,
)
from splitcurves.forms import BiForm, Form, parse_form, substitute_form
from splitcurves.scalars import QQ

from conftest import PLANE, rng_for, random_form


def test_pullback_of_coordinates():
    assert pullback_curve(Form.variable(PLANE, "x")) == BiForm((1, 1), {(1, 1): 1})
    assert pullback_curve(Form.variable(PLANE, "y")) == BiForm((1, 1), {(0, 0): 1})
    assert pullback_curve(Form.variable(PLANE, "z")) == BiForm(
        (1, 1), {(1, 0): 1, (0, 1): 1}
    )


def test_branch_conic_pulls_back_to_ramification_square():
    ctx = CoverContext()
    r = ram_form()
    assert ctx.pullback(ctx.delta2) == r * r
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
    images = CoverContext().images
    for _ in range(40):
        f = random_form(rng, rng.randint(1, 6))
        image = pullback_curve(f)
        assert image == substitute_form(f, images)
        for (i, j), c in image.terms.items():
            assert image.terms[(j, i)] is c
