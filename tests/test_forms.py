import pytest

from splitcurves.arith import BinForm, NumberField, UPoly
from splitcurves.errors import NotHomogeneous, ParseError
from splitcurves.forms import (
    BiForm,
    Form,
    ProjPoint,
    compose_form,
    euler_check,
    form_to_str,
    parse_form,
    parse_univariate,
    point,
    substitute_form,
)
from splitcurves.scalars import QQ

from conftest import PLANE, rng_for, random_form, random_rat


def test_parse_basic_forms():
    f = parse_form("x^3+y^3+z^3", PLANE)
    assert f.degree == 3 and len(f.terms) == 3
    d2 = parse_form("z^2-4*x*y", PLANE)
    assert d2.terms == {(0, 0, 2): QQ(1), (1, 1, 0): QQ(-4)}
    assert parse_form("z^2-4xy", PLANE) == d2


def test_parse_rejects_inhomogeneous_with_monomials():
    with pytest.raises(NotHomogeneous) as err:
        parse_form("x+y^2", PLANE)
    assert "x" in str(err.value) and "y^2" in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_form("x^3 + q^3", PLANE)
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_form("x^(2)", PLANE)
    with pytest.raises(ParseError):
        parse_form("x^3 + ", PLANE)


def test_rational_coefficients_and_juxtaposition():
    f = parse_form("1/2*x^2 - 3/4*y*z", PLANE)
    assert f.terms[(2, 0, 0)] == QQ(1, 2)
    assert f.terms[(0, 1, 1)] == QQ(-3, 4)
    assert parse_form("4xy", PLANE) == parse_form("4*x*y", PLANE)
    assert parse_form("x^2y", PLANE) == parse_form("x^2*y", PLANE)


def test_print_parse_roundtrip_registry_and_random():
    rng = rng_for("roundtrip")
    samples = [
        parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE),
        parse_form("z^2-4xy", PLANE),
    ]
    for _ in range(200):
        samples.append(random_form(rng, rng.randint(1, 5)))
    for f in samples:
        assert parse_form(form_to_str(f), f.variables) == f


def test_parse_univariate():
    p = parse_univariate("a^6 + 3*a^5 + 3*a^4 + a^3 + 3*a^2 + 3*a + 1")
    assert p == UPoly([1, 3, 3, 1, 3, 3, 1])
    assert parse_univariate("-1 - a + a^2") == UPoly([-1, -1, 1])


def test_eval_examples():
    d2 = parse_form("z^2-4xy", PLANE)
    assert d2.eval([QQ(1), QQ(0), QQ(0)]) == 0
    field = NumberField(UPoly([1, 3, 3, 1, 3, 3, 1]))
    a = field.gen()
    node = [a, -(a**5) - 2 * a**4 - a**3 - 3 * a - 1, field.one()]
    conic = parse_form("xy+yz+zx", PLANE)
    cubic = parse_form("x^3+y^3+z^3", PLANE)
    assert conic.eval(node).is_zero()
    assert cubic.eval(node).is_zero()


def test_eval_scaling_homogeneity():
    rng = rng_for("eval-scaling")
    for _ in range(200):
        f = random_form(rng, rng.randint(1, 4))
        coords = [random_rat(rng, 5) for _ in range(3)]
        lam = random_rat(rng, 5)
        if lam == 0:
            lam = QQ(2)
        scaled = [lam * c for c in coords]
        assert f.eval(scaled) == lam**f.degree * f.eval(coords)


def test_substitution_cover_map():
    su = BiForm((1, 1), {(1, 1): 1})
    tv = BiForm((1, 1), {(0, 0): 1})
    svtu = BiForm((1, 1), {(1, 0): 1, (0, 1): 1})
    images = {"x": su, "y": tv, "z": svtu}
    x = Form.variable(PLANE, "x")
    assert substitute_form(x, images) == su
    d2 = parse_form("z^2-4xy", PLANE)
    r = BiForm((1, 1), {(1, 0): 1, (0, 1): -1})
    assert substitute_form(d2, images) == r * r


def test_substitution_identity_map():
    images = {v: Form.variable(PLANE, v) for v in PLANE}
    rng = rng_for("subst-id")
    for _ in range(50):
        f = random_form(rng, rng.randint(1, 4))
        assert substitute_form(f, images) == f


def test_substitution_is_ring_homomorphism():
    rng = rng_for("subst-hom")
    images = {
        "x": BiForm((1, 1), {(1, 1): 1}),
        "y": BiForm((1, 1), {(0, 0): 1}),
        "z": BiForm((1, 1), {(1, 0): 1, (0, 1): 1}),
    }
    for _ in range(200):
        d = rng.randint(1, 3)
        f = random_form(rng, d)
        g = random_form(rng, d)
        h = random_form(rng, rng.randint(1, 2))
        assert substitute_form(f, images) + substitute_form(g, images) == (
            substitute_form(f + g, images)
            if not (f + g).is_zero()
            else substitute_form(f, images) + substitute_form(g, images)
        )
        assert substitute_form(f * h, images) == substitute_form(
            f, images
        ) * substitute_form(h, images)


def test_partials_examples():
    cubic = parse_form("x^3+y^3+z^3", PLANE)
    assert form_to_str(cubic.partial(0)) == "3*x^2"
    d2 = parse_form("z^2-4xy", PLANE)
    assert [form_to_str(p) for p in d2.partials()] == ["-4*y", "-4*x", "2*z"]


def test_euler_identity():
    rng = rng_for("euler")
    gamma6 = parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE)
    assert euler_check(gamma6)
    for _ in range(200):
        assert euler_check(random_form(rng, rng.randint(1, 5)))


def test_partials_commute():
    rng = rng_for("partials-commute")
    for _ in range(200):
        f = random_form(rng, rng.randint(2, 5))
        for i in range(3):
            for j in range(i + 1, 3):
                assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_projective_point_equality_and_orbits():
    assert point(2, 4, 6).eq_proj(point(1, 2, 3))
    assert not point(1, 0, 0).eq_proj(point(0, 1, 0))
    field = NumberField(UPoly([-1, -1, 1]))
    b = field.gen()
    orbit = ProjPoint([b, field.one(), field.zero()])
    assert orbit.orbit_size() == 2
    assert orbit.eq_proj(ProjPoint([b * 2, field.from_rat(QQ(2)), field.zero()]))


def test_compose_form_matrix_action():
    rng = rng_for("compose")
    swap = [[QQ(0), QQ(1), QQ(0)], [QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(0), QQ(1)]]
    f = parse_form("x^2*y - z^3", PLANE)
    assert compose_form(f, swap) == parse_form("y^2*x - z^3", PLANE)
    for _ in range(20):
        f = random_form(rng, 3)
        coords = [random_rat(rng, 4) for _ in range(3)]
        m = [[random_rat(rng, 3) for _ in range(3)] for _ in range(3)]
        image = [sum(m[i][j] * coords[j] for j in range(3)) for i in range(3)]
        if all(c == 0 for c in image):
            continue
        assert compose_form(f, m).eval(coords) == f.eval(image)


def test_forms_share_exponent_keys():
    f = parse_form("x^2 + 3yz", PLANE)
    g = parse_form("2x^2 - yz", PLANE)
    for expo in f.terms:
        (key,) = [e for e in g.terms if e == expo]
        assert key is expo
    a = BiForm((1, 1), {(1, 0): 1})
    b = BiForm((1, 1), {(1, 0): 2, (0, 1): 1})
    assert next(iter(a.terms)) is next(e for e in b.terms if e == (1, 0))


def test_constructors_convert_to_rationals_and_keep_rationals():
    half = QQ(1, 2)
    f = Form(PLANE, 1, {(1, 0, 0): 2, (0, 1, 0): "3/4", (0, 0, 1): half})
    b = BiForm((1, 1), {(1, 0): 2, (0, 1): "-5/3", (1, 1): half})
    bin_form = BinForm(2, [2, "7/2", half])
    f_coeffs = [f.terms[e] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    b_coeffs = [b.terms[e] for e in ((1, 0), (0, 1), (1, 1))]
    assert f_coeffs == [QQ(2), QQ(3, 4), half]
    assert b_coeffs == [QQ(2), QQ(-5, 3), half]
    assert list(bin_form.coeffs) == [QQ(2), QQ(7, 2), half]
    for coeffs in (f_coeffs, b_coeffs, list(bin_form.coeffs)):
        assert all(type(c) is QQ for c in coeffs)
        assert coeffs[2] is half
