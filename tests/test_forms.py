import math

import pytest

from splitcurves.arith import BinForm, NFElem, NumberField, UPoly
from splitcurves.errors import InhomogeneousImage, NotHomogeneous, ParseError
from splitcurves.forms import (
    BiForm,
    Form,
    ProjPoint,
    compose_form,
    form_to_str,
    parse_form,
    parse_univariate,
    point,
    substitute_form,
)
from splitcurves.scalars import QQ

from conftest import (
    PLANE,
    SPACE,
    FractionBiForm,
    descend_oracle,
    euler_check,
    rng_for,
    random_form,
    random_rat,
    substitute_form_oracle,
)


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


# -- f(M x) by substitution of linear forms, kept as an oracle ---------------


def _compose_form_oracle(f, matrix):
    """f(M x) as the parent computed it: the rows of M as linear Form images,
    substituted with rational Form products."""
    n = len(f.variables)
    images = {}
    for i, v in enumerate(f.variables):
        terms = {}
        for j in range(n):
            if matrix[i][j] != 0:
                terms[tuple(int(k == j) for k in range(n))] = QQ(matrix[i][j])
        images[v] = Form(f.variables, 1, terms)
    if f.is_zero():
        return f
    return substitute_form_oracle(f, images)


def _random_matrix(rng, n, kind):
    if kind == "integer":
        return [[QQ(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    # rows with different denominators: row i has entries p / (i + 2)^k
    m = [[QQ(rng.randint(-5, 5), (i + 2) ** rng.randint(0, 2)) for _ in range(n)]
         for i in range(n)]
    if kind == "singular":
        m[-1] = [a + QQ(1, 3) * b for a, b in zip(m[0], m[1])]
    elif kind == "zero-row":
        m[rng.randrange(n)] = [QQ(0)] * n
    return m


@pytest.mark.parametrize("variables", [PLANE, SPACE])
def test_compose_form_matches_substitution_oracle(variables):
    rng = rng_for("compose-oracle-%d" % len(variables))
    n = len(variables)
    for kind in ("integer", "rational", "singular", "zero-row"):
        for _ in range(15):
            f = random_form(rng, rng.randint(1, 5 if n == 3 else 4), nvars=n)
            m = _random_matrix(rng, n, kind)
            assert compose_form(f, m) == _compose_form_oracle(f, m)


def test_compose_form_edge_cases():
    m = [[QQ(1, 2), QQ(1), QQ(0)], [QQ(0), QQ(2, 3), QQ(1)], [QQ(1), QQ(0), QQ(5)]]
    zero = Form.zero(PLANE, 3)
    assert compose_form(zero, m) is zero
    constant = Form(PLANE, 0, {(0, 0, 0): QQ(7)})
    with pytest.raises(InhomogeneousImage, match="constant form"):
        compose_form(constant, m)
    with pytest.raises(InhomogeneousImage, match="constant form"):
        _compose_form_oracle(constant, m)
    # a matrix that kills the form gives the zero form of the same degree
    collapse = [[QQ(2), QQ(0), QQ(0)], [QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(0), QQ(1)]]
    killed = compose_form(parse_form("x - 2y", PLANE), collapse)
    assert killed.is_zero() and killed.degree == 1


# -- evaluation with a power per monomial, kept as an oracle -----------------


def _eval_oracle(f, coords):
    total = None
    for expo, coeff in sorted(f.terms.items()):
        term = coeff
        for c, e in zip(coords, expo):
            if e:
                term = term * c**e
        total = term if total is None else total + term
    return total


def test_eval_matches_oracle_at_rational_and_number_field_points():
    rng = rng_for("eval-oracle")
    field = NumberField(UPoly([1, 3, 3, 1, 3, 3, 1]))
    a = field.gen()
    for _ in range(60):
        f = random_form(rng, rng.randint(1, 6))
        rational = [random_rat(rng, 5) for _ in range(3)]
        assert f.eval(rational) == _eval_oracle(f, rational)
        conjugate = [field.elem([random_rat(rng, 3) for _ in range(rng.randint(1, 6))])
                     for _ in range(2)] + [a]
        value = f.eval(conjugate)
        assert value == _eval_oracle(f, conjugate) and value.owner == field
    g = random_form(rng, 4, nvars=4)
    point4 = [random_rat(rng, 5) for _ in range(4)]
    assert g.eval(point4) == _eval_oracle(g, point4)


# -- evaluation by one BinForm substitution, as the parent computed it -------


def _eval_by_substitution(f, coords):
    """The value of f at coords by one substitution of BinForm images: a
    rational coordinate is a constant BinForm, a number-field one its
    power-basis polynomial, reduced modulo p once at the end."""
    field = next((c.owner for c in coords if isinstance(c, NFElem)), None)
    if f.degree == 0:
        value = f.terms.get((0,) * len(coords), QQ(0))
        return value if field is None else field.from_rat(value)
    if not f.terms:
        return QQ(0) if field is None else field.zero()
    if field is None:
        images = [BinForm(0, [c]) for c in coords]
    else:
        images = [BinForm(field.degree - 1, field.coerce(c).coords) for c in coords]
    value = substitute_form(f, dict(zip(f.variables, images)))
    return value.coeffs[0] if field is None else field.elem(value.coeffs)


@pytest.mark.parametrize("nvars", [3, 4])
def test_integer_eval_matches_substitution_on_curves_and_surfaces(nvars):
    rng = rng_for("eval-substitution-%d" % nvars)
    variables = PLANE if nvars == 3 else SPACE
    # the second field's integer scaling has leading coefficient 2
    fields = [NumberField(UPoly([-2, 0, 1])), NumberField(UPoly([QQ(1, 2), 0, 0, 1]))]
    forms = [random_form(rng, rng.randint(1, 6), nvars=nvars) for _ in range(40)]
    forms += [
        Form.zero(variables, 3),
        Form.zero(variables, 0),
        Form(variables, 0, {(0,) * nvars: QQ(-7, 3)}),
        Form(variables, 1, {(0,) * (nvars - 1) + (1,): QQ(5, 2)}),
    ]
    for f in forms:
        for _ in range(3):
            rational = [random_rat(rng, 7) for _ in range(nvars)]
            value = f.eval(rational)
            assert value == _eval_by_substitution(f, rational) and type(value) is QQ
        assert f.eval([0] * nvars) == _eval_by_substitution(f, [QQ(0)] * nvars)
        field = fields[rng.randint(0, 1)]
        conjugate = [field.elem(_coords(rng, field.degree)) for _ in range(nvars - 1)]
        conjugate.insert(rng.randint(0, nvars - 1), field.gen())
        value = f.eval(conjugate)
        assert value == _eval_by_substitution(f, conjugate) and value.owner == field


def _coords(rng, n):
    return [QQ(0) if rng.random() < 0.3 else random_rat(rng, 12) for _ in range(n)]


def test_eval_of_zero_and_constant_forms():
    # the value lies in the point's field: an NFElem as soon as one
    # coordinate is a field element, wherever it sits, a rational otherwise
    field = NumberField(UPoly([-2, 0, 1]))
    a = field.gen()
    rational = [QQ(1), QQ(2), QQ(3)]
    mixed = [[a, QQ(1), a + 1], [QQ(1), a, a], [QQ(0), QQ(5), a], [a, a, a]]
    zero = Form.zero(PLANE, 3)
    constant = Form(PLANE, 0, {(0, 0, 0): QQ(-7, 3)})
    zero_constant = Form.zero(PLANE, 0)
    for form, expected in ((zero, 0), (constant, QQ(-7, 3)), (zero_constant, 0)):
        value = form.eval(rational)
        assert value == expected and type(value) is QQ
        for coords in mixed:
            value = form.eval(coords)
            assert type(value) is NFElem and value.owner == field
            assert value == field.from_rat(expected)


def test_eval_matches_oracle_over_fields_of_several_degrees():
    # fields of degree 2, 4 and 6; coordinate lists mixing rationals and
    # field elements; forms in three and four variables
    rng = rng_for("eval-oracle-fields")
    fields = [
        NumberField(UPoly([-2, 0, 1])),
        NumberField(UPoly([-1, 0, 2, 0, 4])),
        NumberField(UPoly([1, 3, 3, 1, 3, 3, 1])),
    ]
    for field in fields:
        n = field.degree
        for _ in range(20):
            nvars = rng.choice((3, 4))
            f = random_form(rng, rng.randint(1, 5), nvars=nvars)
            coords = [
                random_rat(rng, 4)
                if rng.random() < 0.4
                else field.elem([random_rat(rng, 3) for _ in range(rng.randint(1, n))])
                for _ in range(nvars)
            ]
            coords[rng.randrange(nvars)] = field.gen()
            value = f.eval(coords)
            assert value == _eval_oracle(f, coords) and value.owner == field


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
    assert all(type(c) is QQ for c in b_coeffs)
    for coeffs in (f_coeffs, list(bin_form.coeffs)):
        assert all(type(c) is QQ for c in coeffs)
        assert coeffs[2] is half
    # a biform keeps integers over one denominator, and shows rationals
    assert (b.nums, b.den) == ((0, -10, 12, 3), 6)


# -- one substitution kernel for every image kind, against the oracle -------


def _random_form_images(rng, variables, degree, nvars):
    """Images with a different denominator in each: image i has entries
    p / (i + 2)^k, so every image scales by its own lcm."""
    images = {}
    for i, v in enumerate(variables):
        g = random_form(rng, degree, nvars=nvars, sparsity=0.7)
        images[v] = g.scale(QQ(rng.choice([1, -1]), (i + 2) ** rng.randint(1, 2)))
    return images


@pytest.mark.parametrize("variables", [PLANE, SPACE])
def test_substitute_form_matches_oracle_on_form_images(variables):
    rng = rng_for("substitute-forms-%d" % len(variables))
    for _ in range(40):
        f = random_form(rng, rng.randint(1, 4 if variables is PLANE else 3),
                        nvars=len(variables))
        target = rng.choice([3, 4])
        images = _random_form_images(rng, variables, rng.randint(1, 2), target)
        assert substitute_form(f, images) == substitute_form_oracle(f, images)


def test_substitute_form_on_binary_images_matches_products():
    # oracle: the products of the images' powers, term by term
    rng = rng_for("substitute-binforms")
    for _ in range(60):
        k = rng.randint(1, 3)
        f = random_form(rng, rng.randint(1, 4))
        images = {v: BinForm(k, [random_rat(rng, 6) for _ in range(k + 1)])
                  for v in PLANE}
        expected = BinForm.zero(f.degree * k)
        for expo, c in f.terms.items():
            term = BinForm(0, [c])
            for v, e in zip(PLANE, expo):
                term = term * images[v] ** e
            expected = expected + term
        assert substitute_form(f, images) == expected


def test_substitute_form_edge_cases():
    w = Form.variable(SPACE, "w")
    plane_images = {v: Form.variable(SPACE, v) + w for v in PLANE}
    binary_images = {v: BinForm(2, [QQ(1), QQ(i), QQ(1, 2)])
                     for i, v in enumerate(PLANE)}
    cover = {
        "x": BiForm((1, 1), {(1, 1): 1}),
        "y": BiForm((1, 1), {(0, 0): 1}),
        "z": BiForm((1, 1), {(1, 0): 1, (0, 1): 1}),
    }
    zero = Form.zero(PLANE, 3)
    assert substitute_form(zero, plane_images) == Form.zero(SPACE, 3)
    assert substitute_form(zero, binary_images) == BinForm.zero(6)
    assert substitute_form(zero, cover) == BiForm.zero((3, 3))
    constant = Form(PLANE, 0, {(0, 0, 0): QQ(5)})
    for images in (plane_images, binary_images, cover):
        with pytest.raises(InhomogeneousImage, match="constant form"):
            substitute_form(constant, images)
    f = parse_form("x^2 + yz", PLANE)
    mixed_kind = dict(cover, z=Form.variable(PLANE, "z"))
    mixed_degree = [
        dict(plane_images, z=Form.variable(SPACE, "z") ** 2),
        dict(plane_images, z=Form.variable(PLANE, "z")),
        dict(binary_images, z=BinForm(1, [1, 1])),
        dict(cover, z=BiForm((1, 2), {(1, 0): 1})),
    ]
    for images in [mixed_kind] + mixed_degree:
        with pytest.raises(InhomogeneousImage):
            substitute_form(f, images)


def _biform_product_oracle(a, b):
    """The product term by term from the keyed coefficients."""
    acc = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, QQ(0)) + c1 * c2
    bidegree = (a.bidegree[0] + b.bidegree[0], a.bidegree[1] + b.bidegree[1])
    return BiForm(bidegree, acc)


def test_biform_product_matches_the_termwise_oracle():
    rng = rng_for("biform-product-oracle")
    seen_zero = False
    for _ in range(300):
        factors = []
        for _side in range(2):
            bidegree = (rng.randint(0, 4), rng.randint(0, 4))
            density = rng.choice((0.0, 0.3, 0.8, 1.0))
            terms = {
                (i, j): random_rat(rng, 5)
                for i in range(bidegree[0] + 1)
                for j in range(bidegree[1] + 1)
                if rng.random() < density
            }
            factors.append(BiForm(bidegree, terms))
        a, b = factors
        seen_zero |= a.is_zero() or b.is_zero()
        product = a * b
        assert product == _biform_product_oracle(a, b)
        assert b * a == product
    assert seen_zero


def _form_product_oracle(f, g):
    """The product as the parent computed it, kept as an oracle: termwise in
    rationals, exponent vectors added componentwise."""
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, QQ(0)) + c1 * c2
    return Form(f.variables, f.degree + g.degree, terms)


@pytest.mark.parametrize("variables", [PLANE, SPACE])
def test_form_product_matches_the_termwise_oracle(variables):
    rng = rng_for("form-product-oracle-%d" % len(variables))
    seen = set()
    for _ in range(150):
        factors = []
        for _side in range(2):
            degree = rng.randint(0, 4)
            kind = rng.choice(("zero", "dense", "sparse"))
            if kind == "zero":
                factors.append(Form.zero(variables, degree))
            else:
                sparsity = 1.0 if kind == "dense" else 0.3
                f = random_form(rng, degree, nvars=len(variables), sparsity=sparsity)
                factors.append(f.scale(QQ(1, rng.randint(1, 12))))
        a, b = factors
        seen.add((a.is_zero() or b.is_zero(), min(a.degree, b.degree) == 0))
        product = a * b
        assert product == _form_product_oracle(a, b)
        assert b * a == product
        assert all(type(c) is QQ and c for c in product.terms.values())
        # the product keys its terms by the shared exponent tuples
        g = Form(variables, product.degree, dict(product.terms))
        assert all(k1 is k2 for k1, k2 in zip(product.terms, g.terms))
    # zero factors and constant factors were both drawn
    assert {(True, False), (False, True), (False, False)} <= seen


# -- the integer store of BiForm against the parent's Fraction biform --------


def _random_biform(rng, bidegree, density, height=7):
    """A biform with coefficients p/q, q up to ``height``, at ``density``."""
    d1, d2 = bidegree
    terms = {
        (i, j): random_rat(rng, height)
        for i in range(d1 + 1)
        for j in range(d2 + 1)
        if rng.random() < density
    }
    return BiForm(bidegree, terms)


def _assert_canonical(b):
    assert all(type(v) is int for v in b.nums) and type(b.den) is int
    assert b.den > 0 and math.gcd(b.den, *b.nums) == 1
    assert (b.nums, b.den) == FractionBiForm.of(b).store()


def test_biform_kernels_match_the_fraction_oracle():
    from splitcurves.cover import descend, pullback_curve

    rng = rng_for("biform-integer-store")
    seen = set()
    for _ in range(250):
        bidegree = (rng.randint(0, 4), rng.randint(0, 4))
        a, b = (_random_biform(rng, bidegree, rng.choice((0.0, 0.4, 1.0))) for _ in "ab")
        c = _random_biform(rng, (rng.randint(0, 3), rng.randint(0, 3)), rng.choice((0.0, 0.5, 1.0)))
        fa, fb, fc = (FractionBiForm.of(x) for x in (a, b, c))
        seen.add((a.is_zero(), c.is_zero()))
        for got, want in (
            (a + b, fa + fb),
            (a - b, fa - fb),
            (a - a, fa - fa),
            (a * c, fa * fc),
            (a.involution(), fa.involution()),
        ):
            _assert_canonical(got)
            assert FractionBiForm.of(got) == want
        for k in (random_rat(rng), QQ(0), -1, 3):
            assert FractionBiForm.of(a.scale(k)) == fa.scale(k)
        assert (a == b) == (fa == fb) and a == BiForm(bidegree, a.terms)
        assert hash(a) == hash(BiForm(bidegree, dict(a.terms)))
        # a product divides by either factor; a perturbed one by neither
        if not c.is_zero():
            product = a * c
            assert product.quotient(c) == a
            assert FractionBiForm.of(product.quotient(c)) == (fa * fc).quotient(fc)
            bump = BiForm(product.bidegree, {(0, 0): 1})
            off = product + bump
            got = off.quotient(c)
            want = (fa * fc + FractionBiForm.of(bump)).quotient(fc)
            assert (got is None) == (want is None)
            if got is not None:
                assert FractionBiForm.of(got) == want
        for u0, v0 in ((random_rat(rng), random_rat(rng)), (0, 1), (QQ(2, 3), 0), (3, -2)):
            assert a.specialize_second(u0, v0) == fa.specialize_second(u0, v0)
        # descend: pullbacks have a preimage; a random (d, d) biform mostly not
        f = random_form(rng, rng.randint(1, 4)).scale(random_rat(rng) or 1)
        pulled = pullback_curve(f)
        assert descend(pulled) == descend_oracle(pulled) == f
        square = _random_biform(rng, (bidegree[0] + 1,) * 2, 0.7)
        assert descend(square) == descend_oracle(square)
    assert {(True, False), (False, True), (False, False)} <= seen


def test_a_kept_sextic_pullback_is_an_int_tuple_with_shared_mirrored_numerators():
    from splitcurves.cover import pullback_curve

    rng = rng_for("kept-pullback")
    for _ in range(10):
        f = random_form(rng, 6, height=4)
        image = pullback_curve(f.scale(QQ(1, rng.randint(1, 6))))
        assert image.bidegree == (6, 6) and len(image.nums) == 49
        _assert_canonical(image)
        assert not any(isinstance(v, QQ) for v in image.nums)
        for i in range(7):
            for j in range(i):
                assert image.nums[i * 7 + j] is image.nums[j * 7 + i]
