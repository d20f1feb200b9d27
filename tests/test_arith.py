import math

import pytest

from splitcurves.arith import (
    BinForm,
    NumberField,
    UPoly,
    _bounded_rational_roots,
    _zz_mul,
    _zz_primitive,
    binary_form_sqrt,
    upoly_factor,
    upoly_gcd,
    upoly_is_irreducible,
)
from splitcurves.errors import DegreeTooLarge, ReducibleMinimalPolynomial
from splitcurves.scalars import QQ

from conftest import rng_for, random_rat


def poly(*coeffs):
    return UPoly(list(coeffs))


# -- independent irreducibility oracle --------------------------------------
#
# For a monic integer polynomial, any monic factor has integer coefficients
# whose roots are among the polynomial's roots, so the Cauchy bound on the
# roots bounds every factor coefficient.  Exhaustive search over that box
# decides the existence of factors of degree 1..3, which settles degree <= 7.


def _cauchy_bound(p):
    return 1 + max(abs(int(c.numerator)) for c in p.coeffs[:-1])


def _divides(p, q):
    return (p % q).is_zero()


def oracle_has_small_factor(p):
    bound = _cauchy_bound(p)
    const = int(p.coeffs[0].numerator)
    divisors = [d for d in range(1, abs(const) + 1) if const % d == 0]
    for d in divisors:
        for s in (d, -d):
            if _divides(p, poly(-s, 1)):
                return True
    if p.degree() < 4:
        return False
    b2 = int(bound * 2)
    c_candidates = [s * d for d in divisors for s in (1, -1)]
    for b in range(-b2, b2 + 1):
        for c in c_candidates:
            if _divides(p, poly(c, b, 1)):
                return True
    if p.degree() < 6:
        return False
    c2 = int(3 * bound * bound)
    for b in range(-b2, b2 + 1):
        for c in range(-c2, c2 + 1):
            for d in c_candidates:
                if _divides(p, poly(d, c, b, 1)):
                    return True
    return False


def test_difference_of_squares():
    facs = upoly_factor(poly(-1, 0, 1))
    assert [(f.coeffs, m) for f, m in facs] == [
        ((QQ(-1), QQ(1)), 1),
        ((QQ(1), QQ(1)), 1),
    ]


def test_degree_six_minimal_polynomial_irreducible():
    p = poly(1, 3, 3, 1, 3, 3, 1)
    assert not oracle_has_small_factor(p)
    facs = upoly_factor(p)
    assert len(facs) == 1 and facs[0][1] == 1
    assert facs[0][0] == p


def test_golden_ratio_polynomial_irreducible():
    p = poly(-1, -1, 1)
    # rational-root test: candidates are +-1, neither is a root
    assert p.eval(QQ(1)) != 0 and p.eval(QQ(-1)) != 0
    assert upoly_is_irreducible(p)


def test_quartic_node_polynomial_irreducible():
    assert upoly_is_irreducible(poly(-1, 0, 2, 0, 4))


def test_factor_reconstruction_deterministic_random():
    rng = rng_for("factor-reconstruction")
    for _ in range(40):
        f = poly(1)
        for _k in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            coeffs = [random_rat(rng, 5) for _ in range(deg)] + [QQ(1)]
            cand = UPoly(coeffs)
            f = f * cand ** rng.randint(1, 2)
        f = f.scale(random_rat(rng, 5) or QQ(1))
        if f.degree() > 14 or f.is_zero():
            continue
        facs = upoly_factor(f)
        rebuilt = UPoly([f.lc()])
        for g, m in facs:
            rebuilt = rebuilt * g**m
        assert rebuilt == f
        for g, _m in facs:
            assert g.lc() == 1


def brute_force_rational_roots(ints, bound=30):
    """Oracle: evaluate every p/q with |p|, q <= bound in rationals."""
    f = UPoly([QQ(c) for c in ints])
    roots = set()
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1 and f.eval(QQ(p) / QQ(q)) == 0:
                roots.add(QQ(p) / QQ(q))
    return sorted(roots)


def test_rational_root_scan_matches_brute_force():
    rng = rng_for("rational-root-scan")
    zero_constant = repeated = beyond_bound = 0
    for _ in range(80):
        ints = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(rng.randint(1, 3))]
        linears = []
        for _k in range(rng.randint(0, 4)):
            # roots p/q up to 35, so some lie outside the scan bound of 30
            p, q = rng.randint(-35, 35), rng.randint(1, 35)
            linears.append([-p, q])
            beyond_bound += abs(p) > 30 or q > 30
        if linears and rng.random() < 0.3:
            linears.append(linears[0])
            repeated += 1
        if rng.random() < 0.25:
            ints = [0] * rng.randint(1, 2) + ints
            zero_constant += 1
        for lin in linears:
            ints = _zz_mul(ints, lin)
        ints, _ = _zz_primitive(ints)
        if len(ints) < 2:
            continue
        assert _bounded_rational_roots(ints) == brute_force_rational_roots(ints), ints
    assert zero_constant and repeated and beyond_bound


def test_linear_factor_outside_scan_bound():
    # 31x - 2 has its root 2/31 outside the scan; Zassenhaus still finds it
    f = poly(-2, 31) * poly(1, 0, 1)
    assert _bounded_rational_roots([-2, 31, -2, 31]) == []
    facs = upoly_factor(f)
    assert [(g.coeffs, m) for g, m in facs] == [
        ((QQ(-2, 31), QQ(1)), 1),
        ((QQ(1), QQ(0), QQ(1)), 1),
    ]


def test_multiplicities():
    f = poly(-5, 1) ** 3 * poly(1, 0, 1)
    facs = dict((tuple(g.coeffs), m) for g, m in upoly_factor(f))
    assert facs[(QQ(-5), QQ(1))] == 3
    assert facs[(QQ(1), QQ(0), QQ(1))] == 1


def test_degree_bound_enforced():
    f = poly(1, 1) ** 25
    with pytest.raises(DegreeTooLarge):
        upoly_factor(f)
    assert upoly_factor(f, max_degree=25)


def test_gcd_and_divmod():
    a = poly(-1, 0, 1)
    b = poly(1, 1)
    assert upoly_gcd(a, b) == b
    q, r = a.divmod(b)
    assert q * b + r == a and r.is_zero()


# -- binary form square roots ------------------------------------------------


def test_sqrt_examples():
    assert binary_form_sqrt(BinForm(2, [1, 2, 1])) == BinForm(1, [1, 1])
    assert binary_form_sqrt(BinForm(4, [0, 0, 1, 0, 0])) == BinForm(2, [0, 1, 0])
    assert binary_form_sqrt(BinForm(2, [2, 0, 0])) is None
    assert binary_form_sqrt(BinForm(3, [1, 0, 0, 1])) is None


def test_sqrt_roundtrip_200_cases():
    rng = rng_for("binary-sqrt")
    hits = 0
    while hits < 200:
        deg = rng.randint(1, 6)
        coeffs = [random_rat(rng, 7) for _ in range(deg + 1)]
        g = BinForm(deg, coeffs)
        if g.is_zero():
            continue
        hits += 1
        root = binary_form_sqrt(g * g)
        assert root is not None and root in (g, -g)


# -- number fields -----------------------------------------------------------


def test_number_field_construction_checks_irreducibility():
    with pytest.raises(ReducibleMinimalPolynomial):
        NumberField(poly(-1, 0, 1))


def test_generator_satisfies_minimal_polynomial():
    mp = poly(1, 3, 3, 1, 3, 3, 1)
    field = NumberField(mp)
    a = field.gen()
    assert (mp.eval(a)).is_zero()


def test_field_arithmetic_properties():
    rng = rng_for("nf-arith")
    field = NumberField(poly(-1, 0, 2, 0, 4))

    def rand_elem():
        return field.elem([random_rat(rng, 5) for _ in range(field.degree)])

    for _ in range(200):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inv()) == field.one()


def test_rational_canonical_form():
    assert QQ(2, 4) == QQ(1, 2)
    assert str(QQ(2, 4)) == "1/2"
    assert QQ(-3, -6) == QQ(1, 2)
