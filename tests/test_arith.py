import itertools
import math

import pytest

from splitcurves import arith
from splitcurves.arith import (
    BinForm,
    NumberField,
    UPoly,
    _zk_gcd,
    _zz_exquo,
    _zz_gcd,
    _zz_gcd_prs,
    _zz_mul,
    _zz_primitive,
    binary_form_sqrt,
    binform_gcd,
    binform_quotient,
    quotient_terms,
    sqrt_terms,
    upoly_factor,
    upoly_gcd,
    upoly_is_irreducible,
    upoly_squarefree,
)
from splitcurves.errors import (
    DegreeMismatch,
    ReducibleMinimalPolynomial,
)
from splitcurves.forms import monomial_basis
from splitcurves.linalg import solve_linear
from splitcurves.scalars import QQ, clear_denominators
from splitcurves.splitting import _binform_squarefree

from conftest import (
    nf_derivative,
    nf_from_ints,
    nf_gcd,
    nf_ints,
    nf_monic,
    nf_mul,
    random_form,
    random_rat,
    rng_for,
    up_add,
    up_derivative,
    up_mul,
    up_pow,
    up_sub,
    upoly_divmod,
)


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
    return upoly_divmod(p, q)[1].is_zero()


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
            f = up_mul(f, up_pow(cand, rng.randint(1, 2)))
        f = f.scale(random_rat(rng, 5) or QQ(1))
        if f.degree() > 14 or f.is_zero():
            continue
        facs = upoly_factor(f)
        rebuilt = UPoly([f.lc()])
        for g, m in facs:
            rebuilt = up_mul(rebuilt, up_pow(g, m))
        assert rebuilt == f
        for g, _m in facs:
            assert g.lc() == 1


def _zassenhaus_best_of_five(f):
    """The parent's Zassenhaus step, kept as the oracle: Berlekamp bases for
    the first five good primes, and the prime with the fewest modular
    factors (then the smallest) is lifted and recombined."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    lc = f[-1]
    norm = max(abs(a) for a in f)
    B = (math.isqrt(n + 1) + 1) * 2**n * norm * abs(lc)
    candidates = []
    for p in arith._primes():
        if p == 2 or lc % p == 0:
            continue
        fp = arith._gf_monic(arith._gf(f, p), p)
        if len(fp) - 1 != n:
            continue
        if len(arith._gf_gcd(fp, arith._gf_deriv(fp, p), p)) - 1 != 0:
            continue
        candidates.append((p, fp))
        if len(candidates) == 5:
            break
    bases = [(arith._gf_berlekamp_basis(fp, p), p, fp) for p, fp in candidates]
    _basis, p, fp = min(bases, key=lambda bpf: (len(bpf[0]), bpf[1]))
    modular = arith._gf_berlekamp(fp, p)
    if len(modular) == 1:
        return [f]
    l = max(1, math.ceil(math.log(2 * B + 1, p)))
    lifted = arith._hensel_lift(p, f, modular, l)
    pl = p**l
    result = []
    T = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(T):
        found = None
        for S in itertools.combinations(T, s):
            G = [f[-1]]
            for i in S:
                G = arith._zz_trunc(_zz_mul(G, lifted[i]), pl)
            H = [f[-1]]
            for i in T:
                if i not in S:
                    H = arith._zz_trunc(_zz_mul(H, lifted[i]), pl)
            if _zz_mul(G, H) == [a * f[-1] for a in f]:
                found = (S, _zz_primitive(G)[0], _zz_primitive(H)[0])
                break
        if found is None:
            s += 1
            continue
        S, Gp, Hp = found
        result.append(Gp)
        f = Hp
        T = [i for i in T if i not in S]
    result.append(f)
    return result


# x^8 - 40 x^6 + 352 x^4 - 960 x^2 + 576, the minimal polynomial of
# sqrt 2 + sqrt 3 + sqrt 5: irreducible, but a product of factors of degree
# at most 2 modulo every prime, so recombination does all the work
_SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def _random_factor_products(rng, count):
    """Seeded integer polynomials built from factors: linear ones (roots p/q
    with |p|, q up to 40), powers of x, repeated factors, the
    Swinnerton-Dyer octic and random ones of degree up to 8.  Most have
    degree <= 6, one in ten up to 12 and one in fifty up to 32."""
    out = []
    while len(out) < count:
        r = rng.random()
        top = 32 if r < 0.02 else 12 if r < 0.12 else 6
        f = [rng.randint(-5, 5) or 1]
        while True:
            kind = rng.random()
            if kind < 0.15:
                g = [0, 1]
            elif kind < 0.4:
                g = [rng.randint(-40, 40), rng.randint(1, 40)]
            elif kind < 0.45 and top == 32:
                g = _SWINNERTON_DYER_8
            else:
                deg = rng.randint(2, min(8, top))
                g = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 4)]
            mult = rng.choice((1, 1, 1, 2, 3))
            if len(f) - 1 + mult * (len(g) - 1) > top:
                break
            for _ in range(mult):
                f = _zz_mul(f, g)
        if len(f) > 1:
            out.append(f)
    return out


def test_factorization_equals_the_best_of_five_oracle(monkeypatch):
    rng = rng_for("zassenhaus-best-of-five")
    inputs = [_SWINNERTON_DYER_8] + _random_factor_products(rng, 2000)
    assert 28 <= max(len(f) - 1 for f in inputs) <= 32
    got = [upoly_factor(UPoly(f)) for f in inputs]
    monkeypatch.setattr(arith, "_zassenhaus", _zassenhaus_best_of_five)
    expected = [upoly_factor(UPoly(f)) for f in inputs]
    assert got == expected
    assert got[0] == [(UPoly(_SWINNERTON_DYER_8), 1)]


def brute_force_rational_roots(ints, bound):
    """Oracle: evaluate every p/q with |p|, q <= bound in rationals."""
    f = UPoly([QQ(c) for c in ints])
    roots = set()
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1 and f.eval(QQ(p) / QQ(q)) == 0:
                roots.add(QQ(p) / QQ(q))
    return sorted(roots)


def test_linear_factors_are_the_brute_force_rational_roots():
    # every rational root of these inputs has |p|, q <= 35: the base has
    # coefficients of absolute value <= 5, and each linear factor qx - p has
    # |p|, q <= 35, so the brute force over that box finds them all
    rng = rng_for("rational-root-scan")
    inputs = [[-2, 31], [-31, 1], _zz_mul([-2, 31], [-31, 1]), [-35, 0, 0, 35]]
    zero_constant = repeated = beyond_thirty = 0
    for _ in range(80):
        ints = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(rng.randint(1, 3))]
        linears = []
        for _k in range(rng.randint(0, 4)):
            p, q = rng.randint(-35, 35), rng.randint(1, 35)
            linears.append([-p, q])
            beyond_thirty += abs(p) > 30 or q > 30
        if linears and rng.random() < 0.3:
            linears.append(linears[0])
            repeated += 1
        if rng.random() < 0.25:
            ints = [0] * rng.randint(1, 2) + ints
            zero_constant += 1
        for lin in linears:
            ints = _zz_mul(ints, lin)
        inputs.append(ints)
    assert zero_constant and repeated and beyond_thirty
    for ints in inputs:
        if len(ints) < 2:
            continue
        linear = sorted(-g.coeffs[0] for g, _m in upoly_factor(UPoly(ints)) if g.degree() == 1)
        assert linear == brute_force_rational_roots(ints, 35), ints


def test_linear_factor_outside_scan_bound():
    # 31x - 2 has its root 2/31 beyond |p|, q <= 30
    f = up_mul(poly(-2, 31), poly(1, 0, 1))
    facs = upoly_factor(f)
    assert [(g.coeffs, m) for g, m in facs] == [
        ((QQ(-2, 31), QQ(1)), 1),
        ((QQ(1), QQ(0), QQ(1)), 1),
    ]


# -- squarefree decomposition: the parent's Yun over Q, kept as the oracle ---


def _yun_fraction_oracle(p):
    """Yun's algorithm in rational arithmetic: (monic part, multiplicity)."""
    f = p.monic()
    df = up_derivative(f)
    a0 = upoly_gcd(f, df)
    if a0.degree() == 0:
        return [(f, 1)]
    b = upoly_divmod(f, a0)[0]
    c = upoly_divmod(df, a0)[0]
    d = up_sub(c, up_derivative(b))
    out = []
    i = 1
    while b.degree() > 0:
        ai = upoly_gcd(b, d)
        if ai.degree() > 0:
            out.append((ai, i))
        b = upoly_divmod(b, ai)[0]
        c = upoly_divmod(d, ai)[0]
        d = up_sub(c, up_derivative(b))
        i += 1
    return out


def _squarefree_inputs(rng, count):
    """Seeded products of random factors to multiplicity 4, powers of x,
    constants, degrees 0 and 1, scaled by a rational unit of either sign."""
    out = [poly(7), poly(QQ(-3, 5)), poly(2, -3), poly(QQ(1, 2), QQ(-4, 3)), poly(0, 1)]
    while len(out) < count:
        f = poly(1)
        for _k in range(rng.randint(0, 4)):
            if rng.random() < 0.2:
                g = poly(0, 1)
            else:
                deg = rng.randint(1, 3)
                g = UPoly([random_rat(rng, 6) for _ in range(deg)] + [random_rat(rng, 6) or 1])
            f = up_mul(f, up_pow(g, rng.randint(1, 4)))
        if f.degree() <= 16:
            out.append(f.scale(random_rat(rng, 7) or -1))
    return out


def test_integer_yun_matches_the_fraction_oracle():
    inputs = _squarefree_inputs(rng_for("integer-yun"), 300)
    assert any(f.lc() < 0 for f in inputs) and any(f.lc().denominator > 1 for f in inputs)
    assert max(m for f in inputs for _g, m in _yun_fraction_oracle(f)) >= 4
    for f in inputs:
        ints = clear_denominators(list(f.coeffs))
        got = [(UPoly(part).monic(), m) for part, m in upoly_squarefree(ints)]
        assert got == _yun_fraction_oracle(f), f
        for part, _m in upoly_squarefree(ints):
            assert part[-1] > 0 and _zz_primitive(part)[0] == part


def test_exact_quotient_in_integers():
    # (2x + 1)(x^2 - 3) = 2x^3 + x^2 - 6x - 3
    assert _zz_exquo([-3, -6, 1, 2], [1, 2]) == [-3, 0, 1]
    # 2x + 1 divides 2x^2 + x over Z; 2x + 2 does not divide x^2 + 1
    assert _zz_exquo([0, 1, 2], [1, 2]) == [0, 1]
    assert _zz_exquo([1, 0, 1], [2, 2]) is None
    # 3x / 2x = 3/2: the remainder vanishes, the quotient is not an integer
    assert _zz_exquo([0, 3], [0, 2]) is None
    # x + 1 divides 2x + 2 with quotient 2; 2x + 2 divides x + 1 only over Q
    assert _zz_exquo([2, 2], [1, 1]) == [2]
    assert _zz_exquo([1, 1], [2, 2]) is None
    # a divisor of higher degree divides only the zero polynomial
    assert _zz_exquo([1, 2], [1, 0, 1]) is None
    assert _zz_exquo([], [1, 0, 1]) == []
    assert _zz_exquo([], [5]) == []


def test_multiplicities():
    f = up_mul(up_pow(poly(-5, 1), 3), poly(1, 0, 1))
    facs = dict((tuple(g.coeffs), m) for g, m in upoly_factor(f))
    assert facs[(QQ(-5), QQ(1))] == 3
    assert facs[(QQ(1), QQ(0), QQ(1))] == 1


def test_factor_has_no_degree_bound():
    assert upoly_factor(up_pow(poly(1, 1), 25)) == [(poly(1, 1), 25)]


def _quotient(f, g):
    """f / g by ``quotient_terms`` for coefficient lists (constant term
    first) of rationals or of NFElem, or None."""
    q = quotient_terms({(i,): c for i, c in enumerate(f)}, {(i,): c for i, c in enumerate(g)})
    if q is None:
        return None
    return [q.get((i,), g[0] * 0) for i in range(len(f) - len(g) + 1)]


def test_gcd_and_divmod():
    a = poly(-1, 0, 1)
    b = poly(1, 1)
    assert upoly_gcd(a, b) == b
    q, r = upoly_divmod(a, b)
    assert up_add(up_mul(q, b), r) == a and r.is_zero()
    assert UPoly(_quotient(a.coeffs, b.coeffs)) == q == poly(-1, 1)
    assert _quotient(up_add(a, poly(1)).coeffs, b.coeffs) is None


# -- gcd over Q: the rational Euclidean algorithm, kept as an oracle ---------


def _upoly_gcd_oracle(a, b):
    """Monic gcd by Euclid on rational remainders, as the parent computed it."""
    while not b.is_zero():
        a, b = b, upoly_divmod(a, b)[1]
    return a.monic()


def _random_upoly(rng, degree):
    return UPoly([random_rat(rng) for _ in range(degree + 1)])


def test_gcd_matches_rational_oracle():
    rng = rng_for("gcd-oracle")
    zero = UPoly.zero()
    for _ in range(300):
        a = _random_upoly(rng, rng.randint(-1, 6))
        b = _random_upoly(rng, rng.randint(-1, 6))
        if rng.random() < 0.5:
            c = _random_upoly(rng, rng.randint(0, 5))
            a, b = up_mul(a, c), up_mul(b, c)
        assert upoly_gcd(a, b) == _upoly_gcd_oracle(a, b)
    assert upoly_gcd(zero, zero) == zero
    p = poly(QQ(3, 2), 0, QQ(-1, 4))
    assert upoly_gcd(p, zero) == upoly_gcd(zero, p) == p.monic()
    assert upoly_gcd(poly(-1, 1), poly(1, 1)) == poly(1)


def test_gcd_finds_a_shared_factor_of_degree_three_or_more():
    rng = rng_for("gcd-shared")
    for degree in (3, 4, 5):
        for _ in range(20):
            c = _random_upoly(rng, degree)
            a = _random_upoly(rng, rng.randint(1, 5))
            b = _random_upoly(rng, rng.randint(1, 5))
            expected = _upoly_gcd_oracle(up_mul(a, c), up_mul(b, c))
            assert expected.degree() >= degree
            assert upoly_gcd(up_mul(a, c), up_mul(b, c)) == expected
            # the integer kernel returns the primitive part, lc > 0
            ints = _zz_gcd(_ints(up_mul(a, c)), _ints(up_mul(b, c)))
            assert ints == _ints(expected)


def _planted_gcd_cases(name, count):
    """(a, b): seeded integer products a0 c, b0 c with a common factor c of
    degree 1-8, every coefficient of height up to 2^200."""
    rng = rng_for(name)
    cases = []
    for k in range(count):
        height = 2 ** rng.choice((1, 3, 30, 200))

        def draw(degree):
            coeffs = [rng.randint(-height, height) for _ in range(degree + 1)]
            coeffs[-1] = coeffs[-1] or 1
            return UPoly([QQ(c) for c in coeffs])

        c = draw(1 + k % 8)
        cases.append((up_mul(draw(rng.randint(0, 6)), c), up_mul(draw(rng.randint(0, 6)), c)))
    return cases


def test_integer_gcd_matches_rational_oracle_on_planted_factors():
    for a, b in _planted_gcd_cases("gcd-planted", 48):
        expected = _upoly_gcd_oracle(a, b)
        assert expected.degree() >= 1
        assert _zz_gcd(_ints(a), _ints(b)) == _ints(expected)
        assert upoly_gcd(a, b) == expected


def test_heuristic_gcd_rejects_a_candidate_that_divides_only_one_input():
    # f = (x + 1)(x - 1) and g = x^2 - 30x + 1 = (x + 1) + x (x - 31) are
    # coprime, but at the first evaluation point 31 the values are 960 and
    # 32, whose gcd 32 reads as the candidate x + 1: it divides f only
    f, g = [-1, 0, 1], [1, -30, 1]
    assert _zz_gcd(f, g) == _zz_gcd(g, f) == [1]


def test_remainder_sequence_fallback_matches_rational_oracle():
    for a, b in _planted_gcd_cases("gcd-prs", 24):
        assert _zz_gcd_prs(_ints(a), _ints(b)) == _ints(_upoly_gcd_oracle(a, b))
    # coprime inputs and a constant
    assert _zz_gcd_prs([-1, 1], [1, 1]) == [1]
    assert _zz_gcd_prs([3, 2], [1]) == [1]


def _ints(p):
    """Primitive integer coefficients of p, leading one positive."""
    lcm = math.lcm(*(int(c.denominator) for c in p.coeffs))
    ints = [int(c * lcm) for c in p.coeffs]
    g = math.gcd(*ints)
    sign = 1 if ints[-1] > 0 else -1
    return [sign * v // g for v in ints]


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


def test_ternary_sqrt_roundtrip_and_refusals():
    rng = rng_for("ternary-sqrt")
    for _ in range(60):
        g = random_form(rng, rng.randint(0, 4), sparsity=rng.choice((0.3, 0.8)))
        square = (g * g).terms
        root = sqrt_terms(square)
        assert root is not None
        lead = max(root)
        assert root[lead] > 0 and root in (g.terms, (-g).terms)
        # the result does not depend on the order of the terms
        keys = list(square)
        rng.shuffle(keys)
        assert sqrt_terms({k: square[k] for k in keys}) == root
        # a non-square multiple, and a square with one coefficient moved, are refused
        assert sqrt_terms({k: 3 * v for k, v in square.items()}) is None
        assert sqrt_terms({k: -v for k, v in square.items()}) is None
        moved = dict(square)
        key = rng.choice(keys)
        moved[key] = moved[key] + 1
        assert sqrt_terms(moved) is None
    assert sqrt_terms({}) == {}
    # an odd leading exponent, or an odd power of a variable, is no square
    assert sqrt_terms({(3, 1, 0): QQ(1), (0, 4, 0): QQ(1)}) is None
    assert sqrt_terms({(2, 0, 0): QQ(1), (0, 1, 1): QQ(1)}) is None


# -- exact division: quotient_terms against a linear solve --------------------


def _times(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _quotient_terms_oracle(f, g, basis):
    """q with q * g == f by a linear solve on q's monomial basis, or None."""
    products = [_times({e: QQ(1)}, g) for e in basis]
    keys = sorted(set(f).union(*products))
    rows = [[p.get(k, QQ(0)) for p in products] for k in keys]
    sol = solve_linear(rows, [f.get(k, QQ(0)) for k in keys])
    if sol is None:
        return None
    return {e: c for e, c in zip(basis, sol) if c}


def test_quotient_terms_matches_the_oracle_on_plane_forms():
    rng = rng_for("quotient-terms-plane")
    delta = {(0, 0, 2): QQ(1), (1, 1, 0): QQ(-4)}
    for degree in range(9):
        divisors = [delta]
        while len(divisors) < 3:
            g = random_form(rng, rng.randint(0, min(3, degree)), height=5).terms
            divisors.append(g)
        for g in divisors:
            g_degree = sum(next(iter(g)))
            if g_degree > degree:
                # no nonzero form of lower degree is a multiple of g
                f = random_form(rng, degree, height=5).terms
                assert quotient_terms(f, g) is None
                continue
            basis = monomial_basis(3, degree - g_degree)
            q = random_form(rng, degree - g_degree, height=5).terms
            f = _times(q, g)
            assert quotient_terms(f, g) == _quotient_terms_oracle(f, g, basis) == q
            assert quotient_terms({}, g) == {}
            if len(g) > 1:
                # a monomial is a multiple of no form with two terms
                off = dict(f)
                bump = rng.choice(monomial_basis(3, degree))
                off[bump] = off.get(bump, 0) + 1
                assert quotient_terms(off, g) is None
                assert _quotient_terms_oracle(off, g, basis) is None
    with pytest.raises(ZeroDivisionError):
        quotient_terms(delta, {(0, 0, 0): QQ(0)})


def test_upoly_quotient_matches_the_oracles_over_q_and_a_cubic_field():
    rng = rng_for("upoly-quotient")
    cubic = NumberField(UPoly([QQ(1, 3), QQ(3, 4), 0, 1]))
    for field in (None, cubic):
        for _ in range(30):
            if field is None:
                g = _random_upoly(rng, rng.randint(0, 4))
                q = _random_upoly(rng, rng.randint(0, 5))
                if g.is_zero() or q.is_zero():
                    continue
                f = up_mul(q, g)
                assert UPoly(_quotient(f.coeffs, g.coeffs)) == upoly_divmod(f, g)[0] == q
                basis = [(i,) for i in range(q.degree() + 1)]
                terms = {(i,): c for i, c in enumerate(f.coeffs)}
                g_terms = {(i,): c for i, c in enumerate(g.coeffs)}
                oracle = _quotient_terms_oracle(terms, g_terms, basis)
                assert oracle == {(i,): c for i, c in enumerate(q.coeffs) if c}
                if g.degree() > 0:
                    one = UPoly([1])
                    assert not upoly_divmod(up_add(f, one), g)[1].is_zero()
                    assert _quotient(up_add(f, one).coeffs, g.coeffs) is None
                    assert _quotient(g.coeffs, up_mul(f, g).coeffs) is None
                continue
            # over the field, lists of NFElem
            g = _random_nf_poly(rng, field, rng.randint(0, 4))
            q = _random_nf_poly(rng, field, rng.randint(0, 5))
            f = nf_mul(q, g)
            assert _quotient(f, g) == upoly_divmod(f, g)[0] == q
            if len(g) > 1:
                shifted = [f[0] + 1] + f[1:]
                assert upoly_divmod(shifted, g)[1]
                assert _quotient(shifted, g) is None
                assert _quotient(g, nf_mul(f, g)) is None


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


# -- number fields: the integer kernels against rational oracles -------------
#
# The oracles are the rational kernels the integer ones replaced: a
# convolution in rationals folded with the table of a^k mod p, the extended
# Euclidean algorithm over Q, and the remainder of UPoly division by p.

_ORACLE_FIELDS = [
    (QQ(5, 3), 1),
    (QQ(-1, 2), 0, 1),
    (QQ(1, 3), QQ(3, 4), 0, 1),
    (QQ(5, 7), QQ(-2, 3), 0, 0, 1),
    (-1, -1, 0, 0, 0, 1),
    (QQ(2, 9), 0, 0, QQ(-1, 2), 0, 0, 1),
    (1, 3, 3, 1, 3, 3, 1),
]


def _reduction_table(field):
    """a^k mod p for k = n .. 2n - 2, rational coordinates."""
    n = field.degree
    table = []
    cur = [-c for c in field.minimal_polynomial.coeffs[:-1]]
    for _ in range(n - 1):
        table.append(tuple(cur))
        top = cur[-1]
        cur = [QQ(0)] + cur[:-1]
        cur = [c + top * r for c, r in zip(cur, table[0])]
    return table


def _mul_oracle(a, b):
    n = a.owner.degree
    conv = [QQ(0)] * (2 * n - 1)
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            conv[i + j] += x * y
    coords = conv[:n]
    for c, row in zip(conv[n:], _reduction_table(a.owner)):
        coords = [x + c * r for x, r in zip(coords, row)]
    return tuple(coords)


def _inv_oracle(a):
    """s with s a + t p = 1 by the extended Euclidean algorithm over Q."""
    r0, r1 = UPoly(list(a.coords)), a.owner.minimal_polynomial
    s0, s1 = poly(1), UPoly.zero()
    while not r1.is_zero():
        q, r = upoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, up_sub(s0, up_mul(q, s1))
    assert r0.degree() == 0
    coords = list(s0.scale(QQ(1) / r0.lc()).coeffs)
    return tuple(coords + [QQ(0)] * (a.owner.degree - len(coords)))


def _elem_oracle(field, coeffs):
    coords = list(upoly_divmod(UPoly([QQ(c) for c in coeffs]), field.minimal_polynomial)[1].coeffs)
    return tuple(coords + [QQ(0)] * (field.degree - len(coords)))


def _random_coords(rng, length):
    # about a third of the coordinates are zero, as in sparse node data
    return [QQ(0) if rng.random() < 0.3 else random_rat(rng, 12) for _ in range(length)]


@pytest.mark.parametrize("coeffs", _ORACLE_FIELDS, ids=lambda c: "degree%d" % (len(c) - 1))
def test_number_field_kernels_match_rational_oracles(coeffs):
    field = NumberField(UPoly(list(coeffs)))
    n = field.degree
    rng = rng_for("nf-oracles-%d-%s" % (n, coeffs))
    elements = [field.elem(_random_coords(rng, n)) for _ in range(24)]
    elements += [field.one(), field.gen(), field.from_rat(QQ(-3, 4))]
    for a, b in zip(elements, elements[1:] + elements[:1]):
        assert (a * b).coords == _mul_oracle(a, b)
        if not a.is_zero():
            inverse = a.inv()
            assert inverse.coords == _inv_oracle(a)
            assert a * inverse == field.one()
    for length in range(3 * n + 1):
        vector = _random_coords(rng, length)
        assert field.elem(vector).coords == _elem_oracle(field, vector)
    with pytest.raises(ZeroDivisionError):
        field.zero().inv()


# -- gcd over a number field: the parent's NFElem Euclid, kept as an oracle --


def _content_scale_oracle(p):
    """A rational c such that c p has small integer-ish coefficients."""
    flat = [c for e in p for c in e.coords]
    ints = clear_denominators(flat)
    for orig, scaled in zip(flat, ints):
        if scaled != 0:
            return QQ(scaled) / orig
    return QQ(1)


def _nf_gcd_oracle(a, b):
    """Monic gcd by Euclid on NFElem remainders, each rescaled by a
    rational, as the parent computed it over a number field."""
    while b:
        r = upoly_divmod(a, b)[1]
        a, b = b, [c * _content_scale_oracle(r) for c in r]
    return nf_monic(a)


def _random_field(rng):
    """A seeded number field of degree 1-4; the minimal polynomial has
    rational coefficients, so its integer scaling mostly has lc != 1."""
    while True:
        n = rng.randint(1, 4)
        coeffs = [random_rat(rng, 6) for _ in range(n)] + [QQ(1)]
        if coeffs[0] == 0:
            continue
        try:
            return NumberField(UPoly(coeffs))
        except ReducibleMinimalPolynomial:
            continue


def _random_nf_poly(rng, field, degree):
    coeffs = [field.elem(_random_coords(rng, field.degree)) for _ in range(degree + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = field.one()
    return coeffs


def _zk_gcd_monic(a, b, field):
    """``_zk_gcd`` on the integer vectors of NFElem lists, made monic."""
    return nf_from_ints(_zk_gcd(nf_ints(a), nf_ints(b), field), field)


def test_number_field_gcd_matches_the_euclid_oracle():
    rng = rng_for("nf-gcd-oracle")
    fields = [_random_field(rng) for _ in range(12)]
    fields += [NumberField(UPoly(list(c))) for c in _ORACLE_FIELDS]
    # the integer scaling of most minimal polynomials has lc != 1
    assert sum(field._red_den != 1 for field in fields) >= 8
    degrees = set()
    for field in fields:
        for _ in range(6):
            common = _random_nf_poly(rng, field, rng.randint(0, 3))
            a = nf_mul(_random_nf_poly(rng, field, rng.randint(0, 4)), common)
            b = nf_mul(_random_nf_poly(rng, field, rng.randint(0, 4)), common)
            expected = _nf_gcd_oracle(a, b)
            assert _zk_gcd_monic(a, b, field) == expected == _zk_gcd_monic(b, a, field)
            assert nf_gcd(a, b) == expected
            degrees.add(min(len(expected) - 1, 2))
        # the squarefree part of a fiber with a repeated root
        root = _random_nf_poly(rng, field, 1)
        fiber = nf_mul(nf_mul(root, root), _random_nf_poly(rng, field, rng.randint(0, 3)))
        slope = nf_derivative(fiber)
        expected = upoly_divmod(fiber, _nf_gcd_oracle(fiber, slope))[0]
        assert upoly_divmod(fiber, _zk_gcd_monic(fiber, slope, field))[0] == expected
        # zero operands: the gcd with the empty list is the other operand
        assert _zk_gcd([], [], field) == [] == _nf_gcd_oracle([], [])
        ints = nf_ints(fiber)
        assert _zk_gcd(ints, [], field) == _zk_gcd([], ints, field) == ints
        assert _zk_gcd_monic([], fiber, field) == nf_monic(fiber) == _nf_gcd_oracle([], fiber)
    assert degrees == {0, 1, 2}


def test_number_field_gcd_of_coprime_and_constant_operands():
    field = NumberField(UPoly([QQ(-1, 2), 0, 1]))
    a = field.gen()
    one = [field.one()]
    x_minus_a = [-a, field.one()]
    x_plus_a = [a, field.one()]
    assert _zk_gcd_monic(x_minus_a, x_plus_a, field) == one
    product = nf_mul(x_minus_a, x_plus_a)
    assert _zk_gcd_monic(product, [c * (a + 3) for c in x_plus_a], field) == x_plus_a
    assert _zk_gcd_monic([a], x_minus_a, field) == one


# -- binary form factorization: the content, multiplied out, as the oracle --


def test_binform_factor_content_matches_the_multiplied_out_product():
    rng = rng_for("binform-content")
    for _ in range(60):
        degree = rng.randint(0, 7)
        f = BinForm(degree, [random_rat(rng, 9) for _ in range(degree + 1)])
        if rng.random() < 0.3:
            f = f * BinForm(1, [1, 0]) ** rng.randint(1, 2)
        if f.is_zero():
            continue
        content, factors = f.factor()
        product = BinForm(0, [QQ(1)])
        for fac, mult in factors:
            product = product * fac**mult
        assert content == f.coeffs[f.s_degree()] / product.coeffs[product.s_degree()]
        assert product.scale(content) == f


def test_rational_canonical_form():
    assert QQ(2, 4) == QQ(1, 2)
    assert str(QQ(2, 4)) == "1/2"
    assert QQ(-3, -6) == QQ(1, 2)


def test_binform_sum_of_different_degrees_raises():
    with pytest.raises(DegreeMismatch):
        BinForm(1, [1, 2]) + BinForm(2, [1, 0, 1])
    with pytest.raises(DegreeMismatch):
        BinForm(2, [1, 0, 1]) - BinForm(1, [1, 2])


def test_binform_quotient():
    g = BinForm(2, [1, 0, 1])  # s^2 + t^2
    h = BinForm(2, [0, 3, -1])  # 3 s t - s^2
    t = BinForm(1, [1, 0])
    assert binform_quotient(g * h, g) == h
    assert binform_quotient(g * h * t, h) == g * t
    assert binform_quotient(g * h + t**4, g) is None
    assert binform_quotient(h, t) is None
    assert binform_quotient(g, g * g) is None
    assert binform_quotient(g, BinForm.zero(1)) is None
    # the zero form divided by g is the zero form of the quotient's degree
    assert binform_quotient(BinForm.zero(5), g) == BinForm.zero(3)
    assert binform_quotient(BinForm.zero(1), g) is None


# -- binary forms on the integer kernels, against rational oracles that ----
# -- work on the polynomial in s at t = 1 -----------------------------------


def _dehomogenized_oracle(b):
    """The rational polynomial b(s, 1)."""
    return UPoly(list(b.coeffs))


def _homogenized(poly, degree):
    """The binary form of the given degree whose value at t = 1 is poly."""
    return BinForm(degree, list(poly.coeffs) + [QQ(0)] * (degree - poly.degree()))


def _primitive_oracle(b):
    prim = _zz_primitive(clear_denominators(list(b.coeffs)))[0]
    sd = b.s_degree()
    if sd >= 0 and prim[sd] < 0:
        prim = [-c for c in prim]
    return BinForm(b.degree, prim)


def _factor_oracle(f):
    out = []
    tmult = f.t_multiplicity()
    if tmult:
        out.append((BinForm(1, [1, 0]), tmult))
    dehom = _dehomogenized_oracle(f)
    if dehom.degree() > 0:
        for fac, mult in upoly_factor(dehom):
            out.append((_primitive_oracle(_homogenized(fac, fac.degree())), mult))
    ordered = sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))
    lead = math.prod(fac.coeffs[fac.s_degree()] ** mult for fac, mult in ordered)
    return f.coeffs[f.s_degree()] / lead, ordered


def _gcd_oracle(f, g):
    if f.is_zero():
        return _primitive_oracle(g)
    if g.is_zero():
        return _primitive_oracle(f)
    tm = min(f.t_multiplicity(), g.t_multiplicity())
    h = upoly_gcd(_dehomogenized_oracle(f), _dehomogenized_oracle(g))
    return _primitive_oracle(_homogenized(h, h.degree() + tm))


def _quotient_oracle(f, g):
    if g.is_zero() or g.degree > f.degree:
        return None
    if f.is_zero():
        return BinForm.zero(f.degree - g.degree)
    if g.t_multiplicity() > f.t_multiplicity():
        return None
    q, r = upoly_divmod(_dehomogenized_oracle(f), _dehomogenized_oracle(g))
    if not r.is_zero():
        return None
    return _homogenized(q, f.degree - g.degree)


def _squarefree_oracle(b):
    p = _dehomogenized_oracle(b)
    return (
        not b.is_zero()
        and b.t_multiplicity() <= 1
        and upoly_gcd(p, up_derivative(p)).degree() == 0
    )


_T = BinForm(1, [1, 0])


def _random_binform(rng):
    """A product of up to three random forms of degree 1 or 2 (a zero top
    coefficient gives a factor t), one of them repeated at times, times t^0
    to t^3 and a rational unit of either sign."""
    factors = [
        BinForm(k, [random_rat(rng, 5) for _ in range(k + 1)])
        for k in (rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
    ]
    if factors and rng.random() < 0.4:
        factors.append(rng.choice(factors))
    b = BinForm(0, [random_rat(rng, 7) or QQ(-1)])
    for f in factors:
        b = b * f
    return b * _T ** rng.randint(0, 3)


def _binform_inputs(rng, count):
    out = [
        BinForm.zero(0),
        BinForm.zero(3),
        BinForm(0, [QQ(-3, 5)]),
        BinForm(2, [QQ(7), 0, 0]),
        _T**3,
        BinForm(3, [0, QQ(-1, 2), 0, 0]),
    ]
    while len(out) < count:
        out.append(_random_binform(rng))
    return out


def test_binform_inputs_cover_the_cases():
    forms = [f for f in _binform_inputs(rng_for("binform-kernels"), 250) if not f.is_zero()]
    assert {f.t_multiplicity() for f in forms} >= {0, 1, 2, 3}
    leads = [f.coeffs[f.s_degree()] for f in forms]
    assert any(c < 0 for c in leads) and any(c.denominator > 1 for c in leads)
    assert any(f.degree == 0 for f in forms) and any(f.s_degree() == 0 for f in forms)


def test_binform_factor_matches_the_rational_oracle():
    for f in _binform_inputs(rng_for("binform-kernels"), 250):
        assert f.primitive() == _primitive_oracle(f), f
        if f.is_zero():
            with pytest.raises(ValueError):
                f.factor()
            continue
        assert f.factor() == _factor_oracle(f), f


def test_binform_gcd_matches_the_rational_oracle():
    rng = rng_for("binform-gcd")
    inputs = _binform_inputs(rng, 60)
    pairs = [(f, g) for f in inputs[:8] for g in inputs[:8]]
    for _ in range(200):
        common = rng.choice(inputs)
        pairs.append((common * _random_binform(rng), common * _random_binform(rng)))
    degrees = set()
    for f, g in pairs:
        got = binform_gcd(f, g)
        assert got == _gcd_oracle(f, g), (f, g)
        degrees.add(got.degree)
    assert {0, 1, 2, 3} <= degrees


def test_binform_quotient_matches_the_rational_oracle():
    rng = rng_for("binform-quotient")
    inputs = _binform_inputs(rng, 60)
    pairs = [(f, g) for f in inputs[:8] for g in inputs[:8]]
    for _ in range(200):
        g, h = rng.choice(inputs), _random_binform(rng)
        pairs.append((g * h, g))
        # a non-divisor: g times h plus a form that g does not divide
        extra = BinForm(g.degree + h.degree, [random_rat(rng, 5) for _ in range(g.degree + h.degree + 1)])
        pairs.append((g * h + extra, g))
        pairs.append((h, g * _T))
    outcomes = set()
    for f, g in pairs:
        got = binform_quotient(f, g)
        assert got == _quotient_oracle(f, g), (f, g)
        if got is not None and not f.is_zero():
            assert got * g == f
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_binform_squarefree_matches_the_rational_oracle():
    seen = set()
    for b in _binform_inputs(rng_for("binform-squarefree-oracle"), 250):
        expected = _squarefree_oracle(b)
        assert _binform_squarefree(b) == expected, b
        seen.add(expected)
    assert seen == {True, False}
