from splitcurves.arith import BinForm, NFElem, NumberField, UPoly
from splitcurves.conics import delta2_param, restrict_to_conic
from splitcurves.forms import Form, ProjPoint, parse_form, point
from splitcurves.linalg import kernel_basis, rank_bareiss, rank_naive
from splitcurves.linsys import (
    FormSpace,
    cond_divisible_on_conic,
    cond_point,
    cond_singular,
    system_solve,
)
from splitcurves.registry import example_ids, load_example
from splitcurves.scalars import QQ, ZERO
from splitcurves.splitting import normalize_configuration

from conftest import PLANE, SPACE, check_elimination, rng_for, random_rat, upoly_divmod


def dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), ZERO)


def test_cond_point_rational_row():
    space = FormSpace(2)
    rows = cond_point(space, point(0, 0, 1))
    assert len(rows) == 1
    # single row selecting the z^2 coefficient
    assert [c for c in rows[0]] == [
        QQ(1) if expo == (0, 0, 2) else ZERO for expo in space.basis
    ]


def test_cond_point_conjugate_orbit_rows():
    field = NumberField(UPoly([-1, -1, 1]))  # b^2 = b + 1
    b = field.gen()
    p = ProjPoint([b, field.one(), field.zero()])
    space = FormSpace(2)
    rows = cond_point(space, p)
    assert len(rows) == 2
    # monomials x^2, xy, xz, y^2, yz, z^2 at (b, 1, 0) with b^2 = 1 + b:
    # constant part [1, 0, 0, 1, 0, 0], b-part [1, 1, 0, 0, 0, 0]
    assert list(rows[0]) == [QQ(1), ZERO, ZERO, QQ(1), ZERO, ZERO]
    assert list(rows[1]) == [QQ(1), QQ(1), ZERO, ZERO, ZERO, ZERO]


def test_cond_point_all_ones():
    space = FormSpace(3)
    rows = cond_point(space, point(1, 1, 1))
    assert len(rows) == 1 and len(rows[0]) == 10
    assert all(c == 1 for c in rows[0])


def test_cond_singular_space_point():
    space = FormSpace(2, SPACE)
    rows = cond_singular(space, ProjPoint([ZERO, ZERO, ZERO, QQ(1)]))
    assert len(rows) == 4
    rep = system_solve(space, rows)
    assert rep.rank == 4 and rep.dimension == 5
    # the kernel is exactly the quadrics in x, y, z
    for quad in rep.kernel:
        assert all(expo[3] == 0 for expo in quad.terms)


def test_cond_singular_plane_point():
    space = FormSpace(2)
    rows = cond_singular(space, point(0, 0, 1))
    rep = system_solve(space, rows)
    assert rep.dimension == 2
    kernel_strs = {tuple(sorted(k.terms)) for k in rep.kernel}
    assert kernel_strs == {((2, 0, 0),), ((1, 1, 0),), ((0, 2, 0),)}


def test_cond_singular_generic_rank_three():
    space = FormSpace(4)
    rows = cond_singular(space, point(1, 2, 3))
    assert rank_bareiss(rows) == 3


def test_divisibility_rows_on_split6_contact_form(gamma6):
    from splitcurves.conics import contact_profile, delta2

    profile = contact_profile(gamma6, delta2(), delta2_param())
    t_form = profile.contact_form
    rows = cond_divisible_on_conic(3, t_form)
    assert len(rows) == 6
    c3 = parse_form("x^3+y^3+z^3", PLANE).coefficient_vector()
    assert all(dot(r, c3) == 0 for r in rows)


def test_divisibility_line_through_two_points():
    t_form = BinForm(2, [0, 1, 0])  # s*t: parameters (1:0) and (0:1)
    rows = cond_divisible_on_conic(1, t_form)
    assert len(rows) == 2
    z_vec = parse_form("z", PLANE).coefficient_vector()
    assert all(dot(r, z_vec) == 0 for r in rows)
    x_vec = parse_form("x", PLANE).coefficient_vector()
    assert any(dot(r, x_vec) != 0 for r in rows)


def test_divisibility_trivial_form():
    assert cond_divisible_on_conic(3, BinForm(0, [QQ(1)])) == []


def test_system_examples(gamma6_prime_nodes, gamma7_prime, gamma7_prime_nodes):
    space = FormSpace(2)
    conds = []
    for p in gamma6_prime_nodes:
        conds.extend(cond_point(space, p))
    assert system_solve(space, conds).dimension == -1

    assert system_solve(FormSpace(2), []).dimension == 5

    gamma, conic = gamma7_prime
    from splitcurves.splitting import normalize_configuration

    config = normalize_configuration(gamma, conic, gamma7_prime_nodes)
    space4 = FormSpace(4)
    conds = cond_divisible_on_conic(4, config.profile.contact_form)
    for p in config.nodes:
        conds.extend(cond_point(space4, p))
    assert system_solve(space4, conds).dimension == 1


def test_kernel_vectors_satisfy_conditions():
    rng = rng_for("kernel-exact")
    for _ in range(50):
        space = FormSpace(rng.randint(1, 3))
        conds = []
        for _k in range(rng.randint(1, 5)):
            coords = [random_rat(rng, 5) for _ in range(3)]
            if all(c == 0 for c in coords):
                coords[0] = QQ(1)
            conds.extend(cond_point(space, ProjPoint(coords)))
        rep = system_solve(space, conds)
        for member in rep.kernel:
            vec = member.coefficient_vector()
            assert all(dot(c, vec) == 0 for c in conds)


def test_fraction_free_rank_matches_naive_200_cases():
    rng = rng_for("rank-oracle")
    for _ in range(200):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 15)
        mat = [
            [random_rat(rng, 6) if rng.random() < 0.7 else ZERO for _ in range(ncols)]
            for _ in range(nrows)
        ]
        check_elimination(rng, mat)


def test_dimension_formulas_without_conditions():
    for d in range(1, 5):
        assert system_solve(FormSpace(d), []).dimension == (d + 1) * (d + 2) // 2 - 1


def _random_general_p3(rng, count):
    from splitcurves.quartics import general_position_p3

    while True:
        pts = []
        for _ in range(count):
            while True:
                coords = [QQ(rng.randint(-9, 9)) for _ in range(4)]
                if any(c != 0 for c in coords):
                    pts.append(ProjPoint(coords))
                    break
        keys = {p.canonical_key() for p in pts}
        if len(keys) == count and general_position_p3(pts):
            return pts


def test_eight_general_space_points_quadric_dimension():
    rng = rng_for("eight-p3")
    space = FormSpace(2, SPACE)
    for _ in range(50):
        pts = _random_general_p3(rng, 8)
        conds = []
        for p in pts:
            conds.extend(cond_point(space, p))
        assert 1 <= system_solve(space, conds).dimension <= 2


# The parent's condition functions, kept as oracles: each condition was a
# LinCondition whose row held QQ(c) of every entry, labelled by provenance.


class LinCondition:
    __slots__ = ("row", "provenance")

    def __init__(self, row, provenance=""):
        self.row = tuple(QQ(c) for c in row)
        self.provenance = provenance


def _monomial_eval_oracle(coords, expo):
    term = None
    for c, e in zip(coords, expo):
        if e:
            p = c**e
            term = p if term is None else term * p
    if term is None:
        return QQ(1)
    return term


def _rows_from_values_oracle(values, field, provenance):
    if field is None:
        return [LinCondition([QQ(v) for v in values], provenance)]
    rows = []
    for k in range(field.degree):
        rows.append(
            LinCondition(
                [
                    v.coords[k] if isinstance(v, NFElem) else (QQ(v) if k == 0 else ZERO)
                    for v in values
                ],
                "%s [power-basis row %d]" % (provenance, k),
            )
        )
    return rows


def _cond_point_oracle(space, p, provenance=None):
    prov = provenance or "through %r" % (p,)
    values = [_monomial_eval_oracle(p.coords, e) for e in space.basis]
    return _rows_from_values_oracle(values, p.field, prov)


def _cond_singular_oracle(space, p, provenance=None):
    nvars = len(space.variables)
    prov = provenance or "singular at %r" % (p,)
    rows = []
    for k in range(nvars):
        values = []
        for expo in space.basis:
            if expo[k] == 0:
                values.append(ZERO if p.field is None else p.field.zero())
                continue
            de = list(expo)
            de[k] -= 1
            values.append(expo[k] * _monomial_eval_oracle(p.coords, tuple(de)))
        rows.extend(
            _rows_from_values_oracle(
                values, p.field, "%s [d/d%s]" % (prov, space.variables[k])
            )
        )
    return rows


def _random_points(rng, nvars):
    """Rational points and conjugate points over fields of degree 2 and 3."""
    fields = [
        NumberField(UPoly([-1, -1, 1])),  # b^2 = b + 1
        NumberField(UPoly([-2, 0, 0, 1])),  # b^3 = 2
    ]
    pts = [ProjPoint([random_rat(rng) for _ in range(nvars - 1)] + [QQ(1)])]
    pts.append(ProjPoint([QQ(0)] * (nvars - 1) + [random_rat(rng) or QQ(1)]))
    for field in fields:
        for _ in range(2):
            coords = [
                field.elem([random_rat(rng) for _ in range(field.degree)])
                for _ in range(nvars - 1)
            ]
            pts.append(ProjPoint(coords + [field.one()]))
    return pts


def test_point_and_singular_rows_match_oracle():
    rng = rng_for("rows-oracle")
    for variables in (PLANE, SPACE):
        for degree in range(1, 7):
            space = FormSpace(degree, variables)
            for p in _random_points(rng, len(variables)):
                rows = cond_point(space, p)
                assert rows == [c.row for c in _cond_point_oracle(space, p)]
                assert all(type(x) is type(ZERO) for r in rows for x in r)
                assert cond_singular(space, p) == [
                    c.row for c in _cond_singular_oracle(space, p)
                ]


def _divisibility_rows_oracle(degree, t_form, provenance=None):
    """Rational rows: each monomial restricted to the conic by substitution,
    and its restriction's remainder by T(s, 1) from a long division in QQ."""
    space = FormSpace(degree)
    if t_form.degree == 0:
        return []
    prov = provenance or "contact-divisor divisibility"
    big = 2 * degree
    cols = [
        restrict_to_conic(Form.monomial(space.variables, expo), delta2_param()).coeffs
        for expo in space.basis
    ]
    tm = t_form.t_multiplicity()
    rows = [
        LinCondition([col[i] for col in cols], "%s [t-power row]" % prov)
        for i in range(big - tm + 1, big + 1)
    ]
    t0 = UPoly(list(t_form.coeffs))
    rems = [upoly_divmod(UPoly(col), t0)[1] for col in cols]
    for i in range(t0.degree()):
        rows.append(
            LinCondition([r[i] for r in rems], "%s [remainder row %d]" % (prov, i))
        )
    return rows


def _assert_same_row_space(degree, t_form):
    """The integer rows span the rational rows' space: equal ranks, also
    of the two sets together, and so one kernel."""
    got = cond_divisible_on_conic(degree, t_form)
    expected = [r.row for r in _divisibility_rows_oracle(degree, t_form)]
    assert len(got) == len(expected)
    assert all(type(x) is int for row in got for x in row)
    rank = rank_naive(expected)
    assert rank_naive(got) == rank == rank_naive(got + expected)
    ncols = FormSpace(degree).size()
    assert kernel_basis(got, ncols) == kernel_basis(expected, ncols)


def test_divisibility_rows_match_oracle_on_catalog_contact_forms():
    t_forms = []
    for example_id in example_ids():
        record = load_example(example_id)
        config = normalize_configuration(record.curve, record.conic, record.nodes)
        t_forms.append(config.profile.contact_form)
    # forms with a root at (1 : 0), which the t-power rows handle
    t_forms += [BinForm(2, [0, 1, 0]), BinForm(4, [2, -1, 3, 0, 0])]
    for t_form in t_forms:
        for degree in range(1, 7):
            _assert_same_row_space(degree, t_form)


def test_divisibility_rows_match_oracle_on_seeded_binary_forms():
    # non-monic rational forms of degree 1-12 with a root of multiplicity
    # 0-2 at (1 : 0); deg T(s, 1) runs from below to above 2 * degree
    rng = rng_for("divisibility-rows-seeded")
    seen = set()
    for form_degree in range(1, 13):
        for tm in range(min(2, form_degree) + 1):
            top = form_degree - tm
            coeffs = [random_rat(rng) for _ in range(top)]
            lead = random_rat(rng)
            while lead in (0, 1):
                lead = random_rat(rng)
            t_form = BinForm(form_degree, coeffs + [lead] + [QQ(0)] * tm)
            assert t_form.t_multiplicity() == tm
            for degree in range(1, 7):
                seen.add(top > 2 * degree)
                _assert_same_row_space(degree, t_form)
    assert seen == {False, True}
