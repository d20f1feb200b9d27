"""Splitting-type decision engine.

Decides how the pullback of a nodal curve under the double cover branched
along a smooth conic decomposes, for each candidate type (m, n):

* a node-count filter (2r >= m^2 + n^2 - d) rules types out cheaply;
* necessary linear-system conditions on node subsets rule out more;
* for 7-nodal sextics the four configuration conditions of the syzygetic
  criterion decide type (2, 4) outright when they fail;
* the linear route (``linear_route``) reads the splitting off the degree-n
  system of each witness of exact dimension n - m: one member c_n, a
  constant mu and one square root give the certificate
  mu gamma l^k = c_n^2 - e delta c_(n-1)^2 and the factor A over QQ(sqrt(e));
* where no such witness splits, a specialization/interpolation search
  reconstructs an exact biform factor A with A * sigma(A) equal to the
  pullback, over QQ or over a field QQ(sqrt(e)) named by a quadratic factor
  of a specialization; a rational A gets its certificate from
  ``certificate_from_factor``.

Positive answers always carry an exactly verified identity, a factor
checked by exact expansion of A * sigma(A); negative answers always cite a
failed necessary condition; anything else is reported as undetermined.

``splitting_type`` computes the nodes when none are given and checks a
given list once, as a claim; ``splitting_type_normalized`` trusts its nodes.
"""

import itertools
from operator import mul

from .arith import BinForm, binform_quotient, sqrt_terms, upoly_squarefree
from .conics import (
    SIMPLE_CONTACT,
    classify_conic,
    conic_matrix,
    contact_profile,
    delta2,
    delta2_param,
    normalize_conic,
    not_smooth,
    restrict_to_conic,
    square_class,
)
from .cover import (
    descend,
    divide_by_ram,
    involution_biform,
    pullback_curve,
    ram_form,
    tangent_line,
)
from .curves import singular_locus_complete, singular_points, verify_node
from .errors import (
    CannotCertify,
    ConicNotSmooth,
    DegreeMismatch,
    NotTangentLine,
    SearchBudgetExceeded,
    SplitCurvesError,
    WrongNodeCount,
)
from .forms import BiForm, Form, compose_form, monomial_values, substitute_form, transform_point
from .linalg import dependent_subsets, kernel_basis, mat_inv, primitive_vector
from .linsys import FormSpace, cond_point, cond_divisible_on_conic, system_solve
from .scalars import QQ, ZERO, ONE, over_common_denominator, rat_sqrt

# groupings the factor search tries before it gives up
FACTOR_SEARCH_BUDGET = 2000

_SPECIALIZATION_POINTS = [
    (1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2), (2, -1),
    (3, 1), (1, 3), (3, 2), (2, 3), (4, 1), (1, 4), (3, -1), (-1, 3),
    (5, 1), (1, 5), (4, 3), (5, 2), (5, 3), (2, 5), (3, 5), (6, 1),
]


def alpha_of(m, n):
    """Number of nodes a type-(m,n) splitting passes through both halves."""
    if not 0 < m <= n:
        raise ValueError("need 0 < m <= n")
    return (m * m + n * n - m - n) // 2


def node_bound_filter(r, m, n, d):
    """Necessary node count: 2r >= m^2 + n^2 - d."""
    if m + n != d:
        raise DegreeMismatch("m + n must equal the degree")
    return 2 * r >= m * m + n * n - d


def type_candidates(d):
    return [(m, d - m) for m in range(1, d // 2 + 1)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


class SplitCertificate:
    """Exact witness scale * gamma * l^k = c_n^2 - e * delta * c_{n-1}^2.

    ``scale`` is the rational c of a factor A with A * sigma(A) = c * F, F the
    pullback of gamma.  In a decision it is square-free, so 1 whenever c is
    a square: the linear route finds it so, and a factor the search finds is
    first reduced to its square class.  ``e`` names the field QQ(sqrt(e)) of
    A: 1 when A is rational, else a square-free integer.
    """

    __slots__ = ("m", "n", "line", "c_n", "c_n1", "scale", "e")

    def __init__(self, m, n, line, c_n, c_n1, scale=ONE, e=1):
        if not 0 < m <= n:
            raise ValueError("need 0 < m <= n")
        if (n > m) != (line is not None):
            raise ValueError("tangent line required exactly when m < n")
        self.m = m
        self.n = n
        self.line = line
        self.c_n = c_n
        self.c_n1 = c_n1
        self.scale = scale
        self.e = e

    def __repr__(self):
        return "SplitCertificate(type=(%d,%d))" % (self.m, self.n)


def _line_param(line):
    """Rational parametrization of a line in the plane (two basis points)."""
    basis = kernel_basis([line.coefficient_vector()], 3)
    return basis[0], basis[1]


def _restrict_to_line(f, line):
    """f composed with a rational parametrization of the line, as a binary form."""
    p1, p2 = _line_param(line)
    return substitute_form(
        f, {v: BinForm(1, [b, a]) for v, a, b in zip(f.variables, p1, p2)}
    )


def _binform_squarefree(b):
    """No repeated linear factor: t divides b at most once and Yun's
    decomposition of b(s, 1) has no part of multiplicity above 1."""
    return (
        not b.is_zero()
        and b.t_multiplicity() <= 1
        and all(
            mult == 1
            for _part, mult in upoly_squarefree(over_common_denominator(b.coeffs)[0])
        )
    )


def verify_certificate(gamma, delta, cert):
    """Exact verification of a splitting certificate.

    Checks the defining identity
    scale * gamma * l^k = c_n^2 - e * delta * c_{n-1}^2 and, for m < n,
    that the chosen line is
    tangent to the conic and transversal to the curve, with c_n and c_{n-1}
    not vanishing on it.  The line l is tangent to the conic A iff its
    pole A^-1 l, a rational point, lies on the conic: l^T A^-1 l = 0.
    """
    d = gamma.degree
    m, n = cert.m, cert.n
    k = n - m
    if m + n != d or cert.c_n.degree != n or cert.c_n1.degree != n - 1:
        raise DegreeMismatch("certificate degrees are inconsistent")
    if cert.c_n.is_zero() or cert.c_n1.is_zero():
        return False
    if k > 0:
        line = cert.line
        inv = mat_inv(conic_matrix(delta))
        if inv is None:
            raise not_smooth(delta)
        vec = line.coefficient_vector()
        if line.degree != 1 or line.is_zero() or sum(
            vec[i] * inv[i][j] * vec[j] for i in range(3) for j in range(3)
        ):
            raise NotTangentLine("line is not tangent to the conic")
        if not _binform_squarefree(_restrict_to_line(gamma, line)):
            raise NotTangentLine("line is not transversal to the curve")
        if _restrict_to_line(cert.c_n, line).is_zero():
            return False
        if _restrict_to_line(cert.c_n1, line).is_zero():
            return False
        lhs = gamma * cert.line**k
    else:
        lhs = gamma
    rest = delta * cert.c_n1 * cert.c_n1
    rhs = cert.c_n * cert.c_n - (rest if cert.e == 1 else rest.scale(cert.e))
    return (lhs if cert.scale == 1 else lhs.scale(cert.scale)) == rhs


# ---------------------------------------------------------------------------
# necessary dimension conditions
# ---------------------------------------------------------------------------


class NecessaryOutcome:
    """Outcome of ``necessary_dim_check``.

    ``kernels`` holds, for each witness whose degree-n system has projective
    dimension exactly n - m and in witness order, that system's kernel basis
    (n - m + 1 forms).  It is kept apart from ``witnesses``, whose dicts are
    printed as evidence.
    """

    __slots__ = ("passes", "witnesses", "failures", "alpha", "kernels")

    def __init__(self, passes, witnesses, failures, alpha, kernels):
        self.passes = passes
        self.witnesses = witnesses
        self.failures = failures
        self.alpha = alpha
        self.kernels = kernels

    def __repr__(self):
        return "NecessaryOutcome(passes=%s, witnesses=%d)" % (
            self.passes,
            len(self.witnesses),
        )


def _alpha_subsets(nodes, alpha):
    """Index subsets whose orbit sizes sum to alpha (orbits are atomic)."""
    sizes = [p.orbit_size() for p in nodes]
    out = []
    for take in range(len(nodes) + 1):
        for subset in itertools.combinations(range(len(nodes)), take):
            if sum(sizes[i] for i in subset) == alpha:
                out.append(subset)
    return out


def necessary_dim_check(gamma, nodes, contact_form, m, n):
    """Necessary conditions for splitting type (m, n) via linear systems.

    Passes when some alpha-subset S of the nodes admits both a degree-n
    system through S whose conic restriction is divisible by the contact
    form, of projective dimension >= n - m, and a nonempty degree-(n-1)
    system through S.
    """
    alpha = alpha_of(m, n)
    r = sum(p.orbit_size() for p in nodes)
    if alpha > r:
        return NecessaryOutcome(
            False,
            [],
            [{"reason": "alpha_exceeds_nodes", "alpha": alpha, "nodes": r}],
            alpha,
            [],
        )
    div_rows = cond_divisible_on_conic(n, contact_form)
    space_n = FormSpace(n, gamma.variables)
    space_n1 = FormSpace(n - 1, gamma.variables)
    rows_n = [cond_point(space_n, p) for p in nodes]
    rows_n1 = [cond_point(space_n1, p) for p in nodes]
    witnesses = []
    failures = []
    kernels = []
    for subset in _alpha_subsets(nodes, alpha):
        rep2 = system_solve(space_n1, [r for i in subset for r in rows_n1[i]])
        if rep2.dimension < 0:
            failures.append(
                {
                    "subset": subset,
                    "reason": "degree_n_minus_1_system",
                    "dimension": rep2.dimension,
                    "required": 0,
                }
            )
            continue
        rep1 = system_solve(space_n, div_rows + [r for i in subset for r in rows_n[i]])
        if rep1.dimension < n - m:
            failures.append(
                {
                    "subset": subset,
                    "reason": "degree_n_system",
                    "dimension": rep1.dimension,
                    "required": n - m,
                }
            )
            continue
        witnesses.append(
            {"subset": subset, "dim_n": rep1.dimension, "dim_n1": rep2.dimension}
        )
        if rep1.dimension == n - m:
            kernels.append(rep1.kernel)
    return NecessaryOutcome(bool(witnesses), witnesses, failures, alpha, kernels)


# ---------------------------------------------------------------------------
# pullback factorization search
# ---------------------------------------------------------------------------


class PullbackFactor:
    """A factor A with A * sigma(A) = scalar * F.

    Either rational (a2 is None) or defined over QQ(sqrt(ext)) as
    a1 + sqrt(ext) * a2; the scalar is (1) whenever possible.
    """

    __slots__ = ("a1", "a2", "ext", "scalar", "scalar_surd")

    def __init__(self, a1, a2=None, ext=None, scalar=ONE, scalar_surd=ZERO):
        self.a1 = a1
        self.a2 = a2
        self.ext = ext
        self.scalar = scalar
        self.scalar_surd = scalar_surd

    @property
    def bidegree(self):
        return self.a1.bidegree

    def is_rational(self):
        return self.a2 is None

    def sigma_product(self):
        """A * sigma(A) as (rational part, surd part) biforms."""
        s1 = involution_biform(self.a1)
        if self.a2 is None:
            return self.a1 * s1, None
        s2 = involution_biform(self.a2)
        real = self.a1 * s1 + (self.a2 * s2).scale(self.ext)
        surd = self.a1 * s2 + self.a2 * s1
        return real, surd

    def verify(self, f_pull):
        real, surd = self.sigma_product()
        if self.a2 is None:
            return real == f_pull.scale(self.scalar)
        return real == f_pull.scale(self.scalar) and surd == f_pull.scale(
            self.scalar_surd
        )

    def __repr__(self):
        if self.a2 is None:
            return "PullbackFactor(bidegree=%r)" % (self.bidegree,)
        return "PullbackFactor(bidegree=%r, ext=sqrt(%d))" % (self.bidegree, self.ext)


def _discriminant(h):
    c0, c1, c2 = h.coeffs
    return c1 * c1 - 4 * c2 * c0


def _split_quadratic(h, ext):
    """Split an irreducible binary quadratic over QQ(sqrt(ext)).

    Returns the pair representation (g1, g2) of one root factor
    g1 + sqrt(ext) g2 (degree 1), or None when h stays irreducible.
    """
    c2, c1 = h.coeffs[2], h.coeffs[1]
    if c2 == 0:
        return None
    ratio = _discriminant(h) / QQ(ext)
    w = rat_sqrt(ratio) if ratio > 0 else (None if ratio != 0 else ZERO)
    if w is None or w == 0:
        return None
    g1 = BinForm(1, [c1, 2 * c2])
    g2 = BinForm(1, [-w, ZERO])
    return (g1, g2)


def _quadratic_fields(factor_lists):
    """The fields QQ(sqrt(e)) that split a quadratic factor of a specialization,
    given the irreducible factors of each specialization.

    Each irreducible quadratic factor with discriminant D splits over
    QQ(sqrt(D)) and over no other quadratic field; e is the square-free part
    of D, or D itself when trial division cannot reduce it (it names the
    same field).  Sorted by |e|, positive first.
    """
    fields = set()
    for factors in factor_lists:
        for h, _mult in factors:
            if h.degree == 2:
                disc = _discriminant(h)
                try:
                    fields.add(square_class(disc)[0])
                except CannotCertify:
                    fields.add(disc.numerator)
    return sorted(fields, key=lambda e: (abs(e), e < 0))


def _pair_mul(a, b, ext):
    """(a1 + sqrt(ext) a2)(b1 + sqrt(ext) b2) in pair form.

    Over QQ (ext None) the surd parts are zero.
    """
    a1, a2 = a
    b1, b2 = b
    if ext is None:
        return (a1 * b1, BinForm.zero(a1.degree + b1.degree))
    return (a1 * b1 + (a2 * b2).scale(ext), a1 * b2 + a2 * b1)


def _degree_m_divisors(b, factors, m, ext=None):
    """(divisor, cofactor) pairs of the degree-m divisors of the binary form
    b with the given irreducible factors, both in pair form (g1, g2).

    Over QQ (ext None): the distinct primitive rational divisors.  Over
    QQ(sqrt(ext)): the divisors that are not rational, built from the
    halves of the quadratic factors that split there.  Sorted by the
    divisors' coefficients.
    """
    pool = []
    for h, mult in factors:
        halves = None
        if ext is not None and h.degree == 2:
            halves = _split_quadratic(h, ext)
        if halves is None:
            pool.extend([(h, BinForm.zero(h.degree))] * mult)
        else:
            pool.extend([halves, (halves[0], -halves[1])] * mult)
    seen = {}
    for take in range(len(pool) + 1):
        for subset in itertools.combinations(range(len(pool)), take):
            if sum(pool[i][0].degree for i in subset) != m:
                continue
            prod = (BinForm(0, [ONE]), BinForm.zero(0))
            for i in subset:
                prod = _pair_mul(prod, pool[i], ext)
            if ext is None:
                prod = (prod[0].primitive(), prod[1])
            elif prod[1].is_zero():
                continue  # rational: listed by the ext=None enumeration
            seen[(prod[0].coeffs, prod[1].coeffs)] = prod
    return [(seen[k], _cofactor(b, seen[k], ext)) for k in sorted(seen)]


def _cofactor(f, g, ext):
    """The cofactor f / (g1 + sqrt(ext) g2) in pair form, for a divisor g of f.

    Over QQ(sqrt(ext)) it is f (g1 - sqrt(ext) g2) / N(g), the norm
    N(g) = g1^2 - ext g2^2 being rational; both quotients are exact.
    """
    g1, g2 = g
    if g2.is_zero():
        h1 = binform_quotient(f, g1)
        return (h1, BinForm.zero(h1.degree))
    norm = g1 * g1 - (g2 * g2).scale(ext)
    return (binform_quotient(f * g1, norm), binform_quotient(-(f * g2), norm))


def _match_scalar(candidate, target):
    """c with candidate == c * target, or None."""
    if target.is_zero():
        return ONE if candidate.is_zero() else None
    for key, val in target.terms.items():
        c = candidate.terms.get(key, ZERO) / val
        break
    return c if candidate == target.scale(c) else None


def _search_passes(specs, m):
    """(ext, lists of (divisor, cofactor) pairs, one list per specialization)
    for QQ, then for each field the specializations' factors name.

    Over QQ(sqrt(e)) the lists hold the rational divisors followed by the
    irrational ones; a field whose specializations give no irrational
    divisor is skipped.
    """
    factored = [(b, b.factor()[1]) for _u, _v, b in specs]
    rational = [_degree_m_divisors(b, factors, m) for b, factors in factored]
    yield None, rational
    for ext in _quadratic_fields(factors for _b, factors in factored):
        irrational = [_degree_m_divisors(b, factors, m, ext) for b, factors in factored]
        if any(irrational):
            yield ext, [r + i for r, i in zip(rational, irrational)]


def factor_pullback(f_pull, m, n):
    """Search for A of bidegree (m, n) with A * sigma(A) = pullback.

    Specializes the second ruling at n+1 rational parameters and factors
    each specialized binary form.  Every grouping of the factors into one
    degree-m divisor per specialization gives a linear system with one
    scalar unknown per specialization and ruling; each kernel candidate is
    verified by exact expansion.  The system is solved in those 2(n+1)
    scalars alone: A(s, t; u_k, v_k) = lambda_k * G_k at n+1 distinct
    points fixes A by interpolation, so substituting it changes neither the
    kernel nor, once lifted back, its basis (see ``_grouping_kernel``).  The
    rational pass comes first, then one pass over each field QQ(sqrt(e))
    that splits a quadratic factor of a specialization, where
    A = A1 + sqrt(e) A2.  A factor whose irrational part does not show in
    quadratic factors of the specializations is not found.  The search may
    miss factorizations; it never fabricates one, since only exactly
    verified products are returned.  More than FACTOR_SEARCH_BUDGET
    groupings raise SearchBudgetExceeded.  ``splitting_type_normalized``
    runs it only where ``linear_route`` proves no splitting.
    """
    d1, d2 = f_pull.bidegree
    if d1 != d2 or m + n != d1 or not 0 < m <= n:
        raise DegreeMismatch("factor search needs bidegree (d, d) with m+n = d")
    if involution_biform(f_pull) != f_pull:
        raise ValueError("pullback must be involution-invariant")
    specs = _specializations(f_pull, n)
    interp = None  # built at the first grouping: most misses reach none
    groupings = 0
    for ext, pair_lists in _search_passes(specs, m):
        for combo in itertools.product(*pair_lists):
            if ext is not None and all(g[1].is_zero() for g, _h in combo):
                continue  # all rational: tried in the rational pass
            if groupings >= FACTOR_SEARCH_BUDGET:
                raise SearchBudgetExceeded(
                    "factor grouping budget of %d groupings exhausted"
                    % FACTOR_SEARCH_BUDGET
                )
            groupings += 1
            if interp is None:
                interp = _interpolation_matrix(n, specs)
            factor = _factor_from_grouping(f_pull, m, n, specs, interp, combo, ext)
            if factor is not None:
                return factor
    return None


def _specializations(f_pull, n):
    """(u0, v0, F(s, t; u0, v0)) at the first n+1 points where it is nonzero."""
    specs = []
    for u0, v0 in _SPECIALIZATION_POINTS:
        b = f_pull.specialize_second(u0, v0)
        if not b.is_zero():
            specs.append((QQ(u0), QQ(v0), b))
        if len(specs) == n + 1:
            return specs
    raise SearchBudgetExceeded(
        "found %d nonzero specializations of the %d needed" % (len(specs), n + 1)
    )


def _monomial_rows(degree, specs):
    """Row k: the monomials u_k^j v_k^(degree-j), j = 0..degree, at the
    specialization points, from ``monomial_values``; the points are
    integers, so the values are too (their denominator is 1)."""
    expos = [(j, degree - j) for j in range(degree + 1)]
    return [monomial_values((u0, v0), expos, None)[0] for u0, v0, _b in specs]


def _interpolation_matrix(n, specs):
    """W = V^-1 for V[k][j] = u_k^j v_k^(n-j): the coefficients of a degree-n
    binary form from its values at the specialization points.

    Values c_k at (u_k, v_k) come from the coefficients a_j = sum_l W[j][l] c_l;
    V is invertible because no two specialization points are proportional.
    """
    return mat_inv(_monomial_rows(n, specs))


def _factor_from_grouping(f_pull, m, n, specs, interp, combo, ext):
    """The first verified factor whose specializations are the divisors of
    the (divisor, cofactor) pairs in combo."""
    gs = [g for g, _h in combo]
    hs = [h for _g, h in combo]
    kern = _grouping_kernel(m, n, specs, interp, gs, hs, ext)
    na = (m + 1) * (n + 1)
    for vec in _kernel_candidates(kern):
        factor = _candidate_factor(vec, m, n, na, len(specs), ext, f_pull)
        if factor is not None:
            return factor
    return None


def _scalar_table(g1, g2, ext):
    """table[p][q]: entries of part q of a scalar in part p of scalar * g.

    g = g1 + sqrt(ext) g2 is given by two equal-length lists (coefficients
    or values).  Over QQ one part; over QQ(sqrt(e)),
    (rho + sqrt(e) omega)(g1 + sqrt(e) g2) = (rho g1 + e omega g2)
    + sqrt(e) (rho g2 + omega g1).
    """
    if ext is None:
        return ((g1,),)
    e = QQ(ext)
    return ((g1, [e * c for c in g2]), (g2, g1))


def _values(coeffs, powers):
    """Values of a binary form at the points whose monomial rows are ``powers``."""
    ints, den = over_common_denominator(coeffs)
    return [QQ(sum(c * w for c, w in zip(ints, row)), den) for row in powers]


def _grouping_kernel(m, n, specs, interp, gs, hs, ext):
    """Kernel of the consistency system of one grouping, in the full layout.

    For every specialization k the candidate divisor G_k and its exact
    cofactor H_k = F_k / G_k give two families of equations,

        A(s, t; u_k, v_k)      = lambda_k * G_k(s, t)
        A(u_k, v_k; s, t)      = mu_k     * H_k(s, t),

    linear in the (m+1)(n+1) coefficients a_ij of A and the 2(n+1) scalars.
    The first family is interpolation at n+1 distinct points, so it fixes
    a_ij = sum_l W[j][l] lambda_l G_l[i] (W from ``_interpolation_matrix``),
    and the second becomes (n+1)^2 equations in the scalars alone,

        sum_l W[j][l] G_l(u_k, v_k) lambda_l - H_k[j] mu_k = 0.

    Over QQ(sqrt(ext)) each unknown and each equation has a rational and a
    surd part.  Each kernel vector (lambda parts, then mu parts) is lifted to
    the layout of the system in all unknowns: the parts of A (a_ij flattened
    i*(n+1)+j), then those of the lambdas, then those of the mus.  Lifting
    is a bijection between the two kernels, and since the A columns come
    first, a lifted vector's last nonzero entry is its scalar part's.  So
    both systems' reduced echelon forms have the same free columns (the
    last nonzero positions of kernel vectors), and the basis vector of a
    free column is the kernel vector that is 1 there and 0 at the other free
    columns.  The lifts of ``kernel_basis`` of the reduced system, made
    primitive, are therefore ``kernel_basis`` of the full system, in the
    same order.
    """
    parts = 1 if ext is None else 2
    nl = len(specs)
    off_mu = parts * nl
    powers = _monomial_rows(m, specs)
    # part tables of G_l's values at every point, and of its coefficients
    g_vals = [
        _scalar_table(_values(g1.coeffs, powers), _values(g2.coeffs, powers), ext)
        for g1, g2 in gs
    ]
    rows = []
    for k, (h1, h2) in enumerate(hs):
        h_table = _scalar_table(h1.coeffs, h2.coeffs, ext)
        for j in range(n + 1):
            w_row = interp[j]
            for p in range(parts):
                row = [ZERO] * (2 * off_mu)
                for q in range(parts):
                    for l in range(nl):
                        row[q * nl + l] = w_row[l] * g_vals[l][p][q][k]
                    row[off_mu + q * nl + k] = -h_table[p][q][j]
                rows.append(row)
    g_tables = [_scalar_table(g1.coeffs, g2.coeffs, ext) for g1, g2 in gs]
    return [
        _lift(vec, m, n, interp, g_tables, ext)
        for vec in kernel_basis(rows, 2 * off_mu)
    ]


def _lift(vec, m, n, interp, g_tables, ext):
    """Primitive full-layout vector (A parts, lambda parts, mu parts) of a
    kernel vector in the scalars, with a_ij = sum_l W[j][l] (lambda_l G_l)[i]."""
    parts = 1 if ext is None else 2
    nl = len(g_tables)
    lam = [vec[q * nl:(q + 1) * nl] for q in range(parts)]
    a_parts = []
    for p in range(parts):
        # (lambda_l G_l)[i], part p, for every l
        prods = [
            [
                sum(lam[q][l] * table[p][q][i] for q in range(parts))
                for i in range(m + 1)
            ]
            for l, table in enumerate(g_tables)
        ]
        for i in range(m + 1):
            for j in range(n + 1):
                a_parts.append(sum(w * c[i] for w, c in zip(interp[j], prods)))
    return primitive_vector(a_parts + list(vec))


def _biform_from_block(vec, m, n, offset=0):
    terms = {}
    for i in range(m + 1):
        for j in range(n + 1):
            c = vec[offset + i * (n + 1) + j]
            if c != 0:
                terms[(i, j)] = c
    return BiForm((m, n), terms)


def _kernel_candidates(kern):
    if not kern:
        return
    for v in kern:
        yield v
    if len(kern) > 1:
        yield [sum(col, ZERO) for col in zip(*kern)]
        if len(kern) <= 3:
            for a, b in itertools.combinations(range(len(kern)), 2):
                for sb in (1, -1):
                    yield [x + sb * y for x, y in zip(kern[a], kern[b])]


def _candidate_factor(vec, m, n, na, nl, ext, f_pull):
    """The verified factor a kernel vector describes, or None.

    Every lambda and mu must be nonzero, and over QQ(sqrt(ext)) the surd
    part of A too (a rational A belongs to the rational pass).  A rational
    factor is scaled so that A * sigma(A) = F when the scalar is a square.
    """
    parts = 1 if ext is None else 2
    for off in (parts * na, parts * (na + nl)):
        for kk in range(nl):
            if all(vec[off + q * nl + kk] == 0 for q in range(parts)):
                return None
    blocks = [_biform_from_block(vec, m, n, p * na) for p in range(parts)]
    if blocks[-1].is_zero():
        return None
    a1, a2 = blocks[0], blocks[1] if ext is not None else None
    real, surd = PullbackFactor(a1, a2, ext).sigma_product()
    c = _match_scalar(real, f_pull)
    c_surd = ZERO if surd is None else _match_scalar(surd, f_pull)
    if c is None or c_surd is None or c == c_surd == 0:
        return None
    root = rat_sqrt(c) if surd is None and c > 0 else None
    if root is not None:
        return PullbackFactor(a1.scale(ONE / root))
    return PullbackFactor(a1, a2, ext, c, c_surd)


# ---------------------------------------------------------------------------
# certificate extraction from a verified factorization
# ---------------------------------------------------------------------------


def _pick_tangent_line(gamma):
    """(line, l): the first tangent line at (1 : j) transversal to the curve.

    The tangent line at the image of (u : v) meets the curve as F(s, t; u, v),
    F the pullback, and the discriminant of that binary form in (s, t) is a
    form of degree 2d(d - 1) in (u, v).  It vanishes identically only when
    the curve has a multiple component or contains the conic; otherwise
    one of the 2d(d - 1) + 1 points (1 : j), j = 0, 1, ..., is not a root.
    """
    bound = 2 * gamma.degree * (gamma.degree - 1)
    for j in range(bound + 1):
        line, l = tangent_line(1, j)
        if _binform_squarefree(_restrict_to_line(gamma, line)):
            return line, l
    raise NotTangentLine(
        "no tangent line at (1 : j), j = 0..%d, is transversal: the curve has a "
        "multiple component or contains the conic" % bound
    )


def certificate_from_factor(gamma, factor, m, n, tangent):
    """Build and verify a rational certificate from a rational factor A.

    With A * sigma(A) = c * F and d = A * l^k, the forms c_n and c_{n-1} with
    pullbacks (d + sigma(d)) / 2 and (d - sigma(d)) / (2 r) satisfy
    c_n^2 - delta * c_{n-1}^2 = c * gamma * line^k, so c is the scale.
    ``tangent`` is ``_pick_tangent_line(gamma)``, or None when m == n.
    """
    if not factor.is_rational():
        return None
    a = factor.a1
    k = n - m
    line = None
    if k == 0:
        d_plus = a
    else:
        # the line pulls back to exactly l * sigma(l)
        line, l = tangent
        d_plus = a * l**k
    d_minus = involution_biform(d_plus)
    c_n = descend(d_plus + d_minus, gamma.variables)
    w = divide_by_ram(d_plus - d_minus)
    if c_n is None or w is None:
        return None
    c_n1 = descend(w, gamma.variables)
    if c_n1 is None:
        return None
    cert = SplitCertificate(
        m, n, line, c_n.scale(QQ(1, 2)), c_n1.scale(QQ(1, 2)), factor.scalar
    )
    delta = delta2(gamma.variables)
    try:
        ok = verify_certificate(gamma, delta, cert)
    except SplitCurvesError:
        return None
    return cert if ok else None


# ---------------------------------------------------------------------------
# the linear route: the splitting read off the degree-n system
# ---------------------------------------------------------------------------


def _divide_by_ruling(b, lk):
    """The biform b / lk for a binary form lk in (s, t), or None.

    Column j (the coefficients of u^j v^(d2-j)) is a binary form in (s, t),
    divided exactly by ``binform_quotient``.
    """
    if lk.degree == 0:
        return b.scale(ONE / lk.coeffs[0])
    d1, d2 = b.bidegree
    w = d2 + 1
    columns = []
    for j in range(w):
        q = binform_quotient(BinForm(d1, b.coeffs[j::w]), lk)
        if q is None:
            return None
        columns.append(q.coeffs)
    return BiForm._dense((d1 - lk.degree, d2), [c for row in zip(*columns) for c in row])


def _leading(f):
    """The coefficient of f's largest exponent tuple (f nonzero)."""
    return f.terms[max(f.terms)]


def _route_member(kernel, n, lk):
    """c_n: the member of an exact witness's degree-n system whose restriction
    to the conic is also divisible by l_+^k, or None when those members are
    not one point.

    For k = 0 the system is that one member.  For k > 0 the divisibility
    rows of ``cond_divisible_on_conic`` are applied to the k + 1 kernel
    forms, and the member is the one combination they leave.
    """
    if len(kernel) == 1:
        return kernel[0]
    # kernel form j is ints_j / den_j; the rows are integers too
    vecs = [over_common_denominator(f.coefficient_vector()) for f in kernel]
    rows = [[sum(map(mul, row, ints)) for ints, _den in vecs]
            for row in cond_divisible_on_conic(n, lk)]
    combo = kernel_basis(rows, len(kernel))
    if len(combo) != 1:
        return None
    member = Form.zero(kernel[0].variables, n)
    for lam, f, (_ints, den) in zip(combo[0], kernel, vecs):
        if lam:
            member = member + f.scale(lam * den)
    return member


def linear_route(gamma, f_pull, kernel, m, n, tangent):
    """Decide type (m, n) from one exact witness's degree-n system.

    Returns (factor, certificate) when the curve splits with respect to the
    witness, else None.  With k = n - m and l_+ the ruling of the tangent
    line l, c_n is the member whose restriction to the conic is h l_+^k, h
    the contact form (``_route_member``).  Then

        mu = gamma|delta l|delta^k / (c_n|delta)^2

    is a constant, R = mu c_n^2 - gamma l^k vanishes on the conic, and the
    curve splits iff R / delta = eps c_(n-1)^2 for a rational form c_(n-1)
    (a leading-term-first square root, ``arith.sqrt_terms``).  Then
    mu gamma l^k = (mu c_n)^2 - eps mu delta c_(n-1)^2, the field is
    QQ(sqrt(e)) for e the square class of eps mu, and A is the pullback of
    mu c_n + sqrt(eps mu) r c_(n-1), r = sv - tu, with l^k divided out.

    With mu = s v^2, s square-free, c_n and c_(n-1) are divided by v, so
    that s gamma l^k = c_n^2 - e delta c_(n-1)^2, and c_n's leading
    coefficient is made positive; the certificate has scale s, and so has A:
    A * sigma(A) = s F.  For e != 1, c_(n-1) has a positive leading
    coefficient too, and A = A1 + sqrt(e) A2 is read off the certificate.  A
    rational A (e = 1) is lam (C_n + sign r C_(n-1)) / l^k, C the pullbacks:
    sign = +-1 is the one ``_oriented`` picks and lam = +-1 makes A's first
    coefficient positive, and the certificate is (lam c_n, lam sign c_(n-1)),
    the one ``certificate_from_factor`` reads off A.  The factor is checked
    by ``PullbackFactor.verify`` and the certificate by
    ``verify_certificate``.
    """
    k = n - m
    param = delta2_param()
    line = None
    if k:
        line, l = tangent
        lk = BinForm(1, list(l.coeffs)) ** k
    else:
        lk = BinForm(0, [ONE])
    c_n = _route_member(kernel, n, lk)
    if c_n is None:
        return None
    c_res = restrict_to_conic(c_n, param)
    if c_res.is_zero():
        return None
    target = gamma * line**k if k else gamma
    top = c_res.s_degree()
    mu = restrict_to_conic(target, param).coeffs[2 * top] / (c_res.coeffs[top] ** 2)
    # R / delta: R pulls back to r^2 (R / delta), r = sv - tu
    pulled = divide_by_ram(pullback_curve((c_n * c_n).scale(mu) - target))
    pulled = None if pulled is None else divide_by_ram(pulled)
    quotient = None if pulled is None else descend(pulled, gamma.variables)
    if quotient is None or quotient.is_zero():
        return None
    eps = _leading(quotient)
    root = sqrt_terms(quotient.scale(ONE / eps).terms)
    if root is None:
        return None
    try:
        e, w = square_class(eps * mu)
        scale, v = square_class(mu)
    except CannotCertify:
        return None
    # scale gamma l^k = (mu c_n / v)^2 - e delta (w c_(n-1) / v)^2
    c_n = c_n.scale(mu / v)
    c_n1 = Form(gamma.variables, n - 1, root).scale(w / v)
    if _leading(c_n) < 0:
        c_n = -c_n
    even, odd = pullback_curve(c_n), ram_form() * pullback_curve(c_n1)
    if e == 1:
        found = _oriented(even, odd, lk, f_pull)
        if found is None:
            return None
        # A l^k = lam (even + sign odd), lam = +-1 making A's first
        # coefficient positive: the certificate is (lam c_n, lam sign c_(n-1))
        sign, a = found
        if next(c for c in a.coeffs if c) < 0:
            a, c_n, sign = -a, -c_n, -sign
        if sign < 0:
            c_n1 = -c_n1
        factor = PullbackFactor(a, None, None, QQ(scale))
    else:
        a1, a2 = _divide_by_ruling(even, lk), _divide_by_ruling(odd, lk)
        if a1 is None or a2 is None:
            return None
        factor = PullbackFactor(a1, a2, e, QQ(scale), ZERO)
    cert = SplitCertificate(m, n, line, c_n, c_n1, QQ(scale), e)
    try:
        ok = factor.verify(f_pull) and verify_certificate(gamma, delta2(gamma.variables), cert)
    except SplitCurvesError:
        return None
    return (factor, cert) if ok else None


def _oriented(even, odd, lk, f_pull):
    """(sign, A) with A l^k = even + sign odd for sign = 1 or -1, or None.

    For k > 0, the first sign for which l^k divides.  For k = 0, of
    A = even + odd and sigma(A) = even - odd the one whose specialization at
    the search's first specialization point, made primitive, has the smaller
    coefficients: the divisor the search's sorted enumeration tries first.
    """
    pairs = ((1, even + odd), (-1, even - odd))
    if lk.degree:
        for sign, d_plus in pairs:
            a = _divide_by_ruling(d_plus, lk)
            if a is not None:
                return sign, a
        return None
    u0, v0 = next(
        pt for pt in _SPECIALIZATION_POINTS
        if not f_pull.specialize_second(*pt).is_zero()
    )
    return min(
        pairs, key=lambda pair: pair[1].specialize_second(u0, v0).primitive().coeffs
    )


def _square_class_factor(factor):
    """The factor scaled by 1/w when its scalar s = k w^2, k square-free
    (``conics.square_class``): then A * sigma(A) = k F.  A scalar with a surd
    part, or one trial division cannot factor, is left as it is."""
    if factor.scalar_surd != 0:
        return factor
    try:
        k, w = square_class(factor.scalar)
    except CannotCertify:
        return factor
    if w == 1:
        return factor
    a2 = None if factor.a2 is None else factor.a2.scale(ONE / w)
    return PullbackFactor(factor.a1.scale(ONE / w), a2, factor.ext, QQ(k), ZERO)


# ---------------------------------------------------------------------------
# the (2,4) criterion for 7-nodal sextics
# ---------------------------------------------------------------------------


class Criterion24Result:
    __slots__ = ("holds", "failed", "details")

    def __init__(self, holds, failed, details):
        self.holds = holds
        self.failed = failed
        self.details = details

    def __repr__(self):
        if self.holds:
            return "Criterion24Result(holds)"
        return "Criterion24Result(fails at %s)" % self.failed


def criterion_24_7nodal(gamma, nodes, contact_form):
    """The four configuration conditions equivalent to splitting type (2,4).

    (a) no conic through the seven nodes; (b) the quartic system through
    the nodes and the contact divisor has dimension >= 2; (c) cubics
    through any collinear node triple and the contact divisor all contain
    the conic; (d) no cubic through five nodes and the contact divisor.
    """
    r = sum(p.orbit_size() for p in nodes)
    if r != 7:
        raise WrongNodeCount("the criterion needs exactly 7 nodes, got %d" % r)
    if any(p.field is not None for p in nodes):
        raise CannotCertify(
            "node subsets of conjugate orbits are not rationally enumerable"
        )
    if contact_form.degree != 6:
        raise WrongNodeCount("need a simple contact divisor of degree 6")
    details = {}

    space2 = FormSpace(2, gamma.variables)
    rep = system_solve(space2, [r for p in nodes for r in cond_point(space2, p)])
    details["conic_dimension"] = rep.dimension
    if rep.dimension >= 0:
        return Criterion24Result(False, "iii-a", details)

    space4 = FormSpace(4, gamma.variables)
    rep = system_solve(
        space4,
        cond_divisible_on_conic(4, contact_form)
        + [r for p in nodes for r in cond_point(space4, p)],
    )
    details["quartic_dimension"] = rep.dimension
    if rep.dimension < 2:
        return Criterion24Result(False, "iii-b", details)

    space3 = FormSpace(3, gamma.variables)
    div_rows = cond_divisible_on_conic(3, contact_form)
    rows3 = [cond_point(space3, p) for p in nodes]
    collinear = list(dependent_subsets([p.primitive() for p in nodes], 3, 2))
    details["collinear_triples"] = collinear
    for triple in collinear:
        rep = system_solve(space3, div_rows + [r for i in triple for r in rows3[i]])
        for member in rep.kernel:
            if not restrict_to_conic(member, delta2_param()).is_zero():
                details["bad_triple"] = triple
                return Criterion24Result(False, "iii-c", details)

    for five in itertools.combinations(range(7), 5):
        rep = system_solve(space3, div_rows + [r for i in five for r in rows3[i]])
        if rep.dimension >= 0:
            details["bad_five"] = five
            details["cubic_dimension"] = rep.dimension
            return Criterion24Result(False, "iii-d", details)

    return Criterion24Result(True, None, details)


# ---------------------------------------------------------------------------
# the full decision procedure
# ---------------------------------------------------------------------------


class SplittingReport:
    """Outcome of the splitting-type decision.

    outcome is one of "split", "non_splitting", "undetermined"; evidence
    carries one entry per candidate type explaining how it was settled, and
    its node subsets index ``nodes`` (set by ``splitting_type``).
    """

    __slots__ = (
        "outcome",
        "m",
        "n",
        "certificate",
        "factor",
        "evidence",
        "notes",
        "nodes",
    )

    def __init__(self, outcome, m=None, n=None, certificate=None, factor=None,
                 evidence=None, notes=None):
        self.outcome = outcome
        self.m = m
        self.n = n
        self.certificate = certificate
        self.factor = factor
        self.evidence = evidence or []
        self.notes = notes or []
        self.nodes = None

    def __repr__(self):
        if self.outcome == "split":
            return "SplittingReport(split (%d,%d))" % (self.m, self.n)
        return "SplittingReport(%s)" % self.outcome


class NormalizedConfiguration:
    """Curve, nodes and contact data moved to the normalized conic."""

    __slots__ = ("gamma", "nodes", "profile")

    def __init__(self, gamma, nodes, profile):
        self.gamma = gamma
        self.nodes = nodes
        self.profile = profile


def normalize_configuration(gamma, conic, nodes):
    """Move (curve, conic, nodes) so the conic becomes z^2 - 4xy.

    A singular conic raises ConicNotSmooth from its rational point search.
    """
    target = delta2(gamma.variables)
    lam = _match_scalar(conic, target)
    if lam is not None:
        gamma_n, nodes_n = gamma, list(nodes)
    else:
        matrix = normalize_conic(conic)
        gamma_n = compose_form(gamma, mat_inv(matrix))
        nodes_n = [transform_point(matrix, p) for p in nodes]
    profile = contact_profile(gamma_n, target, delta2_param())
    return NormalizedConfiguration(gamma_n, nodes_n, profile)


def splitting_type(gamma, conic, nodes=None):
    """Decide the splitting type of a nodal curve with a simple contact conic.

    Checks the branch conic, then the nodes (computed when ``nodes`` is
    None, else a claim that must be the singular locus), each of which must
    be a node; then normalizes the conic to z^2 - 4xy and decides as
    ``splitting_type_normalized``.  The report keeps the nodes as ``nodes``.
    """
    if classify_conic(conic) != "smooth":
        raise ConicNotSmooth("branch conic must be smooth")
    if nodes is None:
        nodes = singular_points(gamma)
    elif not singular_locus_complete(gamma, nodes):
        raise SplitCurvesError("claimed nodes are not the full singular locus")
    for rep in verify_node(gamma, nodes):
        if not rep.is_node:
            raise SplitCurvesError("singular point %r is not a node" % (rep.point,))
    report = splitting_type_normalized(normalize_configuration(gamma, conic, nodes))
    report.nodes = nodes
    return report


def splitting_type_normalized(config):
    """Decide the splitting type of an already normalized configuration.

    Its nodes are taken to be the singular locus, all nodes.  Runs, for
    every candidate type (m, n) in order: the node-count filter, the
    necessary dimension conditions, the exact (2,4) criterion when it
    applies, the linear route on each witness of exact dimension n - m, and
    the pullback factorization search where the route proves nothing.  The
    route returns its factor with its certificate, A * sigma(A) = s F with s
    square-free.  A factor the search finds is rescaled to that form
    (``_square_class_factor``) and, when rational, gets its certificate from
    ``certificate_from_factor``.  All types share one tangent line, picked
    at first need.
    """
    if config.profile.kind != SIMPLE_CONTACT:
        raise SplitCurvesError(
            "the conic is not a simple contact conic of the curve (profile: %s)"
            % config.profile.kind
        )
    gamma_n = config.gamma
    nodes_n = config.nodes
    contact_form = config.profile.contact_form
    d = gamma_n.degree
    r = sum(p.orbit_size() for p in nodes_n)
    notes = []

    f_pull = pullback_curve(gamma_n)
    candidates = type_candidates(d)
    if not candidates:
        # no verdict could cite a condition
        raise DegreeMismatch(
            "a curve of degree %d has no splitting type (m, n) with "
            "0 < m <= n and m + n = %d" % (d, d)
        )
    evidence = []
    split_hit = None
    inconclusive = []
    tangent = None  # one tangent line per curve, picked for the first m < n
    for m, n in candidates:
        entry = {"type": (m, n)}
        if not node_bound_filter(r, m, n, d):
            entry["status"] = "excluded"
            entry["reason"] = "node_bound"
            entry["detail"] = "2r = %d < m^2+n^2-d = %d" % (
                2 * r,
                m * m + n * n - d,
            )
            evidence.append(entry)
            continue
        nec = necessary_dim_check(gamma_n, nodes_n, contact_form, m, n)
        if not nec.passes:
            entry["status"] = "excluded"
            entry["reason"] = "necessary_dim"
            entry["failures"] = nec.failures
            entry["detail"] = _summarize_failures(nec, m, n)
            evidence.append(entry)
            continue
        entry["witnesses"] = nec.witnesses
        if (
            d == 6
            and r == 7
            and (m, n) == (2, 4)
            and contact_form.degree == 6
            and all(p.field is None for p in nodes_n)
        ):
            crit = criterion_24_7nodal(gamma_n, nodes_n, contact_form)
            entry["criterion_24"] = {
                "holds": crit.holds,
                "failed": crit.failed,
                "details": {
                    k: v for k, v in crit.details.items() if k != "collinear_triples"
                },
            }
            if not crit.holds:
                entry["status"] = "excluded"
                entry["reason"] = "criterion_24"
                entry["detail"] = "syzygetic criterion fails at (%s)" % crit.failed
                evidence.append(entry)
                continue
        if split_hit is None:
            k = n - m
            if k and tangent is None:
                tangent = _pick_tangent_line(gamma_n)
            found = None
            for kernel in nec.kernels:
                found = linear_route(gamma_n, f_pull, kernel, m, n, tangent)
                if found is not None:
                    break
            if found is None:
                try:
                    factor = factor_pullback(f_pull, m, n)
                except SearchBudgetExceeded as exc:
                    entry["status"] = "inconclusive"
                    entry["reason"] = "factor_search_budget"
                    entry["detail"] = str(exc)
                    evidence.append(entry)
                    inconclusive.append((m, n))
                    continue
                if factor is not None:
                    factor = _square_class_factor(factor)
                    found = (factor, certificate_from_factor(gamma_n, factor, m, n, tangent))
            if found is not None:
                factor, cert = found
                entry["status"] = "split"
                entry["reason"] = "verified_factorization"
                evidence.append(entry)
                split_hit = (m, n, factor, cert)
                continue
            entry["status"] = "inconclusive"
            entry["reason"] = "factor_search"
            entry["detail"] = (
                "necessary conditions hold but no factorization was found"
            )
            evidence.append(entry)
            inconclusive.append((m, n))
        else:
            entry["status"] = "skipped"
            entry["detail"] = "a verified splitting was already found"
            evidence.append(entry)
    if split_hit is not None:
        m, n, factor, cert = split_hit
        return SplittingReport(
            "split",
            m=m,
            n=n,
            certificate=cert,
            factor=factor,
            evidence=evidence,
            notes=notes,
        )
    if not inconclusive:
        return SplittingReport("non_splitting", evidence=evidence, notes=notes)
    notes.append(
        "types %s passed necessary conditions but the factorization search "
        "was inconclusive" % ", ".join("(%d,%d)" % t for t in inconclusive)
    )
    return SplittingReport("undetermined", evidence=evidence, notes=notes)


def _summarize_failures(nec, m, n):
    if nec.failures and nec.failures[0].get("reason") == "alpha_exceeds_nodes":
        return "alpha = %d exceeds the node count" % nec.alpha
    reasons = {f["reason"] for f in nec.failures}
    if reasons == {"degree_n_minus_1_system"}:
        return (
            "no degree-%d curve through any admissible %d-node subset"
            % (n - 1, nec.alpha)
        )
    if reasons == {"degree_n_system"}:
        return (
            "degree-%d system through nodes and contact divisor has "
            "dimension < %d for every subset" % (n, n - m)
        )
    return "all %d candidate subsets fail a dimension condition" % len(nec.failures)
