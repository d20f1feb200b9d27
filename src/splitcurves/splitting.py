"""Splitting-type decision engine.

Decides how the pullback of a nodal curve under the double cover branched
along a smooth conic decomposes, for each candidate type (m, n):

* a node-count filter (2r >= m^2 + n^2 - d) rules types out cheaply;
* necessary linear-system conditions on node subsets rule out more;
* for 7-nodal sextics the four configuration conditions of the syzygetic
  criterion decide type (2, 4) outright when they fail;
* the linear route (``linear_route``) reads the splitting off the degree-n
  system of each witness of exact dimension n - m: one member c_n, a
  constant mu, one exact division by delta and one square root give the
  certificate mu gamma l^k = c_n^2 - e delta c_(n-1)^2 and the factor A
  over QQ(sqrt(e));
* where no such witness splits, a specialization/interpolation search
  reconstructs a rational biform factor A with A * sigma(A) a multiple of
  the pullback, and ``certificate_from_factor`` reads the certificate off
  it.  A splitting over QQ(sqrt(e)), e != 1, comes from the route alone.

Positive answers always carry an exactly verified identity, a factor
checked by exact expansion of A * sigma(A); negative answers always cite a
failed necessary condition; anything else is reported as undetermined.

``splitting_type`` computes the nodes when none are given and checks a
given list once, as a claim; ``splitting_type_normalized`` trusts its nodes.
"""

import itertools
from operator import mul

from .arith import BinForm, binform_quotient, quotient_terms, sqrt_terms, upoly_squarefree
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
    involution_biform,
    pullback_curve,
    ram_form,
    tangent_line,
)
from .curves import check_claim, irreducibility_sextic, singular_points, verify_node
from .errors import (
    CannotCertify,
    ConicNotSmooth,
    DegreeMismatch,
    NotTangentLine,
    SearchBudgetExceeded,
    SplitCurvesError,
    TooManyNodes,
    WrongNodeCount,
)
from .forms import BiForm, Form, compose_form, monomial_values, substitute_form, transform_point
from .linalg import dependent_subsets, kernel_basis, mat_inv, primitive_vector
from .linsys import (
    FormSpace,
    SubsetSystems,
    cond_divisible_on_conic,
    cond_point,
    system_dimension,
    system_solve,
)
from .scalars import QQ, ZERO, ONE, over_common_denominator

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
    """Necessary node count: 2r >= m^2 + n^2 - d, for any reduced curve,
    irreducible or not: A . sigma(A) = m^2 + n^2 counts one point over each
    of the d tangency points and at most two over each node."""
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


def _alpha_subsets(sizes, alpha):
    """Index subsets whose orbit sizes sum to alpha (orbits are atomic), by
    number of orbits, then in ``itertools.combinations`` order.

    A depth-first walk over increasing indices that stops where the sizes
    left cannot reach alpha: ``take`` more orbits from index i on sum to
    between take times the least and take times the largest size from i
    on, and both bounds only tighten as i grows.
    """
    k = len(sizes)
    low, high = list(sizes), list(sizes)
    for i in range(k - 2, -1, -1):
        low[i] = min(low[i], low[i + 1])
        high[i] = max(high[i], high[i + 1])
    out = []

    def walk(start, take, need, chosen):
        if not take:
            if not need:
                out.append(tuple(chosen))
            return
        for i in range(start, k - take + 1):
            if not take * low[i] <= need <= take * high[i]:
                return
            chosen.append(i)
            walk(i + 1, take - 1, need - sizes[i], chosen)
            chosen.pop()

    for take in range(k + 1):
        walk(0, take, alpha, [])
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
    systems_n1 = SubsetSystems(space_n1, [], nodes)
    witnesses = []
    failures = []
    kernels = []
    for subset in _alpha_subsets([p.orbit_size() for p in nodes], alpha):
        dim_n1 = systems_n1.dimension(subset)
        if dim_n1 < 0:
            failures.append(
                {
                    "subset": subset,
                    "reason": "degree_n_minus_1_system",
                    "dimension": dim_n1,
                    "required": 0,
                }
            )
            continue
        # a subset that gets here is mostly a witness of exact dimension,
        # whose kernel the linear route reads: solve it outright rather than
        # eliminate its rows twice
        rep = system_solve(
            space_n, div_rows + [r for i in subset for r in cond_point(space_n, nodes[i])]
        )
        dim_n = rep.dimension
        if dim_n < n - m:
            failures.append(
                {
                    "subset": subset,
                    "reason": "degree_n_system",
                    "dimension": dim_n,
                    "required": n - m,
                }
            )
            continue
        witnesses.append({"subset": subset, "dim_n": dim_n, "dim_n1": dim_n1})
        if dim_n == n - m:
            kernels.append(rep.kernel)
    return NecessaryOutcome(bool(witnesses), witnesses, failures, alpha, kernels)


# ---------------------------------------------------------------------------
# pullback factorization search
# ---------------------------------------------------------------------------


class PullbackFactor:
    """A factor A with A * sigma(A) = scalar * F, the scalar rational.

    Rational (a2 is None), or, from ``linear_route`` only, defined over
    QQ(sqrt(ext)) as a1 + sqrt(ext) * a2.  The scalar is square-free whenever
    trial division can factor it.
    """

    __slots__ = ("a1", "a2", "ext", "scalar")

    def __init__(self, a1, a2=None, ext=None, scalar=ONE):
        self.a1 = a1
        self.a2 = a2
        self.ext = ext
        self.scalar = scalar

    @property
    def bidegree(self):
        return self.a1.bidegree

    def is_rational(self):
        return self.a2 is None

    def verify(self, f_pull):
        """A * sigma(A) == scalar * F by exact expansion; over QQ(sqrt(ext))
        the product's surd part a1 sigma(a2) + a2 sigma(a1) must vanish."""
        s1 = involution_biform(self.a1)
        if self.a2 is None:
            return self.a1 * s1 == f_pull.scale(self.scalar)
        s2 = involution_biform(self.a2)
        real = self.a1 * s1 + (self.a2 * s2).scale(self.ext)
        return real == f_pull.scale(self.scalar) and (
            self.a1 * s2 + self.a2 * s1
        ).is_zero()

    def __repr__(self):
        if self.a2 is None:
            return "PullbackFactor(bidegree=%r)" % (self.bidegree,)
        return "PullbackFactor(bidegree=%r, ext=sqrt(%d))" % (self.bidegree, self.ext)


def _degree_m_divisors(b, factors, m):
    """(divisor, cofactor) pairs of the distinct primitive degree-m divisors
    of the binary form b with the given irreducible factors, sorted by the
    divisors' coefficients."""
    pool = [h for h, mult in factors for _ in range(mult)]
    seen = {}
    for take in range(len(pool) + 1):
        for subset in itertools.combinations(pool, take):
            if sum(h.degree for h in subset) != m:
                continue
            prod = BinForm(0, [ONE])
            for h in subset:
                prod = prod * h
            prod = prod.primitive()
            seen[prod.coeffs] = prod
    return [(seen[k], binform_quotient(b, seen[k])) for k in sorted(seen)]


def _match_scalar(candidate, target):
    """c with candidate == c * target, or None, for two Forms or two BiForms.

    Biforms are read off their stores: with P / p and T / t the two and T_k
    the first nonzero numerator of T, c = P_k t / (T_k p) exactly when
    P_i T_k == T_i P_k for every i.
    """
    if target.is_zero():
        return ONE if candidate.is_zero() else None
    if not isinstance(target, BiForm):
        key = next(iter(target.terms))
        c = candidate.terms.get(key, ZERO) / target.terms[key]
        return c if candidate == target.scale(c) else None
    if candidate.bidegree != target.bidegree:
        return None
    k, t_k = next((k, v) for k, v in enumerate(target.nums) if v)
    p_k = candidate.nums[k]
    if any(p * t_k != t * p_k for p, t in zip(candidate.nums, target.nums)):
        return None
    return QQ(p_k * target.den, t_k * candidate.den)


def factor_pullback(f_pull, m, n):
    """Search for a rational A of bidegree (m, n) with A * sigma(A) = c * F.

    Specializes the second ruling at n+1 rational parameters and factors
    each specialized binary form over QQ.  Every grouping of the factors
    into one degree-m divisor per specialization gives a linear system with
    one scalar unknown per specialization and ruling; each kernel candidate
    is verified by exact expansion.  The system is solved in those 2(n+1)
    scalars alone: A(s, t; u_k, v_k) = lambda_k * G_k at n+1 distinct
    points fixes A by interpolation, so substituting it changes neither the
    kernel nor, once lifted back, its basis (see ``_grouping_kernel``).
    Returns a rational factor or None: a splitting over QQ(sqrt(e)) comes
    from ``linear_route`` alone.  The search may miss factorizations; it
    never fabricates one, since only exactly verified products are
    returned.  More than FACTOR_SEARCH_BUDGET groupings raise
    SearchBudgetExceeded.  ``splitting_type_normalized`` runs it only where
    ``linear_route`` proves no splitting.
    """
    d1, d2 = f_pull.bidegree
    if d1 != d2 or m + n != d1 or not 0 < m <= n:
        raise DegreeMismatch("factor search needs bidegree (d, d) with m+n = d")
    if involution_biform(f_pull) != f_pull:
        raise ValueError("pullback must be involution-invariant")
    specs = _specializations(f_pull, n)
    pair_lists = [_degree_m_divisors(b, b.factor()[1], m) for _u, _v, b in specs]
    interp = None  # built at the first grouping: most misses reach none
    for groupings, combo in enumerate(itertools.product(*pair_lists)):
        if groupings >= FACTOR_SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                "factor grouping budget of %d groupings exhausted"
                % FACTOR_SEARCH_BUDGET
            )
        if interp is None:
            interp = _interpolation_matrix(n, specs)
        factor = _factor_from_grouping(f_pull, m, n, specs, interp, combo)
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


def _factor_from_grouping(f_pull, m, n, specs, interp, combo):
    """The first verified factor whose specializations are the divisors of
    the (divisor, cofactor) pairs in combo."""
    gs = [g for g, _h in combo]
    hs = [h for _g, h in combo]
    for vec in _kernel_candidates(_grouping_kernel(m, n, specs, interp, gs, hs)):
        factor = _candidate_factor(vec, m, n, f_pull)
        if factor is not None:
            return factor
    return None


def _values(coeffs, powers):
    """Values of a binary form at the points whose monomial rows are ``powers``."""
    ints, den = over_common_denominator(coeffs)
    return [QQ(sum(c * w for c, w in zip(ints, row)), den) for row in powers]


def _grouping_kernel(m, n, specs, interp, gs, hs):
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

    Each kernel vector (lambdas, then mus) is lifted to the layout of the
    system in all unknowns: A (a_ij flattened i*(n+1)+j), then the lambdas,
    then the mus.  Lifting is a bijection between the two kernels, and since
    the A columns come first, a lifted vector's last nonzero entry is its
    scalar part's.  So both systems' reduced echelon forms have the same
    free columns (the last nonzero positions of kernel vectors), and the
    basis vector of a free column is the kernel vector that is 1 there and
    0 at the other free columns.  The lifts of ``kernel_basis`` of the
    reduced system, made primitive, are therefore ``kernel_basis`` of the
    full system, in the same order.
    """
    nl = len(specs)
    powers = _monomial_rows(m, specs)
    g_vals = [_values(g.coeffs, powers) for g in gs]
    rows = []
    for k, h in enumerate(hs):
        for j in range(n + 1):
            row = [w * vals[k] for w, vals in zip(interp[j], g_vals)] + [ZERO] * nl
            row[nl + k] = -h.coeffs[j]
            rows.append(row)
    return [_lift(vec, m, n, interp, gs) for vec in kernel_basis(rows, 2 * nl)]


def _lift(vec, m, n, interp, gs):
    """Primitive full-layout vector (A, lambdas, mus) of a kernel vector in
    the scalars, with a_ij = sum_l W[j][l] (lambda_l G_l)[i]."""
    # (lambda_l G_l)[i] for every l
    prods = [[lam * c for c in g.coeffs] for lam, g in zip(vec, gs)]
    a = [
        sum(w * c[i] for w, c in zip(interp[j], prods))
        for i in range(m + 1)
        for j in range(n + 1)
    ]
    return primitive_vector(a + list(vec))


def _biform_from_block(vec, m, n):
    """The biform of A's block of an integer kernel vector, whose layout
    i * (n + 1) + j is the store's."""
    return BiForm._dense((m, n), [c.numerator for c in vec[: (m + 1) * (n + 1)]])


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


def _candidate_factor(vec, m, n, f_pull):
    """The verified rational factor a kernel vector describes, or None.

    Every lambda and mu must be nonzero.  A scalar c = k w^2, k square-free
    (``conics.square_class``), is reduced to k: A / w has
    A * sigma(A) = k F.  A scalar that trial division cannot factor is left
    as it is.
    """
    # vec is A's coefficients, then the lambdas and the mus
    if any(c == 0 for c in vec[(m + 1) * (n + 1):]):
        return None
    a = _biform_from_block(vec, m, n)
    c = _match_scalar(a * involution_biform(a), f_pull)
    if c is None or c == 0:
        return None
    try:
        c, w = square_class(c)
    except CannotCertify:
        w = ONE
    return PullbackFactor(a.scale(ONE / w), scalar=QQ(c))


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
    w = (d_plus - d_minus).quotient(ram_form())
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
    curve splits iff R / delta = eps c_(n-1)^2 for a rational form c_(n-1):
    one exact division in the plane (``arith.quotient_terms``) and one
    leading-term-first square root (``arith.sqrt_terms``).  Then
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
    line, ruling = None, BiForm((0, 0), {(0, 0): ONE})
    if k:
        line, l = tangent
        ruling = l**k
    c_n = _route_member(kernel, n, BinForm(k, [QQ(c, ruling.den) for c in ruling.nums]))
    if c_n is None:
        return None
    c_res = restrict_to_conic(c_n, param)
    if c_res.is_zero():
        return None
    target = gamma * line**k if k else gamma
    top = c_res.s_degree()
    mu = restrict_to_conic(target, param).coeffs[2 * top] / (c_res.coeffs[top] ** 2)
    delta = delta2(gamma.variables)
    quotient = quotient_terms(((c_n * c_n).scale(mu) - target).terms, delta.terms)
    if not quotient:
        return None
    eps = quotient[max(quotient)]
    root = sqrt_terms({expo: c / eps for expo, c in quotient.items()})
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
    even = pullback_curve(c_n)
    if n > 1:
        odd = ram_form() * pullback_curve(c_n1)
    else:
        # type (1, 1): c_(n-1) is a constant, its own pullback, which
        # pullback_curve refuses to substitute
        odd = ram_form().scale(_leading(c_n1))
    if e == 1:
        found = _oriented(even, odd, ruling, f_pull)
        if found is None:
            return None
        # A l^k = lam (even + sign odd), lam = +-1 making A's first
        # coefficient positive: the certificate is (lam c_n, lam sign c_(n-1))
        sign, a = found
        if next(c for c in a.nums if c) < 0:
            a, c_n, sign = -a, -c_n, -sign
        if sign < 0:
            c_n1 = -c_n1
        factor = PullbackFactor(a, None, None, QQ(scale))
    else:
        a1, a2 = even.quotient(ruling), odd.quotient(ruling)
        if a1 is None or a2 is None:
            return None
        factor = PullbackFactor(a1, a2, e, QQ(scale))
    cert = SplitCertificate(m, n, line, c_n, c_n1, QQ(scale), e)
    try:
        ok = factor.verify(f_pull) and verify_certificate(gamma, delta, cert)
    except SplitCurvesError:
        return None
    return (factor, cert) if ok else None


def _oriented(even, odd, ruling, f_pull):
    """(sign, A) with A l^k = even + sign odd for sign = 1 or -1, or None.

    For k > 0, the first sign for which l^k divides.  For k = 0, of
    A = even + odd and sigma(A) = even - odd the one whose specialization at
    the search's first specialization point, made primitive, has the smaller
    coefficients: the divisor the search's sorted enumeration tries first.
    """
    pairs = ((1, even + odd), (-1, even - odd))
    if ruling.bidegree[0]:
        for sign, d_plus in pairs:
            a = d_plus.quotient(ruling)
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
    dim = system_dimension(space2, [], nodes)
    details["conic_dimension"] = dim
    if dim >= 0:
        return Criterion24Result(False, "iii-a", details)

    space4 = FormSpace(4, gamma.variables)
    dim = system_dimension(space4, cond_divisible_on_conic(4, contact_form), nodes)
    details["quartic_dimension"] = dim
    if dim < 2:
        return Criterion24Result(False, "iii-b", details)

    space3 = FormSpace(3, gamma.variables)
    div_rows = cond_divisible_on_conic(3, contact_form)
    collinear = list(dependent_subsets([p.primitive() for p in nodes], 3, 2))
    details["collinear_triples"] = collinear
    for triple in collinear:
        rows = div_rows + [r for i in triple for r in cond_point(space3, nodes[i])]
        rep = system_solve(space3, rows)
        for member in rep.kernel:
            if not restrict_to_conic(member, delta2_param()).is_zero():
                details["bad_triple"] = triple
                return Criterion24Result(False, "iii-c", details)

    systems3 = SubsetSystems(space3, div_rows, nodes)
    for five in itertools.combinations(range(7), 5):
        dim = systems3.dimension(five)
        if dim >= 0:
            details["bad_five"] = five
            details["cubic_dimension"] = dim
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
        reports = verify_node(gamma, nodes)
    else:
        reports, complete = check_claim(gamma, nodes)
        if not complete:
            raise SplitCurvesError("claimed nodes are not the full singular locus")
    for rep in reports:
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
    the pullback factorization search over QQ where the route proves
    nothing.  The route returns its factor with its certificate,
    A * sigma(A) = s F with s square-free; a factor the search finds is
    rational, has such an s too, and gets its certificate from
    ``certificate_from_factor``.  All types share one tangent line, picked
    at first need.

    The necessary dimension conditions and the (2,4) criterion hold only
    for an absolutely irreducible curve: where ``_irreducibility_gap``
    does not certify it, their entries are inconclusive (not excluded with
    a field that withdraws the status, which every reader would need to
    know), and the verdict is undetermined.
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
    # exclusions that hold only for an absolutely irreducible curve
    waiting = [e for e in evidence if e.get("reason") in ("necessary_dim", "criterion_24")]
    gap = _irreducibility_gap(gamma_n, nodes_n, r) if waiting else None
    if gap is not None:
        for entry in waiting:
            entry["status"] = "inconclusive"
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
    if inconclusive:
        notes.append(
            "types %s passed necessary conditions but the factorization search "
            "was inconclusive" % _type_list(inconclusive)
        )
    if gap is not None:
        notes.append(
            "types %s failed a necessary condition that holds only for an "
            "absolutely irreducible curve: %s" % (_type_list(e["type"] for e in waiting), gap)
        )
    elif not inconclusive:
        return SplittingReport("non_splitting", evidence=evidence, notes=notes)
    return SplittingReport("undetermined", evidence=evidence, notes=notes)


def _type_list(types):
    return ", ".join("(%d,%d)" % t for t in types)


def _irreducibility_gap(gamma, nodes, r):
    """Why the r-nodal curve is not certified absolutely irreducible, or
    None: r < d - 1 certifies it (a component of degree e meets the rest in
    e (d - e) >= d - 1 nodes), and so does ``irreducibility_sextic``."""
    d = gamma.degree
    try:
        if r < d - 1 or d == 6 and irreducibility_sextic(gamma, nodes):
            return None
    except (CannotCertify, TooManyNodes) as exc:
        return "no irreducibility certificate (%s)" % exc
    return "no irreducibility certificate for degree %d with %d nodes" % (d, r)


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
    if not nec.failures:
        return "no union of node orbits has alpha = %d nodes" % nec.alpha
    return "all %d candidate subsets fail a dimension condition" % len(nec.failures)
