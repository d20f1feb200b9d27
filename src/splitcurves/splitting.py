"""Splitting-type decision engine.

Decides how the pullback of a nodal curve under the double cover branched
along a smooth conic decomposes, for each candidate type (m, n):

* a node-count filter (2r >= m^2 + n^2 - d) rules types out cheaply;
* necessary linear-system conditions on node subsets rule out more;
* a specialization/interpolation search reconstructs an exact biform factor
  A with A * sigma(A) equal to the pullback, which is the only way a
  positive verdict is ever produced;
* for 7-nodal sextics the four configuration conditions of the syzygetic
  criterion decide type (2, 4) outright.

Positive answers always carry an exactly verified identity; negative
answers always cite a failed necessary condition; anything else is
reported as undetermined.
"""

import itertools

from .arith import BinForm
from .conics import (
    SIMPLE_CONTACT,
    classify_conic,
    contact_profile,
    delta2,
    delta2_param,
    find_rational_point,
    normalize_conic,
    restrict_to_conic,
)
from .cover import involution_biform, pullback_curve, ram_form
from .curves import singular_locus_complete, verify_node
from .errors import (
    CannotCertify,
    DegreeMismatch,
    NotTangentLine,
    PointNotOnConic,
    SearchBudgetExceeded,
    SplitCurvesError,
    WrongNodeCount,
)
from .forms import BiForm, Form, compose_form, transform_point
from .linalg import kernel_basis, mat_inv, rank_bareiss, solve_linear
from .linsys import FormSpace, cond_point, cond_divisible_on_conic, system_solve
from .scalars import QQ, ZERO, ONE, rat_sqrt

DEFAULT_EXTENSIONS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)

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
    """Exact witness gamma * l^k = c_n^2 - delta * c_{n-1}^2."""

    __slots__ = ("m", "n", "line", "c_n", "c_n1")

    def __init__(self, m, n, line, c_n, c_n1):
        if not 0 < m <= n:
            raise ValueError("need 0 < m <= n")
        if (n > m) != (line is not None):
            raise ValueError("tangent line required exactly when m < n")
        self.m = m
        self.n = n
        self.line = line
        self.c_n = c_n
        self.c_n1 = c_n1

    def __repr__(self):
        return "SplitCertificate(type=(%d,%d))" % (self.m, self.n)


def _line_param(line):
    """Rational parametrization of a line in the plane (two basis points)."""
    vec = [line.terms.get(e, ZERO) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    basis = kernel_basis([vec], 3)
    return basis[0], basis[1]


def _restrict_to_line(f, line):
    """f composed with a rational parametrization of the line, as a binary form."""
    p1, p2 = _line_param(line)
    d = f.degree
    # interpolate f(s*p1 + t*p2) from d+1 parameter values
    rows = []
    rhs = []
    for i in range(d + 1):
        s0, t0 = QQ(i), ONE
        coords = [s0 * a + t0 * b for a, b in zip(p1, p2)]
        rows.append([s0**k * t0 ** (d - k) for k in range(d + 1)])
        rhs.append(f.eval(coords))
    return BinForm(d, solve_linear(rows, rhs))


def _binform_squarefree(b):
    if b.is_zero():
        return False
    _, factors = b.factor()
    return all(mult == 1 for _, mult in factors)


def verify_certificate(gamma, delta, cert):
    """Exact verification of a splitting certificate.

    Checks the defining identity and, for m < n, that the chosen line is
    tangent to the conic and transversal to the curve, with c_n and c_{n-1}
    not vanishing on it.
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
        from .conics import parametrize_conic

        base = find_rational_point(delta)
        if base is None:
            raise PointNotOnConic("conic has no small rational point")
        param = parametrize_conic(delta, base)
        restr = restrict_to_conic(line, param)
        # tangency: the restricted binary quadratic has a double root
        disc = restr.coeffs[1] ** 2 - 4 * restr.coeffs[0] * restr.coeffs[2]
        if restr.is_zero() or disc != 0:
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
    rhs = cert.c_n * cert.c_n - delta * cert.c_n1 * cert.c_n1
    return lhs == rhs


# ---------------------------------------------------------------------------
# necessary dimension conditions
# ---------------------------------------------------------------------------


class NecessaryOutcome:
    __slots__ = ("passes", "witnesses", "failures", "alpha")

    def __init__(self, passes, witnesses, failures, alpha):
        self.passes = passes
        self.witnesses = witnesses
        self.failures = failures
        self.alpha = alpha

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


def necessary_dim_check(gamma, nodes, contact_form, param, m, n):
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
        )
    div_rows = cond_divisible_on_conic(n, param, contact_form)
    space_n = FormSpace(n, gamma.variables)
    space_n1 = FormSpace(n - 1, gamma.variables)
    witnesses = []
    failures = []
    for subset in _alpha_subsets(nodes, alpha):
        conds2 = []
        for i in subset:
            conds2.extend(cond_point(space_n1, nodes[i]))
        rep2 = system_solve(space_n1, conds2)
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
        conds = list(div_rows)
        for i in subset:
            conds.extend(cond_point(space_n, nodes[i]))
        rep1 = system_solve(space_n, conds)
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
    return NecessaryOutcome(bool(witnesses), witnesses, failures, alpha)


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


def _degree_m_divisors(factors, m):
    """All monic-normalized degree-m divisors from (factor, mult) pairs."""
    pool = []
    for h, mult in factors:
        pool.extend([h] * mult)
    seen = {}
    for take in range(len(pool) + 1):
        for subset in itertools.combinations(range(len(pool)), take):
            deg = sum(pool[i].degree for i in subset)
            if deg != m:
                continue
            prod = BinForm(0, [ONE])
            for i in subset:
                prod = prod * pool[i]
            prod = prod.primitive()
            seen[prod.coeffs] = prod
    return [seen[k] for k in sorted(seen)]


def _binform_div_exact(f, g):
    """Exact binary-form quotient f / g, or None when g does not divide f."""
    if g.is_zero():
        return None
    if f.is_zero():
        return BinForm.zero(0)
    if g.t_multiplicity() > f.t_multiplicity() or g.degree > f.degree:
        return None
    q, r = f.to_upoly().divmod(g.to_upoly())
    if not r.is_zero():
        return None
    return BinForm.from_upoly(q, f.degree - g.degree)


def _match_scalar(candidate, target):
    """c with candidate == c * target, or None."""
    if target.is_zero():
        return ONE if candidate.is_zero() else None
    for key, val in target.terms.items():
        c = candidate.terms.get(key, ZERO) / val
        break
    return c if candidate == target.scale(c) else None


def factor_pullback(f_pull, m, n, extensions=DEFAULT_EXTENSIONS, budget=2000):
    """Search for A of bidegree (m, n) with A * sigma(A) = pullback.

    Specializes the second ruling at n+1 rational parameters, factors each
    specialized binary form, enumerates groupings of its irreducible
    factors into candidate degree-m divisors, interpolates A with one
    scalar unknown per specialization, and verifies every candidate by
    exact expansion.  Quadratic extensions QQ(sqrt(e)) are tried after the
    rational pass (splitting quadratic factors whose discriminant lies in
    e * QQ^2).  The search may miss factorizations; it never fabricates
    one, since only exactly verified products are returned.
    """
    d1, d2 = f_pull.bidegree
    if d1 != d2 or m + n != d1 or not 0 < m <= n:
        raise DegreeMismatch("factor search needs bidegree (d, d) with m+n = d")
    if involution_biform(f_pull) != f_pull:
        raise ValueError("pullback must be involution-invariant")
    specs = []
    for u0, v0 in _SPECIALIZATION_POINTS:
        b = f_pull.specialize_second(u0, v0)
        if not b.is_zero():
            specs.append((QQ(u0), QQ(v0), b))
        if len(specs) == n + 1:
            break
    if len(specs) < n + 1:
        raise SearchBudgetExceeded("could not find enough good specializations")

    budget_left = [budget]
    factored = [b.factor() for (_u, _v, b) in specs]

    result = _factor_search_rational(f_pull, m, n, specs, factored, budget_left)
    if result is not None:
        return result
    for ext in extensions:
        result = _factor_search_extension(
            f_pull, m, n, specs, factored, ext, budget_left
        )
        if result is not None:
            return result
    return None


def _consistency_rows(m, n, specs, gs, hs):
    """Linear system pinning A from both rulings of each specialization.

    For every specialization k the candidate divisor G_k and its exact
    cofactor H_k = F_k / G_k give two families of equations,

        A(s, t; u_k, v_k)      = lambda_k * G_k(s, t)
        A(u_k, v_k; s, t)      = mu_k     * H_k(s, t),

    linear in the (m+1)(n+1) coefficients of A and the 2K scalars.
    Unknown layout: a_{ij} (flattened i*(n+1)+j), lambdas, mus.
    """
    na = (m + 1) * (n + 1)
    nl = len(specs)
    ncols = na + 2 * nl
    rows = []
    for kk, (u0, v0, _b) in enumerate(specs):
        upow_n = [u0**j * v0 ** (n - j) for j in range(n + 1)]
        upow_m = [u0**i * v0 ** (m - i) for i in range(m + 1)]
        g = gs[kk]
        h = hs[kk]
        for i in range(m + 1):
            row = [ZERO] * ncols
            for j in range(n + 1):
                row[i * (n + 1) + j] = upow_n[j]
            row[na + kk] = -g[i]
            rows.append(row)
        for j in range(n + 1):
            row = [ZERO] * ncols
            for i in range(m + 1):
                row[i * (n + 1) + j] = upow_m[i]
            row[na + nl + kk] = -h[j]
            rows.append(row)
    return rows, na, nl, ncols


def _consistency_rows_ext(m, n, specs, gs, hs, ext):
    """Extension-field version of the consistency system.

    Coefficients and scalars split into rational and surd parts; layout:
    x_{ij}, y_{ij} (A = X + sqrt(ext) Y), then rho/omega (lambda) and
    rho'/omega' (mu) per specialization.
    """
    e = QQ(ext)
    na = (m + 1) * (n + 1)
    nl = len(specs)
    ncols = 2 * na + 4 * nl
    off_y = na
    off_rho = 2 * na
    off_omega = 2 * na + nl
    off_rho2 = 2 * na + 2 * nl
    off_omega2 = 2 * na + 3 * nl
    rows = []
    for kk, (u0, v0, _b) in enumerate(specs):
        upow_n = [u0**j * v0 ** (n - j) for j in range(n + 1)]
        upow_m = [u0**i * v0 ** (m - i) for i in range(m + 1)]
        g1, g2 = gs[kk]
        h1, h2 = hs[kk]
        for i in range(m + 1):
            row_r = [ZERO] * ncols
            row_s = [ZERO] * ncols
            for j in range(n + 1):
                row_r[i * (n + 1) + j] = upow_n[j]
                row_s[off_y + i * (n + 1) + j] = upow_n[j]
            row_r[off_rho + kk] = -g1[i]
            row_r[off_omega + kk] = -e * g2[i]
            row_s[off_rho + kk] = -g2[i]
            row_s[off_omega + kk] = -g1[i]
            rows.append(row_r)
            rows.append(row_s)
        for j in range(n + 1):
            row_r = [ZERO] * ncols
            row_s = [ZERO] * ncols
            for i in range(m + 1):
                row_r[i * (n + 1) + j] = upow_m[i]
                row_s[off_y + i * (n + 1) + j] = upow_m[i]
            row_r[off_rho2 + kk] = -h1[j]
            row_r[off_omega2 + kk] = -e * h2[j]
            row_s[off_rho2 + kk] = -h2[j]
            row_s[off_omega2 + kk] = -h1[j]
            rows.append(row_r)
            rows.append(row_s)
    return rows, na, nl, ncols


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


def _factor_search_rational(f_pull, m, n, specs, factored, budget_left):
    divisor_lists = []
    for _content, factors in factored:
        divs = _degree_m_divisors(factors, m)
        if not divs:
            return None
        divisor_lists.append(divs)
    for combo in itertools.product(*divisor_lists):
        if budget_left[0] <= 0:
            raise SearchBudgetExceeded("factor grouping budget exhausted")
        budget_left[0] -= 1
        gs = []
        hs = []
        bad = False
        for (_u0, _v0, b), g in zip(specs, combo):
            h = _binform_div_exact(b, g)
            if h is None:
                bad = True
                break
            gs.append(g.coeffs)
            hs.append(h.coeffs)
        if bad:
            continue
        rows, na, nl, ncols = _consistency_rows(m, n, specs, gs, hs)
        kern = kernel_basis(rows, ncols)
        for vec in _kernel_candidates(kern):
            lambdas = vec[na : na + nl]
            mus = vec[na + nl : na + 2 * nl]
            if any(l == 0 for l in lambdas) or any(mu == 0 for mu in mus):
                continue
            a = _biform_from_block(vec, m, n)
            if a.is_zero():
                continue
            prod = a * involution_biform(a)
            c = _match_scalar(prod, f_pull)
            if c is None or c == 0:
                continue
            root = rat_sqrt(c) if c > 0 else None
            if root is not None:
                return PullbackFactor(a.scale(ONE / root))
            return PullbackFactor(a, scalar=c)
    return None


def _split_quadratic(h, ext):
    """Split an irreducible binary quadratic over QQ(sqrt(ext)).

    Returns the pair representation (g1, g2) of one root factor
    g1 + sqrt(ext) g2 (degree 1), or None when h stays irreducible.
    """
    c2, c1, c0 = h.coeffs[2], h.coeffs[1], h.coeffs[0]
    if c2 == 0:
        return None
    disc = c1 * c1 - 4 * c2 * c0
    ratio = disc / QQ(ext)
    w = rat_sqrt(ratio) if ratio > 0 else (None if ratio != 0 else ZERO)
    if w is None or w == 0:
        return None
    g1 = BinForm(1, [c1, 2 * c2])
    g2 = BinForm(1, [-w, ZERO])
    return (g1, g2)


def _pair_mul(a, b, ext):
    a1, a2 = a
    b1, b2 = b
    return (a1 * b1 + (a2 * b2).scale(ext), a1 * b2 + a2 * b1)


def _pair_key(p):
    return (p[0].degree, p[0].coeffs, p[1].coeffs)


def _degree_m_divisors_ext(factors, m, ext):
    """Degree-m divisors over QQ(sqrt(ext)) in pair representation."""
    pool = []
    for h, mult in factors:
        if h.degree == 2:
            halves = _split_quadratic(h, ext)
            if halves is not None:
                conj = (halves[0], -halves[1])
                pool.extend([halves, conj] * mult)
                continue
        pool.extend([(h, BinForm.zero(h.degree))] * mult)
    seen = {}
    for take in range(len(pool) + 1):
        for subset in itertools.combinations(range(len(pool)), take):
            deg = sum(pool[i][0].degree for i in subset)
            if deg != m:
                continue
            prod = (BinForm(0, [ONE]), BinForm(0, [ZERO]))
            for i in subset:
                prod = _pair_mul(prod, pool[i], ext)
            if prod[1].is_zero():
                continue  # rational divisor: already covered by the QQ pass
            seen[_pair_key(prod)] = prod
    return [seen[k] for k in sorted(seen)]


def _pair_cofactor(f, g_pair, ext):
    """Exact cofactor of f by g1 + sqrt(ext) g2, in pair representation."""
    g1, g2 = g_pair
    norm = g1 * g1 - (g2 * g2).scale(ext)
    if norm.is_zero():
        return None
    h1 = _binform_div_exact(f * g1, norm)
    h2 = _binform_div_exact(-(f * g2), norm)
    if h1 is None or h2 is None:
        return None
    return (h1, h2)


def _factor_search_extension(f_pull, m, n, specs, factored, ext, budget_left):
    divisor_lists = []
    any_irrational = False
    for _content, factors in factored:
        ext_divs = _degree_m_divisors_ext(factors, m, ext)
        if ext_divs:
            any_irrational = True
        divs = [(g, BinForm.zero(m)) for g in _degree_m_divisors(factors, m)]
        divisor_lists.append(divs + ext_divs)
    if not any_irrational:
        return None
    for combo in itertools.product(*divisor_lists):
        if all(g2.is_zero() for (_g1, g2) in combo):
            continue
        if budget_left[0] <= 0:
            raise SearchBudgetExceeded("factor grouping budget exhausted")
        budget_left[0] -= 1
        gs = []
        hs = []
        bad = False
        for (_u0, _v0, b), g_pair in zip(specs, combo):
            h_pair = _pair_cofactor(b, g_pair, ext)
            if h_pair is None:
                bad = True
                break
            gs.append((g_pair[0].coeffs, g_pair[1].coeffs))
            hs.append((h_pair[0].coeffs, h_pair[1].coeffs))
        if bad:
            continue
        rows, na, nl, ncols = _consistency_rows_ext(m, n, specs, gs, hs, ext)
        kern = kernel_basis(rows, ncols)
        for vec in _kernel_candidates(kern):
            scalars_ok = True
            for kk in range(nl):
                if (
                    vec[2 * na + kk] == 0
                    and vec[2 * na + nl + kk] == 0
                ) or (
                    vec[2 * na + 2 * nl + kk] == 0
                    and vec[2 * na + 3 * nl + kk] == 0
                ):
                    scalars_ok = False
                    break
            if not scalars_ok:
                continue
            a1 = _biform_from_block(vec, m, n)
            a2 = _biform_from_block(vec, m, n, offset=na)
            if a2.is_zero():
                continue
            cand = PullbackFactor(a1, a2, ext)
            real, surd = cand.sigma_product()
            c1 = _match_scalar(real, f_pull)
            c2 = _match_scalar(surd, f_pull)
            if c1 is None or c2 is None or (c1 == 0 and c2 == 0):
                continue
            cand.scalar = c1
            cand.scalar_surd = c2
            return cand
    return None


# ---------------------------------------------------------------------------
# certificate extraction from a verified factorization
# ---------------------------------------------------------------------------


def _split_11_biform(q):
    """Factor a (1,1)-biform as (a s + b t)(c u + d v), or None.

    Possible exactly when the 2x2 coefficient matrix has rank one, i.e.
    for pullbacks of lines tangent to the conic.
    """
    msu = q.terms.get((1, 1), ZERO)
    msv = q.terms.get((1, 0), ZERO)
    mtu = q.terms.get((0, 1), ZERO)
    mtv = q.terms.get((0, 0), ZERO)
    if msu * mtv - msv * mtu != 0:
        return None
    # rows (a*c, a*d; b*c, b*d) = ((su, sv), (tu, tv))
    if msu != 0 or msv != 0:
        a, b = ONE, (mtu / msu if msu != 0 else mtv / msv)
    else:
        a, b = ZERO, ONE
    # now (c, d) from a row with a nonzero entry
    if a != 0:
        c, d = msu / a, msv / a
    else:
        c, d = mtu / b, mtv / b
    left = BiForm((1, 0), {(1, 0): a, (0, 0): b})
    right = BiForm((0, 1), {(0, 1): c, (0, 0): d})
    if left * right != q:
        return None
    return left, right


def _pullback_preimage(target, degree, variables=("x", "y", "z")):
    """Solve pullback(c) == target for a plane form c of the given degree."""
    space = FormSpace(degree, variables)
    from .forms import biform_basis

    basis = biform_basis(degree, degree)
    cols = []
    for expo in space.basis:
        img = pullback_curve(Form.monomial(variables, expo))
        cols.append(img.coefficient_vector(basis))
    rows = [list(r) for r in zip(*cols)]
    rhs = target.coefficient_vector(basis)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    return space.from_vector(sol)


def tangent_line_at(param, s0, t0):
    """The tangent line of the conic at the parameter point (s0 : t0)."""
    from .conics import conic_matrix

    p = param.point_at(QQ(s0), QQ(t0))
    a = conic_matrix(param.conic)
    coeffs = [
        sum((p.coords[i] * a[i][j] for i in range(3)), ZERO) for j in range(3)
    ]
    return Form(
        param.conic.variables,
        1,
        {
            (1, 0, 0): coeffs[0],
            (0, 1, 0): coeffs[1],
            (0, 0, 1): coeffs[2],
        },
    )


def _pick_tangent_line(gamma, param):
    """First tangent line at parameters (1 : j) transversal to the curve."""
    for j in range(0, 21):
        line = tangent_line_at(param, 1, j)
        if _binform_squarefree(_restrict_to_line(gamma, line)):
            return line
    raise NotTangentLine("no transversal tangent line among the first 21")


def certificate_from_factor(gamma, factor, m, n, param):
    """Build and verify a rational certificate from a rational factor A."""
    if not factor.is_rational() or factor.scalar != 1:
        return None
    a = factor.a1
    k = n - m
    line = None
    if k == 0:
        d_plus = a
    else:
        line = _pick_tangent_line(gamma, param)
        pull_line = pullback_curve(line)
        split = _split_11_biform(pull_line)
        if split is None:
            raise NotTangentLine("pullback of the tangent line did not split")
        l_plus, _l_minus = split
        # rescale the line form so its pullback is exactly l_plus * sigma(l_plus)
        line = _pullback_preimage(
            l_plus * involution_biform(l_plus), 1, gamma.variables
        )
        if line is None:
            raise NotTangentLine("ruling product is not a pullback")
        d_plus = a * l_plus**k
    d_minus = involution_biform(d_plus)
    c_n = _pullback_preimage(d_plus + d_minus, n, gamma.variables)
    diff = d_plus - d_minus
    # divide by the ramification form: solve w * r == diff
    w = _divide_by_ram(diff)
    if c_n is None or w is None:
        return None
    c_n1 = _pullback_preimage(w, n - 1, gamma.variables)
    if c_n1 is None:
        return None
    cert = SplitCertificate(
        m, n, line, c_n.scale(QQ(1, 2)), c_n1.scale(QQ(1, 2))
    )
    delta = delta2(gamma.variables)
    try:
        ok = verify_certificate(gamma, delta, cert)
    except SplitCurvesError:
        return None
    return cert if ok else None


def _divide_by_ram(biform):
    """Exact quotient by r = sv - tu, or None when not divisible."""
    d1, d2 = biform.bidegree
    if d1 == 0 or d2 == 0:
        return None if not biform.is_zero() else BiForm.zero((0, 0))
    from .forms import biform_basis

    q_basis = biform_basis(d1 - 1, d2 - 1)
    target_basis = biform_basis(d1, d2)
    r = ram_form()
    cols = []
    for (i, j) in q_basis:
        mono = BiForm((d1 - 1, d2 - 1), {(i, j): ONE})
        img = mono * r
        cols.append(img.coefficient_vector(target_basis))
    rows = [list(rw) for rw in zip(*cols)]
    rhs = biform.coefficient_vector(target_basis)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    quot = BiForm((d1 - 1, d2 - 1), dict(zip(q_basis, sol)))
    return quot if quot * r == biform else None


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


def criterion_24_7nodal(gamma, nodes, contact_form, param):
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
    conds = []
    for p in nodes:
        conds.extend(cond_point(space2, p))
    rep = system_solve(space2, conds)
    details["conic_dimension"] = rep.dimension
    if rep.dimension >= 0:
        return Criterion24Result(False, "iii-a", details)

    space4 = FormSpace(4, gamma.variables)
    conds = cond_divisible_on_conic(4, param, contact_form)
    for p in nodes:
        conds.extend(cond_point(space4, p))
    rep = system_solve(space4, conds)
    details["quartic_dimension"] = rep.dimension
    if rep.dimension < 2:
        return Criterion24Result(False, "iii-b", details)

    space3 = FormSpace(3, gamma.variables)
    div_rows = cond_divisible_on_conic(3, param, contact_form)
    collinear = []
    for triple in itertools.combinations(range(7), 3):
        rows = [nodes[i].primitive() for i in triple]
        if rank_bareiss(rows) <= 2:
            collinear.append(triple)
    details["collinear_triples"] = collinear
    for triple in collinear:
        conds = list(div_rows)
        for i in triple:
            conds.extend(cond_point(space3, nodes[i]))
        rep = system_solve(space3, conds)
        for member in rep.kernel:
            if not restrict_to_conic(member, param).is_zero():
                details["bad_triple"] = triple
                return Criterion24Result(False, "iii-c", details)

    for five in itertools.combinations(range(7), 5):
        conds = list(div_rows)
        for i in five:
            conds.extend(cond_point(space3, nodes[i]))
        rep = system_solve(space3, conds)
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
    carries one entry per candidate type explaining how it was settled.
    """

    __slots__ = (
        "outcome",
        "m",
        "n",
        "certificate",
        "factor",
        "evidence",
        "notes",
        "normalization",
    )

    def __init__(self, outcome, m=None, n=None, certificate=None, factor=None,
                 evidence=None, notes=None, normalization=None):
        self.outcome = outcome
        self.m = m
        self.n = n
        self.certificate = certificate
        self.factor = factor
        self.evidence = evidence or []
        self.notes = notes or []
        self.normalization = normalization

    def __repr__(self):
        if self.outcome == "split":
            return "SplittingReport(split (%d,%d))" % (self.m, self.n)
        return "SplittingReport(%s)" % self.outcome


class NormalizedConfiguration:
    """Curve, nodes and contact data moved to the normalized conic."""

    __slots__ = ("gamma", "nodes", "matrix", "param", "profile")

    def __init__(self, gamma, nodes, matrix, param, profile):
        self.gamma = gamma
        self.nodes = nodes
        self.matrix = matrix
        self.param = param
        self.profile = profile


def normalize_configuration(gamma, conic, nodes, height=50):
    """Move (curve, conic, nodes) so the conic becomes z^2 - 4xy."""
    if classify_conic(conic) != "smooth":
        raise PointNotOnConic("branch conic must be smooth")
    target = delta2(gamma.variables)
    lam = _match_scalar(conic, target)
    if lam is not None:
        matrix = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
        gamma_n, nodes_n = gamma, list(nodes)
    else:
        base = find_rational_point(conic, height)
        if base is None:
            raise PointNotOnConic(
                "no rational point of height <= %d on the conic" % height
            )
        matrix = normalize_conic(conic, base)
        inv = mat_inv(matrix)
        gamma_n = compose_form(gamma, inv)
        nodes_n = [transform_point(matrix, p) for p in nodes]
    param = delta2_param()
    profile = contact_profile(gamma_n, target, param)
    return NormalizedConfiguration(gamma_n, nodes_n, matrix, param, profile)


def splitting_type(
    gamma,
    conic,
    nodes,
    height=50,
    shear_start=0,
    budget=2000,
    extensions=DEFAULT_EXTENSIONS,
    verify_inputs=True,
):
    """Decide the splitting type of a nodal curve with a simple contact conic.

    Normalizes the conic to z^2 - 4xy, then decides as
    ``splitting_type_normalized``.
    """
    return splitting_type_normalized(
        normalize_configuration(gamma, conic, nodes, height),
        shear_start=shear_start,
        budget=budget,
        extensions=extensions,
        verify_inputs=verify_inputs,
    )


def splitting_type_normalized(
    config,
    shear_start=0,
    budget=2000,
    extensions=DEFAULT_EXTENSIONS,
    verify_inputs=True,
):
    """Decide the splitting type of an already normalized configuration.

    Runs, for every candidate type (m, n) in order: the node-count filter,
    the necessary dimension conditions, the exact (2,4) criterion when it
    applies, and finally the pullback factorization search whose verified
    product is the only source of a positive verdict.
    """
    if config.profile.kind != SIMPLE_CONTACT:
        raise SplitCurvesError(
            "the conic is not a simple contact conic of the curve (profile: %s)"
            % config.profile.kind
        )
    gamma_n = config.gamma
    nodes_n = config.nodes
    param = config.param
    contact_form = config.profile.contact_form
    d = gamma_n.degree
    r = sum(p.orbit_size() for p in nodes_n)
    notes = []
    if verify_inputs:
        for p in nodes_n:
            rep = verify_node(gamma_n, p)
            if not rep.is_node:
                raise SplitCurvesError("claimed node %r is not a node" % (p,))
        if not singular_locus_complete(gamma_n, nodes_n, shear_start=shear_start):
            raise SplitCurvesError("claimed nodes are not the full singular locus")

    f_pull = pullback_curve(gamma_n)
    evidence = []
    split_hit = None
    inconclusive = []
    for m, n in type_candidates(d):
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
        nec = necessary_dim_check(gamma_n, nodes_n, contact_form, param, m, n)
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
            crit = criterion_24_7nodal(gamma_n, nodes_n, contact_form, param)
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
            try:
                factor = factor_pullback(f_pull, m, n, extensions, budget)
            except SearchBudgetExceeded as exc:
                entry["status"] = "inconclusive"
                entry["reason"] = "factor_search_budget"
                entry["detail"] = str(exc)
                evidence.append(entry)
                inconclusive.append((m, n))
                continue
            if factor is not None and factor.verify(f_pull):
                cert = None
                if factor.is_rational() and factor.scalar == 1:
                    cert = certificate_from_factor(gamma_n, factor, m, n, param)
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
            normalization=config.matrix,
        )
    if not inconclusive:
        return SplittingReport(
            "non_splitting",
            evidence=evidence,
            notes=notes,
            normalization=config.matrix,
        )
    notes.append(
        "types %s passed necessary conditions but the factorization search "
        "was inconclusive" % ", ".join("(%d,%d)" % t for t in inconclusive)
    )
    return SplittingReport(
        "undetermined",
        evidence=evidence,
        notes=notes,
        normalization=config.matrix,
    )


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
