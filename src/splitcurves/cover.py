"""The double cover P1 x P1 -> P2 branched along z^2 - 4xy.

The cover map is (s:t, u:v) -> (su : tv : sv + tu); its deck involution
swaps the two rulings, and the ramification divisor is cut out by
r = sv - tu, whose square is the pullback of the branch conic.  Curves must
be brought to the normalized conic first (conics.normalize_conic).

In this frame three inverses of the cover have closed forms, and each
checks its result by exact expansion:

* ``descend(b)``: the plane form c with pullback(c) = b.  The monomial
  x^a y^(d-k+a) z^(k-2a) pulls back to terms s^i u^j with i + j = k and
  a <= min(i, j), with binomial coefficient C(k-2a, j-a); for i >= j its
  a = j term is s^i u^j itself.  So the coefficients of c are read off in
  order of j, each from one coefficient of b minus known terms, and c is
  unique.  A biform with no preimage fails the final check.
* ``divide_by_ram(b)``: b / (sv - tu).  At t = v = 1 the divisor is s - u,
  monic in s, so synthetic division over Q[u] gives the only possible
  quotient; the final check q * r == b decides divisibility.
* ``tangent_line(s0, t0)``: the line t0^2 x + s0^2 y - s0 t0 z, tangent to
  the conic at the image of (s0 : t0), pulls back to l * sigma(l) with
  l = t0 s - s0 t, since t0^2 su + s0^2 tv - s0 t0 (sv + tu) factors so.
"""

from math import comb

from .errors import NotTangentLine
from .forms import PLANE_VARS, BiForm, Form, monomial_basis, substitute_form
from .scalars import QQ, ZERO, ONE


def ram_form():
    """The ramification form r = sv - tu."""
    return BiForm((1, 1), {(1, 0): ONE, (0, 1): QQ(-1)})


def cover_images(variables=PLANE_VARS):
    """Substitution images x -> su, y -> tv, z -> sv + tu."""
    x, y, z = variables
    return {
        x: BiForm((1, 1), {(1, 1): ONE}),
        y: BiForm((1, 1), {(0, 0): ONE}),
        z: BiForm((1, 1), {(1, 0): ONE, (0, 1): ONE}),
    }


def pullback_curve(f, variables=None):
    """Pullback of a plane curve under the cover; bidegree (d, d)."""
    if len(f.variables) != 3:
        raise ValueError("the cover pulls back plane curves only")
    # The pullback is invariant under the deck involution, so the terms
    # (i, j) and (j, i) are equal; substitute_form keeps one coefficient
    # object for both.
    return substitute_form(f, cover_images(variables or f.variables))


def involution_biform(biform):
    """Deck involution on biforms: swap (s,t) with (u,v)."""
    return biform.involution()


def descend(b, variables=PLANE_VARS):
    """The plane form c with pullback_curve(c) == b, or None."""
    d, d2 = b.bidegree
    if d != d2:
        return None
    coeffs = b.coeffs
    c = {}
    for a, _b, e in reversed(monomial_basis(3, d)):
        k = 2 * a + e
        # coefficient of s^(k-a) u^a, less the monomials with a smaller a
        val = coeffs[(k - a) * (d + 1) + a]
        for a2 in range(max(0, k - d), a):
            prior = c.get((a2, d - k + a2, k - 2 * a2), ZERO)
            val -= comb(k - 2 * a2, a - a2) * prior
        if val:
            c[(a, d - k + a, e)] = val
    form = Form(variables, d, c)
    return form if pullback_curve(form) == b else None


def divide_by_ram(b):
    """The quotient b / (sv - tu), or None when r does not divide b."""
    d1, d2 = b.bidegree
    if d1 == 0 or d2 == 0:
        return None
    w = d2 + 1
    # row i: the coefficients of s^i as a polynomial in u (t = v = 1)
    rows = [b.coeffs[i * w:(i + 1) * w] for i in range(d1 + 1)]
    quotient = []
    carry = [ZERO] * w
    for i in range(d1, 0, -1):
        # q_(i-1) = row_i + u * q_i
        carry = [x + y for x, y in zip(rows[i], [ZERO] + carry[:-1])]
        quotient.append(carry[:d2])
    quotient.reverse()
    q = BiForm._dense((d1 - 1, d2 - 1), [x for row in quotient for x in row])
    return q if q * ram_form() == b else None


def tangent_line(s0, t0):
    """(line, l): the tangent line at the image of (s0 : t0), and l = t0 s - s0 t.

    Both are scaled so that l has leading coefficient 1 (that of s, or of t
    when that is 0); the line then pulls back to exactly l * sigma(l).
    """
    s0, t0 = QQ(s0), QQ(t0)
    lead = t0 if t0 != 0 else -s0
    if lead == 0:
        raise ValueError("(0 : 0) is not a point of P1")
    l = BiForm((1, 0), {(1, 0): t0 / lead, (0, 0): -s0 / lead})
    coeffs = [c / (lead * lead) for c in (t0 * t0, s0 * s0, -s0 * t0)]
    # a line pulls back to the same combination of the cover images
    pulled = BiForm.zero((1, 1))
    for image, c in zip(cover_images().values(), coeffs):
        pulled = pulled + image.scale(c)
    if pulled != l * involution_biform(l):
        raise NotTangentLine("pullback of the tangent line did not split")
    expos = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return Form(PLANE_VARS, 1, dict(zip(expos, coeffs))), l
