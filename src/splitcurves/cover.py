"""The double cover P1 x P1 -> P2 branched along z^2 - 4xy.

The cover map is (s:t, u:v) -> (su : tv : sv + tu); its deck involution
swaps the two rulings, and the ramification divisor is cut out by
r = sv - tu, whose square is the pullback of the branch conic.  Curves must
be brought to the normalized conic first (conics.normalize_conic).
"""

from .forms import BiForm, substitute_form
from .scalars import QQ, ONE


def ram_form():
    """The ramification form r = sv - tu."""
    return BiForm((1, 1), {(1, 0): ONE, (0, 1): QQ(-1)})


def cover_images(variables=("x", "y", "z")):
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
