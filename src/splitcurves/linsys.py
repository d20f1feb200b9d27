"""Linear systems of plane curves and of forms on P^3.

A condition (incidence, singularity, divisor divisibility on a conic) is a
row: a plain tuple of rationals indexed by a fixed monomial basis.  A
conjugate point over QQ[a]/(p) contributes deg(p) rows, one per power-basis
coordinate, which encodes vanishing along its whole Galois orbit.  The
entries of point and singularity rows come from ``forms.monomial_values``,
the integer evaluation kernel of ``Form.eval``.  Rows are
immutable, so a caller that solves over many subsets of one node list builds
each node's rows once and joins them per subset.  Dimensions and kernels are
exact: one fraction-free elimination gives the kernel, as content-normalized
vectors read off the reduced echelon form, and the rank is the number of
columns minus the kernel dimension.
"""

from .arith import UPoly
from .errors import FieldMismatch
from .forms import PLANE_VARS, Form, monomial_basis, monomial_values
from .linalg import kernel_basis
from .scalars import QQ, ZERO


class FormSpace:
    """All forms of a fixed degree in 3 (plane) or 4 (space) variables."""

    def __init__(self, degree, variables=PLANE_VARS):
        self.degree = degree
        self.variables = tuple(variables)
        self.basis = monomial_basis(len(self.variables), degree)

    def size(self):
        return len(self.basis)

    def from_vector(self, vec):
        return Form(self.variables, self.degree, dict(zip(self.basis, vec)))

    def describe(self):
        return "forms of degree %d in %d variables" % (
            self.degree,
            len(self.variables),
        )


class LinSysReport:
    """Exact outcome of a linear system of curves."""

    __slots__ = ("space", "rank", "dimension", "kernel")

    def __init__(self, space, rank, dimension, kernel):
        self.space = space
        self.rank = rank
        self.dimension = dimension
        self.kernel = kernel

    def __repr__(self):
        return "LinSysReport(dim=%d, rank=%d, %s)" % (
            self.dimension,
            self.rank,
            self.space.describe(),
        )


def _values(p, expos):
    """The monomials ``expos`` at p as integer vectors over one denominator:
    ``monomial_values``, with a rational value as a vector of length one."""
    values, den = monomial_values(p.coords, expos, p.field)
    if p.field is None:
        values = [[v] for v in values]
    return values, den


def _rows(columns, den):
    """One row of exact entries per coordinate of the integer columns."""
    return [tuple(QQ(x, den) for x in row) for row in zip(*columns)]


def cond_point(space, p):
    """Vanishing at a point (or at its full conjugate orbit)."""
    if len(p.coords) != len(space.variables):
        raise FieldMismatch("point dimension does not match the space")
    return _rows(*_values(p, space.basis))


def cond_singular(space, p):
    """Vanishing of all partial derivatives at a point (orbit-aware).

    The Euler relation makes the value condition redundant; all partial rows
    are emitted and rank computation absorbs any redundancy.  The monomials
    of degree one less are evaluated once and shared by the partials.
    """
    nvars = len(space.variables)
    if len(p.coords) != nvars:
        raise FieldMismatch("point dimension does not match the space")
    lower = monomial_basis(nvars, space.degree - 1)
    values, den = _values(p, lower)
    at = dict(zip(lower, values))
    zero = [0] * p.orbit_size()
    rows = []
    for k in range(nvars):
        columns = []
        for expo in space.basis:
            if expo[k] == 0:
                columns.append(zero)
                continue
            de = list(expo)
            de[k] -= 1
            columns.append([expo[k] * x for x in at[tuple(de)]])
        rows.extend(_rows(columns, den))
    return rows


def cond_divisible_on_conic(degree, t_form):
    """Rows forcing the restriction of a candidate to z^2 - 4xy to be divisible by T.

    On the parametrization (s^2 : t^2 : 2st) the monomial x^a y^b z^c
    restricts to 2^c s^(2a+c) t^(2b+c).  Restriction is linear in the
    candidate's coefficients, so the remainder of its restriction by T is
    the combination of the remainders of the monomials' restrictions:
    remainder row i holds coefficient i of each monomial's remainder.
    """
    if t_form.degree == 0:
        return []
    big = 2 * degree
    # column m: the coefficients of s^i t^(big-i) in restrict(mono_m)
    cols = []
    for a, _b, c in monomial_basis(3, degree):
        col = [ZERO] * (big + 1)
        col[2 * a + c] = QQ(2**c)
        cols.append(col)
    # t^tm divides the restriction: top s-coefficients vanish
    tm = t_form.t_multiplicity()
    rows = [tuple(col[i] for col in cols) for i in range(big - tm + 1, big + 1)]
    t0 = t_form.to_upoly()
    rems = [UPoly(col) % t0 for col in cols]
    rows.extend(tuple(r[i] for r in rems) for i in range(t0.degree()))
    return rows


def system_solve(space, rows):
    """Exact dimension and kernel basis of a linear system of curves."""
    ncols = space.size()
    if any(len(r) != ncols for r in rows):
        raise FieldMismatch("condition row length does not match the space")
    kernel_vecs = kernel_basis(rows, ncols)
    rank = ncols - len(kernel_vecs)
    return LinSysReport(
        space=space,
        rank=rank,
        dimension=ncols - rank - 1,
        kernel=[space.from_vector(v) for v in kernel_vecs],
    )
