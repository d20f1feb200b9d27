"""Linear systems of plane curves and of forms on P^3.

A condition (incidence, singularity, divisor divisibility on a conic) is a
row: a plain tuple of rationals indexed by a fixed monomial basis.  A
conjugate point over QQ[a]/(p) contributes deg(p) rows, one per power-basis
coordinate, which encodes vanishing along its whole Galois orbit.  Rows are
immutable, so a caller that solves over many subsets of one node list builds
each node's rows once and joins them per subset.  Dimensions and kernels are
exact: one fraction-free elimination gives the kernel, as content-normalized
vectors read off the reduced echelon form, and the rank is the number of
columns minus the kernel dimension.
"""

from .arith import NFElem, UPoly
from .errors import FieldMismatch
from .forms import PLANE_VARS, Form, monomial_basis
from .linalg import kernel_basis
from .scalars import ONE, QQ, ZERO


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


def _power_table(coords, degree):
    """Each coordinate's powers 0..degree, built once per point."""
    table = []
    for c in coords:
        powers = [ONE, c]
        while len(powers) <= degree:
            powers.append(powers[-1] * c)
        table.append(powers)
    return table


def _monomial_value(table, expo):
    """The monomial at the point: one table entry per variable it contains."""
    term = None
    for powers, e in zip(table, expo):
        if e:
            term = powers[e] if term is None else term * powers[e]
    return ONE if term is None else term


def _rows_from_values(values, field):
    """Turn per-monomial scalar values into 1 (rational) or deg (NF) rows."""
    if field is None:
        return [tuple(values)]
    return [
        tuple(
            v.coords[k] if isinstance(v, NFElem) else (v if k == 0 else ZERO)
            for v in values
        )
        for k in range(field.degree)
    ]


def cond_point(space, p):
    """Vanishing at a point (or at its full conjugate orbit)."""
    if len(p.coords) != len(space.variables):
        raise FieldMismatch("point dimension does not match the space")
    table = _power_table(p.coords, space.degree)
    values = [_monomial_value(table, e) for e in space.basis]
    return _rows_from_values(values, p.field)


def cond_singular(space, p):
    """Vanishing of all partial derivatives at a point (orbit-aware).

    The Euler relation makes the value condition redundant; all partial rows
    are emitted and rank computation absorbs any redundancy.
    """
    nvars = len(space.variables)
    if len(p.coords) != nvars:
        raise FieldMismatch("point dimension does not match the space")
    table = _power_table(p.coords, space.degree - 1)
    rows = []
    for k in range(nvars):
        values = []
        for expo in space.basis:
            if expo[k] == 0:
                values.append(ZERO if p.field is None else p.field.zero())
                continue
            de = list(expo)
            de[k] -= 1
            values.append(expo[k] * _monomial_value(table, de))
        rows.extend(_rows_from_values(values, p.field))
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
