"""Linear systems of plane curves and of forms on P^3.

A condition (incidence at a point, divisor divisibility on a conic) is a
row: a plain tuple of integers indexed by a fixed monomial basis.  A
conjugate point over QQ[a]/(p) contributes deg(p) rows, one per power-basis
coordinate, which encodes vanishing along its whole Galois orbit.  The
entries of point rows come from ``forms.monomial_values``, the integer
evaluation kernel of ``Form.eval``: the monomial values times one common
denominator, which scales the rows and leaves their kernel.  Rows are
immutable, so a caller that solves over many subsets of one node list builds
each node's rows once and joins them per subset.  Dimensions and kernels are
exact: one fraction-free elimination gives the kernel, as content-normalized
vectors read off the reduced echelon form, and the rank is the number of
columns minus the kernel dimension.  Where only the dimension is read,
``system_dimension`` decides one system, and ``SubsetSystems`` a family of
them, by rank and builds no kernel.
"""

from .arith import _dehomogenized, _times_gen
from .errors import FieldMismatch
from .forms import PLANE_VARS, Form, monomial_basis, monomial_values
from .linalg import SubsetRanks, kernel_basis, rank_bareiss


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


def cond_point(space, p):
    """Vanishing at a point (or at its full conjugate orbit): the monomial
    values at p times one common denominator, one integer row per
    power-basis coordinate."""
    if len(p.coords) != len(space.variables):
        raise FieldMismatch("point dimension does not match the space")
    values, _den = monomial_values(p.coords, space.basis, p.field)
    if p.field is None:
        return [tuple(values)]
    return list(zip(*values))


def cond_divisible_on_conic(degree, t_form):
    """Rows forcing the restriction of a candidate to z^2 - 4xy to be divisible by T.

    On the parametrization (s^2 : t^2 : 2st) the monomial x^a y^b z^c
    restricts to 2^c s^(2a+c) t^(2b+c).  Restriction is linear in the
    candidate's coefficients, so the remainder of its restriction by T is
    the combination of the remainders of the monomials' restrictions:
    remainder row i holds coefficient i of each monomial's remainder.

    The rows are integers.  With T(s, 1) = c P, P a primitive integer
    vector of degree k and leading coefficient p, the remainder of s^i by P
    times p^(i - k + 1) is integral and follows from that of s^(i - 1) by
    one shift and one fold (``arith._times_gen``).  Every column is scaled
    by the same p^e, e = max(2 degree - k + 1, 0), so each remainder row is p^e
    times the rational one and the kernel is unchanged; a power of p that
    differed between columns would change it.
    """
    if t_form.degree == 0:
        return []
    big = 2 * degree
    basis = monomial_basis(3, degree)
    # t^tm divides the restriction: top s-coefficients vanish
    tm = t_form.t_multiplicity()
    rows = [
        tuple(2**c if 2 * a + c == i else 0 for a, _b, c in basis)
        for i in range(big - tm + 1, big + 1)
    ]
    prim = _dehomogenized(t_form)[0]
    k = len(prim) - 1
    if k == 0:
        return rows
    # rems[i] is p^(i - k + 1) (s^i mod P), and s^i itself below degree k
    rems = [[int(i == j) for j in range(k)] for i in range(min(k, big + 1))]
    while len(rems) <= big:
        rems.append(_times_gen(rems[-1], prim))
    p = prim[-1]
    e = max(big - k + 1, 0)
    cols = []
    for a, _b, c in basis:
        i = 2 * a + c
        scale = 2**c * p ** (e - max(i - k + 1, 0))
        cols.append([scale * x for x in rems[i]])
    rows.extend(zip(*cols))
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


def _check_shared(space, shared):
    if any(len(r) != space.size() for r in shared):
        raise FieldMismatch("condition row length does not match the space")


def system_dimension(space, shared, points):
    """Exact projective dimension of the system of one space cut out by the
    ``shared`` rows and by vanishing at ``points``, by rank alone: no kernel
    is built."""
    _check_shared(space, shared)
    rows = list(shared) + [r for p in points for r in cond_point(space, p)]
    return space.size() - rank_bareiss(rows) - 1


class SubsetSystems:
    """Projective dimensions of the systems of one space cut out by the
    ``shared`` rows and by vanishing at a subset of ``points``, decided by
    rank alone (``linalg.SubsetRanks``).  Each point's rows are built once;
    no kernel is built, and ``system_solve`` gives it where one is read.
    """

    def __init__(self, space, shared, points):
        _check_shared(space, shared)
        blocks = [cond_point(space, p) for p in points]
        self._ncols = space.size()
        self._ranks = SubsetRanks(shared, blocks, self._ncols)

    def dimension(self, subset):
        return self._ncols - self._ranks.rank(subset) - 1
