"""Small dense exact linear algebra over the rationals.

Every exact solve runs through one fraction-free integer elimination
(Bareiss 1968).  Each row is first scaled to coprime integers, reading the
numerators and denominators directly, which changes neither rank, pivots,
reduced echelon form, kernel nor solutions.  The forward pass alone gives
the rank and, on integer rows taken as they are, the determinant; a pivot
step touches the rows below it only from its column on, since they are
zero to its left.  A back-reduction on the same integers then turns
every pivot row into d times the corresponding row of the unique reduced
row echelon form, d being the last pivot, so kernels, solutions and
inverses are read off with a single division and every result is
deterministic.  ``rank_naive`` is plain rational Gaussian elimination, kept
as the oracle the tests compare the core against.
"""

import itertools

from .scalars import QQ, ZERO, ONE, clear_denominators, over_common_denominator


def _int_rows(rows):
    return [clear_denominators(row) for row in rows]


def _bareiss(m, ncols):
    """Forward fraction-free elimination of integer rows ``m``, in place.

    Pivots are searched in the first ``ncols`` columns, in column order,
    taking the first row with a nonzero entry.  The rows below a pivot are
    already zero left of the pivot column, so each update rewrites them from
    the column after it on and sets the pivot column to zero.  After the
    pass, row k is zero left of its pivot and every entry is a minor of the
    row-permuted input, so each division is exact.  Returns (pivot columns,
    sign of the row permutation).
    """
    pivots = []
    sign = 1
    prev = 1
    row = 0
    for col in range(ncols):
        if row == len(m):
            break
        sel = next((i for i in range(row, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        if sel != row:
            m[row], m[sel] = m[sel], m[row]
            sign = -sign
        top = m[row]
        piv = top[col]
        rest = top[col + 1:]
        for i in range(row + 1, len(m)):
            r = m[i]
            coef = r[col]
            r[col] = 0
            r[col + 1:] = [(x * piv - coef * y) // prev for x, y in zip(r[col + 1:], rest)]
        prev = piv
        pivots.append(col)
        row += 1
    return pivots, sign


def _reduced(rows, ncols):
    """Integer reduced echelon form: (m, pivots, d) with RREF = m / d.

    ``d`` is the last Bareiss pivot, the maximal minor of the pivot rows at
    the pivot columns, so d times the RREF is integral and the division in
    the back-reduction is exact.  Rows past the rank keep their forward-pass
    entries; they vanish in the first ``ncols`` columns.
    """
    m = _int_rows(rows)
    pivots, _sign = _bareiss(m, ncols)
    if not pivots:
        return m, pivots, 1
    d = m[len(pivots) - 1][pivots[-1]]
    for k in range(len(pivots) - 2, -1, -1):
        row = m[k]
        acc = [d * x for x in row]
        for j in range(k + 1, len(pivots)):
            c = row[pivots[j]]
            if c:
                acc = [a - c * y for a, y in zip(acc, m[j])]
        pk = row[pivots[k]]
        m[k] = [a // pk for a in acc]
    return m, pivots, d


def rank_bareiss(rows):
    """Rank by the fraction-free forward pass on integer-cleared rows."""
    if not rows:
        return 0
    return len(_bareiss(_int_rows(rows), len(rows[0]))[0])


def dependent_subsets(rows, size, rank):
    """Index tuples of the ``size``-subsets of ``rows`` of rank at most
    ``rank`` (points on a line, a plane, ...), in ``itertools.combinations``
    order."""
    for subset in itertools.combinations(range(len(rows)), size):
        if rank_bareiss([rows[i] for i in subset]) <= rank:
            yield subset


def det_bareiss(m_int):
    """Determinant of a square integer matrix by the fraction-free forward pass."""
    m = [list(r) for r in m_int]
    n = len(m)
    pivots, sign = _bareiss(m, n)
    if len(pivots) < n:
        return 0
    return sign * m[n - 1][n - 1] if n else 1


def rank_naive(rows):
    """Rank by plain rational Gaussian elimination (oracle for Bareiss)."""
    if not rows:
        return 0
    m = [[QQ(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = ONE / m[row][col]
        m[row] = [a * inv for a in m[row]]
        for i in range(row + 1, nrows):
            if m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
    return rank


def rref(rows):
    """Reduced row echelon form over QQ; returns (matrix, pivot columns)."""
    m, pivots, d = _reduced(rows, len(rows[0]) if rows else 0)
    d = QQ(d)
    return [[QQ(x) / d for x in row] for row in m], pivots


def primitive_vector(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    ints = clear_denominators(vec)
    for v in ints:
        if v:
            if v < 0:
                ints = [-x for x in ints]
            break
    return [QQ(v) for v in ints]


def kernel_basis(rows, ncols):
    """Rational kernel of the row system, as primitive integer vectors.

    Derived from the unique RREF, so the basis (and its order, by free
    column) is deterministic.
    """
    m, pivots, d = _reduced(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = d
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        basis.append(primitive_vector(v))
    return basis


def solve_linear(rows, rhs):
    """One rational solution of rows*x = rhs, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots, d = _reduced(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = QQ(m[r][ncols]) / QQ(d)
    return x


def mat_mul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
        for row in a
    ]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def mat_inv(a):
    """Exact inverse of a square rational matrix (None if singular)."""
    n = len(a)
    aug = [
        list(row) + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(a)
    ]
    m, pivots, d = _reduced(aug, n)
    if len(pivots) != n:
        return None
    d = QQ(d)
    return [[QQ(x) / d for x in row[n:]] for row in m]


def mat_det(a):
    """Exact determinant: scale each row to integers, Bareiss, undo the scaling."""
    m_int = []
    scale = 1
    for row in a:
        ints, den = over_common_denominator([QQ(x) for x in row])
        m_int.append(ints)
        scale *= den
    return QQ(det_bareiss(m_int), scale)
