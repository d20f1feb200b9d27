"""The elimination core against a plain rational Gauss-Jordan oracle.

``conftest.check_elimination`` checks only that kernels, solutions and
inverses satisfy their equations; here every result must equal, entry for
entry, what textbook Gauss-Jordan elimination over QQ gives.
"""

import math

from splitcurves.linalg import det_bareiss, kernel_basis, rref, solve_linear
from splitcurves.scalars import QQ

from conftest import random_rat, rng_for


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form by rational row operations, pivots taken in
    column order among the first ``ncols`` columns."""
    m = [[QQ(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _primitive(vec):
    """Coprime integers, first nonzero entry positive."""
    den = math.lcm(*[x.denominator for x in vec])
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*ints)
    sign = next((1 if x > 0 else -1 for x in ints if x), 1)
    return [QQ(sign * x // g) for x in ints]


def _kernel_oracle(rows, ncols):
    m, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [QQ(0)] * ncols
        v[f] = QQ(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        basis.append(_primitive(v))
    return basis


def _solve_oracle(rows, rhs):
    ncols = len(rows[0])
    m, pivots = _gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [QQ(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def _det_oracle(square):
    m = [[QQ(x) for x in row] for row in square]
    det = QQ(1)
    for col in range(len(m)):
        sel = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if sel is None:
            return QQ(0)
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            c = m[i][col] / m[col][col]
            m[i] = [x - c * y for x, y in zip(m[i], m[col])]
    return det


def _matrices(rng):
    """Seeded wide, tall and square matrices, with zero columns, zero rows,
    and columns that are already zero below a pivot."""
    out = []
    for _ in range(160):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        kind = rng.choice(("dense", "zero-column", "echelon", "low-rank"))
        if kind == "low-rank":
            rank = rng.randint(0, min(nrows, ncols))
            left = [[random_rat(rng, 4) for _ in range(rank)] for _ in range(nrows)]
            right = [[random_rat(rng, 4) for _ in range(ncols)] for _ in range(rank)]
            mat = [
                [sum((a * b for a, b in zip(row, col)), QQ(0)) for col in zip(*right)]
                for row in left
            ]
        else:
            mat = [[random_rat(rng, 6) for _ in range(ncols)] for _ in range(nrows)]
        if kind == "zero-column":
            for col in rng.sample(range(ncols), rng.randint(1, ncols)):
                for row in mat:
                    row[col] = QQ(0)
        if kind == "echelon":
            # staircase zeros: after eliminating a column the rows below its
            # pivot are zero there already, and some rows are zero throughout
            for i, row in enumerate(mat):
                for j in range(min(i, ncols)):
                    if rng.random() < 0.8:
                        row[j] = QQ(0)
            if rng.random() < 0.3:
                mat[rng.randrange(nrows)] = [QQ(0)] * ncols
        out.append(mat)
    return out


def test_rref_kernel_and_solve_match_gauss_jordan():
    rng = rng_for("linalg-gauss-jordan")
    shapes = set()
    for mat in _matrices(rng):
        nrows, ncols = len(mat), len(mat[0])
        shapes.add("wide" if ncols > nrows else "tall" if nrows > ncols else "square")
        red, pivots = rref(mat)
        assert (red, pivots) == _gauss_jordan(mat, ncols)
        assert kernel_basis(mat, ncols) == _kernel_oracle(mat, ncols)
        rhs = [random_rat(rng, 5) for _ in range(nrows)]
        if rng.random() < 0.5:
            x0 = [random_rat(rng, 5) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x0)), QQ(0)) for row in mat]
        assert solve_linear(mat, rhs) == _solve_oracle(mat, rhs)
    assert shapes == {"wide", "tall", "square"}


def test_rref_restricted_to_leading_columns_matches_gauss_jordan():
    # rows past the rank vanish in the leading columns, but what they hold
    # further right depends on the row operations: only the pivot rows are
    # the same in both eliminations
    rng = rng_for("linalg-gauss-jordan-leading")
    for mat in _matrices(rng)[:80]:
        ncols = rng.randint(0, len(mat[0]))
        red, pivots = rref(mat, ncols)
        expected, expected_pivots = _gauss_jordan(mat, ncols)
        assert pivots == expected_pivots
        assert red[:len(pivots)] == expected[:len(pivots)]
        assert all(x == 0 for row in red[len(pivots):] for x in row[:ncols])


def test_integer_determinant_matches_gauss_jordan():
    rng = rng_for("linalg-det-oracle")
    seen_zero = False
    for mat in _matrices(rng):
        k = min(len(mat), len(mat[0]))
        square = [
            [int(x * 720) for x in row[:k]]  # every denominator here divides 720
            for row in mat[:k]
        ]
        det = det_bareiss(square)
        assert det == _det_oracle(square)
        seen_zero |= det == 0
    assert seen_zero
