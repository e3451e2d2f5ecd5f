"""Integer matrix normal forms and exact linear solving.

Everything here works on plain lists of lists of Python ints, so results are
exact at any size.  The Smith normal form returns the full transform pair
(U, D, V) with U*M*V = D, which downstream code needs for solving linear
systems over Z and for computing kernels; library routines that return only
the diagonal are not enough for that.
"""

from __future__ import annotations

from .errors import InvalidParameter

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise InvalidParameter("matrix shapes do not compose")
    cols = len(b[0]) if b else 0
    out = zero_matrix(len(a), cols)
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += aik * brow[j]
    return out


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(aij * vj for aij, vj in zip(row, v)) for row in a]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, src: int, dst: int, factor: int) -> None:
    m[dst] = [d + factor * s for d, s in zip(m[dst], m[src])]


def _add_col(m: Matrix, src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def _negate_row(m: Matrix, i: int) -> None:
    m[i] = [-x for x in m[i]]


def smith_normal_form(matrix: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*matrix*V = D in Smith normal form.

    U and V are unimodular; D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... and zeros at the end.  The input is not modified.
    """
    d = mat_copy(matrix)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def pivot_search(t: int):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_search(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            _swap_rows(d, i, t)
            _swap_rows(u, i, t)
        if j != t:
            _swap_cols(d, j, t)
            _swap_cols(v, j, t)
        if d[t][t] < 0:
            _negate_row(d, t)
            _negate_row(u, t)

        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                _add_row(d, t, i, -q)
                _add_row(u, t, i, -q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                _add_col(d, t, j, -q)
                _add_col(v, t, j, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot

        # divisibility fix-up: fold any entry the pivot misses back into
        # column t and restart this pivot
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            _add_col(d, offender[1], t, 1)
            _add_col(v, offender[1], t, 1)
            continue
        t += 1
    return u, d, v


def diagonal_of(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(matrix: Matrix) -> list[int]:
    """Nontrivial diagonal entries (> 1) of the Smith form, in chain order."""
    _, d, _ = smith_normal_form(matrix)
    return [x for x in diagonal_of(d) if x > 1]


def solve_integer(matrix: Matrix, target: list[int]) -> list[int] | None:
    """One integer solution x of matrix @ x = target, or None."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if len(target) != rows:
        raise InvalidParameter("target length does not match row count")
    if cols == 0:
        return [] if all(t == 0 for t in target) else None
    u, d, v = smith_normal_form(matrix)
    ut = mat_vec(u, target)
    y = [0] * cols
    diag = diagonal_of(d)
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        if di:
            if ut[i] % di:
                return None
            y[i] = ut[i] // di
        elif ut[i]:
            return None
    return mat_vec(v, y)


def kernel_basis(matrix: Matrix) -> list[list[int]]:
    """Basis of the integer kernel {x : matrix @ x = 0}."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    _, d, v = smith_normal_form(matrix)
    diag = diagonal_of(d)
    basis = []
    for j in range(cols):
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            basis.append([v[i][j] for i in range(cols)])
    return basis

