"""Exact integer linear algebra: xgcd, Hermite/Smith normal forms, congruence kernels.

Everything works on lists of lists of Python ints (arbitrary precision).
Matrices are row-major; lattices are given by their rows.

One elimination core, `_echelon` (a row HNF carrying any transform columns
along), does every reduction: the kernels take one HNF, the Smith form
alternates row and column HNFs until the row HNF is diagonal and then fixes
divisibility by a gcd/lcm step.
Determinants and adjugates are a separate routine, `det_adjugate`
(fraction-free Bareiss Gauss-Jordan, for every square matrix).
"""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def smallest_prime_factor(m: int) -> int:
    """Smallest prime dividing m >= 2 (m itself exactly when m is prime)."""
    p = 2
    while p * p <= m:
        if m % p == 0:
            return p
        p += 1
    return m


def _row_op(rows, i, j, col):
    """Combine rows i, j so that rows[i][col] becomes gcd and rows[j][col] zero."""
    a, b = rows[i][col], rows[j][col]
    if b == 0:
        return
    if a == 0:
        rows[i], rows[j] = rows[j], rows[i]
        return
    if b % a == 0:
        q = -(b // a)
        rows[j] = [x + q * y for x, y in zip(rows[j], rows[i])]
        return
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    ri, rj = rows[i], rows[j]
    rows[i] = [x * u + y * v for u, v in zip(ri, rj)]
    rows[j] = [-bg * u + ag * v for u, v in zip(ri, rj)]


def _echelon(m, ncols):
    """Reduce the rows of m in place to row HNF on their first ncols columns.

    Pivots become positive and the entries above each pivot are reduced into
    [0, pivot); any columns past ncols (a transform block) follow the same
    row operations.  Returns the number of nonzero rows, which come first.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        for i in range(r + 1, len(m)):
            _row_op(m, r, i, col)
        if m[r][col] != 0:
            if m[r][col] < 0:
                m[r] = [-x for x in m[r]]
            pivots.append(col)
    for r, c in enumerate(pivots):
        p = m[r][c]
        for i in range(r):
            q = m[i][c] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
    return len(pivots)


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form (zero rows dropped).

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    Two generating sets span the same lattice iff their HNFs are equal.
    """
    if not rows:
        return []
    m = [list(r) for r in rows]
    return m[:_echelon(m, len(m[0]))]


def hnf_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF H (zero rows kept at the bottom) and unimodular U with U*rows == H."""
    n = len(rows)
    if n == 0:
        return [], []
    ncols = len(rows[0])
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    _echelon(aug, ncols)
    return [row[:ncols] for row in aug], [row[ncols:] for row in aug]


def congruence_kernel(congruences: list[tuple[list[int], int]], n: int) -> list[list[int]]:
    """HNF basis of {a in Z^n : vec . a == 0 mod m for each (vec, m)}.

    Moduli are >= 0: modulus 0 means vec . a == 0, modulus 1 is vacuous.  The
    lattice of (C a + M y, a) over a in Z^n, y in Z^k (C the k x n matrix of
    vecs, M = diag(moduli)) meets 0 x Z^n exactly in 0 x (the kernel).  One
    row HNF of its generators (column j of C, e_j) and (m_i e_i, 0) puts the
    rows with pivots past column k, a basis of that intersection, last; their
    tails are the kernel's HNF basis.
    """
    rows = [(v, m) for v, m in congruences if m != 1]
    k = len(rows)
    gens = [[v[j] for v, _ in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    gens += [[m * int(i == j) for j in range(k)] + [0] * n
             for i, (_, m) in enumerate(rows) if m]
    r = _echelon(gens, k + n)
    return [row[k:] for row in gens[:r] if not any(row[:k])]


def snf_with_left(matrix: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form diagonal plus left transform U.

    Returns (diag, U) with U unimodular and U A V = diag(d_1..d_r) for some
    unimodular V; d_1 | d_2 | ... | d_r > 0.  The rows of U realize the
    quotient map Z^n / colspan(A) = (+)_i Z/d_i via x -> (U x)_i mod d_i
    (rows past r correspond to free summands).

    A row HNF of [A | U] (U following A's row operations) alternates with a
    column HNF of A's nonzero rows (a row HNF of their transpose; V is not
    kept) until the row HNF is diagonal, one nonzero entry per row
    (Kannan-Bachem); a column pass would then make no row operation.  Then
    each pair i < j with d_i not dividing d_j becomes (g, d_i d_j / g),
    g = gcd = x d_i + y d_j, by the unimodular row step
    [[x, y], [-d_j/g, d_i/g]] on rows i, j of U.
    """
    nrows = len(matrix)
    if not matrix or not matrix[0]:
        return [], [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    ncols = len(matrix[0])
    m = [list(r) + [int(i == j) for j in range(nrows)] for i, r in enumerate(matrix)]
    while True:
        rank = _echelon(m, ncols)
        entries = [[x for x in row[:ncols] if x] for row in m[:rank]]
        if all(len(xs) == 1 for xs in entries):
            break
        at = [list(col) for col in zip(*(row[:ncols] for row in m[:rank]))]
        _echelon(at, rank)
        for i in range(rank):
            m[i][:ncols] = [at[j][i] for j in range(ncols)]
    diag = [xs[0] for xs in entries]
    u = [row[ncols:] for row in m]
    for i in range(rank):
        for j in range(i + 1, rank):
            di, dj = diag[i], diag[j]
            if dj % di:
                g, x, y = xgcd(di, dj)
                ui, uj = u[i], u[j]
                u[i] = [x * a + y * b for a, b in zip(ui, uj)]
                u[j] = [(di * b - dj * a) // g for a, b in zip(ui, uj)]
                diag[i], diag[j] = g, di * dj // g
    return diag, u


def snf_diagonal(matrix: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... (nonzero SNF diagonal) of a matrix."""
    d, _ = snf_with_left(matrix)
    return d


def lattice_coordinates(hnf_rows: list[list[int]], vec: list[int]) -> list[int] | None:
    """Integer x with sum_i x_i * hnf_rows[i] == vec, or None when vec is not
    in the lattice; the rows are canonical HNF rows, as `hnf` returns them."""
    v = list(vec)
    coords = []
    for r in hnf_rows:
        col = next(j for j, x in enumerate(r) if x)
        q, rem = divmod(v[col], r[col])
        if rem:
            return None
        coords.append(q)
        if q:
            v = [x - q * y for x, y in zip(v, r)]
    return None if any(v) else coords


def lattice_contains(hnf_rows: list[list[int]], vec: list[int]) -> bool:
    """Membership test for a lattice given by canonical HNF rows."""
    return lattice_coordinates(hnf_rows, vec) is not None


def det_adjugate(matrix: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det M, adj M) of a square integer matrix M; adj is None when det M = 0.

    Fraction-free (Bareiss) Gauss-Jordan on [M | I] with row pivoting ends at
    [c I | c M^-1] with c = +-det M, the sign of the row swaps.  Every
    division is exact.
    """
    n = len(matrix)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev, sign = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0, None
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        p = a[c][c]
        a = [row if i == c else [(p * x - row[c] * y) // prev for x, y in zip(row, a[c])]
             for i, row in enumerate(a)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def det_int(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix."""
    return det_adjugate(matrix)[0]


def inverse_fraction(matrix: list[list[int]]) -> list[list]:
    """Exact inverse adj M / det M of a nonsingular integer matrix, as Fractions."""
    from fractions import Fraction

    det, adj = det_adjugate(matrix)
    if adj is None:
        raise ValueError("singular matrix")
    return [[Fraction(x, det) for x in row] for row in adj]
