import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from weylinv import intlinalg
from weylinv.intlinalg import (
    _eliminate,
    congruence_kernel,
    det_adjugate,
    det_int,
    hnf,
    hnf_with_transform,
    inverse_fraction,
    lattice_contains,
    lattice_coordinates,
    snf_diagonal,
    snf_with_left,
    xgcd,
)

from _helpers import (
    column_pass_snf_with_left, fraction_det, fraction_inverse, kernel,
    three_hnf_congruence_kernel, three_hnf_kernel,
)


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_hnf_canonical():
    rng = random.Random(2)
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        h = hnf(rows)
        # same lattice: every original row is contained, and vice versa
        for r in rows:
            assert lattice_contains(h, r)
        # shuffled generators give the same canonical form
        rows2 = rows[::-1] + [[a + b for a, b in zip(rows[0], rows[-1])]]
        assert hnf(rows2) == h


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-12, 12), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_hnf_with_transform_matches_hnf(rows):
    h, u = hnf_with_transform(rows)
    assert [[sum(a * b for a, b in zip(urow, col)) for col in zip(*rows)]
            for urow in u] == h
    assert abs(det_int(u)) == 1
    assert hnf(rows) == [r for r in h if any(r)]
    # the zero rows all sit below the nonzero ones
    nonzero = [any(r) for r in h]
    assert nonzero == sorted(nonzero, reverse=True)


@settings(max_examples=300, deadline=None)
@given(int_matrices(), st.data())
def test_lattice_coordinates(rows, data):
    h = hnf(rows)
    ncols = len(rows[0])
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
    member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    other = data.draw(st.lists(st.integers(-12, 12), min_size=ncols, max_size=ncols))
    for vec in (member, other):
        x = lattice_coordinates(h, vec)
        # vec is in the lattice exactly when adding it leaves the HNF unchanged
        if hnf(rows + [vec]) == h:
            assert x is not None and len(x) == len(h)
            assert [sum(c * r[j] for c, r in zip(x, h)) for j in range(ncols)] == vec
        else:
            assert x is None
        assert lattice_contains(h, vec) == (x is not None)


def test_kernel():
    a = [[2, 4, 6], [1, 2, 3]]
    k = kernel(a)
    assert len(k) == 2
    for row in k:
        assert all(sum(ai * xi for ai, xi in zip(arow, row)) == 0 for arow in a)


def test_congruence_kernel():
    rows = congruence_kernel([([1, 1], 2)], 2)
    assert lattice_contains(rows, [1, 1])
    assert lattice_contains(rows, [2, 0])
    assert not lattice_contains(rows, [1, 0])
    assert abs(det_int(rows)) == 2


def test_snf():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        diag = snf_diagonal(a)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        # determinant magnitude is preserved for square nonsingular matrices
        if n == m:
            d = det_int(a)
            if d != 0:
                prod = 1
                for x in diag:
                    prod *= x
                assert prod == abs(d)


def test_snf_left_transform_is_unimodular():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        diag, u = snf_with_left(a)
        assert abs(det_int(u)) == 1


@st.composite
def smith_matrices(draw):
    """Matrices up to 5 x 5, entries in [-12, 12]: general ones, ones whose
    last row is a combination of the others, and ones with a zero row or a
    zero column."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = [[draw(st.integers(-12, 12)) for _ in range(ncols)] for _ in range(nrows)]
    shape = draw(st.sampled_from(["general", "rank-deficient", "zero row", "zero column"]))
    if shape == "rank-deficient" and nrows > 1:
        c = [draw(st.integers(-2, 2)) for _ in range(nrows - 1)]
        a[-1] = [sum(ci * a[i][j] for i, ci in enumerate(c)) for j in range(ncols)]
    elif shape == "zero row":
        a[draw(st.integers(0, nrows - 1))] = [0] * ncols
    elif shape == "zero column":
        j = draw(st.integers(0, ncols - 1))
        for row in a:
            row[j] = 0
    return a


@settings(max_examples=300, deadline=None)
@given(smith_matrices())
def test_snf_with_left_matches_minors(a):
    nrows, ncols = len(a), len(a[0])
    diag, u = snf_with_left(a)
    r = len(diag)
    # d_1 ... d_k is the gcd of the k x k minors; det_int (Bareiss) shares
    # no code with the HNF elimination
    for k in range(1, min(nrows, ncols) + 1):
        g = math.gcd(*(det_int([[a[i][j] for j in cols] for i in rows])
                       for rows in combinations(range(nrows), k)
                       for cols in combinations(range(ncols), k)))
        assert g == (math.prod(diag[:k]) if k <= r else 0)
    assert abs(det_int(u)) == 1
    for i, row in enumerate(u):
        ua = [sum(x * a[k][j] for k, x in enumerate(row)) for j in range(ncols)]
        assert all(v % diag[i] == 0 for v in ua) if i < r else not any(ua)


@st.composite
def row_form_matrices(draw):
    """Matrices up to 4 x 4, entries in [-20, 20]: general ones, and ones
    with one nonzero entry per row at increasing columns (diagonal row forms,
    zero rows last), 1 x 1 among both."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [[draw(st.integers(-20, 20)) for _ in range(ncols)] for _ in range(nrows)]
    cols = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=min(nrows, ncols))))
    a = [[0] * ncols for _ in range(nrows)]
    for i, j in enumerate(cols):
        a[i][j] = draw(st.integers(1, 20))
    return a


@settings(max_examples=300, deadline=None)
@given(row_form_matrices())
@example([[6]])
@example([[0, 4], [0, 0]])
@example([[2, 0], [0, 3]])
def test_snf_with_left_matches_the_column_pass_oracle(a):
    # leaving at the first diagonal row HNF changes neither diag nor U
    assert snf_with_left(a) == column_pass_snf_with_left(a)


def test_a_diagonal_row_form_takes_one_elimination(monkeypatch):
    calls = []
    real = intlinalg._echelon

    def counted(m, ncols):
        calls.append(ncols)
        return real(m, ncols)

    monkeypatch.setattr(intlinalg, "_echelon", counted)
    # a one-congruence grading's 1 x 1 R, and a matrix already diagonal
    for a in ([[12]], [[2, 0], [0, 3]]):
        calls.clear()
        snf_with_left(a)
        assert len(calls) == 1, a


@st.composite
def congruence_systems(draw):
    """(congruences, n) for n <= 4 and up to 4 rows with moduli 0-12, some
    rows repeated."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    congs = draw(st.lists(st.tuples(vec, st.integers(0, 12)), min_size=1, max_size=4))
    if draw(st.booleans()):
        congs.append(congs[draw(st.integers(0, len(congs) - 1))])
    return congs, n


def _box_agrees(rows, congs, n):
    for x in product(range(-3, 4), repeat=n):
        dots = [(sum(a * b for a, b in zip(v, x)), m) for v, m in congs]
        solves = all((d % m if m else d) == 0 for d, m in dots)
        assert lattice_contains(rows, list(x)) == solves, x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(congruence_systems())
def test_congruence_kernel_matches_congruences(system):
    congs, n = system
    rows = congruence_kernel(congs, n)
    assert rows == three_hnf_congruence_kernel(congs, n)
    _box_agrees(rows, congs, n)
    if all(m for _, m in congs):
        # full rank, of index the size of the image of Z^n in (+)_i Z/m_i
        image = {tuple([0] * len(congs))}
        for j in range(n):
            gen = [v[j] % m for v, m in congs]
            # extend by gen from the points added last round only
            frontier = image
            while frontier:
                frontier = {tuple((x + g) % m for x, g, (_, m) in zip(p, gen, congs))
                            for p in frontier} - image
                image |= frontier
        assert abs(det_int(rows)) == len(image)


@st.composite
def kernel_systems(draw):
    """(congruences, n) for n <= 4: up to four rows with moduli 0-12, then a
    row of modulus 0, one of modulus 1, a zero row and a repeat of a row,
    each drawn in or out, in any order."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    congs = draw(st.lists(st.tuples(vec, st.integers(0, 12)), max_size=4))
    for m in (0, 1):
        if draw(st.booleans()):
            congs.append((draw(vec), m))
    if draw(st.booleans()):
        congs.append(([0] * n, draw(st.integers(0, 12))))
    if congs and draw(st.booleans()):
        congs.append(congs[draw(st.integers(0, len(congs) - 1))])
    return draw(st.permutations(congs)), n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_systems())
def test_congruence_kernel_rows_are_canonical_hnf(system):
    # compute_Q takes these rows as Q's canonical rows without another hnf
    congs, n = system
    rows = congruence_kernel(congs, n)
    assert rows == hnf(rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(congruence_systems())
def test_kernel_matches_equations(system):
    congs, n = system
    matrix = [v for v, _ in congs]
    rows = kernel(matrix)
    assert rows == three_hnf_kernel(matrix) == congruence_kernel([(v, 0) for v in matrix], n)
    _box_agrees(rows, [(v, 0) for v in matrix], n)


def test_inverse_fraction():
    a = [[2, 1], [1, 1]]
    inv = inverse_fraction(a)
    assert inv == [[1, -1], [-1, 2]]


@st.composite
def square_matrices(draw):
    """n x n matrices, n <= 6, entries in [-9, 9]: general ones, upper
    triangular ones with a diagonal of either sign, rank-deficient ones (the
    last row a combination of the others) and ones whose first pivot needs a
    row swap."""
    n = draw(st.integers(0, 6))
    m = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["general", "triangular", "rank-deficient", "swap"]))
    if shape == "triangular":
        m = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        for i in range(n):
            m[i][i] = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
    elif shape == "rank-deficient" and n:
        c = [draw(st.integers(-2, 2)) for _ in range(n - 1)]
        m[-1] = [sum(ci * m[i][j] for i, ci in enumerate(c)) for j in range(n)]
    elif shape == "swap" and n >= 2:
        m[0][0] = 0
    return m


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_det_adjugate_matches_fraction_oracle(m):
    n = len(m)
    det, adj = det_adjugate(m)
    assert det == fraction_det(m) == det_int(m)
    if det == 0:
        assert adj is None
        with pytest.raises(ValueError):
            inverse_fraction(m)
        return
    assert [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[det * (i == j) for j in range(n)] for i in range(n)]
    assert inverse_fraction(m) == fraction_inverse(m) == [[Fraction(x, det) for x in row]
                                                          for row in adj]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.integers(-9, 9), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    .map(lambda xs: (n, xs))), st.booleans())
def test_elimination_minors_are_the_leading_principal_minors(entries, dominant):
    # random symmetric matrices, positive definite when dominant (a positive
    # diagonal that dominates each row)
    n, xs = entries
    it = iter(xs)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
        if dominant:
            m[i][i] = abs(m[i][i]) + 9 * n
    det, adj, minors = _eliminate(m)
    assert (det, adj) == det_adjugate(m)
    leading = [det_int([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
    if minors is not None:
        assert minors == leading
    # a pivot is a leading minor until the first swap, so the elimination
    # swaps rows only if a leading minor is 0
    if all(leading):
        assert minors == leading


def test_det_adjugate_edge_cases():
    assert det_adjugate([]) == (1, [])
    assert det_adjugate([[0]]) == (0, None)
    assert det_adjugate([[-3]]) == (-3, [[1]])
    # triangular, negative diagonal
    assert det_adjugate([[-2, 1], [0, 3]]) == (-6, [[3, -1], [0, -2]])
    # Bareiss path with one row swap
    assert det_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
