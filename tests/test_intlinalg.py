import random

from hypothesis import given, settings, strategies as st

from weylinv.intlinalg import (
    congruence_kernel,
    det_int,
    hnf,
    hnf_with_transform,
    inverse_fraction,
    kernel,
    lattice_contains,
    lattice_coordinates,
    snf_diagonal,
    snf_with_left,
    xgcd,
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


def test_inverse_fraction():
    a = [[2, 1], [1, 1]]
    inv = inverse_fraction(a)
    assert inv == [[1, -1], [-1, 2]]
