import random

import pytest
from hypothesis import given, settings, strategies as st

from weylinv import laurent
from weylinv.fuzz import random_poly
from weylinv.laurent import (
    EXPONENT_LIMIT,
    DivisionPreconditionError,
    ExponentRangeError,
    Grading,
    LaurentPoly,
    RankMismatchError,
    ZeroPolynomialError,
    augmentation,
    bounded_divide,
    _FIELD,
    _codec,
    check_dot,
    degrees,
    dot,
    dots,
    embed,
    from_text,
    graded_components,
    homogeneous_component,
    is_divisor,
    leading_slice,
    lift_coefficients,
    parity_split,
    reduce_coefficients,
    to_text,
)

from _helpers import P, classes, random_divisor, ref_add, ref_mul, ref_normalize, ring_arithmetic


class TestArithmetic:
    def test_monomial_inverse(self):
        f = P(2, {(1, 0): 1, (0, 0): 1})
        g = P(2, {(-1, 0): 1})
        assert f * g == P(2, {(0, 0): 1, (-1, 0): 1})

    def test_additive_inverse(self):
        f = P(2, {(1, 2): 3, (-1, 0): -2})
        assert (f - f).is_zero()
        assert ring_arithmetic(f, f, "sub").is_zero()

    def test_zero_divisors_mod4(self):
        a = P(2, {(1, 0): 2}, modulus=4)
        b = P(2, {(0, 1): 2}, modulus=4)
        assert (a * b).is_zero()

    def test_scale_by_monomial(self):
        f = P(2, {(1, 0): 1, (0, 1): 2})
        m = P(2, {(-1, 1): 3})
        assert ring_arithmetic(f, m, "scale-by-monomial") == f * m
        with pytest.raises(ValueError):
            ring_arithmetic(f, f, "scale-by-monomial")

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            P(2, {(0, 0): 1}) + P(2, {(0, 0): 1}, modulus=2)
        with pytest.raises(ValueError):
            P(2, {(0, 0): 1}) * P(3, {(0, 0, 0): 1})

    def test_canonical_form(self):
        f = P(1, {(0,): 4, (1,): 3}, modulus=2)
        assert f.terms == {(1,): 1}


class TestDegrees:
    def test_definitional(self):
        f = P(2, {(0, 2): 3, (1, -1): 1})
        assert degrees(f, 1) == (2, -1, 3)

    def test_constant_in_axis(self):
        f = P(2, {(5, 0): 1})
        assert degrees(f, 1) == (0, 0, 0)

    def test_positive(self):
        f = P(2, {(0, 3): 1, (0, 1): 1})
        assert degrees(f, 1) == (3, 1, 2)

    def test_zero_is_undefined(self):
        with pytest.raises(ZeroPolynomialError):
            degrees(P(2, {}), 0)


class TestDivisor:
    def test_monic_lead(self):
        assert is_divisor(P(2, {(1, 1): 1, (0, 0): 1}), 1)

    def test_non_monic(self):
        assert not is_divisor(P(2, {(0, 1): 2, (0, 0): 1}), 1)

    def test_non_monomial_lead(self):
        p = P(3, {(1, 1, 0): 1, (0, 1, 1): 1, (0, 0, 0): 1})
        assert not is_divisor(p, 1)


class TestBoundedDivide:
    def test_zero_dividend(self):
        p = P(2, {(1, 1): 1, (0, 0): 1})
        q, r = bounded_divide(P(2, {}), p, 1, -3)
        assert q.is_zero() and r.is_zero()

    def test_self_division(self):
        p = P(2, {(1, 1): 1, (0, 0): 1})
        q, r = bounded_divide(p, p, 1, 0)
        assert q == P(2, {(0, 0): 1}) and r.is_zero()

    def test_spec_example(self):
        f = P(2, {(1, 2): 1, (0, 1): 1})
        p = P(2, {(1, 1): 1, (0, 0): 1})
        q, r = bounded_divide(f, p, 1, 0)
        assert q == P(2, {(0, 1): 1}) and r.is_zero()
        assert p * q + r == f

    def test_preconditions(self):
        p = P(2, {(0, 1): 2})
        with pytest.raises(DivisionPreconditionError):
            bounded_divide(P(2, {(0, 0): 1}), p, 1, 0)
        good = P(2, {(0, 1): 1})
        with pytest.raises(DivisionPreconditionError):
            bounded_divide(P(2, {(0, -1): 1}), good, 1, 0)

    def test_soundness_randomized(self):
        rng = random.Random(20240817)
        for modulus in (0, 2, 3, 4, 8, 16):
            for rank in (2, 3, 4):
                for _ in range(12):
                    axis = rng.randrange(rank)
                    p = random_divisor(rng, rank, axis, modulus)
                    f = random_poly(rng, rank, modulus)
                    if f.is_zero():
                        continue
                    d = degrees(f, axis)[1] - rng.randint(0, 2)
                    q, r = bounded_divide(f, p, axis, d)
                    assert p * q + r == f
                    if not r.is_zero():
                        h, l, _ = degrees(r, axis)
                        assert l >= d
                        assert h < d + degrees(p, axis)[2]


def loop_of_exponent(grading, exp):
    """The basis-image loop that `Grading.of_exponent` replaced: the test oracle."""
    out = [0] * len(grading.moduli)
    for a, img in zip(exp, grading.images):
        if a:
            for i, v in enumerate(img):
                out[i] += a * v
    return tuple(x % m for x, m in zip(out, grading.moduli))


@st.composite
def gradings_and_exponents(draw):
    rank = draw(st.integers(0, 6))
    moduli = draw(st.lists(st.integers(2, 12), max_size=3))
    images = [[draw(st.integers(-20, 20)) for _ in moduli] for _ in range(rank)]
    exps = draw(st.lists(st.lists(st.integers(-50, 50), min_size=rank, max_size=rank),
                         max_size=5))
    return Grading(tuple(moduli), images), exps


class TestGrading:
    def G(self):
        # C2-like: parity of the first coordinate
        return Grading((2,), [(1,), (0,)])

    @settings(max_examples=200, deadline=None)
    @given(gradings_and_exponents())
    def test_linear_form_matches_the_loop(self, case):
        grading, exps = case
        for e in exps:
            assert grading.of_exponent(tuple(e)) == loop_of_exponent(grading, e)

    def test_each_grading_classifies_its_own_terms(self):
        f = P(2, {(1, 0): 1, (0, 1): 2, (1, 1): 3})
        by_first = Grading((2,), [(1,), (0,)])
        by_second = Grading((2,), [(0,), (1,)])
        for _ in range(2):   # the same codes twice, under two gradings
            assert homogeneous_component(f, by_first, (1,)) == P(2, {(1, 0): 1, (1, 1): 3})
            assert homogeneous_component(f, by_second, (1,)) == P(2, {(0, 1): 2, (1, 1): 3})

    def test_components(self):
        g = self.G()
        f = P(2, {(1, 0): 1, (1, 1): 1})
        assert homogeneous_component(f, g, (1,)) == f
        assert homogeneous_component(f, g, (0,)).is_zero()

    def test_component_sum_reconstructs(self):
        rng = random.Random(5)
        g = self.G()
        f = random_poly(rng, 2, 0)
        parts = graded_components(f, g)
        acc = P(2, {})
        for comp in parts.values():
            acc = acc + comp
        assert acc == f

    def test_ring_grading(self):
        rng = random.Random(7)
        g = self.G()
        for _ in range(20):
            a = random_poly(rng, 2, 0, 4)
            b = random_poly(rng, 2, 0, 4)
            prod = a * b
            for cls in classes(g):
                lhs = homogeneous_component(prod, g, cls)
                rhs = P(2, {})
                for c1 in classes(g):
                    c2 = tuple((x - y) % m for x, y, m in zip(cls, c1, g.moduli))
                    rhs = rhs + homogeneous_component(a, g, c1) * homogeneous_component(b, g, c2)
                assert lhs == rhs


class TestAugmentation:
    def test_orbit_like(self):
        f = P(1, {(1,): 1, (-1,): 1})
        assert augmentation(f) == 2
        assert augmentation(f - P(1, {(0,): 2})) == 0
        assert augmentation(P(1, {})) == 0

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(25):
            a = random_poly(rng, 3, 0, 4)
            b = random_poly(rng, 3, 0, 4)
            assert augmentation(a * b) == augmentation(a) * augmentation(b)


class TestReduceCoefficients:
    def test_examples(self):
        f = P(1, {(1,): 4, (0,): 3})
        assert reduce_coefficients(f, 2) == P(1, {(0,): 1}, modulus=2)
        g = P(2, {(1, 0): 6, (0, 1): -9})
        assert reduce_coefficients(g, 3).is_zero()
        h = P(2, {(1, 0): 5, (0, 1): -7})
        assert reduce_coefficients(h, 3) == P(2, {(1, 0): 2, (0, 1): 2}, modulus=3)

    def test_commutes_with_arithmetic(self):
        rng = random.Random(13)
        for m in (2, 3, 6):
            for _ in range(10):
                a = random_poly(rng, 2, 0, 4)
                b = random_poly(rng, 2, 0, 4)
                assert reduce_coefficients(a + b, m) == \
                    reduce_coefficients(a, m) + reduce_coefficients(b, m)
                assert reduce_coefficients(a * b, m) == \
                    reduce_coefficients(a, m) * reduce_coefficients(b, m)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            reduce_coefficients(P(1, {(0,): 1}), 1)


class TestText:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_poly(rng, 3, 0)
            assert from_text(to_text(f), 3) == f

    def test_format(self):
        f = P(2, {(2, -1): 1, (0, 0): -3, (1, 0): 1})
        assert to_text(f) == "-3 + 1 * x1 + 1 * x1^2 x2^-1"
        assert to_text(P(2, {})) == "0"


# -- the packed core against the tuple-keyed reference --------------------

MODULI = (0, 2, 4, 6, 7)


# small exponents collide and cancel; large ones reach the top bits of each
# field, yet the sum of two stays in range
EXPONENTS = st.one_of(st.integers(-6, 6),
                      st.integers(-(EXPONENT_LIMIT // 2), EXPONENT_LIMIT // 2))


@st.composite
def term_lists(draw, rank, max_terms=8):
    """(exponent, coefficient) pairs, repeats and zero coefficients included."""
    exps = st.tuples(*[EXPONENTS] * rank)
    return draw(st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=max_terms))


@st.composite
def poly_pairs(draw):
    rank = draw(st.integers(1, 10))
    modulus = draw(st.sampled_from(MODULI))
    a = ref_normalize(draw(term_lists(rank)), modulus)
    b = ref_normalize(draw(term_lists(rank)), modulus)
    return rank, modulus, a, b


def items(p):
    """The terms of p as a list, in the polynomial's own term order."""
    return list(p.terms.items())


class TestPackedCore:
    @settings(max_examples=100, deadline=None)
    @given(poly_pairs())
    def test_ring_operations_match_the_reference(self, case):
        rank, m, a, b = case
        pa, pb = P(rank, a, m), P(rank, b, m)
        assert items(pa) == list(a.items())
        assert items(pa + pb) == list(ref_add(a, b, m).items())
        neg_b = ref_normalize({e: -c for e, c in b.items()}, m)
        assert items(-pb) == list(neg_b.items())
        assert items(pa - pb) == list(ref_add(a, neg_b, m).items())
        assert items(pa * pb) == list(ref_mul(a, b, m).items())
        assert (pa - pa).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs(), st.integers(-12, 12), st.data())
    def test_scale_and_monomial_shift_match_the_reference(self, case, c, data):
        rank, m, a, _ = case
        pa = P(rank, a, m)
        shift = data.draw(st.tuples(*[st.integers(-6, 6)] * rank))
        assert items(pa.scale(c)) == list(ref_normalize({e: v * c for e, v in a.items()},
                                                        m).items())
        moved = {tuple(x + y for x, y in zip(e, shift)): v * c for e, v in a.items()}
        assert items(pa.mul_monomial(shift, c)) == list(ref_normalize(moved, m).items())
        assert pa.mul_monomial(shift, c) == pa * P(rank, {shift: c}, m)

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs(), st.data())
    def test_graded_pieces_match_the_reference(self, case, data):
        rank, m, a, b = case
        gradings = [Grading(tuple(moduli),
                            [[data.draw(st.integers(-5, 5)) for _ in moduli]
                             for _ in range(rank)])
                    for moduli in data.draw(st.lists(
                        st.lists(st.integers(2, 6), min_size=1, max_size=2),
                        min_size=2, max_size=2))]
        # two gradings and every class, on two polynomials sharing exponents
        for g in gradings:
            for terms in (a, b, ref_add(a, b, m)):
                p = P(rank, terms, m)
                want = {}
                for e, c in terms.items():
                    want.setdefault(g.of_exponent(e), {})[e] = c
                got = graded_components(p, g)
                assert {cls: items(q) for cls, q in got.items()} == \
                    {cls: list(t.items()) for cls, t in want.items()}
                for cls in classes(g):
                    assert items(homogeneous_component(p, g, cls)) == \
                        list(want.get(cls, {}).items())

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs(), st.sampled_from((2, 3, 4, 6, 7)))
    def test_coefficient_reduction_and_lift_match_the_reference(self, case, k):
        rank, m, a, _ = case
        pa = P(rank, a, m)
        lifted = lift_coefficients(pa)
        assert lifted.modulus == 0 and items(lifted) == list(a.items())
        if m == 0 or m % k == 0:
            assert items(reduce_coefficients(pa, k)) == list(ref_normalize(a, k).items())

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs(), st.data())
    def test_embedding_matches_the_reference(self, case, data):
        rank, m, a, _ = case
        n = data.draw(st.integers(rank, 12))
        off = data.draw(st.integers(0, n - rank))
        pad = ((0,) * off, (0,) * (n - rank - off))
        want = {pad[0] + e + pad[1]: c for e, c in a.items()}
        assert items(embed(P(rank, a, m), n, off)) == list(want.items())
        with pytest.raises(ValueError):
            embed(P(rank, a, m), n, n - rank + 1)

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs())
    def test_degrees_and_leading_slice_match_the_reference(self, case):
        rank, m, a, _ = case
        pa = P(rank, a, m)
        for axis in range(rank):
            if not a:
                with pytest.raises(ZeroPolynomialError):
                    degrees(pa, axis)
                continue
            col = [e[axis] for e in a]
            assert degrees(pa, axis) == (max(col), min(col), max(col) - min(col))
            h, lead = leading_slice(pa, axis)
            assert h == max(col)
            assert items(lead) == [(e, c) for e, c in a.items() if e[axis] == h]

    @settings(max_examples=50, deadline=None)
    @given(poly_pairs(), st.randoms(use_true_random=False))
    def test_equality_and_hash_follow_the_terms(self, case, rnd):
        rank, m, a, b = case
        shuffled = list(a.items())
        rnd.shuffle(shuffled)
        pa, pb, pa2 = P(rank, a, m), P(rank, b, m), P(rank, dict(shuffled), m)
        assert pa == pa2 and hash(pa) == hash(pa2)
        assert (pa == pb) == (a == b)
        assert pa.terms == a and dict(pa.terms) == a
        assert all(pa.terms[e] == c for e, c in a.items())
        assert len(pa.terms) == len(a) and set(pa.terms) == set(a)
        assert from_text(to_text(pa), rank, m) == pa


class TestPackedRange:
    def test_limit_is_at_least_32_bit_fields(self):
        assert EXPONENT_LIMIT >= 2 ** 31 - 1

    @pytest.mark.parametrize("rank,axis", [(1, 0), (3, 0), (3, 1), (3, 2), (10, 9)])
    def test_exponents_at_the_limit_round_trip(self, rank, axis):
        lim = EXPONENT_LIMIT
        for sign in (1, -1):
            e = [0] * rank
            e[axis] = sign * lim
            others = [(-1) ** i * (lim - i) for i in range(rank)]
            others[axis] = -sign * lim
            terms = {tuple(e): 3, tuple(others): -2, (0,) * rank: 1}
            p = P(rank, terms)
            assert dict(p.terms) == terms
            assert degrees(p, axis) == (lim, -lim, 2 * lim)
            assert from_text(to_text(p), rank) == p
            # a product that lands exactly on the limit is fine
            near, unit = list(e), [0] * rank
            near[axis], unit[axis] = sign * (lim - 1), sign
            on_limit = P(rank, {tuple(e): 1})
            assert P(rank, {tuple(near): 1}) * P(rank, {tuple(unit): 1}) == on_limit
            assert P(rank, {tuple(near): 1}).mul_monomial(unit) == on_limit

    @pytest.mark.parametrize("bad", [EXPONENT_LIMIT + 1, -EXPONENT_LIMIT - 1,
                                     2 ** 32, -2 ** 32, 2 ** 64])
    def test_exponents_past_the_limit_raise(self, bad):
        for rank in (1, 4):
            e = (0,) * (rank - 1) + (bad,)
            with pytest.raises(ExponentRangeError):
                P(rank, {e: 1})
            with pytest.raises(ValueError):
                from_text(f"x{rank}^{bad}", rank)
        assert issubclass(ExponentRangeError, ValueError)

    def test_results_past_the_limit_raise(self):
        lim = EXPONENT_LIMIT
        top = P(2, {(lim, 0): 1, (0, 0): 1})
        with pytest.raises(ExponentRangeError):
            top * P(2, {(1, 0): 1, (0, 0): 1})
        with pytest.raises(ExponentRangeError):
            top.mul_monomial((0, 1))
        with pytest.raises(ExponentRangeError):
            P(2, {(0, -lim): 1}) * P(2, {(0, -1): 1})
        # a sum keeps the larger bound, so it never raises
        assert (top + top).terms == {(lim, 0): 2, (0, 0): 2}

    @pytest.mark.parametrize("derive", [
        lambda f: f + P(2, {(0, 0): 1}), lambda f: P(2, {(0, 0): 1}) + f,
        lambda f: f - P(2, {(1, 0): 1}), lambda f: P(2, {(1, 0): 1}) - f, lambda f: -f,
        lambda f: f.scale(3), lambda f: f.mul_monomial((0, 0), 3), lambda f: f * P(2, {(0, 0): 2}),
        lambda f: leading_slice(f, 1)[1], lambda f: reduce_coefficients(f, 4),
        lambda f: lift_coefficients(reduce_coefficients(f, 4)),
        lambda f: homogeneous_component(f, Grading((2,), [(1,), (1,)]), (1,)),
        lambda f: graded_components(f, Grading((2,), [(1,), (0,)]))[(0,)],
    ], ids=["add", "radd", "sub", "rsub", "neg", "scale", "shift", "mul", "slice",
            "reduce", "lift", "component", "components"])
    def test_derived_polynomials_keep_their_bound(self, derive):
        # the limit sits in the low field, where a wrap would carry silently
        g = derive(P(2, {(0, EXPONENT_LIMIT): 1, (0, 0): 2}))
        with pytest.raises(ExponentRangeError):
            g * P(2, {(0, 1): 1}, g.modulus)
        with pytest.raises(ExponentRangeError):
            g.mul_monomial((0, 1))

    def test_terms_are_a_read_only_view(self):
        p = P(2, {(1, 0): 1, (0, -1): 2})
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = 5
        with pytest.raises(TypeError):
            del p.terms[(1, 0)]
        assert (5, 5) not in p.terms and (1, 0, 0) not in p.terms
        assert p.terms.get((0, -1)) == 2
        assert isinstance(LaurentPoly.zero(3).terms, type(p.terms))


def fold(xs, ys, start):
    """The loop `dot` replaced, kept as its oracle."""
    acc = start
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def outcome(fn):
    try:
        p = fn()
    except ValueError as exc:
        return type(exc)
    return p.rank, p.modulus, dict(p.terms)


@st.composite
def dot_cases(draw):
    """(xs, ys) of one ring; `cancel` appends the negated pairs, so the sum is 0."""
    rank = draw(st.integers(1, 6))
    modulus = draw(st.sampled_from(MODULI))
    k = draw(st.integers(1, 5))
    xs = [P(rank, draw(term_lists(rank)), modulus) for _ in range(k)]
    ys = [P(rank, draw(term_lists(rank)), modulus) for _ in range(k)]
    if draw(st.booleans()):
        xs, ys = xs + [-x for x in xs], ys + ys
    return xs, ys


# every operand draws its own ring, so some pairs mismatch and some do not
RINGS = ((1, 0), (1, 2), (2, 0), (2, 3))


@st.composite
def mixed_dot_cases(draw):
    xs, ys = [], []
    for _ in range(draw(st.integers(1, 4))):
        for side in (xs, ys):
            rank, modulus = draw(st.sampled_from(RINGS))
            big = st.sampled_from((EXPONENT_LIMIT, EXPONENT_LIMIT - 1, 1 - EXPONENT_LIMIT))
            e = st.one_of(st.integers(-3, 3), big)
            terms = draw(st.lists(st.tuples(st.tuples(*[e] * rank), st.integers(-3, 3)),
                                  max_size=3))
            side.append(P(rank, terms, modulus))
    return xs, ys


class TestDot:
    @settings(max_examples=100, deadline=None)
    @given(dot_cases(), st.booleans())
    def test_matches_the_fold(self, case, with_start):
        xs, ys = case
        zero = LaurentPoly.zero(xs[0].rank, xs[0].modulus)
        start = (xs[0] - ys[-1]) if with_start else None
        got = dot(xs, ys, start)
        want = fold(xs, ys, zero if start is None else start)
        # the same terms (their order may differ) in normal form
        assert got == want
        m = got.modulus
        assert all(c and (not m or 0 < c < m) for c in got.terms.values())

    def test_full_cancellation_is_zero(self):
        x, y = P(2, {(1, 0): 3, (0, -1): 1}, 7), P(2, {(1, 1): 5, (0, 0): 2}, 7)
        assert dot([x, x], [y, -y]).is_zero()
        # 2 * 2 = 0 mod 4: nonzero operands with a zero product
        assert dot([P(1, {(1,): 2}, 4)], [P(1, {(0,): 2}, 4)]).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(mixed_dot_cases())
    def test_errors_match_the_fold(self, case):
        xs, ys = case
        zero = LaurentPoly.zero(xs[0].rank, xs[0].modulus)
        assert outcome(lambda: dot(xs, ys)) == outcome(lambda: fold(xs, ys, zero))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mixed_dot_cases(), dot_cases()))
    def test_check_dot_raises_what_dot_raises(self, case):
        # the same error and message, from the same pair, or none at all
        xs, ys = case
        assert raised(lambda: check_dot(xs, ys)) == raised(lambda: dot(xs, ys))
        assert raised(lambda: check_dot([], [])) == raised(lambda: dot([], []))

    def test_range_error_and_bound(self):
        lim = EXPONENT_LIMIT
        top = P(2, {(lim, 0): 1, (0, 0): 1})
        one = P(2, {(1, 0): 1, (0, 0): 1})
        with pytest.raises(ExponentRangeError):
            dot([one, top], [one, one])
        # a zero operand makes no product, as in `x * y`
        assert dot([top, top], [LaurentPoly.zero(2), one.scale(0)]).is_zero()
        # the result's bound is a product's, so its products raise as a fold's would
        g = dot([P(2, {(0, lim - 1): 1})], [P(2, {(0, 1): 1})])
        with pytest.raises(ExponentRangeError):
            g.mul_monomial((0, 1))

    def test_empty(self):
        with pytest.raises(ValueError):
            dot([], [])
        start = P(3, {(1, 2, 3): 4}, 5)
        assert dot([], [], start) == start


def raised(fn):
    """(type, message) of the ValueError fn raises, or None."""
    try:
        fn()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def dots_cases(draw, cases):
    """(triples, starts): the pairs of a drawn dot case spread over one to
    four positions, each start the zero of the first operand's ring or that
    operand itself."""
    xs, ys = draw(cases)
    n = draw(st.integers(1, 4))
    js = draw(st.lists(st.integers(0, n - 1), min_size=len(xs), max_size=len(xs)))
    zero = LaurentPoly.zero(xs[0].rank, xs[0].modulus)
    starts = draw(st.lists(st.sampled_from((zero, xs[0])), min_size=n, max_size=n))
    return list(zip(js, xs, ys)), starts


def per_position(triples, starts, sum_from):
    """Position j's pairs, in order, summed from starts[j] by sum_from(xs, ys,
    start); positions in order."""
    return [sum_from([x for k, x, _ in triples if k == j], [y for k, _, y in triples if k == j],
                     start)
            for j, start in enumerate(starts)]


class TestDots:
    @settings(max_examples=100, deadline=None)
    @given(dots_cases(dot_cases()))
    def test_matches_the_per_position_fold(self, case):
        triples, starts = case
        assert dots(triples, starts) == per_position(triples, starts, fold)

    @settings(max_examples=150, deadline=None)
    @given(dots_cases(mixed_dot_cases()))
    def test_errors_match_the_per_position_dot(self, case):
        # mixed rings and ranks and exponents at the range's edge: the same
        # error and message, from the same pair, or none at all
        triples, starts = case
        assert raised(lambda: dots(triples, starts)) == raised(
            lambda: per_position(triples, starts, dot))

    def test_a_position_without_pairs_returns_its_start(self):
        x, y = P(2, {(1, 0): 3}, 5), P(2, {(0, -1): 2}, 5)
        starts = [P(2, {(0, 0): 1}, 5), LaurentPoly.zero(2, 5), P(2, {(2, 2): 4}, 5)]
        got = dots([(1, x, y)], starts)
        assert got[0] is starts[0] and got[2] is starts[2]
        assert got[1] == x * y
        assert dots([], starts) == starts


@st.composite
def classifier_cases(draw):
    """A grading with 1-3 moduli, a bound up to the limit, exponents within it."""
    rank = draw(st.integers(1, 7))
    moduli = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    images = [[draw(st.integers(-30, 30)) for _ in moduli] for _ in range(rank)]
    bound = draw(st.one_of(st.integers(0, 40), st.integers(0, 1 << 20),
                           st.integers(0, EXPONENT_LIMIT)))
    coord = st.one_of(st.integers(-bound, bound), st.sampled_from((bound, -bound)))
    exps = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=6))
    return Grading(tuple(moduli), images), bound, exps


def assert_reads_like_of_exponent(grading, bound, exps, c):
    """graded_components, on each monomial and on their sum,
    homogeneous_component and, under one Z/2, parity_split agree with
    Grading.of_exponent on every exponent of a polynomial whose bound is
    `bound`."""
    rank = len(grading.images)
    pack = _codec(rank)[0]
    for e in exps:
        monomial = LaurentPoly._trusted(rank, 0, {pack(e): c}, bound)
        assert list(graded_components(monomial, grading)) == [grading.of_exponent(e)]
    # a polynomial whose bound is `bound`, read through both entry points
    terms = {pack(e): c for e in exps}
    f = LaurentPoly._trusted(rank, 0, terms, bound)
    classes = {grading.of_exponent(e) for e in exps}
    for cls in classes | {grading.zero}:
        want = {pack(e): c for e in exps if grading.of_exponent(e) == cls}
        assert homogeneous_component(f, grading, cls)._packed == want
    assert {k: v._packed for k, v in graded_components(f, grading).items()} == {
        cls: {pack(e): c for e in exps if grading.of_exponent(e) == cls}
        for cls in classes}
    if grading.moduli == (2,):
        assert [p._packed for p in parity_split(f, grading)] == [
            {pack(e): c for e in exps if grading.of_exponent(e) == cls}
            for cls in ((0,), (1,))]
    else:
        with pytest.raises(ValueError, match="a parity split needs one Z/2"):
            parity_split(f, grading)


class TestArithmeticClassifier:
    @settings(max_examples=250, deadline=None)
    @given(classifier_cases(), st.integers(1, 5))
    def test_matches_of_exponent(self, case, c):
        assert_reads_like_of_exponent(*case, c)

    def test_rank_mismatch(self):
        # the rank is checked before any class is read, on every kind of grading
        f = P(3, {(0, 0, 0): 1})
        for moduli in [(2,), (3,), (2, 2)]:
            g = Grading(moduli, [(1,) * len(moduli), (0,) * len(moduli)])
            with pytest.raises(RankMismatchError):
                homogeneous_component(f, g, g.zero)
            with pytest.raises(RankMismatchError):   # before the class is checked
                homogeneous_component(f, g, (9,) * (len(moduli) + 1))
            with pytest.raises(RankMismatchError):
                graded_components(f, g)
            with pytest.raises(RankMismatchError):
                parity_split(f, g)

    def test_one_z2_reads_classes_only_through_parity_split(self, monkeypatch):
        # on one Z/2 a component is its part of parity_split's one pass: no
        # exponent is unpacked, and the rank and class checks read no class
        g = Grading((2,), [(1,), (0,), (1,)])
        f = P(3, {(0, 0, 0): 1, (1, 0, 0): 2, (1, 1, 1): 3, (0, 5, 1): 4, (-3, 2, 0): 5})
        want = {cls: P(3, {e: c for e, c in f.terms.items() if g.of_exponent(e) == cls})
                for cls in classes(g)}
        calls = []
        split = laurent.parity_split
        monkeypatch.setattr(laurent, "parity_split",
                            lambda *args: calls.append(args) or split(*args))
        monkeypatch.setattr(Grading, "of_exponent", lambda *args: pytest.fail("of_exponent"))
        for cls, part in want.items():
            assert homogeneous_component(f, g, cls) == part
        assert len(calls) == 2
        with pytest.raises(RankMismatchError):   # before the class is checked
            homogeneous_component(P(2, {(0, 0): 1}), g, (9, 9))
        with pytest.raises(ValueError, match="is not a class"):
            homogeneous_component(f, g, (2,))
        assert len(calls) == 2

    @pytest.mark.parametrize("moduli", [(), (3,), (4,), (2, 2), (2, 3)])
    def test_only_one_z2_holds_parity_data(self, moduli):
        images = [tuple(range(1, len(moduli) + 1))] * 3
        assert Grading(moduli, images)._parity is None
        z2 = Grading((2,), [(1,), (0,), (1,)])
        assert z2._parity is not None and not hasattr(z2, "_ones")

    @pytest.mark.parametrize("moduli,bad", [
        ((2,), [(2,), (3,), (-1,), (0, 0), ()]),
        ((3,), [(3,), (4,), (-1,), (0, 0)]),
        ((2, 2), [(2, 0), (0, 2), (-1, 1), (0,), (0, 0, 0)]),
    ], ids=["Z2", "Z3", "Z2xZ2"])
    def test_rejects_classes_outside_the_grading(self, moduli, bad):
        g = Grading(moduli, [(1,) * len(moduli), (0,) * len(moduli)])
        f = P(2, {(0, 0): 1, (1, 0): 2, (2, 0): 3})
        # the answer does not depend on the polynomial's exponent bound
        far = f + P(2, {(0, 1 << 30): 1})
        for cls in bad:
            for h in (f, far):
                with pytest.raises(ValueError, match="is not a class"):
                    homogeneous_component(h, g, cls)
        for cls in classes(g):
            want = {e: c for e, c in f.terms.items() if g.of_exponent(e) == cls}
            assert homogeneous_component(f, g, cls) == P(2, want)


@st.composite
def graded_cases(draw, moduli):
    """A grading with the given moduli, a bound up to the limit, and exponents
    within it.  Bounds are drawn small, large, and at the edge where
    rank * 2 bound * (m - 1) reaches 2^32: a reading that multiplies codes by
    the form would carry from there, so a reader must hold on both sides."""
    rank = draw(st.integers(2, 8))  # at rank 1 mod 2 every bound is below it
    images = [[draw(st.integers(-7, 7)) for _ in moduli] for _ in range(rank)]
    carry = _FIELD // (rank * 2 * (max(moduli) - 1)) + 1
    bound = draw(st.one_of(st.integers(0, 40), st.integers(carry, EXPONENT_LIMIT),
                           st.sampled_from((carry - 1, carry, EXPONENT_LIMIT))))
    coord = st.one_of(st.integers(-bound, bound), st.sampled_from((bound, -bound)))
    exps = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=8))
    return Grading(moduli, images), bound, exps


class TestParityReader:
    @pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2)])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), c=st.integers(1, 5))
    def test_matches_of_exponent(self, moduli, data, c):
        grading, bound, exps = data.draw(graded_cases(moduli))
        rank = len(grading.images)
        # mod 2 reads parities at every bound; other moduli unpack the code
        # and apply of_exponent
        assert (grading._parity_reader(rank, bound) is None) == (moduli != (2,))
        assert_reads_like_of_exponent(grading, bound, exps, c)


def per_term_components(f, grading):
    """graded_components as a loop over f.terms: one of_exponent per term."""
    out = {}
    for e, c in f.terms.items():
        out.setdefault(grading.of_exponent(e), {})[e] = c
    return out


class TestGradedComponents:
    @pytest.mark.parametrize("moduli", [(2,), (4,), (2, 2), (3, 6)],
                             ids=["Z2", "Z4", "Z2xZ2", "Z3xZ6"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), c=st.integers(1, 5))
    def test_matches_the_per_term_oracle(self, moduli, data, c):
        grading, bound, exps = data.draw(graded_cases(moduli))
        rank = len(grading.images)
        pack = _codec(rank)[0]
        f = LaurentPoly._trusted(rank, 0, {pack(e): c for e in exps}, bound)
        parts = graded_components(f, grading)
        assert {cls: dict(p.terms) for cls, p in parts.items()} == per_term_components(f, grading)
        # homogeneous_component is graded_components' component, zero when absent
        for cls in classes(grading):
            assert homogeneous_component(f, grading, cls) == parts.get(cls, P(rank, {}))

    def test_one_z2_reads_parities(self, monkeypatch):
        # on one Z/2 the classes come from parity_split, never of_exponent
        g = Grading((2,), [(1,), (0,), (1,)])
        f = P(3, {(1, 0, 0): 1, (1, 0, 1): 2, (0, 5, 0): 3, (-1, 0, 2): 4})
        want = dict(zip(((0,), (1,)), parity_split(f, g)))

        def refuse(self, exp):
            raise AssertionError("of_exponent read on one Z/2")

        monkeypatch.setattr(Grading, "of_exponent", refuse)
        assert graded_components(f, g) == want
        assert graded_components(P(3, {(1, 1, 1): 1}), g) == {(0,): P(3, {(1, 1, 1): 1})}
        assert graded_components(P(3, {}), g) == {}
