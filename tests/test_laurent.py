import random

import pytest
from hypothesis import given, settings, strategies as st

from weylinv.fuzz import random_divisor, random_poly
from weylinv.laurent import (
    DivisionPreconditionError,
    Grading,
    ZeroPolynomialError,
    augmentation,
    bounded_divide,
    degrees,
    from_text,
    graded_components,
    homogeneous_component,
    is_divisor,
    reduce_coefficients,
    ring_arithmetic,
    to_text,
)

from _helpers import P


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
            for cls in g.classes():
                lhs = homogeneous_component(prod, g, cls)
                rhs = P(2, {})
                for c1 in g.classes():
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
