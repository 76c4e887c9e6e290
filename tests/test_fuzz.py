"""`weylinv.fuzz.random_graded_poly` on gradings where 0 may be the only
exponent of degree zero in [-1, 1]^n."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from weylinv.fuzz import random_graded_poly
from weylinv.laurent import Grading
from weylinv.rootdata import compile_spec
from weylinv.spec import parse_spec


def nonzero_degree_zero_oracle(grading):
    """Is some nonzero exponent in [-1, 1]^n of degree zero?  By enumeration."""
    return any(any(e) and grading.of_exponent(e) == grading.zero
               for e in itertools.product((-1, 0, 1), repeat=len(grading.images)))


@st.composite
def gradings(draw):
    """Gradings of rank 1-5 onto one or two cyclic groups of order 2-6."""
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    n = draw(st.integers(1, 5))
    images = [tuple(draw(st.integers(0, m - 1)) for m in moduli) for _ in range(n)]
    return Grading(moduli, images)


@pytest.mark.parametrize("text", ["PGL(2)", "PGL(2) x PGL(2)", "PGL(2) x PGL(2) x PGL(2)"])
def test_only_zero_raises_before_any_draw(text):
    grading = compile_spec(parse_spec(text)).grading
    assert not nonzero_degree_zero_oracle(grading)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"0 is the only exponent of degree zero in \[-1, 1\]\^n"):
        random_graded_poly(rng, grading)
    assert rng.getstate() == state
    # with max_tries the draws run as before, and 0 is all they can find
    poly = random_graded_poly(rng, grading, max_tries=20)
    assert set(poly.terms) <= {(0,) * len(grading.images)}


@pytest.mark.parametrize("text", ["SL(2)", "PGL(3)", "SL(4) / mu(2)", "PGO(8)", "E7",
                                  "PGL(2) x PGL(3)", "PGL(2) x SL(2)"])
def test_a_second_exponent_is_found(text):
    grading = compile_spec(parse_spec(text)).grading
    assert nonzero_degree_zero_oracle(grading)
    poly = random_graded_poly(random.Random(0), grading)
    assert all(grading.of_exponent(e) == grading.zero for e in poly.terms)


@settings(max_examples=300, deadline=None)
@given(gradings(), st.integers(0, 2 ** 32))
def test_raises_exactly_when_the_enumeration_finds_only_zero(grading, seed):
    rng = random.Random(seed)
    if nonzero_degree_zero_oracle(grading):
        poly = random_graded_poly(rng, grading)
        assert all(grading.of_exponent(e) == grading.zero for e in poly.terms)
    else:
        with pytest.raises(ValueError, match="0 is the only exponent"):
            random_graded_poly(rng, grading)
