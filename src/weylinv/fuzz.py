"""Seeded random fixtures for the division and syzygy round-trip checks.

Each function draws from the caller's `random.Random` in a fixed order, so
a seed always yields the same inputs.  `weylinv fuzz-syzygy` and
`weylinv pgo8-check` draw their cases from them, and so do the tests.
"""

from __future__ import annotations

import math
from itertools import product

from .laurent import LaurentPoly, is_divisor
from .syzygy import SyzygyCertificate, newton_transform, reduce_coefficients


def random_poly(rng, rank, modulus, nterms=5, lo=-4, hi=4, clo=-5, chi=5):
    """Sum of nterms terms with exponents in [lo, hi]^rank and coefficients in [clo, chi]."""
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(lo, hi) for _ in range(rank))
        terms[e] = terms.get(e, 0) + rng.randint(clo, chi)
    return LaurentPoly(rank, modulus, terms)


def _divisor_or_lead(rank, modulus, terms, lead, axis):
    """The polynomial on terms if it is a divisor along axis, else its lead monomial."""
    p = LaurentPoly(rank, modulus, terms)
    if p.is_zero() or not is_divisor(p, axis):
        p = LaurentPoly(rank, modulus, {tuple(lead): 1})
    return p


def random_flat_tuple(rng, rank, modulus):
    """Random flat tuple: entry i is a divisor along axis i supported on axes <= i."""
    out = []
    for i in range(rank):
        k = rng.randint(0, 2)
        lead = [0] * rank
        lead[i] = k
        for j in range(i):
            lead[j] = rng.randint(-2, 2)
        terms = {tuple(lead): 1}
        for _ in range(rng.randint(0, 3)):
            e = [0] * rank
            e[i] = rng.randint(k - 3, k - 1)
            for j in range(i):
                e[j] = rng.randint(-2, 2)
            c = rng.randint(-4, 4)
            if c:
                key = tuple(e)
                terms[key] = terms.get(key, 0) + c
        out.append(_divisor_or_lead(rank, modulus, terms, lead, i))
    return tuple(out)


def random_cert(rng, rank, modulus, density=0.5, nterms=2):
    """Certificate with a small random entry at each pair i < j with probability density."""
    entries = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < density:
                g = random_poly(rng, rank, modulus, nterms, lo=-2, hi=2, clo=-4, chi=4)
                if not g.is_zero():
                    entries[(i, j)] = g
    return SyzygyCertificate(rank, rank, modulus, entries)


def random_graded_poly(rng, grading, max_tries=None):
    """Integer polynomial of grading degree zero with up to two exponents in [-1, 1]^n.

    Draws exponents until two of degree zero are found, or until max_tries
    draws when it is given.  Without max_tries, ValueError, before any draw,
    when 0 is the only such exponent.
    """
    n = len(grading.images)
    # a nonzero v of degree zero is a - b for two distinct 0/1 vectors of one
    # degree (its positive and negative parts): there is one when 2^n >
    # |Lambda/T*| (pigeonhole), and otherwise when two of the 2^n collide
    if max_tries is None and 2 ** n <= math.prod(grading.moduli) and len(
            {grading.of_exponent(e) for e in product((0, 1), repeat=n)}) == 2 ** n:
        raise ValueError("0 is the only exponent of degree zero in [-1, 1]^n")
    terms = {}
    tries = 0
    while len(terms) < 2 and (max_tries is None or tries < max_tries):
        e = tuple(rng.randint(-1, 1) for _ in range(n))
        if grading.of_exponent(e) == grading.zero:
            terms[e] = terms.get(e, 0) + rng.randint(-2, 2)
        tries += 1
    return LaurentPoly(n, 0, terms)


def syzygy_case(rng):
    """(t, f) for one `fuzz-syzygy` case: a flat tuple t (one time in four an A/C
    Newton block) over a drawn modulus, and f = c.t for a random certificate c."""
    modulus = rng.choice([0, 2, 3, 4, 6, 8])
    if rng.random() < 0.25:
        kind = rng.choice(["A", "C"])
        t, _, _ = newton_transform(kind, rng.randint(2 if kind == "C" else 1, 4))
        if modulus:
            t = tuple(reduce_coefficients(p, modulus) for p in t)
    else:
        t = random_flat_tuple(rng, rng.randint(2, 4), modulus)
    return t, random_cert(rng, t[0].rank, modulus).expand(t)
