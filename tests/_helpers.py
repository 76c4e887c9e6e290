"""Helpers shared by the test modules: compiled models, lattices, polynomials."""

from weylinv.intlinalg import congruence_kernel
from weylinv.invariants import InvariantLattice
from weylinv.laurent import LaurentPoly
from weylinv.rootdata import GroupSpec, SimpleFactor, compile_spec


def model(*factors, kernel=()):
    return compile_spec(GroupSpec(tuple(factors), tuple(kernel)))


def fac_c(r):
    """Sp(2r) as a factor; Sp(2) is SL(2)."""
    return SimpleFactor("C", r) if r >= 2 else SimpleFactor("A", 1)


def lattice_from_congruence(dim, vec, mod):
    return InvariantLattice.from_rows(dim, congruence_kernel([(list(vec), mod)], dim))


def P(rank, terms, modulus=0):
    return LaurentPoly(rank, modulus, terms)
