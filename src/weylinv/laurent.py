"""Exact Laurent polynomial arithmetic over Z and Z/m on a rank-n free abelian group.

A polynomial is a finite map from integer exponent vectors (length = rank) to
nonzero coefficients.  Coefficients live in Z (modulus 0) or Z/m (modulus m >= 2,
stored in [1, m-1]).  All values are immutable; all operations are pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import add, mul


class RingMismatchError(ValueError):
    pass


class RankMismatchError(ValueError):
    pass


class ZeroPolynomialError(ValueError):
    """Raised when degrees of the zero polynomial are requested."""


class DivisionPreconditionError(ValueError):
    pass


def _normalize(terms, modulus):
    out = {}
    is_map = isinstance(terms, dict) or isinstance(terms, Mapping)
    for exp, c in terms.items() if is_map else terms:
        if modulus:
            c %= modulus
        if c:
            e = tuple(exp)
            acc = out.get(e, 0) + c
            if modulus:
                acc %= modulus
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
    return out


class LaurentPoly:
    """Immutable Laurent polynomial with exact coefficients."""

    __slots__ = ("rank", "modulus", "terms")

    def __init__(self, rank: int, modulus: int = 0, terms=()):
        if modulus == 1 or modulus < 0:
            raise ValueError("modulus must be 0 (meaning Z) or >= 2")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "terms", _normalize(terms, modulus))
        for e in self.terms:
            if len(e) != rank:
                raise RankMismatchError(f"exponent {e} has length != {rank}")

    @classmethod
    def _trusted(cls, rank, modulus, terms):
        """Wrap an already-normal terms dict without re-validating it.

        For arithmetic results only: exponents of length `rank`, coefficients
        nonzero and, for modulus m, in [1, m-1].  The dict is not copied.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "rank", rank)
        object.__setattr__(p, "modulus", modulus)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(rank, modulus=0):
        return LaurentPoly(rank, modulus)

    @staticmethod
    def const(rank, c, modulus=0):
        return LaurentPoly(rank, modulus, {(0,) * rank: c})

    @staticmethod
    def monomial(rank, exp, c=1, modulus=0):
        return LaurentPoly(rank, modulus, {tuple(exp): c})

    # -- basics ------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, self.modulus, frozenset(self.terms.items())))

    def _check(self, other):
        if self.modulus != other.modulus:
            raise RingMismatchError(f"{self.modulus} vs {other.modulus}")
        if self.rank != other.rank:
            raise RankMismatchError(f"{self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        m = self.modulus
        for e, c in other.terms.items():
            acc = out.get(e, 0) + c
            if m:
                acc %= m
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return LaurentPoly._trusted(self.rank, m, out)

    def __neg__(self):
        m = self.modulus
        return LaurentPoly._trusted(self.rank, m,
                                    {e: (m - c if m else -c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        m = self.modulus
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc = out.get(e, 0) + c1 * c2
                if m:
                    acc %= m
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return LaurentPoly._trusted(self.rank, m, out)

    __rmul__ = __mul__

    def scale(self, c: int):
        return LaurentPoly(self.rank, self.modulus,
                           {e: v * c for e, v in self.terms.items()})

    def mul_monomial(self, exp: Iterable[int], c: int = 1):
        exp = tuple(exp)
        return LaurentPoly(self.rank, self.modulus,
                           {tuple(a + b for a, b in zip(e, exp)): v * c
                            for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a general polynomial")
        out = LaurentPoly.const(self.rank, 1, self.modulus)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"LaurentPoly({to_text(self)!r})"


def ring_arithmetic(a: LaurentPoly, b: LaurentPoly, op: str) -> LaurentPoly:
    """Dispatch wrapper: op in {'add', 'sub', 'mul', 'scale-by-monomial'}.

    For 'scale-by-monomial', b must be a single monomial; a is multiplied by it.
    """
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "scale-by-monomial":
        if len(b.terms) != 1:
            raise ValueError("scale-by-monomial needs a monomial second operand")
        a._check(b)
        ((e, c),) = b.terms.items()
        return a.mul_monomial(e, c)
    raise ValueError(f"unknown op {op!r}")


def degrees(f: LaurentPoly, axis: int) -> tuple[int, int, int]:
    """(hdeg, ldeg, wdeg) of f with respect to the given axis (0-based).

    The zero polynomial has no degrees; ZeroPolynomialError is raised.
    """
    if f.is_zero():
        raise ZeroPolynomialError("degrees are undefined for the zero polynomial")
    exps = [e[axis] for e in f.terms]
    h, l = max(exps), min(exps)
    return h, l, h - l


def leading_slice(f: LaurentPoly, axis: int) -> tuple[int, LaurentPoly]:
    """(hdeg, sub-polynomial of terms with maximal axis exponent)."""
    h, _, _ = degrees(f, axis)
    return h, LaurentPoly(f.rank, f.modulus,
                          {e: c for e, c in f.terms.items() if e[axis] == h})


def is_divisor(p: LaurentPoly, axis: int) -> bool:
    """True iff the leading axis-coefficient of p is a monic monomial."""
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial is not a divisor")
    _, lead = leading_slice(p, axis)
    if len(lead.terms) != 1:
        return False
    ((_, c),) = lead.terms.items()
    return c == 1


def bounded_divide(f: LaurentPoly, p: LaurentPoly, axis: int, d: int):
    """Division of f by p bounded by d along `axis`: f = p*q + r.

    Requires is_divisor(p, axis) and (f == 0 or ldeg_axis(f) >= d).  The
    remainder satisfies r == 0 or (ldeg_axis(r) >= d and
    hdeg_axis(r) < d + wdeg_axis(p)).  Iterative top-slice peeling; the
    recursion depth of the textbook argument becomes the loop count here.
    """
    f._check(p)
    if not is_divisor(p, axis):
        raise DivisionPreconditionError("p is not a divisor w.r.t. the axis")
    if f.is_zero():
        z = LaurentPoly.zero(f.rank, f.modulus)
        return z, z
    _, ldeg_f, _ = degrees(f, axis)
    if ldeg_f < d:
        raise DivisionPreconditionError(f"ldeg {ldeg_f} below bound {d}")
    _, _, wp = degrees(p, axis)
    k, lead = leading_slice(p, axis)
    ((lead_exp, _),) = lead.terms.items()
    inv_lead = tuple(-x for x in lead_exp)

    q = LaurentPoly.zero(f.rank, f.modulus)
    cur = f
    while cur and degrees(cur, axis)[0] >= d + wp:
        m, top = leading_slice(cur, axis)
        q0 = top.mul_monomial(inv_lead)
        q = q + q0
        cur = cur - q0 * p
    return q, cur


class Grading:
    """Homomorphism Z^rank -> (+)_i Z/moduli[i], given on basis vectors."""

    __slots__ = ("moduli", "images", "_forms")

    def __init__(self, moduli: tuple[int, ...], images):
        self.moduli = tuple(moduli)
        self.images = tuple(tuple(v) for v in images)
        # one linear form per modulus: its column of the basis images
        self._forms = tuple((tuple(img[i] for img in self.images), m)
                            for i, m in enumerate(self.moduli))

    @property
    def zero(self):
        return (0,) * len(self.moduli)

    def of_exponent(self, exp) -> tuple[int, ...]:
        return tuple(sum(map(mul, exp, col)) % m for col, m in self._forms)

    def add(self, c1, c2):
        return tuple((a + b) % m for a, b, m in zip(c1, c2, self.moduli))

    def classes(self):
        from itertools import product
        return [tuple(c) for c in product(*(range(m) for m in self.moduli))]


def homogeneous_component(f: LaurentPoly, grading: Grading, cls) -> LaurentPoly:
    """Sub-polynomial of terms whose exponent maps to the given class."""
    cls = tuple(cls)
    return LaurentPoly(f.rank, f.modulus,
                       {e: c for e, c in f.terms.items()
                        if grading.of_exponent(e) == cls})


def graded_components(f: LaurentPoly, grading: Grading) -> dict:
    out = {}
    for e, c in f.terms.items():
        cls = grading.of_exponent(e)
        out.setdefault(cls, {})[e] = c
    return {cls: LaurentPoly(f.rank, f.modulus, t) for cls, t in out.items()}


def augmentation(f: LaurentPoly) -> int:
    """Sum of all coefficients (the trace e^lambda -> 1)."""
    s = sum(f.terms.values())
    return s % f.modulus if f.modulus else s


def reduce_coefficients(f: LaurentPoly, m: int) -> LaurentPoly:
    """Reduce an integral polynomial mod m (terms vanishing mod m are dropped)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if f.modulus:
        if f.modulus % m:
            raise RingMismatchError(f"cannot reduce Z/{f.modulus} to Z/{m}")
    return LaurentPoly(f.rank, m, dict(f.terms))


def lift_coefficients(f: LaurentPoly) -> LaurentPoly:
    """Canonical lift Z/m -> Z choosing representatives in [0, m)."""
    return LaurentPoly(f.rank, 0, dict(f.terms))


# -- text format -----------------------------------------------------------
#
# `c * x1^a1 x2^a2 ...` terms joined by ` + `, exponent 0 omitted, exponent 1
# printed bare, deterministic lexicographic term order; zero prints as "0".

def to_text(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in sorted(f.terms):
        c = f.terms[e]
        vars_part = " ".join(
            f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}"
            for i, a in enumerate(e) if a != 0
        )
        parts.append(f"{c} * {vars_part}" if vars_part else str(c))
    return " + ".join(parts)


def from_text(s: str, rank: int, modulus: int = 0) -> LaurentPoly:
    s = s.strip()
    if s in ("", "0"):
        return LaurentPoly.zero(rank, modulus)
    terms = {}
    for part in s.split("+"):
        part = part.strip()
        if not part:
            continue
        coeff = 1
        exp = [0] * rank
        if "*" in part:
            cs, vs = part.split("*", 1)
            coeff = int(cs.strip())
            tokens = vs.split()
        else:
            tokens = part.split()
            if len(tokens) == 1 and not tokens[0].startswith("x"):
                coeff = int(tokens[0])
                tokens = []
        for tok in tokens:
            if "^" in tok:
                name, a = tok.split("^")
                a = int(a)
            else:
                name, a = tok, 1
            if not name.startswith("x"):
                raise ValueError(f"bad variable token {tok!r}")
            i = int(name[1:]) - 1
            if not 0 <= i < rank:
                raise ValueError(f"variable {name} out of rank {rank}")
            exp[i] += a
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(rank, modulus, terms)
