"""Exact Laurent polynomial arithmetic over Z and Z/m on a rank-n free abelian group.

A polynomial is a finite map from integer exponent vectors (length = rank) to
nonzero coefficients.  Coefficients live in Z (modulus 0) or Z/m (modulus m >= 2,
stored in [1, m-1]).  All values are immutable; all operations are pure.

Internally each exponent vector is one integer, its Kronecker code
sum_i e_i * 2^(32 (rank-1-i)): coordinate 0 in the most significant 32-bit
field, every field a signed digit with |e_i| <= EXPONENT_LIMIT.  Adding two
codes adds the vectors, so a monomial product is one integer add, and the
order of the codes is the lexicographic order of the vectors.  Each
polynomial carries an upper bound on |e_i| over its terms; an operation
whose result could leave the range raises ExponentRangeError instead of
letting a field wrap.  `terms` shows the same map keyed by exponent tuples.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping
from functools import lru_cache
from operator import mul

_WIDTH = 32
_HALF = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1
EXPONENT_LIMIT = _HALF - 1


class RingMismatchError(ValueError):
    pass


class RankMismatchError(ValueError):
    pass


class ExponentRangeError(ValueError):
    """Raised when an exponent could leave [-EXPONENT_LIMIT, EXPONENT_LIMIT]."""


class ZeroPolynomialError(ValueError):
    """Raised when degrees of the zero polynomial are requested."""


class DivisionPreconditionError(ValueError):
    pass


def _ones(rank):
    """1 in each of `rank` fields: sum_i 2^(32 i), a geometric series."""
    return ((1 << (_WIDTH * rank)) - 1) // _FIELD


def _bias(rank):
    """2^31 in each of `rank` fields."""
    return _HALF * _ones(rank)


@lru_cache(maxsize=None)
def _codec(rank):
    """(pack, unpack): exponent vector of length `rank` <-> its code.

    `pack` needs every coordinate within the range; it reads the vector's
    int32 fields as one unsigned integer, and xor-then-subtract of a bias
    with 2^31 in every field turns each two's-complement field into a
    signed digit.  `unpack` undoes both steps.
    """
    bias = _bias(rank)
    st = struct.Struct(f">{rank}i")
    size = 4 * rank

    def pack(exp):
        return (int.from_bytes(st.pack(*exp), "big") ^ bias) - bias

    def unpack(key):
        return st.unpack(((key + bias) ^ bias).to_bytes(size, "big"))

    return pack, unpack


def _check_modulus(modulus):
    if modulus == 1 or modulus < 0:
        raise ValueError("modulus must be 0 (meaning Z) or >= 2")
    return modulus


def _check_range(bound):
    if bound > EXPONENT_LIMIT:
        raise ExponentRangeError(
            f"exponent bound {bound} exceeds the packed range +-{EXPONENT_LIMIT}")
    return bound


@lru_cache(maxsize=None)
def _field_of(rank, axis):
    """Map a code to its `axis` coordinate (a signed digit)."""
    if not -rank <= axis < rank:
        raise IndexError(f"axis {axis} out of range for rank {rank}")
    bias = _bias(rank)
    shift = _WIDTH * (rank - 1 - axis % rank)
    return lambda key: (((key + bias) >> shift) & _FIELD) - _HALF


def _normalize(terms, modulus, rank):
    """(code -> coefficient, bound) of (exponent, coefficient) pairs."""
    out = {}
    exps = []
    pack = _codec(rank)[0]
    try:
        for exp, c in terms.items() if isinstance(terms, (dict, Mapping)) else terms:
            if modulus:
                c %= modulus
            if not c:
                continue
            exp = tuple(exp)
            if len(exp) != rank:
                raise RankMismatchError(f"exponent {exp} has length != {rank}")
            exps.append(exp)
            key = pack(exp)
            acc = out.get(key, 0) + c
            if modulus:
                acc %= modulus
            if acc:
                out[key] = acc
            else:
                del out[key]
    except struct.error:
        if all(isinstance(a, int) for a in exps[-1]):
            raise ExponentRangeError(f"exponent {exps[-1]} is outside the packed "
                                     f"range +-{EXPONENT_LIMIT}") from None
        raise TypeError(f"exponent {exps[-1]} is not a vector of integers") from None
    if not (exps and rank):
        return out, 0
    return out, _check_range(max(max(map(max, exps)), -min(map(min, exps))))


class TermView(Mapping):
    """Read-only view of a polynomial's terms keyed by exponent tuples."""

    __slots__ = ("_packed", "_rank")

    def __init__(self, packed, rank):
        self._packed = packed
        self._rank = rank

    def __len__(self):
        return len(self._packed)

    def __iter__(self):
        return map(_codec(self._rank)[1], self._packed)

    def __getitem__(self, exp):
        try:
            key = _codec(self._rank)[0](exp)
        except (struct.error, TypeError):
            raise KeyError(exp) from None
        return self._packed[key]

    def items(self):
        unpack = _codec(self._rank)[1]
        return {unpack(k): c for k, c in self._packed.items()}.items()

    def values(self):
        return self._packed.values()

    def __repr__(self):
        return f"TermView({dict(self.items())!r})"


class LaurentPoly:
    """Immutable Laurent polynomial with exact coefficients."""

    __slots__ = ("rank", "modulus", "_packed", "_bound")

    def __init__(self, rank: int, modulus: int = 0, terms=()):
        _check_modulus(modulus)
        packed, bound = _normalize(terms, modulus, rank)
        _set_rank(self, rank)
        _set_modulus(self, modulus)
        _set_packed(self, packed)
        _set_bound(self, bound)

    @staticmethod
    def _trusted(rank, modulus, packed, bound):
        """Wrap an already-normal code -> coefficient dict without re-validating it.

        For arithmetic results only: codes of in-range rank-`rank` vectors,
        `bound` >= every |exponent|, coefficients nonzero and, for modulus m,
        in [1, m-1].  The dict is not copied and must never be mutated.
        """
        p = _new(LaurentPoly)
        _set_rank(p, rank)
        _set_modulus(p, modulus)
        _set_packed(p, packed)
        _set_bound(p, bound)
        return p

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @property
    def terms(self) -> TermView:
        return TermView(self._packed, self.rank)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(rank, modulus=0):
        return _trusted(rank, _check_modulus(modulus), {}, 0)

    @staticmethod
    def const(rank, c, modulus=0):
        # the zero vector's code is 0
        if _check_modulus(modulus):
            c %= modulus
        return _trusted(rank, modulus, {0: c} if c else {}, 0)

    @staticmethod
    def monomial(rank, exp, c=1, modulus=0):
        return LaurentPoly(rank, modulus, {tuple(exp): c})

    # -- basics ------------------------------------------------------------
    def is_zero(self):
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.modulus == other.modulus
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash((self.rank, self.modulus, frozenset(self._packed.items())))

    def _check(self, other):
        if self.modulus != other.modulus:
            raise RingMismatchError(f"{self.modulus} vs {other.modulus}")
        if self.rank != other.rank:
            raise RankMismatchError(f"{self.rank} vs {other.rank}")

    def _plus(self, other, sign):
        """self + sign * other, for sign in {1, -1} and a nonzero other."""
        out = dict(self._packed)
        get = out.get
        m = self.modulus
        for k, c in other._packed.items():
            acc = get(k, 0) + sign * c
            if m:
                acc %= m
            if acc:
                out[k] = acc
            else:
                del out[k]
        return _trusted(self.rank, m, out, max(self._bound, other._bound))

    def __add__(self, other):
        self._check(other)
        if not other._packed:
            return self
        if not self._packed:
            return other
        return self._plus(other, 1)

    def __sub__(self, other):
        self._check(other)
        if not other._packed:
            return self
        if not self._packed:
            return -other
        return self._plus(other, -1)

    def __neg__(self):
        m = self.modulus
        return _trusted(
            self.rank, m, {k: (m - c if m else -c) for k, c in self._packed.items()},
            self._bound)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        m = self.modulus
        a, b = self._packed, other._packed
        if not a or not b:
            return _trusted(self.rank, m, {}, 0)
        if len(b) == 1:
            ((k, c),) = b.items()
            return self._shift(k, other._bound, c)
        if len(a) == 1:
            ((k, c),) = a.items()
            return other._shift(k, self._bound, c)
        bound = _check_range(self._bound + other._bound)
        out = {}
        get = out.get
        b_items = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in b_items:
                k = k1 + k2
                acc = get(k, 0) + c1 * c2
                if m:
                    acc %= m
                if acc:
                    out[k] = acc
                else:
                    out.pop(k, None)
        return _trusted(self.rank, m, out, bound)

    __rmul__ = __mul__

    def _shift(self, key, bound, c=1):
        """c * e^v * self, for the code `key` of v and bound >= max |v_i|."""
        m = self.modulus
        if m:
            c %= m
        if not c or not self._packed:
            return _trusted(self.rank, m, {}, 0)
        bound = _check_range(self._bound + bound)
        items = self._packed.items()
        if m:
            out = {k + key: r for k, v in items if (r := v * c % m)}
        else:
            out = {k + key: v * c for k, v in items}
        return _trusted(self.rank, m, out, bound)

    def scale(self, c: int):
        return self._shift(0, 0, c)

    def mul_monomial(self, exp: Iterable[int], c: int = 1):
        (key,), bound = _normalize(((exp, 1),), 0, self.rank)
        return self._shift(key, bound, c)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a general polynomial")
        out = LaurentPoly.const(self.rank, 1, self.modulus)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"LaurentPoly({to_text(self)!r})"


# slot setters: the instance __setattr__ refuses every assignment
_new = object.__new__
_set_rank, _set_modulus, _set_packed, _set_bound = (
    LaurentPoly.__dict__[name].__set__ for name in LaurentPoly.__slots__)
_trusted = LaurentPoly._trusted


def dot(xs, ys, start=None) -> LaurentPoly:
    """start + sum_i xs[i] * ys[i], in one pass over the term pairs.

    The fold `acc = acc + x * y` from `start` (default: the zero of xs[0]'s
    ring) gives the same polynomial, and this raises the same errors at the
    same pair: each pair is checked as `x * y` checks it (rings, then the
    exponent bound of two nonzero operands) and then against the ring of
    the accumulator.  Coefficients are summed as integers and reduced once
    at the end.  With no start, xs must be nonempty.
    """
    pairs = list(zip(xs, ys))
    if start is None:
        if not pairs:
            raise ValueError("dot of empty sequences needs a start polynomial")
        ref, out, bound = pairs[0][0], {}, 0
    else:
        ref, out, bound = start, dict(start._packed), start._bound
    m, rank = ref.modulus, ref.rank
    get = out.get
    for x, y in pairs:
        if x.modulus != y.modulus or x.rank != y.rank:
            x._check(y)
        a, b = x._packed, y._packed
        if a and b and x._bound + y._bound > bound:
            bound = _check_range(x._bound + y._bound)
        if x.modulus != m or x.rank != rank:
            ref._check(x)
        if not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        b_items = b.items()
        for k1, c1 in a.items():
            for k2, c2 in b_items:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    if m:
        out = {k: r for k, c in out.items() if (r := c % m)}
    else:
        out = {k: c for k, c in out.items() if c}
    return _trusted(rank, m, out, bound)


def check_dot(xs, ys) -> None:
    """Raise what `dot(xs, ys)` raises, at the pair where it raises, without
    forming a product: dot's multiplications raise nothing, so its errors are
    the checks of its pairs, run here in its order."""
    pairs = list(zip(xs, ys))
    if not pairs:
        raise ValueError("dot of empty sequences needs a start polynomial")
    ref = pairs[0][0]
    for x, y in pairs:
        if x.modulus != y.modulus or x.rank != y.rank:
            x._check(y)
        if x._packed and y._packed:
            _check_range(x._bound + y._bound)
        if x.modulus != ref.modulus or x.rank != ref.rank:
            ref._check(x)


def embed(f: LaurentPoly, rank: int, offset: int) -> LaurentPoly:
    """f with its axes moved to axes offset.. of a rank-`rank` ring."""
    if not 0 <= offset <= rank - f.rank:
        raise RankMismatchError(f"rank {f.rank} at offset {offset} exceeds rank {rank}")
    shift = _WIDTH * (rank - offset - f.rank)
    return _trusted(rank, f.modulus,
                                {k << shift: c for k, c in f._packed.items()}, f._bound)


def degrees(f: LaurentPoly, axis: int) -> tuple[int, int, int]:
    """(hdeg, ldeg, wdeg) of f with respect to the given axis (0-based).

    The zero polynomial has no degrees; ZeroPolynomialError is raised.
    """
    if f.is_zero():
        raise ZeroPolynomialError("degrees are undefined for the zero polynomial")
    exps = list(map(_field_of(f.rank, axis), f._packed))
    h, l = max(exps), min(exps)
    return h, l, h - l


def leading_slice(f: LaurentPoly, axis: int) -> tuple[int, LaurentPoly]:
    """(hdeg, sub-polynomial of terms with maximal axis exponent)."""
    h, _, _ = degrees(f, axis)
    field = _field_of(f.rank, axis)
    return h, _trusted(
        f.rank, f.modulus, {k: c for k, c in f._packed.items() if field(k) == h}, f._bound)


def is_divisor(p: LaurentPoly, axis: int) -> bool:
    """True iff the leading axis-coefficient of p is a monic monomial."""
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial is not a divisor")
    _, lead = leading_slice(p, axis)
    if len(lead._packed) != 1:
        return False
    ((_, c),) = lead._packed.items()
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
    ((lead_key, _),) = lead._packed.items()

    q = LaurentPoly.zero(f.rank, f.modulus)
    cur = f
    while cur and degrees(cur, axis)[0] >= d + wp:
        m, top = leading_slice(cur, axis)
        q0 = top._shift(-lead_key, p._bound)
        q = q + q0
        cur = cur - q0 * p
    return q, cur


class Grading:
    """Homomorphism Z^rank -> (+)_i Z/moduli[i], given on basis vectors."""

    __slots__ = ("moduli", "images", "_forms", "_ones", "_parity")

    def __init__(self, moduli: tuple[int, ...], images):
        self.moduli = tuple(moduli)
        self.images = tuple(tuple(v) for v in images)
        rank = len(self.images)
        # one linear form per modulus, its column of the basis images reduced
        # into [0, m)
        self._forms = tuple((tuple(img[i] % m for img in self.images), m)
                            for i, m in enumerate(self.moduli))
        self._ones = _ones(rank)
        # mod 2: (mask, weight), the low bit of each field whose coefficient is
        # odd and how many such fields there are
        self._parity = None
        if self.moduli == (2,):
            odd = [j for j, c in enumerate(self._forms[0][0]) if c]
            self._parity = (sum(1 << (_WIDTH * (rank - 1 - j)) for j in odd), len(odd))

    @property
    def zero(self):
        return (0,) * len(self.moduli)

    def of_exponent(self, exp) -> tuple[int, ...]:
        return tuple(sum(map(mul, exp, col)) % m for col, m in self._forms)

    def _parity_reader(self, rank, bound):
        """(lift, mask, flip) that read the class of a code mod 2, for codes of
        rank `rank` with every |e_i| <= bound; None unless the grading is one
        Z/2.  RankMismatchError unless `rank` is the grading's: every read of
        a class passes through here first.

        Adding lift (bound in every field) makes every digit e_i + bound lie
        in [0, 2 bound], inside a field at every bound in range, so no field
        carries.  The parity of the mask's bits in the sum is
        sum_j c_j (e_j + bound) mod 2, and xor with flip = bound * weight mod 2
        leaves the form's value.
        """
        if rank != len(self.images):
            raise RankMismatchError(f"rank {rank} polynomial under a rank "
                                    f"{len(self.images)} grading")
        if self._parity is None:
            return None
        mask, weight = self._parity
        return bound * self._ones, mask, bound * weight & 1

    def add(self, c1, c2):
        return tuple((a + b) % m for a, b, m in zip(c1, c2, self.moduli))


def homogeneous_component(f: LaurentPoly, grading: Grading, cls) -> LaurentPoly:
    """Sub-polynomial of terms whose exponent maps to the given class.

    ValueError unless `cls` is a class of the grading: one entry per modulus
    m, each in [0, m).
    """
    cls = tuple(cls)
    parity = grading._parity_reader(f.rank, f._bound)
    if len(cls) != len(grading.moduli) or not all(
            0 <= c < m for c, m in zip(cls, grading.moduli)):
        raise ValueError(f"{cls} is not a class of a grading with moduli {grading.moduli}")
    if parity is None:
        return (graded_components(f, grading).get(cls)
                or _trusted(f.rank, f.modulus, {}, f._bound))
    # mod 2: compare the parity of the masked bits with the one it must have
    lift, mask, flip = parity
    want = (cls[0] + flip) & 1
    kept = {k: c for k, c in f._packed.items()
            if ((k + lift) & mask).bit_count() & 1 == want}
    return _trusted(f.rank, f.modulus, kept, f._bound)


def parity_split(f: LaurentPoly, grading: Grading) -> tuple:
    """(f^(0), f^(1)): the components of f of class 0 and 1 under a grading
    by one Z/2, in one pass over its terms.  ValueError for another grading."""
    parity = grading._parity_reader(f.rank, f._bound)
    if parity is None:
        raise ValueError(f"a parity split needs one Z/2, not moduli {grading.moduli}")
    lift, mask, flip = parity
    parts = ({}, {})
    for k, c in f._packed.items():
        parts[(((k + lift) & mask).bit_count() ^ flip) & 1][k] = c
    return tuple(_trusted(f.rank, f.modulus, t, f._bound) for t in parts)


def graded_components(f: LaurentPoly, grading: Grading) -> dict:
    """{class: component} over the classes of f's terms: by `parity_split`
    on one Z/2, else `of_exponent` on each unpacked code."""
    if grading._parity_reader(f.rank, f._bound) is not None:
        return {(c,): part for c, part in enumerate(parity_split(f, grading)) if part}
    unpack, out = _codec(f.rank)[1], {}
    for k, c in f._packed.items():
        out.setdefault(grading.of_exponent(unpack(k)), {})[k] = c
    return {cls: _trusted(f.rank, f.modulus, t, f._bound)
            for cls, t in out.items()}


def augmentation(f: LaurentPoly) -> int:
    """Sum of all coefficients (the trace e^lambda -> 1)."""
    s = sum(f._packed.values())
    return s % f.modulus if f.modulus else s


def reduce_coefficients(f: LaurentPoly, m: int) -> LaurentPoly:
    """Reduce an integral polynomial mod m (terms vanishing mod m are dropped)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if f.modulus:
        if f.modulus % m:
            raise RingMismatchError(f"cannot reduce Z/{f.modulus} to Z/{m}")
    return _trusted(
        f.rank, m, {k: r for k, c in f._packed.items() if (r := c % m)}, f._bound)


def lift_coefficients(f: LaurentPoly) -> LaurentPoly:
    """Canonical lift Z/m -> Z choosing representatives in [0, m)."""
    return _trusted(f.rank, 0, f._packed, f._bound)


# -- text format -----------------------------------------------------------
#
# `c * x1^a1 x2^a2 ...` terms joined by ` + `, exponent 0 omitted, exponent 1
# printed bare, deterministic lexicographic term order; zero prints as "0".

def to_text(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    unpack = _codec(f.rank)[1]
    # code order is the lexicographic order of the exponent vectors
    for k in sorted(f._packed):
        c = f._packed[k]
        vars_part = " ".join(
            f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}"
            for i, a in enumerate(unpack(k)) if a != 0
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
