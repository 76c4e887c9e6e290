"""Syzygy calculus for flat tuples of Laurent polynomials.

Implements flatness checking, constructive trivialization of syzygies
(including composite moduli via the prime recursion), lifting of trivial
syzygies through coefficient reduction, the Newton-relation transforms that
give generalized flatness in types A and C, and the coefficient
normalization step used by the generator reduction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .intlinalg import smallest_prime_factor, xgcd
from .laurent import (
    LaurentPoly,
    bounded_divide,
    check_dot,
    degrees,
    dot,
    dots,
    embed,
    homogeneous_component,
    is_divisor,
    leading_slice,
    lift_coefficients,
    parity_split,
    reduce_coefficients,
)
from .rootdata import (
    LatticeModel,
    factor_orbit_sums,
    frozen_setattr,
    fundamental_orbit_sums,
    orbit_size,
)


class NotASyzygyError(ValueError):
    pass


class FlatnessError(ValueError):
    pass


def validate_tuple(t):
    t = tuple(t)
    if not t:
        raise ValueError("empty tuple")
    r, m = t[0].rank, t[0].modulus
    for p in t:
        if p.rank != r or p.modulus != m:
            raise ValueError("mixed rings/ranks in tuple")
    return t


def check_flatness(t) -> tuple[bool, list[str]]:
    """Entry i may use axes 0..i (up to a monomial factor in higher axes)
    and must be a divisor with respect to axis i. Returns (ok, diagnostics)."""
    t = validate_tuple(t)
    notes = []
    ok = True
    for i, p in enumerate(t):
        if p.is_zero():
            ok = False
            notes.append(f"entry {i}: zero polynomial")
            continue
        bad_axes = []
        for j in range(i + 1, p.rank):
            if degrees(p, j)[2] != 0:
                bad_axes.append(j)
        if bad_axes:
            ok = False
            notes.append(f"entry {i}: uses higher axes {bad_axes}")
            continue
        if not is_divisor(p, i):
            ok = False
            notes.append(f"entry {i}: leading coefficient along axis {i} not a monic monomial")
            continue
        notes.append(f"entry {i}: ok")
    return ok, notes


def _strip_units(t):
    """Divide out the constant higher-axis monomial of each entry.

    Returns (stripped tuple, list of stripped monomial exponent vectors).
    """
    out = []
    units = []
    for i, p in enumerate(t):
        exp = [0] * p.rank
        some = next(iter(p.terms))
        for j in range(i + 1, p.rank):
            exp[j] = some[j]
        units.append(tuple(exp))
        out.append(p.mul_monomial(tuple(-x for x in exp)))
    return tuple(out), units


class SyzygyCertificate(namedtuple("SyzygyCertificate", "length rank modulus entries")):
    """Expression of a syzygy as sum of g_ij * S_ij over pairs i < j.

    `entries` maps (i, j) to g_ij, for a syzygy of a `length`-tuple over the
    Laurent ring of `rank` and `modulus`.
    """

    __slots__ = ()

    def expand(self, t) -> tuple:
        t = validate_tuple(t)
        if len(t) != self.length:
            raise ValueError("tuple length mismatch")
        # entry (i, j) adds g t_j at i and -g t_i at j
        triples = (term for (i, j), g in self.entries.items()
                   for term in ((i, g, t[j]), (j, -g, t[i])))
        zero = LaurentPoly.zero(self.rank, self.modulus)
        return tuple(dots(triples, [zero] * self.length))


def _empty_cert(n, rank, modulus):
    return SyzygyCertificate(n, rank, modulus, {})


def _add_entry(cert, i, j, g):
    if g.is_zero():
        return
    key = (i, j)
    cur = cert.entries.get(key)
    cert.entries[key] = g if cur is None else cur + g


def _check_syzygy(t, f):
    if dot(f, t, LaurentPoly.zero(t[0].rank, t[0].modulus)):
        raise NotASyzygyError("tuple is not a syzygy")


def _axis_slices(p, axis):
    """{exponent j: slice polynomial with axis exponent set to 0}."""
    out = {}
    for e, c in p.terms.items():
        j = e[axis]
        e0 = e[:axis] + (0,) + e[axis + 1:]
        out.setdefault(j, {})[e0] = c
    return {j: LaurentPoly(p.rank, p.modulus, terms) for j, terms in out.items()}


def _trivialize_domain(t, f, n, cert):
    """Constructive trivialization over a domain coefficient ring (Z or Z/p)."""
    rank, modulus = t[0].rank, t[0].modulus
    live = [i for i in range(n) if not f[i].is_zero()]
    if not live:
        return
    if n == 1:
        raise NotASyzygyError("nonzero syzygy of a single nonzero divisor")
    axis = n - 1
    d = min(degrees(f[i], axis)[1] for i in live)
    tn = t[n - 1]
    wp = degrees(tn, axis)[2]
    gs, hs = [], []
    for i in range(n - 1):
        g_i, h_i = bounded_divide(f[i], tn, axis, d)
        _add_entry(cert, i, n - 1, g_i)
        gs.append(g_i)
        hs.append(h_i)
    if dot(gs, t, f[n - 1]):
        raise AssertionError(
            "internal degree argument violated: residual last entry nonzero"
        )
    # slice the residual by the axis degree and recurse in rank n-1
    slices = {}
    for i in range(n - 1):
        if hs[i].is_zero():
            continue
        for j, sl in _axis_slices(hs[i], axis).items():
            if not (d <= j <= d + wp - 1):
                raise AssertionError("slice outside the remainder window")
            slices.setdefault(j, {})[i] = sl
    for j, comp in sorted(slices.items()):
        sub_f = tuple(comp.get(i, LaurentPoly.zero(rank, modulus))
                      for i in range(n - 1))
        sub_cert = _empty_cert(n - 1, rank, modulus)
        _trivialize_domain(t, sub_f, n - 1, sub_cert)
        shift = tuple(j if k == axis else 0 for k in range(rank))
        for (a, b), g in sub_cert.entries.items():
            _add_entry(cert, a, b, g.mul_monomial(shift))


def _trivialize(t, f):
    """Dispatch on the ring: domain directly, composite modulus recursively."""
    n = len(t)
    rank, modulus = t[0].rank, t[0].modulus
    cert = _empty_cert(n, rank, modulus)
    if all(fi.is_zero() for fi in f):
        return cert
    p = smallest_prime_factor(modulus) if modulus else 0
    if modulus == 0 or p == modulus:
        _trivialize_domain(t, f, n, cert)
        return cert
    ell = modulus // p
    t_l = tuple(reduce_coefficients(x, ell) for x in t)
    f_l = tuple(reduce_coefficients(x, ell) for x in f)
    cert_l = _trivialize(t_l, f_l)
    lifted = {k: reduce_coefficients(lift_coefficients(g), modulus)
              for k, g in cert_l.entries.items()}
    cert1 = SyzygyCertificate(n, rank, modulus, lifted)
    residual = [a - b for a, b in zip(f, cert1.expand(t))]
    f2 = []
    for r in residual:
        terms = {}
        for e, c in r.terms.items():
            if c % ell:
                raise AssertionError("residual not divisible by the cofactor")
            terms[e] = (c // ell) % p
        f2.append(LaurentPoly(rank, p, terms))
    t_p = tuple(reduce_coefficients(x, p) for x in t)
    cert_p = _trivialize(t_p, tuple(f2))
    for k, g in cert_p.entries.items():
        _add_entry(cert1, k[0], k[1],
                   reduce_coefficients(lift_coefficients(g), modulus).scale(ell))
    return cert1


def _flat_form(t):
    """(t, stripped tuple, units) of a flat tuple t: raises FlatnessError unless
    t is flat, then divides out each entry's higher-axis unit (`_strip_units`)."""
    ok, notes = check_flatness(t)
    if not ok:
        raise FlatnessError("; ".join(notes))
    return (t, *_strip_units(t))


def _trivialize_flat(t, stripped, units, f) -> SyzygyCertificate:
    """Trivialize the syzygy f of the flat tuple t, given `_flat_form(t)`."""
    _check_syzygy(t, f)
    f_adj = tuple(fi.mul_monomial(u) for fi, u in zip(f, units))
    cert = _trivialize(stripped, f_adj)
    # undo the unit scaling: d_ij = c_ij * mu_i^-1 * mu_j^-1
    fixed = {}
    for (i, j), g in cert.entries.items():
        back = tuple(-a - b for a, b in zip(units[i], units[j]))
        fixed[(i, j)] = g.mul_monomial(back)
    out = SyzygyCertificate(len(t), t[0].rank, t[0].modulus, fixed)
    if out.expand(t) != tuple(f):
        raise AssertionError("certificate does not expand back to the syzygy")
    return out


def trivialize_syzygy(t, f) -> SyzygyCertificate:
    """Express a syzygy f of a flat tuple t as a combination of the S_ij."""
    t = validate_tuple(t)
    f = validate_tuple(f)
    if len(t) != len(f) or t[0].rank != f[0].rank or t[0].modulus != f[0].modulus:
        raise ValueError("shape mismatch between tuple and syzygy")
    return _trivialize_flat(*_flat_form(t), f)


def lift_syzygy(t, cert: SyzygyCertificate) -> SyzygyCertificate:
    """Lift a certificate over Z/d to Z, coefficients chosen in [0, d)."""
    if cert.modulus < 2:
        raise ValueError("certificate is not modular")
    entries = {k: lift_coefficients(g) for k, g in cert.entries.items()}
    return SyzygyCertificate(cert.length, cert.rank, 0, entries)


# --------------------------------------------------------------------------
# polynomial matrices over the Laurent ring


class TransformMatrix(namedtuple("TransformMatrix", "entries det")):
    """Square matrix over the Laurent ring with unit (monomial) determinant.

    `entries` is a tuple of row tuples of LaurentPoly, `det` a LaurentPoly.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = frozen_setattr

    def reduce(self, m):
        return TransformMatrix(
            tuple(tuple(reduce_coefficients(p, m) for p in row) for row in self.entries),
            reduce_coefficients(self.det, m),
        )


def _minors(rows, one):
    """Memoised determinants of the bottom rows of `rows` on column subsets.

    Returns det_on(mask): the determinant of the last popcount(mask) rows on
    the columns in mask, by Laplace expansion along the first of those rows
    (one `dot` of its signed entries against the smaller minors) with the
    minors memoised on the column bitmask (the rows are implied by its
    popcount).  It only multiplies and adds, so it is valid over Z/m.  It
    skips zero entries, and a column subset on which the bottom rows have an
    all-zero column is a zero minor without expansion.  So a block-diagonal
    matrix only reaches unions of per-block column sets, and the Newton
    transforms (anti-triangular for type C, anti-Hessenberg for type A) reach
    polynomially many column subsets instead of 2^n.  `one` is the ring's 1.
    """
    n = len(rows)
    # support[k]: columns where one of the last k rows is nonzero
    support = [0] * (n + 1)
    for k in range(1, n + 1):
        support[k] = support[k - 1] | sum(1 << j for j, a in enumerate(rows[n - k]) if a)
    zero = LaurentPoly.zero(one.rank, one.modulus)
    memo = {0: one}

    def det_on(mask):
        got = memo.get(mask)
        if got is not None:
            return got
        k = mask.bit_count()
        if mask & ~support[k]:
            return zero
        row = rows[n - k]
        xs, ys = [], []
        rest, odd = mask, False
        while rest:
            low = rest & -rest
            rest ^= low
            a = row[low.bit_length() - 1]
            if a and (sub := det_on(mask ^ low)):
                xs.append(-a if odd else a)
                ys.append(sub)
            odd = not odd
        memo[mask] = acc = dot(xs, ys, zero)
        return acc

    return det_on


def _one(rows):
    p = rows[0][0]
    return LaurentPoly.const(p.rank, 1, p.modulus)


def mat_det(rows) -> LaurentPoly:
    """Determinant of a square Laurent matrix, division-free (see `_minors`)."""
    return _minors(rows, _one(rows))((1 << len(rows)) - 1)


def is_unit_monomial(p: LaurentPoly) -> bool:
    if len(p.terms) != 1:
        return False
    ((_, c),) = p.terms.items()
    if p.modulus:
        return math.gcd(c, p.modulus) == 1
    return c in (1, -1)


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


def vec_mat(vec, a):
    """vec * a, one `dots` over a's nonzero entries."""
    zero = LaurentPoly.zero(a[0][0].rank, a[0][0].modulus)
    return dots(((j, v, x) for v, row in zip(vec, a) for j, x in enumerate(row) if x),
                [zero] * len(a[0]))


def mat_inverse_unit(rows) -> list:
    """Inverse of a Laurent-matrix with monomial-unit determinant (adjugate).

    The minors that drop row i share one memo over column subsets; the
    determinant is row 0 dotted with its cofactors, adj's column 0.
    """
    n = len(rows)
    one = _one(rows)
    full = (1 << n) - 1
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        det_on = _minors(rows[:i] + rows[i + 1:], one)
        for j in range(n):
            cof = det_on(full ^ (1 << j))
            adj[j][i] = -cof if (i + j) % 2 else cof
    det = dot(rows[0], [r[0] for r in adj])
    if not is_unit_monomial(det):
        raise ValueError("matrix determinant is not a unit monomial")
    ((dexp, dc),) = det.terms.items()
    dc_inv = pow(dc, -1, one.modulus) if one.modulus else dc  # +-1 over Z
    inv_exp = tuple(-x for x in dexp)
    return [[c.mul_monomial(inv_exp, dc_inv) for c in row] for row in adj]


def trivialize_generalized(q, transform: TransformMatrix, f, inverse) -> SyzygyCertificate:
    """Trivialize a syzygy of q, given (q) * A = flat tuple and inverse = A^{-1}.

    Forms and checks the flat tuple q * A on every call, then runs
    `_trivialize_through`.
    """
    q = validate_tuple(q)
    f = validate_tuple(f)
    a = tuple(map(tuple, transform.entries))
    return _trivialize_through(q, a, inverse, _flat_form(tuple(vec_mat(q, a))), f)


def _trivialize_through(q, a, inverse, image, f) -> SyzygyCertificate:
    """Trivialize the syzygy f of q through A (row tuples `a`), its inverse and
    image = `_flat_form(q * A)`.

    Pushes the syzygy through A^{-1}, trivializes against the flat tuple,
    and pulls the certificate back through the skew decomposition of
    A M_ij A^T, which keeps every step constructive.  A wrong inverse
    cannot pass: the certificate is expanded back against f.
    """
    _check_syzygy(q, f)
    n = len(q)
    # g = A^{-1} f^t  (row convention: g_i = sum_j inverse[i][j] f_j)
    zero = LaurentPoly.zero(q[0].rank, q[0].modulus)
    g = dots(((i, x, fj) for i, row in enumerate(inverse) for x, fj in zip(row, f) if x),
             [zero] * n)
    cert_r = _trivialize_flat(*image, g)
    out = _empty_cert(n, q[0].rank, q[0].modulus)
    for (i, j), c in cert_r.entries.items():
        for k in range(n):
            for l in range(k + 1, n):
                coeff = a[k][i] * a[l][j] - a[k][j] * a[l][i]
                if not coeff.is_zero():
                    _add_entry(out, k, l, c * coeff)
    if out.expand(q) != tuple(f):
        raise AssertionError("generalized certificate does not expand back")
    return out


# --------------------------------------------------------------------------
# Newton-relation transforms (types A and C)


def _monomial_sum(choose, rank, k, nvars):
    """Sum of the monomials y_c1..y_ck over choose(range(nvars), k): sigma_k(y_1..y_nvars)
    for `combinations`, h_k(y_1..y_nvars) for `combinations_with_replacement`."""
    terms = {}
    for comb in choose(range(nvars), k):
        e = [0] * rank
        for i in comb:
            e[i] += 1
        terms[tuple(e)] = 1
    return LaurentPoly(rank, 0, terms)


def _substitute(poly: LaurentPoly, images) -> LaurentPoly:
    """poly with y_i -> images[i] (polynomial exponents only), in the images'
    ring; each image's powers are computed once per call."""
    one = LaurentPoly.const(images[0].rank, 1, images[0].modulus)
    powers = [[one] for _ in images]
    coeffs, terms = [], []
    for e, c in poly.terms.items():
        if min(e) < 0:
            raise ValueError("substitution needs polynomial exponents")
        term = one
        for i, a in enumerate(e):
            if a:
                p = powers[i]
                while len(p) <= a:
                    p.append(p[-1] * images[i])
                term = term * p[a]
        coeffs.append(one.scale(c))
        terms.append(term)
    return dot(coeffs, terms, one.scale(0))


@lru_cache(maxsize=None)
def newton_transform(kind: str, n: int):
    """Flat tuple and transform with (rho_1..rho_n) * A = flat, for A or C.

    Returns (flat, TransformMatrix, rho) where rho are the augmented orbit
    sums of the rank-n factor in its fundamental-weight coordinates.  The
    value is computed, and checked, once per (kind, n) and process; it is
    immutable, so every caller shares it.
    """
    if kind == "A":
        if n < 1:
            raise ValueError("type A needs rank >= 1")
        nv, c_shift = n + 1, 1
    elif kind == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        nv, c_shift = n, 2
    else:
        raise ValueError("generalized flatness transform exists for types A and C only")
    # tau: y_i -> c - y_i.  phi, in fundamental-weight coordinates with
    # v_j = w_{j+1} - w_j (w_0 = w_{n+1} = 0): y_j -> e^{v_j} for type A (the
    # quotient presentation), y_j -> e^{v_j} + e^{-v_j} for type C
    tau = [LaurentPoly(nv, 0, {(0,) * nv: c_shift, tuple(int(k == i) for k in range(nv)): -1})
           for i in range(nv)]
    vs = [tuple(int(k == j) - int(k == j - 1) for k in range(n)) for j in range(nv)]
    phi = [LaurentPoly(n, 0, {v: 1} if kind == "A" else {v: 1, tuple(-x for x in v): 1})
           for v in vs]

    # E = G * A~ for E_i = sigma_i(y_1..y_nv), G_j = h_j(y_1..y_{nv+1-j}) and the
    # triangular A~[j][i] = (-1)^(j-1) sigma_{i-j}(y_1..y_{nv-j}), whose inverse is
    # H[j][i] = (-1)^(j-1) h_{i-j}(y_1..y_{nv-i+1}): G = E * H is a finite form of
    # sum_r (-1)^r e_r h_{k-r} = 0 (Macdonald, Symmetric Functions, ch. I §2).
    sig = [_monomial_sum(combinations, nv, k, nv) for k in range(nv + 1)]
    big_g = [None] + [_monomial_sum(combinations_with_replacement, nv, j, nv + 1 - j)
                      for j in range(1, nv + 1)]
    h = [[LaurentPoly.zero(nv, 0)] * nv for _ in range(nv)]
    for i in range(1, nv + 1):
        for j in range(1, i + 1):
            p = _monomial_sum(combinations_with_replacement, nv, i - j, nv - i + 1)
            h[j - 1][i - 1] = -p if (j - 1) % 2 else p
    # sanity: the Newton identity G_i = sum_j E_j H[j][i]
    for i in range(1, nv + 1):
        if dot(sig[1:i + 1], [h[j][i - 1] for j in range(i)]) != big_g[i]:
            raise AssertionError("Newton identity failed; convention bug")

    # W with (tau E) = (sigma - s) * W
    w = [[LaurentPoly.zero(nv, 0) for _ in range(nv)] for _ in range(nv)]
    for k in range(1, nv + 1):
        for i in range(k, nv + 1):
            val = (-1) ** k * c_shift ** (i - k) * math.comb(nv - k, i - k)
            if val:
                w[k - 1][i - 1] = LaurentPoly.const(nv, val, 0)

    # tau is a ring map, so tau(H) = tau(A~)^-1
    m_full = mat_mul(w, [[_substitute(p, tau) for p in row] for row in h])

    rho = []
    for i in range(1, n + 1):
        s_i = c_shift ** i * math.comb(nv, i)
        im = _substitute(sig[i], phi)
        rho.append(im - LaurentPoly.const(n, s_i, 0))
    if tuple(rho) != factor_orbit_sums(kind, n):
        raise AssertionError("phi(sigma_i) - s_i differs from the orbit sum of w_i")

    # columns of the final square matrix: column for r_i is the column of
    # tau(G_{nv + 1 - i}); for type A that drops the G_1 column (= r_{n+1}).
    cols = [nv - i for i in range(1, n + 1)]  # 0-based column of G_{nv+1-i}
    a_out = [[None] * n for _ in range(n)]
    flat = []
    for out_i, col in enumerate(cols):
        r = _substitute(_substitute(big_g[col + 1], tau), phi)
        # make the leading axis coefficient monic
        axis = out_i
        _, lead = leading_slice(r, axis)
        ((_, lc),) = lead.terms.items()
        sign = 1 if lc == 1 else -1
        if lc not in (1, -1):
            raise AssertionError("unexpected leading coefficient in flat entry")
        flat.append(r if sign == 1 else -r)
        for k in range(n):
            entry = _substitute(m_full[k][col], phi)
            a_out[k][out_i] = entry if sign == 1 else -entry
    det = mat_det(a_out)
    if not is_unit_monomial(det):
        raise AssertionError("transform determinant is not a unit monomial")
    transform = TransformMatrix(tuple(tuple(row) for row in a_out), det)
    # exact verification of (rho) * A = flat
    check = vec_mat(rho, a_out)
    if tuple(check) != tuple(flat):
        raise AssertionError("transform does not map rho to the flat tuple")
    return tuple(flat), transform, tuple(rho)


# --------------------------------------------------------------------------
# model-level transforms and coefficient normalization


def _blocks(model: LatticeModel):
    """(kind, rank, offset) of the Newton block of each factor of an A/C model."""
    out = []
    for f, off in zip(model.factors, model.offsets):
        if f.kind not in ("A", "C"):
            raise FlatnessError(
                f"generalized flatness is available for types A and C, not {f.kind}"
            )
        out.append((f.kind, f.rank, off))
    return out


def _block_diagonal(model: LatticeModel, block_of, modulus):
    """The n x n matrix, as row tuples, with block_of(kind, rank) placed at each
    factor's offset."""
    n = model.total_rank
    zero = LaurentPoly.zero(n, modulus)
    rows = [[zero] * n for _ in range(n)]
    for kind, rank, off in _blocks(model):
        for k, row in enumerate(block_of(kind, rank)):
            for i, p in enumerate(row):
                if p:
                    rows[off + k][off + i] = embed(p, n, off)
    return tuple(map(tuple, rows))


def model_transform(model: LatticeModel):
    """Block-diagonal transform for all factors of an A/C model.

    Returns (flat, TransformMatrix, rho tuple), all in the model's
    global coordinates and natural fundamental-weight order.
    """
    n = model.total_rank
    flat = []
    det = LaurentPoly.const(n, 1, 0)
    for kind, rank, off in _blocks(model):
        bflat, btr, _ = newton_transform(kind, rank)
        det = det * embed(btr.det, n, off)
        flat.extend(embed(p, n, off) for p in bflat)
    rows = _block_diagonal(model, lambda kind, rank: newton_transform(kind, rank)[1].entries, 0)
    # block-diagonal: the determinant is the product of the block determinants
    if not is_unit_monomial(det):
        raise AssertionError("block transform determinant is not a unit")
    # each block's rho is its factor's orbit sums (checked in newton_transform)
    return (tuple(flat), TransformMatrix(rows, det),
            fundamental_orbit_sums(model))


@lru_cache(maxsize=None)
def block_inverse_mod(kind: str, n: int, d: int):
    """(A mod d, (A mod d)^-1) for the Newton block A of (kind, n), as row tuples.

    Computed once per (kind, n, d) and process; both products with the
    inverse are checked against the identity when the value is computed.
    """
    a = newton_transform(kind, n)[1].reduce(d).entries
    inv = mat_inverse_unit([list(r) for r in a])
    one = LaurentPoly.const(n, 1, d)
    ident = [[one if i == j else one.scale(0) for j in range(n)] for i in range(n)]
    if mat_mul(a, inv) != ident or mat_mul(inv, a) != ident:
        raise AssertionError("block inverse mod d is not an inverse")
    return a, tuple(tuple(r) for r in inv)


def degree_one_orbits(model: LatticeModel) -> tuple:
    """(indices, orbit sizes) of the degree-1 fundamental weights, in index order."""
    deg1 = tuple(i for i in range(model.total_rank) if model.grading.images[i] == (1,))
    return deg1, tuple(orbit_size(model, model._basis_vec(i)) for i in deg1)


class GcdChain(namedtuple("GcdChain", "order nprime sizes d_chain bezout")):
    """gcd chain d_i over the degree-1 orbit sizes with Bezout data.

    `order` maps chain position -> fundamental-weight index of the model
    (degree-1 weights first, then degree-0, each in natural order).  `sizes`
    holds s_1..s_{n'} (n' = `nprime`), `d_chain` d_1..d_{n'} and `bezout`
    the a[i][j] for i <= j (0-based, padded), all as int tuples.
    """

    __slots__ = ()

    @property
    def d(self):
        return self.d_chain[0]


def gcd_chain(model: LatticeModel) -> GcdChain:
    """Compute the chain d_i = gcd(s_i..s_n') and small Bezout coefficients."""
    if model.grading.moduli != (2,):
        raise ValueError("gcd chain requires an index-2 grading")
    deg1, sizes = degree_one_orbits(model)
    order = deg1 + tuple(i for i in range(model.total_rank) if model.grading.images[i] == (0,))
    np_ = len(deg1)
    d_chain = [0] * np_
    bez = [[0] * np_ for _ in range(np_)]
    d_chain[np_ - 1] = sizes[np_ - 1]
    bez[np_ - 1][np_ - 1] = 1
    for i in range(np_ - 2, -1, -1):
        g, alpha, beta = xgcd(sizes[i], d_chain[i + 1])
        d_chain[i] = g
        bez[i][i] = alpha
        for j in range(i + 1, np_):
            bez[i][j] = beta * bez[i + 1][j]
        # rebalance so the tail coefficients stay small: shifting the pair
        # (a_ii, a_ij) by (s_j/g', -s_i/g') keeps the combination fixed
        for j in range(i + 1, np_):
            gij = math.gcd(sizes[i], sizes[j])
            step = sizes[i] // gij
            if abs(bez[i][j]) > step // 2 and step:
                t = (bez[i][j] + step // 2) // step if step else 0
                bez[i][j] -= t * step
                bez[i][i] += t * (sizes[j] // gij)
        if sum(bez[i][j] * sizes[j] for j in range(i, np_)) != d_chain[i]:
            raise AssertionError(f"gcd chain: Bezout sum {i} is not d_{i}")
    for i in range(np_ - 1):
        if d_chain[i + 1] % d_chain[i]:
            raise AssertionError(f"gcd chain: d_{i} does not divide d_{i + 1}")
    return GcdChain(order, np_, sizes, tuple(d_chain), tuple(tuple(r) for r in bez))


@lru_cache(maxsize=None)
def reduction_data(model: LatticeModel) -> tuple:
    """(chain, rho, rho_wrong) of an index-2 model: `gcd_chain(model)`, whose
    d is the reduction's modulus, `fundamental_orbit_sums(model)`, and each
    rho_i's component of the degree its weight's class does not call for,
    rho_i^(1-|i|).

    What `build_generators`, `reduce_to_generators` and
    `normalize_coefficients` read of the model, computed once per model and
    process (`compile_spec` gives one model per spec); the gcd chain's checks
    run when it is filled.  W fixes the classes of Lambda/T*, so rho_i is an
    orbit sum of omega_i's class minus the constant |W omega_i|, and
    rho_i^(1-|i|) is -|W omega_i| for a degree-1 weight and 0 otherwise.
    """
    chain, rho = gcd_chain(model), fundamental_orbit_sums(model)
    rho_wrong = tuple(homogeneous_component(r, model.grading, ((1 - deg) % 2,))
                      for r, (deg,) in zip(rho, model.grading.images))
    return chain, rho, rho_wrong


@lru_cache(maxsize=None)
def modular_transform(model: LatticeModel) -> tuple:
    """(rho_d, rows, inverse, image) of an A/C model mod d, the d of its gcd
    chain: rho mod d, the block-diagonal transform A_d = model_transform(model)
    mod d and its inverse, as row tuples assembled from `block_inverse_mod`,
    and `_flat_form(rho_d * A_d)`.

    Computed once per model and process, by the first nonzero normalization
    syzygy; a zero one reads none of it.  The Newton blocks are checked in
    `newton_transform`, their inverses in `block_inverse_mod`, and the flat
    tuple rho_d * A_d when it is formed here (FlatnessError otherwise).
    """
    chain, rho, _ = reduction_data(model)
    d = chain.d
    rho_d = tuple(reduce_coefficients(r, d) for r in rho)
    rows = _block_diagonal(model, lambda kind, rank: block_inverse_mod(kind, rank, d)[0], d)
    inverse = _block_diagonal(model, lambda kind, rank: block_inverse_mod(kind, rank, d)[1], d)
    return rho_d, rows, inverse, _flat_form(tuple(vec_mat(rho_d, rows)))


def _model_tuple(model: LatticeModel, f) -> tuple:
    """f as a tuple of integral polynomials in one ring, one per fundamental
    weight of the model: the input check of `normalize_coefficients` and
    `reduce_to_generators`."""
    f = validate_tuple(f)
    if f[0].modulus != 0:
        raise ValueError("expected integral coefficients")
    if len(f) != model.total_rank:
        raise ValueError("tuple length must equal the model rank")
    return f


def normalize_coefficients(model: LatticeModel, f):
    """Rewrite (f_i) so the reduction mod d of each wrong-degree component dies.

    Given deg(sum f_i rho_i) = 0, returns (g_i) with the same combination and
    g_i^{(1-|i|)} == 0 mod d, where d is the gcd of degree-1 orbit sizes.
    rho and d come from `reduction_data(model)`, the transform mod d and its
    inverse, when the syzygy is nonzero, from `modular_transform(model)`.

    The degree test reads the degree-1 component of sum f_i rho_i off the
    graded parts (`graded_parts`); the sum itself is never formed.
    """
    if model.grading.moduli != (2,):
        raise ValueError("coefficient normalization needs an index-2 grading")
    f = _model_tuple(model, f)
    _blocks(model)  # FlatnessError unless A/C
    deg1, wrong = graded_parts(model, f)
    if deg1:
        raise ValueError("the combination is not of degree 0")
    return _normalized(model, f, wrong)[0]


def graded_parts(model: LatticeModel, f: tuple) -> tuple:
    """(deg_1(sum f_i rho_i), wrong) for an integral tuple f of the model's
    length, without forming the sum; rho and rho_wrong are read from
    `reduction_data(model)`.

    The class-c component of x y is sum_{a+b=c} x^(a) y^(b) for any grading.
    With w_i = f_i^(1-|i|), f_i's wrong-degree component, and
    s_i = rho_i^(1-|i|), so that rho_i^(|i|) = rho_i - s_i,
      deg_1(f_i rho_i) = w_i rho_i^(|i|) + f_i^(|i|) s_i
                       = w_i rho_i + (f_i^(|i|) - w_i) s_i,
    from one parity split of each f_i.  One factor of each product is w_i,
    small, or s_i, a constant or zero.  `wrong` is (w_i)_i, the tuple the
    normalization reduces mod d and the reduction's steps 1-2 read.  Raises
    first what `dot(f, rho)` raises (rings, exponent range), at the pair
    where it raises.
    """
    _, rho, rho_wrong = reduction_data(model)
    check_dot(f, rho)
    xs, ys, wrong = [], [], []
    for p, r, s, (deg,) in zip(f, rho, rho_wrong, model.grading.images):
        p0, p1 = parity_split(p, model.grading)
        w, right = (p1, p0) if deg == 0 else (p0, p1)
        xs += (w, right - w)
        ys += (r, s)
        wrong.append(w)
    return dot(xs, ys), tuple(wrong)


def _normalized(model: LatticeModel, f: tuple, wrong: tuple) -> tuple:
    """(g, g's wrong-degree components): `normalize_coefficients` past its
    input checks.  f is an integral tuple of the model's length with
    deg(sum f_i rho_i) = 0, and `wrong` is its tuple of wrong-degree
    components f_i^(1-|i|) (`graded_parts`).

    Raises FlatnessError unless the model is A/C, before anything is filled.
    The mod-d syzygy is `wrong` reduced mod d.  A zero one returns (f, wrong)
    and reads no transform, and no check is skipped: its certificate is
    empty and lifts to h = 0, so g is f, which has the same combination;
    and the component check on g is the syzygy just found to be zero.  A
    nonzero syzygy reads `modular_transform(model)`, whose fill-time checks
    then run once per model, and checks the output: the same combination,
    as sum h_i rho_i = 0 for g = f - h, which needs no sum f_i rho_i, and
    every wrong-degree component of g (`graded_parts`) zero mod d.
    """
    _blocks(model)  # FlatnessError unless A/C
    chain, rho, _ = reduction_data(model)
    d = chain.d
    syz = tuple(reduce_coefficients(w, d) for w in wrong)
    if all(s.is_zero() for s in syz):
        return f, wrong
    try:
        rho_d, rows, inverse, image = modular_transform(model)
        cert = _trivialize_through(rho_d, rows, inverse, image, syz)
    except (NotASyzygyError, FlatnessError) as exc:
        # the input passed the degree-0 check and the model is A/C, so every
        # tuple here is the library's own: a rejection, the flatness check of
        # the transform's fill included, is a failed verification, not bad input
        raise AssertionError(f"library-built syzygy rejected: {exc}") from exc
    lifted = lift_syzygy(rho_d, cert)
    h = lifted.expand(rho)
    g = tuple(a - b for a, b in zip(f, h))
    if dot(h, rho):
        raise AssertionError("normalization changed the combination")
    parts = graded_parts(model, g)[1]
    if any(reduce_coefficients(w, d) for w in parts):
        raise AssertionError("normalized component does not vanish mod d")
    return g, parts
