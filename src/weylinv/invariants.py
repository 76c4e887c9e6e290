"""Degree-3 invariant groups of a compiled lattice model.

Pipeline: the degree-2 truncation of the exponential ring map (c2), exact
computation of Q(G) from integrality of the Killing forms on generators of
the cocharacter lattice, the decomposable subgroup Dec(G) from the
class-graded closure of each factor's fundamental orbit sums folded over the
factors into every class of Lambda/T*, with closed-form checks, the
semi-decomposable subgroup Sdec(G) on one path (a closed form, else Dec
joined with c2 of the augmented invariants of the fold's nonzero classes, a
lower bound read off the same fold), factor groups via Smith normal form,
and the adjoint D4 check: its parity report and the quotient group ring
(Z/m)[Lambda/Lambda'] it reads.

Sign convention: the truncated ring map gives c2(rho-bar(lambda)) =
+1/2 sum chi^2 while the orbit formula (the tests' c2_orbit) is
-1/2 sum chi^2; subgroup computations are sign-insensitive, single-value
checks compare up to a global sign.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from .intlinalg import (
    congruence_kernel,
    det_adjugate,
    hnf,
    lattice_contains,
    lattice_coordinates,
    smallest_prime_factor,
    snf_with_left,
    xgcd,
)
from .laurent import LaurentPoly, augmentation, dot, graded_components
from .rootdata import (
    GroupSpec,
    LatticeModel,
    SimpleFactor,
    center_order,
    compile_spec,
    congruence_grading,
    frozen_setattr,
    fundamental_orbit_sums,
    killing_coeffs,
    killing_gram,
    stabilizer_order,
    weyl_order,
)


class KillingDecomposeError(AssertionError):
    """A degree-2 image that must lie in the Killing basis does not."""


class DecMismatchError(AssertionError):
    """The computed and closed-form decomposable groups disagree."""


class NotASublatticeError(ValueError):
    """The sub lattice of a factor group is not contained in its super."""


# --------------------------------------------------------------------------
# truncated characteristic map


class TruncatedForm(namedtuple("TruncatedForm", "c0 c1 c2")):
    """Element of the symmetric algebra truncated in degree 2.

    `c0` is an int, `c1` a tuple of ints and `c2` the sorted ((i, j), coeff)
    with i <= j.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = frozen_setattr

    def __rmul__(self, other):
        # not a sequence: refuse `3 * form` instead of repeating the tuple
        return NotImplemented

    def __add__(self, other):
        c2 = dict(self.c2)
        for k, v in other.c2:
            c2[k] = c2.get(k, 0) + v
        return TruncatedForm(
            self.c0 + other.c0,
            tuple(a + b for a, b in zip(self.c1, other.c1)),
            _pack(c2),
        )

    def __mul__(self, other):
        c2 = {k: self.c0 * v for k, v in other.c2}
        for k, v in self.c2:
            c2[k] = c2.get(k, 0) + other.c0 * v
        for i, a in enumerate(self.c1):
            if not a:
                continue
            for j, b in enumerate(other.c1):
                if not b:
                    continue
                key = (min(i, j), max(i, j))
                c2[key] = c2.get(key, 0) + a * b
        return TruncatedForm(
            self.c0 * other.c0,
            tuple(self.c0 * b + other.c0 * a
                  for a, b in zip(self.c1, other.c1)),
            _pack(c2),
        )


def _pack(d):
    return tuple(sorted((k, v) for k, v in d.items() if v))


def c2(f: LaurentPoly) -> TruncatedForm:
    """Truncated exponential image of an integral polynomial.

    A monomial e^chi with chi = sum a_i w_i maps to
    1 + chi + (chi^2 + sum a_i w_i^2)/2 in degrees 0..2; the map is additive
    over terms and multiplicative modulo degree-3 truncation.  The degree-2
    coefficients depend on the chosen fundamental-weight basis except on
    elements with vanishing degree <=1 image.
    """
    if f.modulus:
        raise ValueError("c2 is defined over Z")
    n = f.rank
    c0 = 0
    c1 = [0] * n
    cq = {}
    for e, c in f.terms.items():
        c0 += c
        for i, a in enumerate(e):
            if not a:
                continue
            c1[i] += c * a
            cq[(i, i)] = cq.get((i, i), 0) + c * (a * (a + 1) // 2)
        nz = [i for i, a in enumerate(e) if a]
        for ii in range(len(nz)):
            for jj in range(ii + 1, len(nz)):
                i, j = nz[ii], nz[jj]
                cq[(i, j)] = cq.get((i, j), 0) + c * e[i] * e[j]
    return TruncatedForm(c0, tuple(c1), _pack(cq))


def killing_decompose(model: LatticeModel, quad) -> tuple:
    """Express a degree-2 coefficient table as sum d_i q_i, exactly, with q_i
    the factor's killing_coeffs at its offset.

    Raises KillingDecomposeError when the table has cross-factor terms or a
    factor block is not an integer multiple of that factor's Killing form.
    """
    quad = dict(quad)
    out = []
    for fi, (f, off) in enumerate(zip(model.factors, model.offsets)):
        num = den = None  # the block is num/den times the Killing form
        for (i, j), c in killing_coeffs(f.kind, f.rank).items():
            have = quad.pop((off + i, off + j), 0)
            if den is None:
                num, den = have, c
            elif have * den != num * c:
                raise KillingDecomposeError(
                    f"factor {fi}: block not proportional to its Killing form")
        if den is None or num % den:
            raise KillingDecomposeError(f"factor {fi}: non-integral multiple {num}/{den}")
        out.append(num // den)
    if any(quad.values()):
        raise KillingDecomposeError(f"leftover cross terms: {quad}")
    return tuple(out)


# --------------------------------------------------------------------------
# invariant lattices


class InvariantLattice(namedtuple("InvariantLattice", "dim rows exact mode",
                                  defaults=(True, "exact"))):
    """Subgroup of (+) Z q_i, by canonical HNF rows over the factor index."""

    __slots__ = ()
    __setattr__ = __delattr__ = frozen_setattr

    @staticmethod
    def from_rows(dim, rows, exact=True, mode="exact"):
        return InvariantLattice(dim, tuple(map(tuple, hnf(rows))), exact, mode)

    def contains(self, vec):
        return lattice_contains(self.rows, vec)

    def includes(self, other: "InvariantLattice"):
        return all(self.contains(r) for r in other.rows)

    def join(self, vectors):
        """The lattice spanned by self and vectors, with self's labels."""
        return InvariantLattice.from_rows(self.dim, [*self.rows, *vectors],
                                          self.exact, self.mode)

    def same_rows(self, other):
        return self.rows == other.rows


class FactorGroup(namedtuple("FactorGroup", "invariant_factors free_rank", defaults=(0,))):
    __slots__ = ()
    __setattr__ = __delattr__ = frozen_setattr


def _smith_coordinates(sub: InvariantLattice, super_: InvariantLattice):
    """Smith form of sub written in the coordinates of super's basis.

    Returns (diag, U, basis) with super/sub = (+)_i Z/d_i (plus a free part
    when sub has lower rank); column i of U^-1, read in the basis rows,
    generates the i-th summand.  NotASublatticeError when sub is not
    contained in super: these coordinates are the inclusion check.
    """
    basis = super_.rows
    if len(basis) != super_.dim:
        raise ValueError("factor groups need full-rank lattices")
    coords = []
    for r in sub.rows:
        x = lattice_coordinates(basis, r)
        if x is None:
            raise NotASublatticeError("sub is not contained in super")
        coords.append(x)
    cols = [[row[j] for row in coords] for j in range(super_.dim)]
    diag, u = snf_with_left(cols)
    return diag, u, basis


def factor_group(sub: InvariantLattice, super_: InvariantLattice) -> FactorGroup:
    """Invariant factors of super/sub (requires sub a finite-index sublattice)."""
    diag, _, _ = _smith_coordinates(sub, super_)
    free = max(len(super_.rows) - len(sub.rows), 0)
    return FactorGroup(tuple(d for d in diag if d > 1), free)


def quotient_generators(sub: InvariantLattice, super_: InvariantLattice) -> list:
    """[(order, vector)]: one generator of super/sub per nontrivial invariant factor."""
    diag, u, basis = _smith_coordinates(sub, super_)
    dim = super_.dim
    # U is unimodular, so U^-1 = adj U / det U = det U * adj U
    det, adj = det_adjugate(u)
    if det not in (1, -1):
        raise AssertionError("Smith transform is not unimodular")
    out = []
    for i, d in enumerate(diag):
        if d > 1:
            y = [det * adj[k][i] for k in range(dim)]
            out.append((d, [sum(y[k] * basis[k][j] for k in range(dim)) for j in range(dim)]))
    return out


# --------------------------------------------------------------------------
# Q(G)


def compute_Q(model: LatticeModel) -> InvariantLattice:
    """Exact S^2(T*)^W as the set of d with sum d_i q_i in S^2(T*).

    S^2(T*) is the group of quadratic forms with integer values on the
    cocharacter lattice T, the dual of T*.  T* is cut out of the weight
    lattice Z^n by the congruences v_c . lambda == 0 mod m_c, so T is spanned
    by the coroot lattice Z^n and u_c = v_c / m_c, one per congruence; a form
    is integral on a lattice iff it and its polar form B are integral on a
    generating set.  q = sum d_i q_i with q_i(x) = x_i^T K_i x_i / 2
    (K_i = killing_gram, even diagonal) is integral on Z^n, and B(e_a, e_b)
    is an entry of some K_i.  B(e_a, u_c) is integral too, for every d: T*
    contains the root lattice, so u_c is a coweight, and for a coroot
    alpha^v and any x, W-invariance gives B(alpha^v, x) =
    q(alpha^v) <alpha, x>, where q(e_a) = (K_i)_aa / 2 is an integer.  So the
    conditions are, with v_ci the slice of v_c on factor i:
      q(u_c):      sum_i d_i v_ci . K_i v_ci == 0 mod 2 m_c^2;
      B(u_c, u_c'): sum_i d_i v_ci . K_i v_c'i == 0 mod m_c m_c'.
    Each is reduced by the gcd of its coefficients with its modulus and
    deduplicated before the kernel is taken.  congruence_kernel returns
    canonical HNF rows, so they are Q's rows as they come.
    """
    m = len(model.factors)
    congs = model.congruences
    if any(mod < 2 for _, mod in congs):
        raise ValueError("T* is not of full rank: a congruence modulus is below 2")
    slices = []   # per congruence, per factor: (v_ci, K_i v_ci)
    for v, _ in congs:
        row = []
        for f, off in zip(model.factors, model.offsets):
            s = v[off:off + f.rank]
            row.append((s, [sum(map(mul, k, s)) for k in killing_gram(f.kind, f.rank)]))
        slices.append(row)
    out = set()

    def add(coeffs, mod):
        common = math.gcd(mod, *coeffs)
        if common != mod:
            red = mod // common
            out.add((tuple(c // common % red for c in coeffs), red))

    for c, (_, mc) in enumerate(congs):
        for c2 in range(c, len(congs)):
            mod = 2 * mc * mc if c2 == c else mc * congs[c2][1]
            add([sum(map(mul, s, kv)) for (s, _), (_, kv) in zip(slices[c], slices[c2])], mod)
    rows = congruence_kernel(sorted(out), m)
    return InvariantLattice(m, tuple(map(tuple, rows)), True, "exact")


# --------------------------------------------------------------------------
# Dec(G): c2 over the monomials of class 0 in the fundamental orbit sums,
# graded by Lambda/T* and closed per factor, cross-checked against closed forms


@lru_cache(maxsize=None)
def _killing_adjugate(kind: str, rank: int):
    """(adj K, det K) for K = killing_gram(kind, rank), by elimination along
    the forest that K's nonzero off-diagonal entries span, leaves first.

    Each component is rooted at its least node; a neighbour met twice closes
    a cycle, which raises.  For an edge (j, u), S(j->u) is det K on the side
    of u once the edge is cut, and P_u the product of S(u->w) over the
    neighbours w of u.  Leaves first, expanding along v,
        S(parent->v) = K_vv R_v - sum_c K_vc^2 R_c R_v / S(v->c),
    R_v the product over the children c of v of S(v->c): the pivot of v
    times R_v, so K is positive definite exactly when each of these is
    positive.  Root first, cutting the edge (p, v) splits det K of the
    component as S(v->p) S(p->v) - K_pv^2 (P_p / S(p->v)) R_v.  Cofactors
    sum over the paths from i to j of (-1)^length, the path's entries and
    det K off the path.  A forest has one path or none, so adj_ij = 0 across
    components, adj_ii = P_i det K / (det K on i's component), and
        adj_iu = -K_ju adj_ij (P_u / S(u->j)) / S(j->u)
    for u a neighbour of j beyond it from i; every division is exact.
    K adj K = det K I is checked over K's nonzero entries: O(rank^2).
    """
    k = killing_gram(kind, rank)
    nbrs = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(k)]
    if any(k[j][i] != k[i][j] for i, js in enumerate(nbrs) for j in js):
        raise AssertionError("Killing Gram matrix is not symmetric")
    parent, comp, order, roots = [None] * rank, [None] * rank, [], []
    for r in range(rank):
        if comp[r] is not None:
            continue
        comp[r], parent[r], stack = len(roots), -1, [r]
        roots.append(r)
        while stack:
            v = stack.pop()
            order.append(v)   # every node after its parent
            for u in nbrs[v]:
                if u != parent[v]:
                    if comp[u] is not None:
                        raise AssertionError("the graph of the Killing Gram matrix has a cycle")
                    comp[u], parent[u] = comp[r], v
                    stack.append(u)
    down, kids = [0] * rank, [1] * rank   # S(parent->v) and R_v
    for v in reversed(order):
        r, p = kids[v], parent[v]
        down[v] = k[v][v] * r - sum(k[v][c] ** 2 * kids[c] * (r // down[c])
                                    for c in nbrs[v] if c != p)
        if down[v] <= 0:
            raise AssertionError("Killing Gram matrix is not positive definite")
        if p >= 0:
            kids[p] *= down[v]
    comp_det = [down[r] for r in roots]
    det = math.prod(comp_det)
    up, every = [1] * rank, [0] * rank   # S(v->parent) and P_v
    for v in order:
        p = parent[v]
        if p >= 0:
            up[v] = (comp_det[comp[v]] + k[p][v] ** 2 * (every[p] // down[v]) * kids[v]) // down[v]
        every[v] = kids[v] * up[v]
    steps = []   # per j: (u, -K_ju, P_u / S(u->j), S(j->u)) over its neighbours u
    for j, js in enumerate(nbrs):
        steps.append([(u, -k[j][u], every[u] // up[u], down[u]) if parent[u] == j
                      else (u, -k[j][u], every[u] // down[j], up[j]) for u in js])
    adj = []
    for i in range(rank):
        row = [0] * rank
        row[i] = every[i] * (det // comp_det[comp[i]])
        stack = [(i, -1)]
        while stack:
            j, back = stack.pop()
            x = row[j]
            for u, c, t, s in steps[j]:
                if u != back:
                    row[u] = c * x * t // s
                    stack.append((u, j))
        adj.append(row)
    for i, js in enumerate(nbrs):
        acc = [k[i][i] * x for x in adj[i]]
        for j in js:
            c = k[i][j]
            acc = [a + c * x for a, x in zip(acc, adj[j])]
        acc[i] -= det
        if any(acc):
            raise AssertionError("K adj(K) != det(K) I")
    return tuple(map(tuple, adj)), det


@lru_cache(maxsize=None)
def _factor_buckets(kind: str, rank: int, images: tuple, moduli: tuple):
    """Read-only {class: _pair_hnf rows}: per class c in Lambda/T*, the
    lattice L_c of the pairs (t, c0(x)), c2(x) = +- t q, over the factor's
    W-invariants x of class c, where local fundamental weight j has class
    images[j] in (+)_i Z/moduli[i].

    L_c is spanned by the pairs of the monomials of class c in the
    fundamental orbit sums rho(omega_j) (compute_Dec), and a product maps to
    (a, b) * (t, w) = (b t + w a, b w).  So the L_c are the least lattices
    with (0, 1) in L_0 and L_c * (t_j, w_j) in L_{c + images[j]}: a class
    whose lattice grows is queued, once while it waits, and multiplied by
    every (t_j, w_j) again, until none grows, which happens, since an
    ascending chain of sublattices of Z^2 stops.  * is bilinear, so the
    (t_j, w_j) of one class act through the rows they span.

    rho(omega_j) maps to (t_j, w_j), w_j = |W omega_j| = |W| / stabilizer_order
    and t_j = w_j adj(K)_jj / (rank det K): sum_{chi in W lam} chi chi^T is
    W-invariant and the reflection representation is irreducible, so it is
    c K / 2 (K = killing_gram), and its trace against 2 K^-1 gives t = c / 2."""
    adj, det = _killing_adjugate(kind, rank)
    worder = weyl_order(kind, rank)
    by_class = {}
    for j, g in enumerate(images):
        w = worder // stabilizer_order(kind, rank, [j])
        t, rem = divmod(w * adj[j][j], rank * det)
        if rem:
            raise AssertionError("non-integral c2 multiple")
        by_class.setdefault(g, []).append((t, w))
    gens = [(g, _pair_hnf(pairs)) for g, pairs in by_class.items()]
    zero = (0,) * len(moduli)
    lattices, grown = {zero: ((0, 1),)}, [zero]
    while grown:
        c = grown.pop()
        rows = lattices[c]
        for g, span in gens:
            cls = tuple((x + y) % m for x, y, m in zip(c, g, moduli))
            old = lattices.get(cls, ())
            new = _pair_hnf((*old, *((b * t + w * a, b * w) for a, b in rows for t, w in span)))
            if new != old:
                lattices[cls] = new
                if cls not in grown:
                    grown.append(cls)
    return MappingProxyType(lattices)


def _pair_hnf(pairs) -> tuple:
    """The rows `hnf` gives for the lattice the integer pairs span, in one
    pass: (a, b) with a the gcd of the first entries and (a, b) in the
    lattice, and (0, d) with d the gcd of the second entries once (a, b)
    clears the first; b is reduced into [0, d) when d > 0.  Each pair with
    t != 0 replaces (a, b) by x (a, b) + y (t, w), a x + t y = gcd, and puts
    (t/g) b - (a/g) w into d: a unimodular step."""
    a = b = d = 0
    for t, w in pairs:
        if t:
            g, x, y = xgcd(a, t)
            d = math.gcd(d, t // g * b - a // g * w)
            a, b = g, x * b + y * w
        else:
            d = math.gcd(d, w)
    if not a:
        return ((0, d),) if d else ()
    return ((a, b % d), (0, d)) if d else ((a, b),)


@lru_cache(maxsize=None)
def _class_fold(model: LatticeModel):
    """(states, last): each factor's lattices of pairs (t, c0) per class in
    Lambda/T* (_factor_buckets) folded over every factor but the last, and
    the last factor's buckets keyed by their classes in Lambda/T*.  Per
    partial class sum, states holds vectors (W, v) over the factors so far,
    W = prod_j w_j and v_i = t_i W / w_i, from (1) in class 0, in HNF once
    they outnumber their coordinates.  Each step is a _fold_step, and the
    last runs per caller: into class 0 for Dec, into the other classes for
    Sdec's witness.  Read-only, once per model.  The buckets are keyed by
    the coordinates a factor's images touch, not its place."""
    grading = model.grading
    zero = grading.zero
    states, last = {zero: ((1,),)}, ()
    for s, (f, off) in enumerate(zip(model.factors, model.offsets)):
        if s:
            states = {c: hnf(vs) if len(vs) > s + 1 else vs
                      for c, vs in _fold_step(grading, states, last).items()}
        images = grading.images[off:off + f.rank]
        keep = [i for i in range(len(zero)) if any(g[i] for g in images)]
        buckets = _factor_buckets(f.kind, f.rank, tuple(tuple(g[i] for i in keep) for g in images),
                                  tuple(grading.moduli[i] for i in keep))
        last = tuple((tuple(dict(zip(keep, local)).get(i, 0) for i in range(len(zero))), rows)
                     for local, rows in buckets.items())
    return MappingProxyType({c: tuple(map(tuple, vs)) for c, vs in states.items()}), last


def _fold_step(grading, states, buckets, into=None) -> dict:
    """{class: vectors} after one fold step: a bucket row (t, w) of class g
    maps each vector (W, v) of class c to (W w, v w, W t) of class c + g,
    kept where into(c + g) holds (everywhere when into is None).  The map is
    bilinear, so HNF rows of the states lose nothing: the fold is exact."""
    out = {}
    for g, rows in buckets:
        for c, state in states.items():
            total = grading.add(c, g)
            if into is None or into(total):
                out.setdefault(total, set()).update(
                    (big * w, *(x * w for x in v), big * t) for big, *v in state for t, w in rows)
    return out


def _is_diag_kernel(model):
    """Diagonal mu_k kernel: a single generator of equal order on all factors."""
    if len(model.kernel_residues) != 1:
        return None
    orders = [center_order(f.kind, f.rank, tt)
              for f, tt in zip(model.factors, model.kernel_residues[0])]
    if len(set(orders)) == 1 and orders[0] > 1:
        return orders[0]
    return None


def _per_factor_kernels(model):
    """True when every kernel generator is supported on a single factor."""
    return all(sum(map(any, gen)) <= 1 for gen in model.kernel_residues)


def _single_factor_dec(kind, rank, tt):
    """Closed-form Dec for one factor whose kernel is generated by the
    nonzero residue tuple tt (None: no kernel on the factor), if known."""
    if kind == "E6":
        return 6
    if kind == "E7":
        return 12
    if tt is None:
        if kind == "A":
            return 1
        if kind == "C":
            return 1   # Dec(Sp) = Q(Sp) = Z q
        if kind == "B":
            return 2 if rank >= 3 else 1
        return None
    if kind == "B" and tt == (1,):
        return 2      # SO(2r+1)
    if kind == "C" and tt == (1,):
        return 4 // math.gcd(2, rank)  # PGSp(2r)
    if kind == "A" and rank == 1 and tt == (1,):
        return 4      # PGL(2) = PGSp(2): 4 // gcd(2, r) at r = 1
    return None


def dec_table(model: LatticeModel):
    """Closed-form Dec generators when a known closed form covers the spec."""
    m = len(model.factors)
    kinds = [f.kind for f in model.factors]
    ranks = [f.rank for f in model.factors]

    def diag_rows(vals):
        return [[vals[i] * int(i == j) for j in range(m)] for i in range(m)]

    # E-type products: Dec is insensitive to the central subgroup
    if all(k == "E6" for k in kinds):
        return diag_rows([6] * m)
    if all(k == "E7" for k in kinds):
        return diag_rows([12] * m)

    # PGO8 = D4 / full center: the kernel is all of (Z/2)^2, of order |Lambda/T*|
    if m == 1 and kinds[0] == "D" and ranks[0] == 4 and math.prod(model.grading.moduli) == 4:
        return [[4]]

    k = _is_diag_kernel(model)

    if k is not None and m == 2 and all(x == "A" for x in kinds):
        mm, nn = ranks[0] + 1, ranks[1] + 1
        # p-primary diagonal mu_k only
        ps = {p for p in range(2, k + 1) if k % p == 0 and smallest_prime_factor(p) == p}
        if len(ps) == 1 and mm % k == 0 and nn % k == 0:
            p = ps.pop()
            v2 = lambda x: (x & -x).bit_length() - 1
            if p != 2 or min(v2(mm), v2(nn)) > v2(k):
                return diag_rows([k, k])
            if v2(mm) == v2(nn) == v2(k):
                return [[k, -k], [k, k]]
            if v2(mm) > v2(k) == v2(nn):
                return diag_rows([k, 2 * k])
            if v2(nn) > v2(k) == v2(mm):
                return diag_rows([2 * k, k])

    if k == 2 and all(x == "B" for x in kinds) and m >= 2:
        return diag_rows([2] * m)

    if k == 2 and m == 2 and all(x in ("C", "A") for x in kinds) \
            and all(x == "C" or r == 1 for x, r in zip(kinds, ranks)):
        mm, nn = ranks
        if mm % 2 == 0 and nn % 2 == 0:
            return diag_rows([2, 2])
        if mm % 2 == 1 and nn % 2 == 1:
            return [[2, 2], [0, 4]]
        if mm % 2 == 0:
            return diag_rows([2, 4])
        return diag_rows([4, 2])

    if all(x == "D" for x in kinds) and m >= 2 and k is not None:
        if k == 4 and all(r % 2 == 1 for r in ranks):
            rows = [[0] * m for _ in range(m)]
            for i in range(1, m):
                rows[i - 1][0] = 4
                rows[i - 1][i] = -4
            rows[m - 1][0] = 4
            rows[m - 1][1] = 4
            return rows
        if k == 2 and (all(r % 2 == 0 for r in ranks) or all(r % 2 for r in ranks)):
            return diag_rows([2] * m)

    # products of independently-quotiented factors
    if _per_factor_kernels(model):
        vals = []
        per_factor = [None] * m
        for gen in model.kernel_residues:
            for fi, tt in enumerate(gen):
                if any(tt):
                    if per_factor[fi] is not None:
                        return None
                    per_factor[fi] = tt
        for f, tt in zip(model.factors, per_factor):
            v = _single_factor_dec(f.kind, f.rank, tt)
            if v is None:
                return None
            vals.append(v)
        return diag_rows(vals)
    return None


def compute_Dec(model: LatticeModel) -> InvariantLattice:
    """Decomposable subgroup, generated by c2(rho-bar(lam)) over dominant lam in T*.

    These orbit sums span Z[T*]^W, the class-0 part of Z[Lambda]^W graded by
    Lambda/T* (classes model.grading.images).  Z[Lambda]^W is the polynomial
    ring on the fundamental orbit sums (Bourbaki, Lie Groups, ch. VI, 3.4,
    Thm 1), so Z[T*]^W is spanned by their monomials of class 0, and c2 is a
    ring map modulo degree 3.  Each factor's (c2, c0) images of its monomials
    are closed per class (_factor_buckets) and the factors folded over partial
    class sums (_class_fold, _fold_step): exact, mode 'hilbert', and
    polynomial in the number of factors.  Where dec_table has a closed form for the spec, the
    closure is checked against it: DecMismatchError on any disagreement, mode
    'both' on agreement.
    """
    zero = model.grading.zero
    vecs = _fold_step(model.grading, *_class_fold(model), lambda c: c == zero)[zero]
    hilbert = InvariantLattice.from_rows(len(model.factors), [r[1:] for r in vecs], True, "hilbert")
    table_rows = dec_table(model)
    if table_rows is None:
        return hilbert
    table = InvariantLattice.from_rows(hilbert.dim, table_rows, True, "table")
    if not table.same_rows(hilbert):
        raise DecMismatchError(
            f"hilbert {hilbert.rows} vs table {table.rows} for {model.spec}")
    return InvariantLattice(hilbert.dim, table.rows, True, "both")


# --------------------------------------------------------------------------
# Sdec(G)


def _symplectic_like(f: SimpleFactor):
    return f.kind == "C" or (f.kind == "A" and f.rank == 1)


def sdec_table(model: LatticeModel, dec: InvariantLattice, q: InvariantLattice):
    """Closed-form Sdec where a known case analysis covers the spec; dec and q
    are compute_Dec(model) and compute_Q(model)."""
    m = len(model.factors)
    kinds = [f.kind for f in model.factors]
    ranks = [f.rank for f in model.factors]
    k = _is_diag_kernel(model)

    if all(x in ("E6", "E7") for x in kinds):
        return dec
    if m == 1:
        return dec  # simple groups, PGO8 among them: Sdec = Dec
    if _per_factor_kernels(model):
        return dec  # kernels do not couple factors; products of simple pieces
    if k is not None and all(x == "A" for x in kinds):
        return InvariantLattice(m, q.rows, True, "table")  # Q = Sdec, type A diagonal
    if k == 2 and all(x == "B" for x in kinds):
        vecs = []
        for i in range(m):
            for j in range(i + 1, m):
                if ranks[i] == 2 and ranks[j] == 2:
                    v = [0] * m
                    v[i], v[j] = 1, -1
                    vecs.append(v)
        return dec.join(vecs)
    if k == 2 and all(_symplectic_like(f) for f in model.factors):
        vecs = []
        for i in range(m):
            for j in range(i + 1, m):
                g = math.gcd(ranks[i], ranks[j])
                v = [0] * m
                v[i], v[j] = ranks[j] // g, -(ranks[i] // g)
                vecs.append(v)
        return dec.join(vecs)
    if all(x == "D" for x in kinds) and k is not None:
        if k == 2:
            return dec
        if k == 4 and all(r % 2 for r in ranks):
            vecs = []
            for i in range(1, m):
                g = math.gcd(ranks[0], ranks[i])
                v = [0] * m
                v[0], v[i] = 2 * (ranks[i] // g), -2 * (ranks[0] // g)
                vecs.append(v)
            return dec.join(vecs)
    return None


def compute_Sdec(model: LatticeModel, dec: InvariantLattice | None = None,
                 q: InvariantLattice | None = None) -> InvariantLattice:
    """Semi-decomposable subgroup, by the first case that applies:

    - sdec_table has a closed form: mode 'table', exact only where compute_Dec
      checked Dec against a closed form too (Dec mode 'both');
    - otherwise Dec joined with c2 of the augmented W-invariants of each
      nonzero class in Lambda/T*, mode 'closure': exact when the join is Q,
      a lower bound otherwise.

    The closure's witness.  The Dec fold (_class_fold), run into every
    class, spans the (c0(x), c2(x)) of the W-invariants x of each class c of
    Lambda/T*.  Take c != 0, x of class c
    with c0(x) = aug(x) = 0, and mu any weight of class -c.  Then e^mu x
    lies in Z[T*] and in I Z[Lambda], I the augmentation ideal of
    Z[Lambda]^W, and c2(e^mu x) = c2(x), since c0(x) = c1(x) = 0.  c2 of
    the intersection of Z[T*] and I Z[Lambda] lies in Sdec (Merkurjev,
    Degree three cohomological invariants of semisimple groups, JEMS 18
    (2016)), so the W = 0 HNF rows of every nonzero class lie in Sdec, and
    Dec <= join <= Sdec <= Q.  No generator set is built.  dec and q, when
    given, are compute_Dec(model) and compute_Q(model).
    """
    if dec is None:
        dec = compute_Dec(model)
    if q is None:
        q = compute_Q(model)
    table = sdec_table(model, dec, q)
    if table is not None:
        return InvariantLattice(table.dim, table.rows, dec.mode == "both", "table")
    zero = model.grading.zero
    witness = _fold_step(model.grading, *_class_fold(model), lambda c: c != zero)
    join = dec.join([r[1:] for vs in witness.values() for r in hnf(vs) if not r[0]])
    return InvariantLattice(dec.dim, join.rows, join.same_rows(q), "closure")


# --------------------------------------------------------------------------
# the quotient group ring


class QuotientRing:
    """(Z/m)[Lambda / Lambda'] for a finite-index sublattice of Z^n."""

    def __init__(self, rank: int, congruences, modulus: int = 0):
        self.modulus = modulus
        self.grading = congruence_grading(congruences, rank)

    def reduce(self, f: LaurentPoly) -> dict:
        """{class: nonzero coefficient}: the image of f, each class's stored
        coefficients summed and reduced mod the ring's modulus."""
        out = {}
        for cls, comp in graded_components(f, self.grading).items():
            v = sum(comp.terms.values())
            if self.modulus:
                v %= self.modulus
            if v:
                out[cls] = v
        return out


# --------------------------------------------------------------------------
# the adjoint D4 check


def pgo8_model() -> LatticeModel:
    return compile_spec(GroupSpec(
        (SimpleFactor("D", 4),), (((1, 0),), ((0, 1),))
    ))


def pgo8_lambda_prime():
    """The index-8 sublattice used by the adjoint D4 parity argument,
    in fundamental-weight coordinates."""
    return (
        ((2, 2, 1, 1), 4),   # x1 even (e-coordinates)
        ((0, 2, -1, 1), 4),  # x2 + x3 + x4 even
    )


def pgo8_parity_check(f_tuple) -> dict:
    """Parity report for x = sum f_i rho_i on the adjoint D4 lattice:
    whether x lies in Z[T*] (`in_tstar`), whether f_1, f_3 and f_4 have even
    augmentation (`parities_even`), and whether x is constant in
    (Z/16)[Lambda/T*] (`z16_constant`)."""
    model = pgo8_model()
    n = model.total_rank
    f_tuple = tuple(f_tuple)
    if len(f_tuple) != 4:
        raise ValueError("expected a 4-tuple")
    x = dot(f_tuple, fundamental_orbit_sums(model), LaurentPoly.zero(n, 0))
    comps = graded_components(x, model.grading)
    return {
        "in_tstar": set(comps) <= {model.grading.zero},
        "parities_even": tuple(augmentation(f_tuple[i]) % 2 == 0 for i in (0, 2, 3)),
        "z16_constant": all(augmentation(comp) % 16 == 0
                            for cls, comp in comps.items() if cls != model.grading.zero),
    }


# --------------------------------------------------------------------------
# top-level pipeline


class InvariantReport(namedtuple("InvariantReport", "spec Q Dec Sdec inv_ind inv_sd")):
    """Q, Dec and Sdec of a GroupSpec (InvariantLattices) and the FactorGroups
    Q/Dec and Sdec/Dec."""

    __slots__ = ()


def invariants_of(model: LatticeModel) -> InvariantReport:
    """Q, Dec and Sdec of the model, checked to form a chain Dec <= Sdec <= Q,
    and the factor groups Q/Dec and Sdec/Dec.

    The coordinates of Dec's rows in Q's basis, which Q/Dec's Smith form
    reads, are also the check that Q contains Dec.  Lattices are equal
    exactly when their canonical HNF rows are, so when Sdec's rows equal
    Dec's, Dec <= Sdec holds and Sdec <= Q is Dec <= Q, just checked: Sdec/Dec
    is trivial (for a Dec of full rank, which factor_group requires of its
    super).  When they equal Q's, Sdec <= Q holds and Dec <= Sdec is
    Dec <= Q: Sdec/Dec is Q/Dec.  Otherwise both inclusions are checked row
    by row and Sdec/Dec takes its own Smith form.
    """
    q = compute_Q(model)
    dec = compute_Dec(model)
    sdec = compute_Sdec(model, dec, q)
    try:
        inv_ind = factor_group(dec, q)
    except NotASublatticeError:
        raise AssertionError("Dec is not contained in Q") from None
    if sdec.same_rows(dec) and len(dec.rows) == dec.dim:
        inv_sd = FactorGroup(())
    elif sdec.same_rows(q):
        inv_sd = inv_ind
    else:
        if not q.includes(sdec) or not sdec.includes(dec):
            raise AssertionError("inclusion chain Dec <= Sdec <= Q violated")
        inv_sd = factor_group(dec, sdec)
    if q.same_rows(dec):  # Dec <= Sdec <= Q leaves no room: Sdec is exact
        sdec = InvariantLattice(sdec.dim, sdec.rows, True, sdec.mode)
    return InvariantReport(model.spec, q, dec, sdec, inv_ind, inv_sd)
