"""Weight-lattice models for products of simple factors modulo a central subgroup.

Conventions (fixed, not configurable):
  * every weight is stored by its fundamental-weight coordinates (integer
    tuple over the concatenated bases of the factors), so all arithmetic is
    integral even for spin weights;
  * type A_{n} models SL(n+1) on the quotient presentation of Z^{n+1};
  * the per-type data are two tables, the Dynkin diagram (`diagram_edges`)
    and the centre's residue forms (`residue_functionals`); `_type_tuples`
    reads the diagram once into a weighted tree, per node its Cartan entries
    over its neighbours and its symmetrizer, and the Killing form, the Weyl
    action, the centre and the Weyl order are read off that tree and the
    forms, with no rank x rank table; types B/C/D use the usual e_i
    presentations only implicitly through these;
  * E6/E7 use the node numbering in which the Killing form has cross terms
    exactly on diagram edges (chain 1-3-4-5-6(-7) with node 2 hanging off 4).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product as iproduct
from operator import mul

from .intlinalg import hnf, lattice_coordinates, snf_with_left
from .laurent import Grading, LaurentPoly, embed

KINDS = ("A", "B", "C", "D", "E6", "E7")


def frozen_setattr(self, name, *value):
    """`__setattr__` and `__delattr__` of the frozen record types.

    The records are namedtuples, which refuse assignment anyway; this makes the
    refusal the `dataclasses.FrozenInstanceError` that frozen dataclasses
    raise, and imports `dataclasses` only on this path.
    """
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


class SimpleFactor(namedtuple("SimpleFactor", "kind rank")):
    __slots__ = ()
    __setattr__ = __delattr__ = frozen_setattr

    def __new__(cls, kind: str, rank: int):
        if kind not in KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        lo = {"A": 1, "B": 2, "C": 2, "D": 4, "E6": 6, "E7": 7}[kind]
        if rank < lo:
            raise ValueError(f"rank {rank} too small for type {kind}")
        if kind in ("E6", "E7") and rank != lo:
            raise ValueError(f"type {kind} has fixed rank {lo}")
        return tuple.__new__(cls, (kind, rank))

    def __str__(self):
        return f"{self.kind}{self.rank}"


class GroupSpec(namedtuple("GroupSpec", "factors center_kernel", defaults=((),))):
    """Product of simple factors with a central kernel.

    Each kernel generator assigns to every factor an element of that factor's
    center character group: an int mod (n+1, 2, 2, 4, 3, 2) for types
    (A_n, B, C, D-odd, E6, E7), and a pair (s, v) of bits for D-even.
    `factors` is a tuple of SimpleFactor, `center_kernel` a tuple of such
    generators (one entry per factor).

    The kernel is stored as the subgroup it generates (`_canonical_kernel`),
    so two generating sets of one subgroup build equal specs: a spec is its
    group.  Every constructor reads the kernel through `_make`, which
    namedtuple's `_replace` calls too.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = frozen_setattr

    def __new__(cls, factors, center_kernel=()):
        return cls._make((factors, center_kernel))

    @classmethod
    def _make(cls, iterable):
        factors, kernel = iterable
        factors = tuple(factors)
        return tuple.__new__(cls, (factors, _canonical_kernel(factors, kernel)))

    def __str__(self):
        prod = " x ".join(str(f) for f in self.factors)
        if not self.center_kernel:
            return prod
        return f"({prod}) / <{len(self.center_kernel)} kernel generator(s)>"


def _canonical_kernel(factors, kernel) -> tuple:
    """The canonical generators of the subgroup that `kernel` generates in
    the product of the factors' centres, once every generator's shape is
    checked: an int on a cyclic centre, a tuple on D-even's.

    Each generator becomes one row of its entries (a D-even pair entrywise);
    the row HNF of these rows stacked on the centre moduli, reduced mod the
    moduli and with zero rows dropped, is split back into entries.  The HNF
    of a lattice is unique, so two generating sets of one subgroup give one
    value, and no row is zero.
    """
    residues = [_type_tuples(f.kind, f.rank)[1] for f in factors]
    rows = []
    for gen in kernel:
        if len(gen) != len(factors):
            raise ValueError("kernel tuple length != number of factors")
        row = []
        for t, residue in zip(gen, residues):
            if len(residue) == 1:
                if not isinstance(t, int):
                    raise ValueError(f"kernel entry {t!r} must be an int")
                row.append(t)
            elif isinstance(t, tuple) and len(t) == len(residue):
                row += t
            else:
                raise ValueError(f"kernel entry {t!r} must be a {len(residue)}-tuple")
        rows.append(row)
    moduli = [m for residue in residues for _, m in residue]
    rows += [[m * (i == c) for i in range(len(moduli))] for c, m in enumerate(moduli)]
    out = []
    for row in hnf(rows):
        row = [x % m for x, m in zip(row, moduli)]
        if any(row):
            flat = iter(row)
            out.append(tuple(next(flat) if len(residue) == 1 else (next(flat), next(flat))
                             for residue in residues))
    return tuple(out)


# --------------------------------------------------------------------------
# per-type static data: the Dynkin diagram and the centre's residue forms;
# the Cartan matrix, the Killing form, the centre and the Weyl order derive
# from them (Bourbaki, Lie Groups, ch. VI, Plates I-VII)


def diagram_edges(kind: str, n: int) -> list[tuple[int, int]]:
    """The edges (a, b) of the Dynkin diagram, a tree, in an order that
    reaches it from node 0: each b is new, and each a is node 0 or an
    earlier b."""
    if kind in ("A", "B", "C"):
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if kind == "E6":
        return [(0, 2), (2, 3), (3, 4), (4, 5), (3, 1)]
    if kind == "E7":
        return [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 1)]
    raise ValueError(kind)


def weyl_order(kind: str, n: int) -> int:
    """Order of the Weyl group: the stabilizer of the weight 0, whose support
    is empty."""
    return stabilizer_order(kind, n, ())


def center_group(kind: str, n: int):
    """Invariant factors of the center character group of the factor: the
    moduli of its residue forms, read off `_type_tuples`."""
    return tuple(m for _, m in _type_tuples(kind, n)[1])


@lru_cache(maxsize=None)
def _type_tuples(kind: str, n: int) -> tuple:
    """(Dynkin tree, residue forms) of one (kind, n) factor as nested tuples,
    built once per process: every model with such a factor, and every
    per-type reader (`center_group`, `center_order`, `killing_gram`), shares them.

    Node i of the tree is (d_i, ((j, c_ij), ...)): the Cartan entries
    c_ij = <alpha_i, alpha_j^vee> over i's diagram neighbours j (c_ii = 2),
    and the symmetrizer d, the least positive integers with d_i c_ij = d_j c_ji.
    The entries are -1 but at the B/C double bond, -2 at (n-2, n-1) for B
    and at (n-1, n-2) for C.  Each edge (a, b) of `diagram_edges` reaches
    the new node b from a, so d spreads from node 0 along the list:
    d_b / d_a = c_ab / c_ba = 2^(c_ba - c_ab), a power of 2 at each node.
    """
    nbrs = [()] * n   # a huge rank fails here, before any loop
    twos = [0] * n    # log2 d, up to one shift
    bond = {"B": (n - 2, n - 1), "C": (n - 1, n - 2)}.get(kind)
    for a, b in diagram_edges(kind, n):
        c_ab = -2 if (a, b) == bond else -1
        c_ba = -2 if (b, a) == bond else -1
        nbrs[a] += ((b, c_ab),)
        nbrs[b] += ((a, c_ba),)
        twos[b] = twos[a] + c_ba - c_ab
    low = min(twos)
    return (tuple((1 << (t - low), row) for t, row in zip(twos, nbrs)),
            tuple((tuple(v), m) for v, m in residue_functionals(kind, n)))


def center_order(kind: str, n: int, entry) -> int:
    """Order of a kernel entry (an int, or a pair for D-even) in center_group()."""
    entries = entry if isinstance(entry, tuple) else (entry,)
    order = 1
    for x, (_, m) in zip(entries, _type_tuples(kind, n)[1]):
        order = math.lcm(order, m // math.gcd(x, m))
    return order


def residue_functionals(kind: str, n: int) -> list[tuple[list[int], int]]:
    """Linear forms (vector, modulus) computing the center class of a weight.

    The class of sum a_i w_i in the weight/root quotient is the tuple of
    vec . a mod m over the returned rows, in the same coordinates as
    center_group().  Conventions follow the worked congruences of the source
    results (type A: sum i*a_i; B: a_m; C: alternating sum; D as below).
    Every vector is allocated whole, so a huge rank fails at once.
    """
    if kind == "A":
        return [(list(range(1, n + 1)), n + 1)]
    if kind == "B":
        return [([0] * (n - 1) + [1], 2)]
    if kind == "C":
        return [(([1, 0] * n)[:n], 2)]
    if kind == "E6":
        return [([1, 0, -1, 0, 1, -1], 3)]
    if kind == "E7":
        return [([0, 1, 0, 0, 1, 0, 1], 2)]
    if kind == "D":
        if n % 2:
            return [(([2, 0] * n)[:n - 2] + [1, 3], 4)]
        rs = [0] * (n - 2) + [1, 1]
        rv = ([1, 0] * n)[:n - 2] + [(n // 2 - 1) % 2, (n // 2) % 2]
        return [(rs, 2), (rv, 2)]
    raise ValueError(kind)


@lru_cache(maxsize=None)
def killing_gram(kind: str, n: int) -> tuple:
    """Sparse rows (K_ii, ((j, K_ij), ...)) of the integer Gram matrix K of
    the normalized Killing form, q(x) = x^T K x / 2, over each node's diagram
    neighbours j: K = D C is the symmetrised Cartan matrix, K_ii = 2 d_i and
    K_ij = d_i c_ij, read off the Dynkin tree (`_type_tuples`)."""
    return tuple((2 * d, tuple((j, d * c) for j, c in row))
                 for d, row in _type_tuples(kind, n)[0])


def killing_coeffs(kind: str, n: int) -> dict[tuple[int, int], int]:
    """Normalized Killing form as {(i, j): c} with i <= j, fw coordinates:
    K_ii / 2 on the diagonal and K_ij above it, for K = killing_gram."""
    return {(i, j): x for i, (kii, row) in enumerate(killing_gram(kind, n))
            for j, x in ((i, kii // 2), *row) if j >= i}


# --------------------------------------------------------------------------
# parabolic subgroup orders (stabilizers of dominant weights)


def _series_order(series: str, size: int) -> int:
    """Weyl group order of the connected diagram of type A, B (or C) or D of
    the given size; D2 = A1 x A1 and D3 = A3 fit the D formula."""
    if series == "A":
        return math.factorial(size + 1)
    if series == "B":
        return (1 << size) * math.factorial(size)
    return (1 << (size - 1)) * math.factorial(size)


def _arms_order(arms) -> int:
    """Weyl group order of the connected diagram of one node and three paths
    of the given lengths (increasing, each >= 1) hanging off it: D, E6 or E7."""
    if arms[1] == 1:
        return _series_order("D", 1 + sum(arms))
    if arms == [1, 2, 2]:
        return 51840     # E6
    if arms == [1, 2, 3]:
        return 2903040   # E7
    raise ValueError(f"unrecognized diagram arms {arms}")


def parabolic_order(kind: str, rank: int, zeros: frozenset) -> int:
    """Order of the parabolic Weyl subgroup generated by the given nodes: the
    stabilizer of a dominant weight supported off them."""
    return stabilizer_order(kind, rank, [i for i in range(rank) if i not in zeros])


@lru_cache(maxsize=None)
def _leaf(kind: str, rank: int):
    """(leaf, branch) for a diagram with a node of degree 3 (D, E6, E7): the
    last neighbour of degree 1 of that node, and the node; (None, None) for a
    path.  The other nodes, in increasing order, form a path (the chain) in
    every type here."""
    tree = _type_tuples(kind, rank)[0]
    branch = next((v for v, (_, row) in enumerate(tree) if len(row) == 3), None)
    if branch is None:
        return None, None
    return max(u for u, _ in tree[branch][1] if len(tree[u][1]) == 1), branch


def stabilizer_order(kind: str, rank: int, support) -> int:
    """Order of the stabilizer in W of a dominant weight whose support is the
    increasing node sequence `support`: the parabolic subgroup on the nodes
    off it, in O(|support|).

    Off the support, the chain of nodes other than the leaf (_leaf) falls
    into runs between consecutive support nodes, each of type A except:
    for B and C the last run, of length g, ends at the double bond, so it is
    of type B_g (B_1 = A_1); and when the leaf is off the support, it joins
    the run through the branch node if there is one, whose arms from the
    branch node then have lengths 1, l and r (_arms_order, or type
    A_{l+r+2} when l or r is 0), and is a component of type A_1 if not.
    """
    leaf, branch = _leaf(kind, rank)
    if leaf is None:
        out, prev = 1, -1
        for s in support:
            out *= math.factorial(s - prev)   # the run prev+1..s-1, of type A
            prev = s
        return out * _series_order("A" if kind == "A" else "B", rank - 1 - prev)
    b = branch - (branch > leaf)   # chain positions skip the leaf
    free = leaf not in support
    out, prev = 1, -1
    for s in (*support, rank):   # node rank closes the last run
        if s == leaf:
            continue
        s -= s > leaf
        if free and prev < b < s:   # the run prev+1..s-1 through the branch node
            arms = sorted((1, b - prev - 1, s - 1 - b))
            out *= _arms_order(arms) if arms[0] else _series_order("A", s - prev)
        else:
            out *= math.factorial(s - prev)
        prev = s
    return out * (2 if free and branch in support else 1)


@lru_cache(maxsize=None)
def fundamental_orbit_sizes(kind: str, rank: int) -> tuple:
    """|W omega_j| for every node j, in one pass along the chain.

    On A_n, |W omega_j| = C(n + 1, j + 1); on B_n and C_n it is
    2^(j+1) C(n, j + 1), and on D_n too but at the two spin nodes n-2 and
    n-1, where it is 2^(n-1) (Bourbaki, Lie Groups, ch. VI, Plates I-IV).
    The binomials are a running product, one small multiplication and one
    exact division per node, where |W| / stabilizer_order costs two
    factorials of the rank per node.  E6 and E7 read stabilizer_order.
    """
    if kind in ("E6", "E7"):
        return tuple(weyl_order(kind, rank) // stabilizer_order(kind, rank, [j])
                     for j in range(rank))
    top, out, b = rank + (kind == "A"), [], 1
    for j in range(rank):
        b = b * (top - j) // (j + 1)
        out.append(b if kind == "A" else b << (j + 1))
    if kind == "D":
        out[-2:] = [1 << (rank - 1)] * 2
    return tuple(out)


def congruence_grading(congruences, n: int) -> Grading:
    """Quotient map Z^n -> Z^n / L for L = {a : v . a == 0 mod m for each (v, m)}.

    With C the k x n matrix of the vectors and M = diag(moduli), a -> C a
    identifies Z^n / L with S / M Z^k, S = C Z^n + M Z^k.  On the HNF basis P
    of S the columns of M have coordinates R, a k x k matrix whose Smith form
    U R V = diag(d) gives S / M Z^k = (+)_i Z/d_i, and e_j goes to
    U coords_P(C e_j) mod d_i.  Z/1 summands are dropped.

    Column j of C is read mod M first (entry c mod m_c where m_c > 0): that
    changes neither S nor, mod d, the image, since U R = diag(d) V^-1 sends
    every column of M to 0 mod d.  So each distinct reduced column, at most
    prod m_c of them on the rows with m_c > 0, and each column of M is
    solved once for its coordinates on P by `intlinalg.lattice_coordinates`,
    the solver behind every lattice membership test.  This is O(k^2) work per
    distinct column, where a basis of L and its Smith form are n x n.  Every
    such vector generates S, so one the solver rejects is an AssertionError.
    ValueError when L is not of finite index (a modulus-0 row whose vector is
    not 0).
    """
    k = len(congruences)
    reduced = [[x % m for x in v] if m else v for v, m in congruences]
    cols = list(zip(*reduced)) if k else [()] * n
    distinct = list(dict.fromkeys(cols))
    mcols = [[m * (i == c) for i in range(k)] for c, (_, m) in enumerate(congruences)]
    basis = hnf(distinct + mcols)
    coords = [lattice_coordinates(basis, v) for v in (*mcols, *distinct)]
    if None in coords:
        raise AssertionError("a generator of S is not in the span of its HNF basis")
    diag, u = snf_with_left([list(row) for row in zip(*coords[:k])])
    if len(diag) < len(basis):
        raise ValueError("sublattice is not of finite index")
    forms = [(row, d) for row, d in zip(u, diag) if d > 1]
    image = {col: tuple(sum(map(mul, row, x)) % d for row, d in forms)
             for col, x in zip(distinct, coords[k:])}
    return Grading(tuple(d for _, d in forms), [image[col] for col in cols])


# --------------------------------------------------------------------------
# the compiled model


class LatticeModel:
    """A group spec compiled to a concrete weight-lattice model.

    Immutable once constructed (`compile_spec` hands one model to every
    caller of a spec): assignment and deletion raise
    `dataclasses.FrozenInstanceError`, and the per-factor data are tuples.

    `kernel_residues` is the spec's kernel, already the canonical generators
    of its subgroup (`GroupSpec`), with each entry as its residue tuple in its
    factor's centre: an int as a 1-tuple, a D-even pair as it is.  The
    congruences and the closed forms read the kernel only through it.
    """

    __setattr__ = __delattr__ = frozen_setattr

    def __init__(self, spec: GroupSpec):
        put = self.__dict__.update   # the instance refuses attribute assignment
        factors = spec.factors
        ends = tuple(accumulate((f.rank for f in factors), initial=0))
        per_type = [_type_tuples(f.kind, f.rank) for f in factors]
        put(spec=spec, factors=factors, offsets=ends[:-1], total_rank=ends[-1],
            _tree=tuple(tree for tree, _ in per_type),
            _residue=tuple(residue for _, residue in per_type),
            kernel_residues=tuple(tuple(t if isinstance(t, tuple) else (t,) for t in gen)
                                  for gen in spec.center_kernel))
        put(congruences=self._build_congruences())
        put(grading=congruence_grading(self.congruences, self.total_rank))

    # -- construction helpers ----------------------------------------------
    def _basis_vec(self, i):
        return tuple(int(j == i) for j in range(self.total_rank))

    def _build_congruences(self):
        out = []
        for gen in self.kernel_residues:
            big = math.lcm(*(center_order(f.kind, f.rank, tt)
                             for f, tt in zip(self.factors, gen)))
            vec = [0] * self.total_rank
            for tt, residue, off in zip(gen, self._residue, self.offsets):
                for x, (fvec, m) in zip(tt, residue):
                    scale = big * x // m
                    for j, coeff in enumerate(fvec):
                        vec[off + j] += scale * coeff
            out.append((tuple(v % big for v in vec), big))
        return tuple(out)

    # -- weight utilities ----------------------------------------------------
    def slice_of(self, weight, fi):
        off = self.offsets[fi]
        return tuple(weight[off:off + self.factors[fi].rank])

    def assemble(self, local_weights):
        out = []
        for w in local_weights:
            out.extend(w)
        return tuple(out)

    def grade_of_weight(self, weight):
        return self.grading.of_exponent(weight)

    # -- Weyl group action ---------------------------------------------------
    def dominant_local(self, fi, local):
        cur = list(local)
        tree = self._tree[fi]
        while True:
            for i, a_i in enumerate(cur):
                if a_i < 0:   # s_i: v_i = -a_i, v_j -= a_i c_ij over i's neighbours
                    cur[i] = -a_i
                    for j, c in tree[i][1]:
                        cur[j] -= a_i * c
                    break
            else:
                return tuple(cur)

    def orbit_local(self, fi, local):
        """Full Weyl orbit of a local weight (descent from the dominant point)."""
        dom = self.dominant_local(fi, local)
        tree = self._tree[fi]
        seen = {dom}
        frontier = [dom]
        while frontier:
            nxt = []
            for w in frontier:
                for i, a_i in enumerate(w):
                    if a_i > 0:
                        v = list(w)
                        v[i] = -a_i
                        for j, c in tree[i][1]:
                            v[j] -= a_i * c
                        v = tuple(v)
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
            frontier = nxt
        return seen

    def orbit_size_local(self, fi, local) -> int:
        dom = self.dominant_local(fi, local)
        f = self.factors[fi]
        support = [i for i, a in enumerate(dom) if a]
        return weyl_order(f.kind, f.rank) // stabilizer_order(f.kind, f.rank, support)


def compile_spec(spec: GroupSpec) -> LatticeModel:
    """The model of `spec`, compiled once per group and process: the spec
    holds its kernel's canonical generators, so equal groups are equal specs
    and share one model (immutable, see `LatticeModel`), found with no
    elimination."""
    return _compiled(spec)


_compiled = lru_cache(maxsize=None)(LatticeModel)


def weyl_orbit(model: LatticeModel, weight) -> set:
    """Closure of the weight under all simple reflections of every factor."""
    locals_ = [sorted(model.orbit_local(fi, model.slice_of(weight, fi)))
               for fi in range(len(model.factors))]
    return {model.assemble(combo) for combo in iproduct(*locals_)}


def orbit_size(model: LatticeModel, weight) -> int:
    total = 1
    for fi in range(len(model.factors)):
        total *= model.orbit_size_local(fi, model.slice_of(weight, fi))
    return total


def orbit_poly(model: LatticeModel, weight, augmented: bool = False) -> LaurentPoly:
    """Orbit sum rho(weight); subtract the orbit size if augmented."""
    orb = weyl_orbit(model, weight)
    terms = {w: 1 for w in orb}
    zero = (0,) * model.total_rank
    if augmented:
        terms[zero] = terms.get(zero, 0) - len(orb)
    return LaurentPoly(model.total_rank, 0, terms)


@lru_cache(maxsize=None)
def factor_orbit_sums(kind: str, rank: int) -> tuple:
    """Augmented orbit sums rho(w_i) - |W w_i| of the fundamental weights of
    one (kind, rank) factor, in its local coordinates.

    Computed once per (kind, rank) and process; the polynomials are
    immutable, so every caller shares them.
    """
    local = LatticeModel(GroupSpec((SimpleFactor(kind, rank),)))
    return tuple(orbit_poly(local, local._basis_vec(i), augmented=True) for i in range(rank))


def fundamental_orbit_sums(model: LatticeModel) -> tuple:
    """The augmented orbit sum of every fundamental weight of the model, in
    natural order: the orbit of a weight on one factor is that factor's local
    orbit, embedded at the factor's offset."""
    n = model.total_rank
    return tuple(embed(p, n, off)
                 for f, off in zip(model.factors, model.offsets)
                 for p in factor_orbit_sums(f.kind, f.rank))
