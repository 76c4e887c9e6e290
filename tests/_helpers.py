"""Helpers shared by the test modules: compiled models, lattices, polynomials,
reference implementations and the benchmark's spec lists."""

import importlib.util
import json
import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from pathlib import Path

from weylinv.fuzz import _divisor_or_lead
from weylinv.generators import GeneratorSet, _rho_tilde_w
from weylinv.intlinalg import (
    _echelon, congruence_kernel, det_adjugate, det_int, hnf, hnf_with_transform,
    lattice_coordinates, snf_with_left, xgcd,
)
from weylinv.invariants import (
    InvariantLattice, QuotientRing, _is_diag_kernel, _symplectic_like, c2,
    killing_decompose,
)
from weylinv.laurent import (
    Grading, LaurentPoly, augmentation, dot, from_text, graded_components,
    homogeneous_component, reduce_coefficients,
)
from weylinv.rootdata import (
    GroupSpec, SimpleFactor, cartan_rows, compile_spec, diagram_edges,
    killing_coeffs, killing_gram, orbit_poly, residue_functionals, weyl_order,
)
from weylinv.spec import SpecParseError
from weylinv.syzygy import (
    FlatnessError, NotASyzygyError, degree_one_orbits, lift_syzygy, model_transform,
    modular_transform, reduction_data, trivialize_generalized,
)


def model(*factors, kernel=()):
    return compile_spec(GroupSpec(tuple(factors), tuple(kernel)))


def fac_c(r):
    """Sp(2r) as a factor; Sp(2) is SL(2)."""
    return SimpleFactor("C", r) if r >= 2 else SimpleFactor("A", 1)


def lattice_from_congruence(dim, vec, mod):
    return InvariantLattice.from_rows(dim, congruence_kernel([(list(vec), mod)], dim))


def group_order(fg):
    """Order of a FactorGroup: 0 (infinite) with a free part, else the product
    of its invariant factors."""
    return 0 if fg.free_rank else math.prod(fg.invariant_factors)


def P(rank, terms, modulus=0):
    return LaurentPoly(rank, modulus, terms)


# -- Fraction elimination ----------------------------------------------------
#
# The Gauss-Jordan inverse and the determinant elimination over Fractions that
# intlinalg.det_adjugate replaced, kept as its oracle.

def fraction_inverse(matrix):
    """Exact inverse of a nonsingular integer matrix, as Fractions; ValueError
    on a singular one."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def fraction_det(matrix):
    """Determinant of an integer matrix by elimination over Fractions."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    assert det.denominator == 1
    return int(det)


# -- the three-HNF kernels -----------------------------------------------------
#
# The route intlinalg.kernel and congruence_kernel took before they became one
# row HNF, kept as their oracle: the kernel of [C | M] (M the diagonal of the
# moduli) from an HNF with transform of its transpose, in HNF, then the HNF of
# its first n coordinates.

def three_hnf_kernel(matrix):
    """HNF basis of {x : matrix @ x == 0}: the transform rows that the HNF of
    the transpose sends to zero."""
    n = len(matrix[0])
    h, u = hnf_with_transform([list(col) for col in zip(*matrix)])
    return hnf([u[i] for i in range(n) if not any(h[i])])


def three_hnf_congruence_kernel(congruences, n):
    """HNF basis of {a in Z^n : vec . a == 0 mod m for each (vec, m)}, m >= 0."""
    rows = [(v, m) for v, m in congruences if m != 1]
    if not rows:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    # a is in the lattice iff C a + M y = 0 is solvable
    big = [list(v) + [m * int(i == j) for j in range(len(rows))]
           for i, (v, m) in enumerate(rows)]
    return hnf([row[:n] for row in three_hnf_kernel(big)])


# -- the Smith form to a diagonal column pass ---------------------------------
#
# intlinalg.snf_with_left as it was before its Kannan-Bachem loop stopped at
# the first diagonal row HNF: every round ends with a column pass, and the
# loop stops once that pass leaves A diagonal.  Kept as its oracle.

def column_pass_snf_with_left(matrix):
    """(diag, U) of snf_with_left, by row and column HNFs until a column HNF
    is diagonal, then the gcd/lcm step on rows of U."""
    nrows = len(matrix)
    if not matrix or not matrix[0]:
        return [], [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    ncols = len(matrix[0])
    m = [list(r) + [int(i == j) for j in range(nrows)] for i, r in enumerate(matrix)]
    while True:
        rank = _echelon(m, ncols)
        at = [list(col) for col in zip(*(row[:ncols] for row in m[:rank]))]
        _echelon(at, rank)
        if not any(any(at[i][i + 1:]) for i in range(rank)):
            break
        for i in range(rank):
            m[i][:ncols] = [at[j][i] for j in range(ncols)]
    diag = [at[i][i] for i in range(rank)]
    u = [row[ncols:] for row in m]
    for i in range(rank):
        for j in range(i + 1, rank):
            di, dj = diag[i], diag[j]
            if dj % di:
                g, x, y = xgcd(di, dj)
                ui, uj = u[i], u[j]
                u[i] = [x * a + y * b for a, b in zip(ui, uj)]
                u[j] = [(di * b - dj * a) // g for a, b in zip(ui, uj)]
                diag[i], diag[j] = g, di * dj // g
    return diag, u


# -- the Smith-form grading ---------------------------------------------------
#
# The route LatticeModel and QuotientRing took to Lambda/T* before
# rootdata.congruence_grading read it off the congruences, kept as its oracle.

def lattice_grading(basis) -> Grading:
    """Quotient map Z^n -> Z^n / span(basis) for a full-rank basis of n rows.

    The Smith form of the basis written in columns gives the invariant factors
    d_i and the rows of its left transform give x -> (U x)_i mod d_i; Z/1
    summands are dropped.
    """
    n = len(basis)
    cols = [[basis[j][i] for j in range(n)] for i in range(n)]
    diag, u = snf_with_left(cols)
    moduli = [d for d in diag if d > 1]
    rows = [u[i] for i, d in enumerate(diag) if d > 1]
    return Grading(tuple(moduli),
                   [tuple(r[j] % d for r, d in zip(rows, moduli)) for j in range(n)])


# -- the per-column grading ---------------------------------------------------
#
# rootdata.congruence_grading as it was before it read each distinct column
# once: one lattice_coordinates call per column of the congruence matrix,
# kept as its oracle.

def per_column_grading(congruences, n: int) -> Grading:
    """Quotient map Z^n -> Z^n / L for L = {a : v . a == 0 mod m for each (v, m)},
    solving the coordinates of every column of the congruence matrix on its own."""
    cols = [[v[j] for v, _ in congruences] for j in range(n)]
    mcols = [[m * (i == c) for i in range(len(congruences))]
             for c, (_, m) in enumerate(congruences)]
    basis = hnf(cols + mcols)
    r = [lattice_coordinates(basis, col) for col in mcols]
    diag, u = snf_with_left([list(row) for row in zip(*r)])
    if len(diag) < len(basis):
        raise ValueError("sublattice is not of finite index")
    forms = [(row, d) for row, d in zip(u, diag) if d > 1]
    images = []
    for col in cols:
        x = lattice_coordinates(basis, col)
        images.append(tuple(sum(map(mul, row, x)) % d for row, d in forms))
    return Grading(tuple(d for _, d in forms), images)


def q_oracle(md, basis=None):
    """Reference Q(G): each q_i written on the T* basis through the Fraction
    matrix B^-T G_i B^-1, with integrality of the diagonal and doubled
    off-diagonal entries as congruences."""
    n = md.total_rank
    m = len(md.factors)
    binv = fraction_inverse([list(r) for r in (basis if basis is not None else tstar_basis(md))])
    grams = []
    for f, off in zip(md.factors, md.offsets):
        g = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in killing_coeffs(f.kind, f.rank).items():
            if i == j:
                g[off + i][off + i] = Fraction(c)
            else:
                g[off + i][off + j] = Fraction(c, 2)
                g[off + j][off + i] = Fraction(c, 2)
        grams.append(g)
    congs = []
    for j in range(n):
        for k in range(j, n):
            coeffs = []
            for g in grams:
                v = sum(binv[a][j] * g[a][b] * binv[b][k]
                        for a in range(n) if binv[a][j]
                        for b in range(n) if g[a][b])
                coeffs.append(2 * v if j != k else v)
            den = math.lcm(*[x.denominator for x in coeffs])
            if den != 1:
                congs.append(([int(x * den) % den for x in coeffs], den))
    return InvariantLattice.from_rows(m, congruence_kernel(congs, m), True, "exact")


# -- closed-form root data ---------------------------------------------------
#
# The hand-written per-type tables that the derivations from the Dynkin diagram
# (diagram_edges) and the residue forms replaced in rootdata and spec, kept as
# their oracle.

def table_cartan_rows(kind, n):
    """M[i][j] = <alpha_i, alpha_j^vee>, written out per type."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    if kind in ("A", "B", "C"):
        for i in range(n - 1):
            m[i][i + 1] = -1
            m[i + 1][i] = -1
        if kind == "B" and n >= 2:
            m[n - 2][n - 1] = -2
        if kind == "C" and n >= 2:
            m[n - 1][n - 2] = -2
    elif kind == "D":
        for i in range(n - 2):
            m[i][i + 1] = -1
            m[i + 1][i] = -1
        m[n - 3][n - 1] = -1
        m[n - 1][n - 3] = -1
    else:
        for i, j in diagram_edges(kind, n):
            m[i][j] = -1
            m[j][i] = -1
    return m


def table_killing_coeffs(kind, n):
    """Normalized Killing form as {(i, j): c} with i <= j, fw coordinates.

    Simply-laced types: sum w_i^2 minus the product over each diagram edge.
    Type B: extra 2*w_m^2 with doubled last cross term; type C: doubled
    squares except the last (the expansion of sum e_i^2).
    """
    q = {}
    if kind in ("A", "D", "E6", "E7"):
        for i in range(n):
            q[(i, i)] = 1
        for i, j in diagram_edges(kind, n):
            a, b = min(i, j), max(i, j)
            q[(a, b)] = -1
    elif kind == "B":
        for i in range(n - 1):
            q[(i, i)] = 1
        q[(n - 1, n - 1)] = 2
        for i in range(n - 2):
            q[(i, i + 1)] = -1
        q[(n - 2, n - 1)] = -2
    elif kind == "C":
        for i in range(n - 1):
            q[(i, i)] = 2
        q[(n - 1, n - 1)] = 1
        for i in range(n - 1):
            q[(i, i + 1)] = -2
    else:
        raise ValueError(kind)
    return q


def table_center_group(kind, n):
    """Invariant factors of the center character group of the factor."""
    if kind == "A":
        return (n + 1,)
    if kind in ("B", "C", "E7"):
        return (2,)
    if kind == "E6":
        return (3,)
    if kind == "D":
        return (4,) if n % 2 else (2, 2)
    raise ValueError(kind)


def table_weyl_order(kind, n):
    """|W| from the closed formulas."""
    if kind == "A":
        return math.factorial(n + 1)
    if kind in ("B", "C"):
        return (1 << n) * math.factorial(n)
    if kind == "D":
        return (1 << (n - 1)) * math.factorial(n)
    return {"E6": 51840, "E7": 2903040}[kind]


def table_diag_entry(f, k):
    """Kernel entry of factor f under the diagonal mu(k), per type."""
    if f.kind == "A":
        if (f.rank + 1) % k:
            raise SpecParseError(f"mu({k}) does not embed in the center of {f}")
        return (f.rank + 1) // k
    if f.kind in ("B", "C", "E7"):
        if k != 2:
            raise SpecParseError(f"mu({k}) does not embed in the center of {f}")
        return 1
    if f.kind == "E6":
        if k != 3:
            raise SpecParseError(f"mu({k}) does not embed in the center of {f}")
        return 1
    if f.kind == "D":
        if f.rank % 2:
            if k not in (2, 4):
                raise SpecParseError(f"mu({k}) does not embed in the center of {f}")
            return 4 // k
        if k != 2:
            raise SpecParseError(
                f"mu({k}) does not embed in the center of {f} (center is 2x2)")
        return (1, 0)
    raise AssertionError


def oracle_factors():
    """Every kind A-D at every rank from its smallest up to 16, and E6, E7."""
    lo = {"A": 1, "B": 2, "C": 2, "D": 4}
    return ([SimpleFactor(kind, r) for kind in "ABCD" for r in range(lo[kind], 17)]
            + [SimpleFactor("E6", 6), SimpleFactor("E7", 7)])


# -- centre residues and local reflections --------------------------------

def center_residues(md, weight):
    """Per-factor centre classes of a weight, as tuples."""
    return tuple(
        tuple(sum(c * a for c, a in zip(vec, md.slice_of(weight, fi))) % m
              for vec, m in residue_functionals(f.kind, f.rank))
        for fi, f in enumerate(md.factors))


def entry_tuple(md, t, fi):
    """Kernel entry t of factor fi of md as its residue tuple in the factor's
    centre: an int as a 1-tuple, a D-even pair entrywise.  The reading that
    `LatticeModel` once made per entry, kept as an oracle for the canonical
    rows of `kernel_residues`."""
    residue = md._residue[fi]
    return tuple(x % m for x, (_, m) in zip((t,) if len(residue) == 1 else t, residue))


def residue_allowed(md, residues):
    """Does a tuple of per-factor centre classes satisfy all kernel relations?"""
    funcs = [residue_functionals(f.kind, f.rank) for f in md.factors]
    for gen in md.spec.center_kernel:
        # sum x * r / m is an integer iff sum x * r * (big / m) == 0 mod big
        terms = [(x * r, m)
                 for fi, t in enumerate(gen)
                 for x, r, (_, m) in zip(entry_tuple(md, t, fi), residues[fi], funcs[fi])]
        big = math.lcm(*(m for _, m in terms))
        if sum(xr * (big // m) for xr, m in terms) % big:
            return False
    return True


def reflect_local(md, fi, local, i):
    """Simple reflection s_i of a local weight of factor fi."""
    f = md.factors[fi]
    a_i, row = local[i], cartan_rows(f.kind, f.rank)[i]
    return tuple(a - a_i * r for a, r in zip(local, row))


# -- Killing-form values in standard coordinates ---------------------------

def standard_e_basis(kind, n):
    """Rows expressing the standard vectors e_i in fundamental-weight symbols,
    for the types whose presentations use standard coordinates (B, C, D); the
    expressions are integral in all three cases."""
    def step(i):
        r = [0] * n
        r[i] = 1
        if i:
            r[i - 1] = -1
        return r

    if kind == "C":
        return [step(i) for i in range(n)]
    if kind == "B":
        last = [0] * n
        last[n - 1], last[n - 2] = 2, -1
        return [step(i) for i in range(n - 1)] + [last]
    if kind == "D":
        plus, minus = [0] * n, [0] * n
        plus[n - 2], plus[n - 1], plus[n - 3] = 1, 1, -1
        minus[n - 2], minus[n - 1] = -1, 1
        return [step(i) for i in range(n - 2)] + [plus, minus]
    raise ValueError(f"no standard-coordinate presentation for type {kind}")


def killing_value(kind, n, local_weight):
    """Value of the normalized Killing form at a weight (types B, C, D), a
    Fraction: sum e_i^2 for C and (sum e_i^2)/2 for B and D, evaluated at the
    e-coordinates of the weight."""
    inv = fraction_inverse(standard_e_basis(kind, n))
    total = sum(sum(Fraction(local_weight[j]) * inv[j][i] for j in range(n)) ** 2
                for i in range(n))
    return total if kind == "C" else total / 2


# -- semi-decomposable witnesses -------------------------------------------

def explicit_elements(md):
    """The pairwise semi-decomposable elements z[i,j] behind sdec_table's
    C/A1, B2 and D-odd mu(4) vectors: [(name, z, y)] with z = c_i rho-bar_i -
    c_j rho-bar_j an augmented element and y = e^lam z, which lies in Z[T*]."""
    out = []
    m = len(md.factors)
    kinds = [f.kind for f in md.factors]
    ranks = [f.rank for f in md.factors]
    k = _is_diag_kernel(md)

    def shifted_z(i, j, wt, ci, cj):
        zi = orbit_poly(md, fundamental_weight(md, i, wt), augmented=True)
        zj = orbit_poly(md, fundamental_weight(md, j, wt), augmented=True)
        z = zi.scale(ci) - zj.scale(cj)
        return z, LaurentPoly.monomial(md.total_rank, fundamental_weight(md, i, wt)) * z

    if (k == 2 and all(_symplectic_like(f) for f in md.factors)) or \
            (k == 4 and all(x == "D" for x in kinds) and all(r % 2 for r in ranks)):
        for i in range(m):
            for j in range(i + 1, m):
                g = math.gcd(ranks[i], ranks[j])
                out.append((f"z[{i + 1},{j + 1}]",
                            *shifted_z(i, j, 0, ranks[j] // g, ranks[i] // g)))
    if k == 2 and all(x == "B" for x in kinds):
        for i in range(m):
            for j in range(i + 1, m):
                if ranks[i] == 2 and ranks[j] == 2:
                    out.append((f"z[{i + 1},{j + 1}]", *shifted_z(i, j, 1, 1, 1)))
    return out


def witness_rows(md, dec, witnesses):
    """HNF rows of Dec joined with c2 of each (name, h) witness, an element
    with no image in degree <= 1, in Killing coordinates."""
    vecs = []
    for name, h in witnesses:
        tf = c2(h)
        assert tf.c0 == 0 and not any(tf.c1), name
        vecs.append(killing_decompose(md, tf.c2))
    return dec.join(vecs).rows


def element_rows(md, dec):
    """witness_rows over explicit_elements, after checking that each y lies in
    Z[T*] and each z is augmented."""
    elements = explicit_elements(md)
    for name, z, y in elements:
        assert set(graded_components(y, md.grading)) <= {md.grading.zero}, name
        assert augmentation(z) == 0, name
    return witness_rows(md, dec, [(name, z) for name, z, _ in elements])


def _generator_images(model, gs) -> list:
    """Killing coordinates of c2 of each generator of gs, in gs.labeled() order.

    g = sum_j row_j rho-bar_j (build_generators checks it), and c2 is additive
    and multiplicative modulo degree 3; with c0 = c1 = 0 on each rho-bar_j
    (checked here), c2(g) = sum_j aug(row_j) c2(rho-bar_j).  The oracle of
    compute_Sdec's closure witness on index-2 A/C gradings, where it was the
    witness before."""
    per_rho = []
    for j, r in enumerate(gs.rho):
        tf = c2(r)
        if tf.c0 != 0 or any(tf.c1):
            raise AssertionError(f"rho[{j + 1}]: nonzero degree <=1 image")
        per_rho.append(killing_decompose(model, tf.c2))
    return [tuple(sum(augmentation(c) * v[i] for c, v in zip(row, per_rho))
                  for i in range(len(model.factors)))
            for row in gs.h1_rows + gs.h2_rows + gs.h3_rows]


# -- the Davenport-box Dec scan ---------------------------------------------
#
# A scan kept as an oracle of Dec: every
# dominant weight whose coordinate sum is at most the Davenport constant of
# the factor's image in Lambda/T*, bucketed by centre residue and combined
# under residue_allowed.

def davenport_bound(moduli):
    """Davenport constant 1 + sum(d_i - 1) of (+)_i Z/moduli[i], exact for
    groups of rank <= 2 (Olson 1969)."""
    return 1 + sum(d - 1 for d in moduli)


def factor_davenport(md, fi):
    """Davenport constant of H_i, the image of factor fi's fundamental weights
    in Lambda/T*: a Hilbert basis element's factor-fi slice is a minimal
    zero-sum or zero-sum-free sequence in H_i, so its coordinate sum is at
    most D(H_i).  H_i is a quotient of the factor's centre dual, of rank
    <= 2, where Olson's formula is exact."""
    off, rank = md.offsets[fi], md.factors[fi].rank
    congs = [(list(vec[off:off + rank]), m) for vec, m in md.congruences]
    return davenport_bound(lattice_grading(congruence_kernel(congs, rank)).moduli)


def bounded_weights(rank, total, prefix=()):
    """Yield prefix + a for every rank-tuple a of naturals with sum <= total."""
    if rank == 0:
        yield prefix
        return
    for x in range(total + 1):
        yield from bounded_weights(rank - 1, total - x, prefix + (x,))


# --------------------------------------------------------------------------
# the Dec scan over the minimal zero-sum slices in Lambda/T*, with a dense
# elimination for adj K, the parabolic order read over every diagram edge, and
# two passes (the slices, then their pairs); the oracles of the tree adjugate,
# of parabolic_order and stabilizer_order, and of the closure in _factor_buckets


def component_order_oracle(kind, rank, comp):
    """Weyl group order of the sub-diagram spanned by `comp` (connected), read
    off the diagram edges inside it: its type from the double bond and the
    arm lengths at a node of degree 3."""
    size = len(comp)
    edges = [(i, j) for i, j in diagram_edges(kind, rank) if i in comp and j in comp]
    if kind in ("B", "C") and (rank - 2, rank - 1) in edges:
        return (1 << size) * math.factorial(size)
    if kind in ("A", "B", "C"):
        return math.factorial(size + 1)
    deg = {i: 0 for i in comp}
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    tri = [i for i in comp if deg[i] == 3]
    if not tri:
        return math.factorial(size + 1)
    if len(tri) != 1:
        raise ValueError("unexpected diagram shape")
    t = tri[0]
    adj = {i: [] for i in comp}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    lengths = []
    for start in adj[t]:
        ln, prev, cur = 1, t, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    lengths.sort()
    if lengths[0] == 1 and lengths[1] == 1:
        return (1 << (size - 1)) * math.factorial(size)
    if lengths == [1, 2, 2]:
        return 51840     # E6
    if lengths == [1, 2, 3]:
        return 2903040   # E7
    raise ValueError(f"unrecognized diagram component {sorted(comp)}")


def parabolic_order_oracle(kind, rank, zeros):
    """Order of the parabolic Weyl subgroup generated by the given nodes, its
    components found over every edge of the diagram."""
    if not zeros:
        return 1
    seen = set()
    total = 1
    adj = {i: [] for i in zeros}
    for i, j in diagram_edges(kind, rank):
        if i in zeros and j in zeros:
            adj[i].append(j)
            adj[j].append(i)
    for start in zeros:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        total *= component_order_oracle(kind, rank, frozenset(comp))
    return total


def leading_minors(m):
    """The leading principal minors of a square integer matrix: the pivots of
    one fraction-free (Bareiss) elimination without row swaps, whose k-th
    pivot is the k-th leading minor, and from the first zero pivot on, the
    det_int of each remaining leading block."""
    n = len(m)
    a = [list(row) for row in m]
    out, prev = [], 1
    for k in range(n):
        p = a[k][k]
        out.append(p)
        if not p:
            return out + [det_int([row[:j] for row in m[:j]]) for j in range(k + 2, n + 1)]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return out


@lru_cache(maxsize=None)
def eliminated_adjugate(kind, rank):
    """(adj K, det K) for K = killing_gram(kind, rank), from one dense
    Bareiss elimination, with its positive-definiteness (every leading
    minor positive) and K adj K = det K I checks over the whole matrix."""
    k = killing_gram(kind, rank)
    det, adj = det_adjugate(k)
    if min(leading_minors(k)) <= 0:
        raise AssertionError("Killing Gram matrix is not positive definite")
    if any(sum(k[i][m] * adj[m][j] for m in range(rank)) != det * (i == j)
           for i in range(rank) for j in range(rank)):
        raise AssertionError("K adj(K) != det(K) I")
    return tuple(map(tuple, adj)), det


def _zero_sum_slices(grading: Grading) -> list:
    """Count vectors a of the multisets of basis vectors that can be one
    factor's slice of a minimal zero-sum sequence over the grading's group,
    where basis vector j has class grading.images[j]: the empty multiset,
    every zero-sum-free one and every minimal zero-sum one.

    A proper part of a minimal zero-sum sequence is zero-sum-free, and a
    zero-sum sequence is minimal exactly when dropping one term leaves it
    zero-sum-free.  So a depth-first search over nondecreasing index
    sequences, carrying the running class and the set of nonempty subset
    sums, extends only the zero-sum-free multisets and stops a branch once 0
    is a subset sum."""
    images = grading.images
    rank = len(images)
    elems, number = [grading.zero], {grading.zero: 0}
    for c in elems:
        for g in images:
            if (s := grading.add(c, g)) not in number:
                number[s] = len(elems)
                elems.append(s)
    plus = [[number[grading.add(c, g)] for c in elems] for g in images]
    negs = [p.index(0) for p in plus]
    out = []

    def walk(a, start, cls, sums):
        out.append(a)
        for j in range(start, rank):
            p = plus[j]
            b = a[:j] + (a[j] + 1,) + a[j + 1:]
            if p[0] and negs[j] not in sums:
                walk(b, j, p[cls], sums.union([p[0]], map(p.__getitem__, sums)))
            elif p[cls] == 0:
                out.append(b)

    walk((0,) * rank, 0, 0, frozenset())
    return out


def _dominant_pairs(kind, rank, weights):
    """Yield (lam, t, |W lam|) with c2(rho-bar(lam)) = +- t * q for each
    dominant local weight lam in weights:
    t = |W lam| lam^T adj(K) lam / (rank det K), over the whole of lam."""
    adj, det = eliminated_adjugate(kind, rank)
    den = rank * det
    worder = weyl_order(kind, rank)
    for a in weights:
        v = sum(x * sum(map(mul, adj[i], a)) for i, x in enumerate(a) if x)
        w = worder // parabolic_order_oracle(
            kind, rank, frozenset(i for i, x in enumerate(a) if not x))
        t, rem = divmod(w * v, den)
        if rem:
            raise AssertionError("non-integral c2 multiple in the scan")
        yield a, t, w


def two_pass_buckets(kind, rank, images, moduli):
    """{class: hnf rows} of the pairs (t, |W lam|) over the zero-sum slices
    lam (_zero_sum_slices, then _dominant_pairs), each slice keyed by
    Grading.of_exponent: a sublattice of invariants._factor_buckets' lattice
    of each class, which gives the same Dec."""
    grading = Grading(moduli, images)
    pairs = {}
    for lam, t, w in _dominant_pairs(kind, rank, _zero_sum_slices(grading)):
        pairs.setdefault(grading.of_exponent(lam), set()).add((t, w))
    return {cls: tuple(tuple(r) for r in hnf(sorted(ps))) for cls, ps in pairs.items()}


def box_dec_rows(md):
    """HNF rows of Dec from each factor's D(H_i) box."""
    buckets = []
    for fi, f in enumerate(md.factors):
        total = factor_davenport(md, fi)
        resfun = residue_functionals(f.kind, f.rank)
        pairs = {}
        for lam, t, w in _dominant_pairs(f.kind, f.rank,
                                         bounded_weights(f.rank, total)):
            res = tuple(sum(c * x for c, x in zip(vec, lam)) % m for vec, m in resfun)
            pairs.setdefault(res, set()).add((t, w))
        buckets.append({res: hnf(sorted(ps)) for res, ps in pairs.items()})
    vecs = set()
    for res_combo in product(*(sorted(b) for b in buckets)):
        if residue_allowed(md, res_combo):
            for picks in product(*(b[r] for b, r in zip(buckets, res_combo))):
                vecs.add(tuple(t * math.prod(w for j, (_, w) in enumerate(picks) if j != i)
                               for i, (t, _) in enumerate(picks)))
    return tuple(tuple(r) for r in hnf(sorted(vecs)))


def _bench_inputs():
    path = Path(__file__).resolve().parents[1] / "weylbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("weylbench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def oracle_specs():
    """The benchmark's invariants_cold anchors, every table_warm family at its
    rank cap, and specs with several or unusual central quotients."""
    inputs = _bench_inputs()
    out = [s for s, _, _ in inputs.ANCHORS]
    for family, cap in inputs.TABLE_FAMILIES:
        out.extend(inputs.family_specs(family, cap))
    out += ["PGL(5) x PGL(5)", "PGL(6) x PGL(6) x PGL(6)", "HSpin(16)",
            "(SL(4) x Sp(4)) / mu(2)", "(E6 x E6) / mu(3)[1,2]"]
    return list(dict.fromkeys(out))


def golden_specs():
    """The spec of every golden command line with a `--spec`, in first-seen
    order; every spec of the golden `table` families is among them."""
    cases = json.loads((Path(__file__).resolve().parent / "data"
                        / "golden_outputs.json").read_text())
    return list(dict.fromkeys(case["argv"][case["argv"].index("--spec") + 1]
                              for case in cases if "--spec" in case["argv"]))


def golden_reduce_inputs():
    """(spec, f) of every `weylinv reduce` golden entry: the reduce workload's
    ops of seed 1, pass 0, and the Koszul-perturbed tuples."""
    data = Path(__file__).resolve().parent / "data"
    out = []
    for case in json.loads((data / "golden_outputs.json").read_text()):
        argv = case["argv"]
        if argv[0] == "reduce":
            spec = argv[argv.index("--spec") + 1]
            texts = json.loads((data.parents[1] / argv[argv.index("--input") + 1]).read_text())
            out.append((spec, tuple(from_text(t, len(texts)) for t in texts)))
    return out


# -- tuple-keyed reference arithmetic -------------------------------------
#
# The exponent-tuple dict arithmetic that the packed Laurent core replaced,
# kept as the oracle its results are checked against.  Each returns a dict
# in the term order the old implementation produced.

def ref_normalize(terms, modulus):
    out = {}
    for exp, c in terms.items() if isinstance(terms, dict) else terms:
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


def ref_add(a, b, modulus):
    out = dict(a)
    for e, c in b.items():
        acc = out.get(e, 0) + c
        if modulus:
            acc %= modulus
        if acc:
            out[e] = acc
        else:
            out.pop(e, None)
    return out


def ref_mul(a, b, modulus):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            acc = out.get(e, 0) + c1 * c2
            if modulus:
                acc %= modulus
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
    return out


# -- the per-call generator build --------------------------------------------
#
# build_generators as it was before its model-only part was cached per model:
# every family, row and check is computed on each call.  Kept as the oracle
# of the cached build.

def dense_build_generators(model, lambda0=None):
    chain, rho_nat, _ = reduction_data(model)
    n = model.total_rank
    np_ = chain.nprime
    rho_ord = tuple(rho_nat[chain.order[k]] for k in range(n))
    rho_w_ord = tuple(rho_ord[k] + LaurentPoly.const(n, s, 0)
                      for k, s in enumerate(chain.sizes)) if np_ else ()
    if lambda0 is None:
        lambda0 = model._basis_vec(chain.order[0])
    lambda0 = tuple(lambda0)
    if model.grade_of_weight(lambda0) != (1,):
        raise ValueError("lambda0 must have degree 1")
    d = chain.d

    e_l0 = LaurentPoly.monomial(n, lambda0)
    h1, h1_rows = [], []
    for i in range(np_ - 1):
        s_i = chain.sizes[i]
        d_next = chain.d_chain[i + 1]
        r_i = s_i * d_next // math.gcd(s_i, d_next)
        gen = e_l0 * (rho_w_ord[i].scale(r_i // s_i)
                      - _rho_tilde_w(chain, rho_ord, i + 1).scale(r_i // d_next))
        h1.append(gen)
        row = [LaurentPoly.zero(n, 0) for _ in range(n)]
        row[chain.order[i]] = e_l0.scale(r_i // s_i)
        for j in range(i + 1, np_):
            a = chain.bezout[i + 1][j]
            if a:
                row[chain.order[j]] = (-e_l0).scale(r_i // d_next * a)
        h1_rows.append(tuple(row))
    h2, h2_rows = [], []
    rho_tilde_w0 = _rho_tilde_w(chain, rho_ord, 0)
    for i in range(np_):
        s_i = chain.sizes[i]
        gen = rho_w_ord[i] * rho_tilde_w0 - LaurentPoly.const(n, d * s_i, 0)
        h2.append(gen)
        row = [LaurentPoly.zero(n, 0) for _ in range(n)]
        for j in range(np_):
            a = chain.bezout[0][j]
            if a:
                row[chain.order[j]] = rho_w_ord[i].scale(a)
        row[chain.order[i]] = row[chain.order[i]] + LaurentPoly.const(n, d, 0)
        h2_rows.append(tuple(row))
    h3, h3_rows = [], []
    for k in range(np_, n):
        gen = rho_ord[k]
        h3.append(gen)
        row = [LaurentPoly.zero(n, 0) for _ in range(n)]
        row[chain.order[k]] = LaurentPoly.const(n, 1, 0)
        h3_rows.append(tuple(row))

    gs = GeneratorSet(model, chain, lambda0, tuple(h1), tuple(h2), tuple(h3),
                      rho_nat, tuple(h1_rows), tuple(h2_rows), tuple(h3_rows))
    for name, h in gs.labeled():
        if homogeneous_component(h, model.grading, (1,)):
            raise AssertionError(f"generator {name} is not homogeneous of degree 0")
        if augmentation(h) != 0:
            raise AssertionError(f"generator {name} has nonzero augmentation")
    for name, rows in [("h1", h1_rows), ("h2", h2_rows), ("h3", h3_rows)]:
        fam = {"h1": h1, "h2": h2, "h3": h3}[name]
        for gen, row in zip(fam, rows):
            if dot(row, rho_nat) != gen:
                raise AssertionError(f"{name} expansion over rho is wrong")
    return gs


# -- the full coefficient normalization --------------------------------------
#
# syzygy._normalized as it was before a zero mod-d syzygy returned f at once:
# every input is trivialized, lifted and expanded, and the combination and
# component checks run on the result.  Kept as the oracle of the shortcut.
# It goes through the public trivialize_generalized with model_transform(model)
# reduced mod d, so the flat tuple is formed and checked on every call, and
# it reads only the inverse of modular_transform(model).

def full_normalized(model, f, combo):
    n = model.total_rank
    chain, rho, _ = reduction_data(model)
    d = chain.d
    rho_d, _, inverse_d, _ = modular_transform(model)
    transform_d = model_transform(model)[1].reduce(d)
    syz = []
    for i in range(n):
        want = ((1 - model.grading.images[i][0]) % 2,)
        comp = homogeneous_component(f[i], model.grading, want)
        syz.append(reduce_coefficients(comp, d))
    try:
        cert = trivialize_generalized(rho_d, transform_d, tuple(syz), inverse_d)
    except (NotASyzygyError, FlatnessError) as exc:
        raise AssertionError(f"library-built syzygy rejected: {exc}") from exc
    lifted = lift_syzygy(rho_d, cert)
    h = lifted.expand(rho)
    g = tuple(a - b for a, b in zip(f, h))
    if dot(g, rho) != combo:
        raise AssertionError("normalization changed the combination")
    for i in range(n):
        want = ((1 - model.grading.images[i][0]) % 2,)
        comp = homogeneous_component(g[i], model.grading, want)
        if not reduce_coefficients(comp, d).is_zero():
            raise AssertionError("normalized component does not vanish mod d")
    return g


# -- the wrong-degree components ---------------------------------------------
#
# syzygy._wrong_degree_mod as it was before the normalization returned the
# parts `graded_parts` split: one `homogeneous_component` per entry.  Kept as
# the oracle of those parts (d None) and of their reduction mod d.

def wrong_degree_mod(model, f, d=None):
    """(f_i^{(1-|i|)})_i, each entry's component of the degree its weight's
    class does not call for, reduced mod d unless d is None."""
    parts = tuple(homogeneous_component(p, model.grading, ((1 - model.grading.images[i][0]) % 2,))
                  for i, p in enumerate(f))
    return parts if d is None else tuple(reduce_coefficients(p, d) for p in parts)


# -- readers only the tests call ---------------------------------------------
#
# Routines of models, gradings, rings and certificates that no library code
# calls.  tests/test_source_scan.py keeps such routines out of src.

def tstar_basis(md):
    """HNF basis of T*, the kernel of the model's congruences; the grading, Q
    and Dec do not read it."""
    return tuple(map(tuple, congruence_kernel(
        [(list(v), m) for v, m in md.congruences], md.total_rank)))


def fundamental_weight(md, fi, j):
    """Global fw vector for local index j (0-based) of factor fi."""
    off = md.offsets[fi]
    return tuple(int(k == off + j) for k in range(md.total_rank))


def in_tstar(md, weight):
    return all(
        sum(c * a for c, a in zip(vec, weight)) % m == 0
        for vec, m in md.congruences
    )


def classes(grading):
    """Every class of the grading's group, in product order."""
    return [tuple(c) for c in product(*(range(m) for m in grading.moduli))]


def kernel(matrix):
    """HNF basis of {x in Z^n : matrix @ x == 0} for a k x n integer matrix."""
    if not matrix:
        return []
    return congruence_kernel([(row, 0) for row in matrix], len(matrix[0]))


def ring_arithmetic(a, b, op):
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


def random_divisor(rng, rank, axis, modulus):
    """Random polynomial that is a divisor with respect to the axis."""
    k = rng.randint(-2, 3)
    lead = [rng.randint(-3, 3) for _ in range(rank)]
    lead[axis] = k
    terms = {tuple(lead): 1}
    for _ in range(rng.randint(0, 4)):
        e = [rng.randint(-3, 3) for _ in range(rank)]
        e[axis] = rng.randint(k - 3, k - 1)
        c = rng.randint(-5, 5)
        if c:
            key = tuple(e)
            terms[key] = terms.get(key, 0) + c
    return _divisor_or_lead(rank, modulus, terms, lead, axis)


def is_empty(cert):
    return all(g.is_zero() for g in cert.entries.values())


def degree_one_gcd(md):
    """gcd of the orbit sizes of the degree-1 fundamental weights."""
    if md.grading.moduli != (2,):
        raise ValueError("model grading is not Z/2")
    _, sizes = degree_one_orbits(md)
    if not sizes:
        raise ValueError("no degree-1 fundamental weights")
    return math.gcd(*sizes)


def zero_class(ring):
    return ring.grading.zero


def quotient_mul(ring, a, b):
    """Product of two images {class: coefficient} in the ring."""
    out = {}
    for ca, va in a.items():
        for cb, vb in b.items():
            cls = ring.grading.add(ca, cb)
            v = out.get(cls, 0) + va * vb
            if ring.modulus:
                v %= ring.modulus
            if v:
                out[cls] = v
            else:
                out.pop(cls, None)
    return out


def quotient_reduction(f, congruences, modulus, rank=None):
    """Image of f in (Z/modulus)[Lambda/Lambda'] for the congruence sublattice."""
    ring = QuotientRing(rank if rank is not None else f.rank, congruences, modulus)
    return ring.reduce(f), ring


def c2_orbit(md, weight):
    """Killing-basis vector of c2(rho(weight)) = -1/2 sum_chi chi^2.

    Enumerates the orbit factor by factor (cross terms vanish because each
    factor orbit sums to zero), asserts the division by 2 is exact, and
    cross-checks against the truncated ring map on the augmented orbit sum.
    The tests check the closed form of the Dec scan (_dominant_pairs) on it.
    """
    if not in_tstar(md, weight):
        raise ValueError("weight is not in T*")
    per, sizes = [], []
    for fi in range(len(md.factors)):
        loc = md.slice_of(weight, fi)
        orb = md.orbit_local(fi, loc)
        sizes.append(len(orb))
        acc = {}
        for chi in orb:
            nz = [i for i, a in enumerate(chi) if a]
            for ii, i in enumerate(nz):
                acc[(i, i)] = acc.get((i, i), 0) + chi[i] * chi[i]
                for j in nz[ii + 1:]:
                    acc[(i, j)] = acc.get((i, j), 0) + 2 * chi[i] * chi[j]
        per.append(acc)
    total = {}
    for fi, acc in enumerate(per):
        mult = 1
        for fj, s in enumerate(sizes):
            if fj != fi:
                mult *= s
        off = md.offsets[fi]
        for (i, j), v in acc.items():
            if v:
                total[(off + i, off + j)] = v * mult
    half = {}
    for k, v in total.items():
        if v % 2:
            raise AssertionError("sum of squared orbit weights is odd")
        if v // 2:
            half[k] = v // 2
    ring = c2(orbit_poly(md, weight, augmented=True))
    if any(ring.c1):
        raise AssertionError("augmented orbit sum has a degree-1 image")
    if dict(ring.c2) != half:
        raise AssertionError("ring-map and orbit-formula c2 disagree beyond sign")
    vec = killing_decompose(md, half)
    return tuple(-x for x in vec)
