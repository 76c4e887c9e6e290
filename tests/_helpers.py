"""Helpers shared by the test modules: compiled models, lattices, polynomials,
reference implementations and the benchmark's spec lists."""

import importlib.util
import math
import operator
from fractions import Fraction
from itertools import product
from pathlib import Path

from weylinv.fuzz import _divisor_or_lead
from weylinv.generators import GeneratorSet, _rho_tilde_w
from weylinv.intlinalg import congruence_kernel, hnf, hnf_with_transform, snf_with_left
from weylinv.invariants import (
    InvariantLattice, QuotientRing, _dominant_pairs, _is_diag_kernel, _symplectic_like, c2,
    killing_decompose,
)
from weylinv.laurent import (
    Grading, LaurentPoly, augmentation, dot, graded_components, homogeneous_component,
    reduce_coefficients,
)
from weylinv.rootdata import (
    GroupSpec, SimpleFactor, cartan_rows, compile_spec, diagram_edges, killing_coeffs,
    orbit_poly, residue_functionals,
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


def residue_allowed(md, residues):
    """Does a tuple of per-factor centre classes satisfy all kernel relations?"""
    funcs = [residue_functionals(f.kind, f.rank) for f in md.factors]
    for gen in md.spec.center_kernel:
        # sum x * r / m is an integer iff sum x * r * (big / m) == 0 mod big
        terms = [(x * r, m)
                 for fi, t in enumerate(gen)
                 for x, r, (_, m) in zip(md._entry_tuple(t, fi), residues[fi], funcs[fi])]
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
        vecs.append(killing_decompose(md, tf.c2_dict()))
    return dec.join(vecs).rows


def element_rows(md, dec):
    """witness_rows over explicit_elements, after checking that each y lies in
    Z[T*] and each z is augmented."""
    elements = explicit_elements(md)
    for name, z, y in elements:
        assert set(graded_components(y, md.grading)) <= {md.grading.zero}, name
        assert augmentation(z) == 0, name
    return witness_rows(md, dec, [(name, z) for name, z, _ in elements])


# -- the Davenport-box Dec scan ---------------------------------------------
#
# The scan the zero-sum slice search replaced, kept as its oracle: every
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
        want = ((1 - model.fw_degrees[i][0]) % 2,)
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
        want = ((1 - model.fw_degrees[i][0]) % 2,)
        comp = homogeneous_component(g[i], model.grading, want)
        if not reduce_coefficients(comp, d).is_zero():
            raise AssertionError("normalized component does not vanish mod d")
    return g


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
    if ring.c2_dict() != half:
        raise AssertionError("ring-map and orbit-formula c2 disagree beyond sign")
    vec = killing_decompose(md, half)
    return tuple(-x for x in vec)
