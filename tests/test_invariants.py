import math
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from weylinv import intlinalg, invariants, rootdata
from weylinv.cli import main, parse_spec
from weylinv.generators import build_generators
from weylinv.intlinalg import det_adjugate, hnf, lattice_contains, smallest_prime_factor
from weylinv.invariants import (
    DecMismatchError,
    InvariantLattice,
    KillingDecomposeError,
    QuotientRing,
    TruncatedForm,
    _class_fold,
    _factor_buckets,
    _fold_step,
    _killing_adjugate,
    _pair_hnf,
    c2,
    compute_Dec,
    compute_Q,
    compute_Sdec,
    dec_table,
    factor_group,
    invariants_of,
    killing_decompose,
    pgo8_model,
    pgo8_parity_check,
    sdec_table,
)
from weylinv.laurent import LaurentPoly, augmentation, dot
from weylinv.rootdata import (
    GroupSpec, LatticeModel, SimpleFactor, center_group, compile_spec,
    fundamental_orbit_sums, killing_coeffs, killing_gram, orbit_poly, orbit_size,
)

import _helpers
from _helpers import (
    _bench_inputs, _dominant_pairs, _generator_images, _zero_sum_slices, bounded_weights,
    box_dec_rows, c2_orbit, center_residues, davenport_bound, eliminated_adjugate, element_rows,
    explicit_elements, fac_c, factor_davenport, fraction_det, fundamental_weight, golden_specs,
    group_order, in_tstar, lattice_from_congruence, leading_minors, model, oracle_specs,
    q_oracle, quotient_mul, quotient_reduction, residue_allowed, tstar_basis, two_pass_buckets,
    witness_rows, zero_class,
)


# name -> (factor, orders k of a diagonal mu(k) in its centre, centre order)
SMALL_FACTORS = {"SL(2)": (SimpleFactor("A", 1), (2,), 2),
                 "SL(3)": (SimpleFactor("A", 2), (3,), 3),
                 "SL(4)": (SimpleFactor("A", 3), (2, 4), 4),
                 "Sp(4)": (SimpleFactor("C", 2), (2,), 2),
                 "Spin(5)": (SimpleFactor("B", 2), (2,), 2)}


# every simple factor up to rank 7, for the scan's hypothesis tests
SCAN_FACTORS = ([("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 8)]
                + [("C", r) for r in range(2, 8)] + [("D", r) for r in range(4, 8)]
                + [("E6", 6), ("E7", 7)])


@st.composite
def random_products(draw):
    """Products of one to four factors of every type, of total rank <= 8,
    and one or two kernel generators, each a random element of every
    factor's centre."""
    factors, total = [], 0
    for _ in range(draw(st.integers(1, 4))):
        if total < 8:
            kind, rank = draw(st.sampled_from([f for f in SCAN_FACTORS if f[1] <= 8 - total]))
            factors.append(SimpleFactor(kind, rank))
            total += rank

    def entry(f):
        grp = center_group(f.kind, f.rank)
        xs = tuple(draw(st.integers(0, m - 1)) for m in grp)
        return xs if len(grp) > 1 else xs[0]

    gens = [tuple(entry(f) for f in factors) for _ in range(draw(st.integers(1, 2)))]
    return GroupSpec(tuple(factors), tuple(gens))


@st.composite
def central_gradings(draw):
    """(kind, rank, images, moduli) for a factor of SCAN_FACTORS graded
    through its centre by a random homomorphism to one or two cyclic groups
    whose orders divide the centre's exponent: W fixes the classes of such a
    grading, and of no other."""
    kind, rank = draw(st.sampled_from(SCAN_FACTORS))
    funcs = rootdata.residue_functionals(kind, rank)
    exponent = math.lcm(*(m for _, m in funcs))
    moduli = tuple(draw(st.lists(st.sampled_from(
        [d for d in range(2, exponent + 1) if exponent % d == 0]), min_size=1, max_size=2)))
    # a homomorphism Z/m -> Z/n is x -> x u with n | m u
    coeffs = [[draw(st.integers(0, n - 1)) * (n // math.gcd(n, m)) for _, m in funcs]
              for n in moduli]
    images = tuple(tuple(sum(u * vec[j] for u, (vec, _) in zip(row, funcs)) % n
                         for row, n in zip(coeffs, moduli)) for j in range(rank))
    return kind, rank, images, moduli


def fold_dec_rows(md):
    """Dec's rows from a fresh fold of md, past _class_fold's per-model cache,
    over whatever buckets _factor_buckets names."""
    zero = md.grading.zero
    vecs = _fold_step(md.grading, *_class_fold.__wrapped__(md), lambda c: c == zero)[zero]
    return InvariantLattice.from_rows(len(md.factors), [r[1:] for r in vecs]).rows


def scan_dec_rows(md):
    """Dec of md folded over the two-pass scan's buckets (_helpers), not the
    closure's."""
    with mock.patch.object(invariants, "_factor_buckets", two_pass_buckets):
        return fold_dec_rows(md)


def sign_free(vec, expect):
    return tuple(vec) == tuple(expect) or tuple(-x for x in vec) == tuple(expect)


class TestC2:
    def test_constant(self):
        tf = c2(LaurentPoly.const(1, 1, 0))
        assert tf.c0 == 1 and not any(tf.c1) and not tf.c2

    def test_kills_cube_of_augmentation_ideal(self):
        for exp in [(1,), (-2,)]:
            w = LaurentPoly.monomial(1, exp)
            one = LaurentPoly.const(1, 1, 0)
            cube = (w - one) ** 3
            tf = c2(cube)
            assert tf.c0 == 0 and not any(tf.c1) and not tf.c2

    def test_a1_orbit_value(self):
        f = LaurentPoly(1, 0, {(1,): 1, (-1,): 1, (0,): -2})
        tf = c2(f)
        assert tf.c0 == 0 and not any(tf.c1)
        assert dict(tf.c2) == {(0, 0): 1}

    def test_multiplicative_mod_truncation(self):
        rng = random.Random(17)
        for _ in range(30):
            terms_a = {tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
                       for _ in range(3)}
            terms_b = {tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
                       for _ in range(3)}
            a = LaurentPoly(2, 0, terms_a)
            b = LaurentPoly(2, 0, terms_b)
            assert c2(a * b) == c2(a) * c2(b)

    def test_coefficient_collapse_under_zero_degree_one(self):
        # c2(g*h) = aug(g) c2(h) when h has zero degree-<=1 image
        rng = random.Random(23)
        m = model(fac_c(2), kernel=[(1,)])
        rho2 = orbit_poly(m, (0, 1), augmented=True)
        h = rho2  # c0 = c1 = 0
        for _ in range(10):
            g = LaurentPoly(2, 0, {tuple(rng.randint(-2, 2) for _ in range(2)):
                                   rng.randint(-3, 3) for _ in range(3)})
            lhs = c2(g * h)
            rhs_scale = augmentation(g)
            rhs = {k: rhs_scale * v for k, v in c2(h).c2}
            assert dict(lhs.c2) == {k: v for k, v in rhs.items() if v}


class TestC2Orbit:
    def test_type_b_vector_orbit(self):
        m = model(SimpleFactor("B", 3))
        assert sign_free(c2_orbit(m, (1, 0, 0)), (2,))

    def test_type_a_multiples(self):
        m = model(SimpleFactor("A", 3))
        for k in (1, 2, 3):
            assert sign_free(c2_orbit(m, (k, 0, 0)), (k * k,))

    def test_type_c_doubled_vector(self):
        m = model(SimpleFactor("C", 3))
        assert sign_free(c2_orbit(m, (2, 0, 0)), (4,))

    def test_spinor_b2(self):
        m = model(SimpleFactor("B", 2))
        assert sign_free(c2_orbit(m, (0, 1)), (1,))

    def test_requires_tstar(self):
        m = model(fac_c(2), kernel=[(1,)])
        with pytest.raises(ValueError):
            c2_orbit(m, (1, 0))

    def test_product_factorization(self):
        # each slot of a product orbit picks up the other factor's orbit size
        m = model(fac_c(2), fac_c(2), kernel=[(1, 1)])
        v = c2_orbit(m, (1, 0, 1, 0))
        s = orbit_size(model(fac_c(2)), (1, 0))
        assert sign_free(v, (s, s))


def fraction_killing_decompose(md, quad, coeffs=killing_coeffs):
    """killing_decompose as it was written with Fractions, kept as its oracle;
    coeffs(kind, rank) is the factor's normalized Killing form."""
    quad = dict(quad)
    out = []
    for f, off in zip(md.factors, md.offsets):
        ratio = None
        for (i, j), c in coeffs(f.kind, f.rank).items():
            r = Fraction(quad.pop((off + i, off + j), 0), c)
            if ratio is None:
                ratio = r
            elif r != ratio:
                raise KillingDecomposeError("not proportional")
        if ratio is None or ratio.denominator != 1:
            raise KillingDecomposeError("non-integral")
        out.append(int(ratio))
    if any(quad.values()):
        raise KillingDecomposeError("cross terms")
    return tuple(out)


class TestKillingDecompose:
    @pytest.mark.parametrize("spec", ["SL(3) x Sp(4)", "E6 x Spin(7)", "(E7 x SL(2)) / mu(2)",
                                      "(Spin(10) x Sp(6)) / mu(2)"])
    def test_matches_fraction_oracle(self, spec):
        md = compile_spec(parse_spec(spec))
        rng = random.Random(spec)
        for _ in range(200):
            quad = {}
            for f, off in zip(md.factors, md.offsets):
                num, den = rng.randint(-6, 6), rng.choice((1, 1, 2, 3))
                for (i, j), c in killing_coeffs(f.kind, f.rank).items():
                    quad[(off + i, off + j)] = c * num // den  # rounds when den does not divide
                if rng.random() < 0.2:
                    key = rng.choice(sorted(quad))
                    quad[key] += rng.choice((-1, 1))
            if rng.random() < 0.1:
                quad[(0, md.total_rank - 1)] = 1
            try:
                want = fraction_killing_decompose(md, quad)
            except KillingDecomposeError:
                with pytest.raises(KillingDecomposeError):
                    killing_decompose(md, quad)
            else:
                assert killing_decompose(md, quad) == want

    def test_non_integral_multiple(self, monkeypatch):
        # every normalized Killing form has a coefficient +-1; a doubled one
        # makes the odd multiples of half of it proportional but non-integral
        def doubled(kind, rank):
            return {key: 2 * c for key, c in killing_coeffs(kind, rank).items()}

        monkeypatch.setattr(invariants, "killing_coeffs", doubled)
        a2 = SimpleNamespace(offsets=[0], factors=[SimpleFactor("A", 2)])
        assert doubled("A", 2) == {(0, 0): 2, (0, 1): -2, (1, 1): 2}
        for k in range(-5, 6):
            quad = {(0, 0): k, (0, 1): -k, (1, 1): k}
            if k % 2:
                with pytest.raises(KillingDecomposeError, match=f"non-integral multiple {k}/2"):
                    killing_decompose(a2, quad)
            else:
                assert killing_decompose(a2, quad) == fraction_killing_decompose(
                    a2, quad, doubled) == (k // 2,)


@st.composite
def random_specs(draw):
    """One to three factors of types A-D of rank <= 5 and up to three kernel
    generators, each a random element of the centre's character group."""
    kinds = [("A", r) for r in range(1, 6)] + [(k, r) for k in "BC" for r in range(2, 6)]
    factors = [SimpleFactor(*f) for f in draw(st.lists(
        st.sampled_from(kinds + [("D", 4), ("D", 5)]), min_size=1, max_size=3))]

    def entry(f):
        grp = center_group(f.kind, f.rank)
        xs = tuple(draw(st.integers(0, m - 1)) for m in grp)
        return xs if len(grp) > 1 else xs[0]

    gens = [tuple(entry(f) for f in factors) for _ in range(draw(st.integers(0, 3)))]
    return GroupSpec(tuple(factors), tuple(gens))


class TestComputeQ:
    def test_qgc(self):
        for (mm, nn) in [(1, 1), (2, 2), (2, 3), (4, 4), (3, 5), (6, 6)]:
            md = model(fac_c(mm), fac_c(nn), kernel=[(1, 1)])
            assert compute_Q(md).same_rows(lattice_from_congruence(2, (mm, nn), 4))

    def test_qgb(self):
        for (mm, nn) in [(2, 2), (3, 3), (2, 4)]:
            md = model(SimpleFactor("B", mm), SimpleFactor("B", nn), kernel=[(1, 1)])
            assert compute_Q(md).same_rows(lattice_from_congruence(2, (1, 1), 2))

    def test_qga(self):
        for (mm, nn, k) in [(4, 4, 2), (6, 3, 3), (8, 4, 4)]:
            md = model(SimpleFactor("A", mm - 1), SimpleFactor("A", nn - 1),
                       kernel=[(mm // k, nn // k)])
            expect = lattice_from_congruence(
                2, ((k - 1) * mm % (2 * k * k), (k - 1) * nn % (2 * k * k)),
                2 * k * k)
            assert compute_Q(md).same_rows(expect)

    def test_stgen_d_odd(self):
        md = model(SimpleFactor("D", 5), SimpleFactor("D", 5), kernel=[(1, 1)])
        assert compute_Q(md).same_rows(lattice_from_congruence(2, (5, 5), 8))

    def test_e_types(self):
        md = model(SimpleFactor("E6", 6), SimpleFactor("E6", 6), kernel=[(1, 1)])
        assert compute_Q(md).same_rows(lattice_from_congruence(2, (1, 1), 3))
        md = model(SimpleFactor("E7", 7), SimpleFactor("E7", 7), kernel=[(1, 1)])
        assert compute_Q(md).same_rows(lattice_from_congruence(2, (1, 1), 4))

    def test_basis_independence(self):
        md = model(fac_c(2), fac_c(3), kernel=[(1, 1)])
        q1 = compute_Q(md)
        # the oracle on an alternative basis of T*: unimodular recombination
        b = [list(r) for r in tstar_basis(md)]
        b[0] = [x + y for x, y in zip(b[0], b[1])]
        b[2] = [x + y for x, y in zip(b[2], b[0])]
        q2 = q_oracle(md, basis=b)
        assert q1.same_rows(q2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["(Sp(4) x Sp(6)) / mu(2)", "(SL(4) x SL(6)) / mu(2)",
                            "(Spin(7) x Spin(10)) / mu(2)", "PGL(3) x PGSp(4)",
                            "(SL(2) x SL(2) x SL(2)) / mu(2)", "HSpin(8)"]),
           st.data())
    def test_basis_independence_random_unimodular(self, text, data):
        md = compile_spec(parse_spec(text))
        n = md.total_rank
        b = [list(r) for r in tstar_basis(md)]
        # U B for a random unimodular U: a word in row additions and swaps
        steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.integers(-3, 3)), max_size=12))
        for i, j, c in steps:
            if i == j:
                b[i] = [-x for x in b[i]]
            elif c:
                b[i] = [x + c * y for x, y in zip(b[i], b[j])]
            else:
                b[i], b[j] = b[j], b[i]
        assert q_oracle(md, basis=b).same_rows(compute_Q(md))

    @pytest.mark.parametrize("text", oracle_specs())
    def test_matches_fraction_oracle(self, text):
        md = compile_spec(parse_spec(text))
        assert compute_Q(md).rows == q_oracle(md).rows

    @settings(max_examples=100, deadline=None)
    @given(random_specs())
    @example(parse_spec("PGL(3) x PGSp(4)"))
    @example(parse_spec("PGO(8)"))
    @example(parse_spec("(Spin(8) x Spin(8)) / mu(2)[1,2]"))
    @example(parse_spec("(HSpin(8) x Spin(12)) / mu(2)[3,1]"))
    def test_random_kernels_match_fraction_oracle(self, spec):
        md = compile_spec(spec)
        assert compute_Q(md).rows == q_oracle(md).rows

    @pytest.mark.parametrize("text", ["(Sp(4) x Sp(6)) / mu(2)", "PGL(3) x PGSp(4)", "PGO(8)",
                                      "(Spin(10) x Spin(10)) / mu(4)"])
    def test_no_lattice_algebra_in_the_weight_rank(self, text, monkeypatch):
        # the model and Q read T* off its congruences: no adjugate, and no
        # Hermite form, Smith form, coordinate solve or kernel whose matrix or
        # vector has a column per fundamental weight; the total rank differs
        # from the factor count here
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append((fn.__name__, args))
                return fn(*args)
            return wrapper

        def widths(name, args):
            if name == "congruence_kernel":
                congs, n = args
                return {n, *(len(v) for v, _ in congs)}
            if name == "lattice_coordinates":
                rows, vec = args
                return {len(vec), *map(len, rows)}
            return set(map(len, args[0]))   # hnf, snf_with_left: the matrix rows

        names = ("det_adjugate", "hnf", "snf_with_left", "lattice_coordinates",
                 "congruence_kernel")
        for name in names:
            for mod in (intlinalg, invariants, rootdata):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(getattr(intlinalg, name)))
        md = LatticeModel(parse_spec(text))
        invariants_of(md)
        assert len(md.factors) != md.total_rank
        assert not [(name, args) for name, args in calls
                    if name == "det_adjugate" or md.total_rank in widths(name, args)]
        assert calls   # the wrappers are reached: Q's kernel over the factors


_SYMPLECTIC = ["SL(2)"] + [f"Sp({2 * a})" for a in range(1, 7)]
_SL_PRIMARY = [(k, m, n) for k, top in ((2, 6), (3, 6), (4, 8))
               for m in range(k, top + 1, k) for n in range(k, top + 1, k)]


def entry_residues(md):
    """Every kernel entry of md read by _entry_tuple, generator by generator."""
    return tuple(tuple(md._entry_tuple(t, fi) for fi, t in enumerate(gen))
                 for gen in md.spec.center_kernel)


def generated_subgroup(md, gens):
    """The elements of the product of md's centres, as flat residue tuples,
    that the per-factor residue rows gens generate: a closure under adding
    a generator."""
    moduli = [m for f in md.factors for m in center_group(f.kind, f.rank)]
    flat = [[x for tt in gen for x in tt] for gen in gens]
    todo = [(0,) * len(moduli)]
    seen = set(todo)
    while todo:
        v = todo.pop()
        for g in flat:
            w = tuple((a + b) % m for a, b, m in zip(v, g, moduli))
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def add_entries(g, h):
    """The entrywise sum of two kernel generators, D-even pairs entrywise."""
    return tuple(tuple(map(sum, zip(a, b))) if isinstance(a, tuple) else a + b
                 for a, b in zip(g, h))


class TestKernelResidues:
    """LatticeModel.kernel_residues: the kernel read once as the subgroup it
    generates, the one reading of the kernel behind the congruences and the
    closed forms."""

    @pytest.mark.parametrize("text", golden_specs())
    def test_golden_specs(self, text):
        # every golden kernel is written as its subgroup's canonical generators
        md = compile_spec(parse_spec(text))
        assert md.kernel_residues == entry_residues(md)

    @settings(max_examples=100, deadline=None)
    @given(random_products())
    def test_random_products(self, spec):
        # the subgroup the entries' residues generate, with no zero generator
        md = compile_spec(spec)
        assert (generated_subgroup(md, md.kernel_residues)
                == generated_subgroup(md, entry_residues(md)))
        assert all(any(map(any, gen)) for gen in md.kernel_residues)

    @settings(max_examples=60, deadline=None)
    @given(random_products(), st.data())
    def test_rewritten_generators_give_one_report(self, spec, data):
        # zero, repeated and summed generators, in any order, generate the
        # same subgroup: one kernel and one report, labels included
        gens = list(spec.center_kernel)
        zero = tuple((0, 0) if isinstance(t, tuple) else 0 for t in gens[0])
        for how in data.draw(st.lists(st.sampled_from(["zero", "repeat", "sum"]),
                                      min_size=1, max_size=3)):
            i, j = (data.draw(st.integers(0, len(gens) - 1)) for _ in range(2))
            gens.append({"zero": zero, "repeat": gens[i],
                         "sum": add_entries(gens[i], gens[j])}[how])
        other = GroupSpec(spec.factors, tuple(data.draw(st.permutations(gens))))
        md, md2 = compile_spec(spec), compile_spec(other)
        assert md2.kernel_residues == md.kernel_residues
        assert invariants_of(md2)[1:] == invariants_of(md)[1:]

    @pytest.mark.parametrize("text,same", [
        ("(PGL(2) x PGL(2)) / mu(2)", "PGL(2) x PGL(2)"),
        ("SO(7) / mu(2)", "SO(7)"),
    ])
    def test_one_subgroup_written_two_ways(self, text, same):
        # the whole centre, and mu(2) twice, read as the one subgroup
        got, want = (invariants_of(compile_spec(parse_spec(t))) for t in (text, same))
        assert got[1:] == want[1:]

    def test_a7_pair_with_a_repeated_or_zero_generator(self):
        # the diagonal mu(2) of SL(8) x SL(8), written with a repeated or a
        # zero generator, gets the table's exact Sdec
        a7 = (SimpleFactor("A", 7),) * 2
        want = invariants_of(compile_spec(parse_spec("(SL(8) x SL(8)) / mu(2)")))
        assert want.Sdec == InvariantLattice(2, ((1, 0), (0, 1)), True, "table")
        for kernel in (((4, 4), (4, 4)), ((4, 4), (0, 0))):
            assert invariants_of(compile_spec(GroupSpec(a7, kernel)))[1:] == want[1:]

    def test_raw_entries_are_read_as_residues(self):
        # a negative int, an out-of-range int and a D-even pair outside {0, 1}^2
        # read as the residues (3, (1, 1), 2); the subgroup they generate has
        # the canonical generator 3 (3, (1, 1), 2) = (1, (1, 1), 2)
        factors = (SimpleFactor("A", 3), SimpleFactor("D", 4), SimpleFactor("D", 5))
        raw, read = (compile_spec(GroupSpec(factors, (k,)))
                     for k in ((-1, (3, -1), 6), (3, (1, 1), 2)))
        assert raw.kernel_residues == read.kernel_residues == (((1,), (1, 1), (2,)),)

    @pytest.mark.parametrize("raw,reduced", [
        (((3, 0, 0), (0, -1, 0), (0, 0, 5)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        (((5, 2, 4),), ((1, 0, 0),)),
    ])
    def test_closed_forms_read_residues(self, raw, reduced):
        # SL(2) x Sp(4) x Spin(7) with per-factor kernels, each entry written
        # outside its residue range: the closed form reads its residues
        factors = (SimpleFactor("A", 1), SimpleFactor("C", 2), SimpleFactor("B", 3))
        got, want = (compile_spec(GroupSpec(factors, k)) for k in (raw, reduced))
        assert got.kernel_residues == want.kernel_residues
        assert got.congruences == want.congruences
        assert dec_table(want) is not None
        assert dec_table(got) == dec_table(want)
        assert compute_Dec(got) == compute_Dec(want)


class TestComputeDec:
    def test_enumerate_equals_table_sample(self):
        cases = [
            model(fac_c(2), fac_c(2), kernel=[(1, 1)]),
            model(fac_c(3), fac_c(3), kernel=[(1, 1)]),
            model(SimpleFactor("B", 2), SimpleFactor("B", 3), kernel=[(1, 1)]),
            model(SimpleFactor("A", 3), SimpleFactor("A", 3), kernel=[(2, 2)]),
            model(SimpleFactor("D", 5), SimpleFactor("D", 5), kernel=[(1, 1)]),
        ]
        for md in cases:
            lat = compute_Dec(md)
            assert lat.exact and lat.mode == "both"

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        # prop:typec: Sp/SL(2) pairs mod mu(2)
        st.tuples(st.sampled_from(_SYMPLECTIC), st.sampled_from(_SYMPLECTIC))
        .map(lambda ab: f"({ab[0]} x {ab[1]}) / mu(2)"),
        # propB: Spin(odd) pairs mod mu(2)
        st.tuples(st.integers(2, 5), st.integers(2, 5))
        .map(lambda ab: f"(Spin({2 * ab[0] + 1}) x Spin({2 * ab[1] + 1})) / mu(2)"),
        # Ddiagonal: Spin(even) pairs of equal parity mod mu(2), odd ranks mod mu(4)
        st.tuples(st.integers(4, 7), st.integers(4, 7)).filter(lambda ab: (ab[0] + ab[1]) % 2 == 0)
        .map(lambda ab: f"(Spin({2 * ab[0]}) x Spin({2 * ab[1]})) / mu(2)"),
        st.tuples(st.sampled_from([5, 7]), st.sampled_from([5, 7]))
        .map(lambda ab: f"(Spin({2 * ab[0]}) x Spin({2 * ab[1]})) / mu(4)"),
        st.just("(Spin(10) x Spin(10) x Spin(10)) / mu(4)"),
        # lem:primaryindexA: SL(m) x SL(n) mod a p-primary diagonal mu(k), k | m, n
        st.sampled_from(_SL_PRIMARY)
        .map(lambda kmn: f"(SL({kmn[1]}) x SL({kmn[2]})) / mu({kmn[0]})"),
        # E-type products, with or without a central quotient
        st.sampled_from(["E6", "E7", "E6 x E6", "E6 x E7", "E7 x E7", "(E6 x E6) / mu(3)",
                         "(E6 x E6) / mu(3)[1,2]", "(E7 x E7) / mu(2)",
                         "(E6 x E6 x E6) / mu(3)"])))
    def test_closed_form_families_agree_with_hilbert(self, text):
        # the closed form covers every spec of these families, and compute_Dec
        # raises DecMismatchError unless it equals the computed lattice
        lat = compute_Dec(compile_spec(parse_spec(text)))
        assert lat.exact and lat.mode == "both", text

    def test_mismatch_raises(self, monkeypatch):
        import weylinv.invariants as inv
        md = model(fac_c(2), fac_c(2), kernel=[(1, 1)])
        assert dec_table(md) is not None
        monkeypatch.setattr(inv, "dec_table", lambda m: [[8, 0], [0, 8]])
        with pytest.raises(DecMismatchError):
            inv.compute_Dec(md)

    def test_pgo8_closed_form_needs_the_whole_centre(self):
        # a redundant trivial kernel generator leaves SO(8), which the PGO(8)
        # closed form must not match; two distinct nontrivial ones give PGO(8)
        so8 = compute_Dec(compile_spec(GroupSpec((SimpleFactor("D", 4),),
                                                 (((0, 0),), ((1, 0),)))))
        assert (so8.rows, so8.mode) == (((2,),), "hilbert")
        assert compute_Dec(compile_spec(parse_spec("SO(8)"))).rows == so8.rows
        pgo8 = compute_Dec(compile_spec(GroupSpec((SimpleFactor("D", 4),),
                                                  (((1, 0),), ((1, 1),)))))
        assert (pgo8.rows, pgo8.mode) == (((4,),), "both")

    def test_single_factor_values(self):
        expectations = [
            (model(SimpleFactor("E6", 6)), ((6,),)),
            (model(SimpleFactor("E7", 7)), ((12,),)),
            (model(fac_c(2), kernel=[(1,)]), ((2,),)),      # PGSp4
            (model(fac_c(3), kernel=[(1,)]), ((4,),)),      # PGSp6
            (model(SimpleFactor("B", 2), kernel=[(1,)]), ((2,),)),   # SO5
            (model(SimpleFactor("B", 3)), ((2,),)),         # Spin7
            (model(SimpleFactor("A", 1)), ((1,),)),         # SL2
        ]
        for md, rows in expectations:
            assert compute_Dec(md).rows == rows


class TestDecEngine:
    @pytest.mark.parametrize("text", [
        "(SL(2)) / mu(2)", "(SL(3)) / mu(3)", "(Spin(5) x Sp(4)) / mu(2)",
        "(SL(3) x SL(3)) / mu(3)", "(SL(2) x SL(2) x SL(2)) / mu(2)",
        "(SL(2) x Spin(5) x Sp(4)) / mu(2)", "PGSp(4) x PGSp(4)", "PGL(3) x PGL(3)"])
    def test_matches_orbit_oracle(self, text):
        # c2_orbit sums over whole orbits: no gamma, no parabolic counts
        md = compile_spec(parse_spec(text))
        box = range(davenport_bound(md.grading.moduli) + 2)
        vecs = [c2_orbit(md, lam) for lam in product(box, repeat=md.total_rank)
                if in_tstar(md, lam)]
        assert compute_Dec(md).rows == tuple(tuple(r) for r in hnf(vecs))

    def test_davenport_bound(self):
        for n in range(1, 13):
            assert davenport_bound((n,)) == n
        assert davenport_bound(()) == 1
        assert davenport_bound((2, 2)) == 3
        assert davenport_bound((5, 5)) == 9
        assert davenport_bound((2, 6)) == 7

    @pytest.mark.parametrize("text, bounds", [
        ("PGL(6) x PGL(6) x PGL(6)", [6, 6, 6]),
        ("PGL(12) x PGL(12)", [12, 12]),
        ("(SL(12) x SL(12)) / mu(4)", [4, 4]),
        ("(SL(4) x SL(2)) / mu(2)", [2, 2]),
        ("PGO(8)", [3]),
        ("Spin(8)", [1])])
    def test_factor_davenport(self, text, bounds):
        # D of the image of each factor's fundamental weights in Lambda/T*
        md = compile_spec(parse_spec(text))
        assert [factor_davenport(md, fi) for fi in range(len(md.factors))] == bounds

    @pytest.mark.parametrize("text", list(dict.fromkeys(
        oracle_specs() + [f"PGL({n}) x PGL({n})" for n in range(2, 9)])))
    def test_matches_davenport_box(self, text):
        # the closure's Dec against every weight of each factor's D(H_i) box
        # keyed by centre residue
        md = compile_spec(parse_spec(text))
        assert compute_Dec(md).rows == box_dec_rows(md)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(sorted(SMALL_FACTORS)), min_size=2, max_size=5),
           st.data())
    def test_matches_davenport_box_on_random_products(self, names, data):
        # a diagonal mu(k) where one embeds in every factor, else one kernel
        # generator per factor, of any order (0: none)
        factors = [SMALL_FACTORS[n][0] for n in names]
        orders = set.intersection(*(set(SMALL_FACTORS[n][1]) for n in names))
        if orders and data.draw(st.booleans()):
            k = data.draw(st.sampled_from(sorted(orders)))
            md = compile_spec(parse_spec(f"({' x '.join(names)}) / mu({k})"))
        else:
            entries = [data.draw(st.integers(0, center - 1))
                       for center in (SMALL_FACTORS[n][2] for n in names)]
            md = model(*factors, kernel=[tuple(e if j == i else 0 for j in range(len(names)))
                                         for i, e in enumerate(entries) if e])
        assert compute_Dec(md).rows == box_dec_rows(md)

    def test_equal_factors_share_one_bucket_search(self):
        # each factor's buckets are keyed by the Lambda/T* coordinates its
        # images touch, not by where it sits in the product
        _factor_buckets.cache_clear()
        _class_fold.cache_clear()
        compute_Dec(compile_spec(parse_spec("PGL(8) x PGL(8)")))
        info = _factor_buckets.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("n, free, minimal", [(8, 145, 64), (12, 1079, 366),
                                                  (16, 7235, 2134)])
    def test_slice_counts(self, n, free, minimal):
        # ROADMAP's table: the empty slice, the zero-sum-free and the minimal
        # zero-sum slices of PGL(n), where Lambda/T* = Z/n
        md = compile_spec(parse_spec(f"PGL({n})"))
        slices = _zero_sum_slices(md.grading)
        zero = [a for a in slices if md.grading.of_exponent(a) == md.grading.zero]
        assert len(slices) == 1 + free + minimal
        assert len(set(slices)) == len(slices) and len(zero) == 1 + minimal

    @settings(max_examples=150, deadline=None)
    @given(central_gradings())
    def test_scan_rows_lie_in_the_closure(self, grading):
        # the closure spans every monomial of a class, not only the minimal
        # zero-sum slices, so each scan row lies in the closure's lattice of
        # its class
        closure = _factor_buckets.__wrapped__(*grading)
        for cls, rows in two_pass_buckets(*grading).items():
            assert all(lattice_contains([list(r) for r in closure[cls]], list(row))
                       for row in rows), cls

    @settings(max_examples=150, deadline=None)
    @given(central_gradings())
    def test_the_closure_is_closed(self, grading):
        # (0, 1) lies in class 0, and each class's rows times each
        # fundamental orbit sum's pair (the scan's pair of omega_j) lie in
        # the lattice of the class omega_j leads to
        kind, rank, images, moduli = grading
        closure = _factor_buckets.__wrapped__(*grading)
        assert lattice_contains([list(r) for r in closure[(0,) * len(moduli)]], [0, 1])
        units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
        for (_, t, w), g in zip(_dominant_pairs(kind, rank, units), images):
            for cls, rows in closure.items():
                target = [list(r) for r in closure[tuple((x + y) % m
                                                         for x, y, m in zip(cls, g, moduli))]]
                assert all(lattice_contains(target, [b * t + w * a, b * w]) for a, b in rows)

    @settings(max_examples=150, deadline=None)
    @given(random_products())
    def test_dec_matches_the_two_pass_scan(self, spec):
        # the fold over the closure's buckets against the fold over the scan's
        md = compile_spec(spec)
        assert fold_dec_rows(md) == scan_dec_rows(md)

    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_closure_runs_to_its_fixpoint(self, n):
        # a closure that stops short of its fixpoint, e.g. one that never
        # multiplies a grown class again, gets Dec(PGL(n)) wrong; the scan
        # and the fixpoint give n for odd n
        md = compile_spec(parse_spec(f"PGL({n})"))
        assert compute_Dec(md).rows == scan_dec_rows(md) == ((n,),)

    @pytest.mark.parametrize("kind, rank", [("A", 1), ("C", 5), ("D", 6), ("E6", 6)])
    def test_a_wrong_determinant_gives_a_non_integral_c2_multiple(self, kind, rank, monkeypatch):
        # det K one too high leaves some t_j = |W omega_j| adj(K)_jj /
        # (rank det K) off the integers
        adj, det = _killing_adjugate(kind, rank)
        monkeypatch.setattr(invariants, "_killing_adjugate", lambda kind, rank: (adj, det + 1))
        with pytest.raises(AssertionError, match="non-integral c2 multiple"):
            _factor_buckets.__wrapped__(kind, rank, ((0,),) * rank, (2,))

    def test_a_wrong_orbit_size_gives_a_non_integral_c2_multiple(self, monkeypatch):
        # |W omega| = 3 on SL(2), one more than the true 2: t = 3/2
        monkeypatch.setattr(invariants, "weyl_order", lambda kind, rank: 3)
        with pytest.raises(AssertionError, match="non-integral c2 multiple"):
            _factor_buckets.__wrapped__("A", 1, ((1,),), (2,))

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.tuples(st.one_of(st.just(0), st.integers(-40, 40)), st.integers(-40, 40)),
                   max_size=7))
    def test_pair_hnf_is_the_hnf(self, pairs):
        assert _pair_hnf(pairs) == tuple(tuple(r) for r in hnf(sorted(pairs)))

    @pytest.mark.parametrize("n", [12, 16])
    def test_large_pgl_squares(self, n):
        md = compile_spec(parse_spec(f"PGL({n}) x PGL({n})"))
        assert compute_Dec(md).rows == ((2 * n, 0), (0, 2 * n))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["(SL(6) x SL(6) x SL(6)) / mu(2)", "(SL(4) x Spin(10)) / mu(4)",
                            "(E6 x E6) / mu(3)[1,2]", "PGO(8)", "(SL(2) x Spin(8)) / mu(2)[1,3]",
                            "(SL(4) x SL(4) x SL(8)) / mu(4)", "PGL(3) x PGSp(4)",
                            "(Spin(7) x Sp(6) x SL(2)) / mu(2)"]),
           st.data())
    def test_residue_allowed_is_a_class_sum(self, text, data):
        # T* contains the root lattice, so the kernel relations on centre
        # residues are the vanishing of a sum of Lambda/T* classes
        md = compile_spec(parse_spec(text))
        weight = tuple(data.draw(st.lists(st.integers(-3, 6), min_size=md.total_rank,
                                          max_size=md.total_rank)))
        total = md.grading.zero
        for fi in range(len(md.factors)):
            local = md.slice_of(weight, fi)
            total = md.grading.add(total, md.grade_of_weight(md.assemble(
                [local if fj == fi else (0,) * f.rank for fj, f in enumerate(md.factors)])))
        assert residue_allowed(md, center_residues(md, weight)) == (total == md.grading.zero)


# the factors the closed-form c2 multiple is checked on: A1-A8, B2-B6,
# C2-C6, D4-D7, E6, E7
SUPPORTED_FACTORS = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 7)]
                     + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(4, 8)]
                     + [("E6", 6), ("E7", 7)])


class TestClosedFormC2:
    @pytest.mark.parametrize("kind, rank", SUPPORTED_FACTORS)
    def test_matches_c2_orbit(self, kind, rank):
        # t = |W lam| lam^T adj(K) lam / (rank det K) against whole-orbit sums
        md = compile_spec(GroupSpec((SimpleFactor(kind, rank),)))
        # above rank 5 the fundamental weights alone: the oracle walks whole
        # orbits, and E7's largest fundamental orbit already has 10080 points
        total = 2 if rank <= 5 else 1
        pairs = list(_dominant_pairs(kind, rank, bounded_weights(rank, total)))
        assert len(pairs) == math.comb(rank + total, total)
        for lam, t, w in pairs:
            assert t == -c2_orbit(md, lam)[0], lam

    @pytest.mark.parametrize("gram", [
        [[-1, 0], [0, -1]],  # triangular: minors -1, 1
        [[-1, 1], [1, -2]],  # Bareiss with no row swap: minors -1, 1
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],  # a row swap: minors 0, -1, 1
    ])
    def test_positive_determinant_is_not_enough(self, gram, monkeypatch):
        import weylinv.invariants as inv
        monkeypatch.setattr(inv, "killing_gram", lambda kind, rank: gram)
        with pytest.raises(AssertionError, match="not positive definite"):
            inv._killing_adjugate.__wrapped__("A", len(gram))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([("A", 1), ("B", 2), ("C", 2), ("D", 4)]), st.integers(0, 39))
    @example(("A", 1), 39)
    @example(("D", 4), 36)
    def test_tree_adjugate_matches_the_elimination(self, kind_lo, extra):
        # det K and adj K along the Dynkin tree against the dense Bareiss
        # elimination, at ranks 1-40 of every series
        kind, lo = kind_lo
        rank = min(lo + extra, 40)
        # eliminated_adjugate also checks that every leading minor is positive
        assert _killing_adjugate(kind, rank) == eliminated_adjugate(kind, rank)

    @pytest.mark.parametrize("kind, rank", [("E6", 6), ("E7", 7)])
    def test_tree_adjugate_of_e(self, kind, rank):
        det, adj = det_adjugate(killing_gram(kind, rank))
        assert _killing_adjugate(kind, rank) == (tuple(map(tuple, adj)), det)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tree_adjugate_of_random_forests(self, data):
        # a symmetric matrix on a random forest, positive definite or not:
        # the elimination's adjugate when every leading minor is positive,
        # else the positive-definiteness error
        n = data.draw(st.integers(1, 9))
        perm = data.draw(st.permutations(range(n)))
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[perm[i]][perm[i]] = data.draw(st.integers(-2, 12))
            p = data.draw(st.integers(-1, i - 1))   # -1 starts a new tree
            if p >= 0:
                x = data.draw(st.integers(-3, 3).filter(bool))
                gram[perm[i]][perm[p]] = gram[perm[p]][perm[i]] = x
        det, adj = det_adjugate(gram)
        with mock.patch.object(invariants, "killing_gram", lambda kind, rank: gram):
            if min(leading_minors(gram)) > 0:
                assert invariants._killing_adjugate.__wrapped__("A", n) == (
                    tuple(map(tuple, adj)), det)
            else:
                with pytest.raises(AssertionError, match="not positive definite"):
                    invariants._killing_adjugate.__wrapped__("A", n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_cycle_raises(self, data):
        # a positive definite (diagonally dominant) matrix whose graph is a
        # random tree plus one more edge is refused, not given a wrong adjugate
        n = data.draw(st.integers(3, 9))
        edges = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        extra = data.draw(st.sampled_from(sorted(
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges)))
        gram = [[0] * n for _ in range(n)]
        for i, j in edges | {extra}:
            gram[i][j] = gram[j][i] = data.draw(st.integers(-3, 3).filter(bool))
        for i in range(n):
            gram[i][i] = 1 + sum(abs(x) for x in gram[i])
        assert min(leading_minors(gram)) > 0
        with mock.patch.object(invariants, "killing_gram", lambda kind, rank: gram):
            with pytest.raises(AssertionError, match="cycle"):
                invariants._killing_adjugate.__wrapped__("A", n)

    @pytest.mark.parametrize("kind, rank", [("A", 1), ("C", 5), ("D", 6), ("E7", 7)])
    def test_a_wrong_determinant_is_caught(self, kind, rank, monkeypatch):
        # det K one more than the product of the components' determinants:
        # the pivots stay positive and the tree formulas run on, and only the
        # K adj(K) = det(K) I check sees it
        monkeypatch.setattr(invariants, "math",
                            SimpleNamespace(prod=lambda xs: math.prod(xs) + 1))
        with pytest.raises(AssertionError, match=r"K adj\(K\) != det\(K\) I"):
            invariants._killing_adjugate.__wrapped__(kind, rank)

    def test_a_cartan_matrix_is_refused(self, monkeypatch):
        # the tree formulas read K_ij = K_ji; the unsymmetrised B3 Cartan
        # matrix, positive leading minors and all, is refused
        gram = rootdata.cartan_rows("B", 3)
        assert min(leading_minors(gram)) > 0
        monkeypatch.setattr(invariants, "killing_gram", lambda kind, rank: gram)
        with pytest.raises(AssertionError, match="not symmetric"):
            invariants._killing_adjugate.__wrapped__("B", 3)

    @pytest.mark.parametrize("kind, rank", SUPPORTED_FACTORS)
    def test_adjugate(self, kind, rank):
        k = killing_gram(kind, rank)
        adj, det = _killing_adjugate(kind, rank)
        assert det == fraction_det(k) > 0
        assert [[sum(k[i][m] * adj[m][j] for m in range(rank)) for j in range(rank)]
                for i in range(rank)] == [[det * (i == j) for j in range(rank)]
                                          for i in range(rank)]


def _index2_type_ac(md):
    return md.grading.moduli == (2,) and all(f.kind in ("A", "C") for f in md.factors)


# specs on which the witnesses are checked against compute_Sdec: those with
# explicit elements, and the index-2 A/C specs with every C factor of rank <= 5
# (the Sp(12) pairs alone take 1.9 s to build generators for)
_ORACLE_MODELS = {text: compile_spec(parse_spec(text)) for text in oracle_specs()}
_ELEMENT_SPECS = [text for text, md in _ORACLE_MODELS.items() if explicit_elements(md)]
_GENERATOR_SPECS = [text for text, md in _ORACLE_MODELS.items()
                    if _index2_type_ac(md) and all(f.kind == "A" or f.rank <= 5 for f in md.factors)]

# where each generator's Killing vector is checked against c2 of the dense
# generator: the generator-witness specs, the reduce workload's specs and an
# A x C pair past both
_VECTOR_SPECS = list(dict.fromkeys(
    _GENERATOR_SPECS + [spec for spec, _ in _bench_inputs().REDUCE_SPECS]
    + ["(Sp(8) x SL(10)) / mu(2)"]))

# where Dec joined with c2 of the generator set stops short of the closed form
# Sdec = Q of a diagonal type-A quotient: the witness has index 2 in it
_GENERATOR_GAPS = {"(SL(8) x SL(8)) / mu(2)": ((1, 1), (0, 2))}

# where the closure join is checked against Dec joined with c2 of the
# generator set: every golden index-2 A/C spec and the reduce workload's specs
_GOLDEN_AC_SPECS = list(dict.fromkeys(
    [text for text in golden_specs() if _index2_type_ac(compile_spec(parse_spec(text)))]
    + [spec for spec, _ in _bench_inputs().REDUCE_SPECS]))

# the index-2 type-A/C factors: SL(2k) and Sp(2r), by name and rank
_AC_MU2_FACTORS = {**{f"SL({2 * k})": 2 * k - 1 for k in range(1, 6)},
                   **{f"Sp({2 * r})": r for r in range(2, 6)}}


def closure_sdec(md):
    """compute_Sdec's closure join on md, whether or not sdec_table covers it."""
    with mock.patch.object(invariants, "sdec_table", lambda model, dec, q=None: None):
        return compute_Sdec(md)


@st.composite
def ac_products_mod_mu2(draw):
    """Products of one to three SL(2k) and Sp(2r) factors of total rank <= 10,
    modulo the diagonal mu(2)."""
    names, total = [], 0
    for _ in range(draw(st.integers(1, 3))):
        fits = [n for n, r in _AC_MU2_FACTORS.items() if total + r <= 10]
        if fits:
            names.append(draw(st.sampled_from(fits)))
            total += _AC_MU2_FACTORS[names[-1]]
    return compile_spec(parse_spec(f"({' x '.join(names)}) / mu(2)"))


class TestSdec:
    def test_modes_agree_on_type_c(self):
        # the closed form, Dec joined with c2 of the pairwise elements and Dec
        # joined with c2 of the generator set are one lattice
        for (mm, nn) in [(1, 1), (2, 2), (4, 2), (4, 4)]:
            md = model(fac_c(mm), fac_c(nn), kernel=[(1, 1)])
            dec = compute_Dec(md)
            tab = compute_Sdec(md, dec)
            assert tab.mode == "table"
            assert tab.rows == element_rows(md, dec)
            assert tab.rows == witness_rows(md, dec, build_generators(md).labeled())

    def test_exact_from_a_checked_table_or_a_closure_at_q(self):
        # a table is exact where a Dec closed form checked Dec; a closure
        # join is exact where it reaches Q
        for text, labels in [("(Sp(4) x Sp(4))/mu(2)", (True, "table")),
                             ("(SL(2) x SL(2) x SL(2))/mu(2)", (False, "table")),
                             ("(SL(4) x Sp(4))/mu(2)", (True, "closure")),
                             ("(Spin(5) x Sp(4))/mu(2)", (True, "closure")),
                             ("(SL(4) x Spin(10))/mu(4)", (False, "closure"))]:
            sd = invariants_of(compile_spec(parse_spec(text))).Sdec
            assert (sd.exact, sd.mode) == labels, text

    def test_known_values(self):
        md = model(fac_c(2), fac_c(3), kernel=[(1, 1)])
        dec = compute_Dec(md)
        sd = compute_Sdec(md, dec)
        # c2(y) = (n/g)q - (m/g)q' with (m, n) = (2, 3): adds (3, -2)
        assert sd.contains((3, -2)) and sd.rows == element_rows(md, dec)
        md = model(SimpleFactor("B", 2), SimpleFactor("B", 2), kernel=[(1, 1)])
        dec = compute_Dec(md)
        sd = compute_Sdec(md, dec)
        assert sd.contains((1, -1)) and sd.rows == element_rows(md, dec)

    def test_b_large_ranks_decomposable(self):
        md = model(SimpleFactor("B", 3), SimpleFactor("B", 4), kernel=[(1, 1)])
        dec = compute_Dec(md)
        sd = compute_Sdec(md, dec)
        assert sd.same_rows(dec)

    def test_witness_specs_cover_each_family(self):
        kinds = {tuple(sorted({f.kind for f in _ORACLE_MODELS[t].factors}))
                 for t in _ELEMENT_SPECS}
        assert {("A",), ("C",), ("B",), ("D",)} <= kinds
        assert set(_GENERATOR_GAPS) <= set(_GENERATOR_SPECS)


class TestSdecWitnesses:
    @pytest.mark.parametrize("text", _ELEMENT_SPECS)
    def test_table_equals_element_witness(self, text):
        md = _ORACLE_MODELS[text]
        dec = compute_Dec(md)
        sd = compute_Sdec(md, dec)
        assert sd.mode == "table"
        assert sd.rows == element_rows(md, dec)

    @pytest.mark.parametrize("text", _GENERATOR_SPECS)
    def test_sdec_equals_generator_witness(self, text):
        md = _ORACLE_MODELS[text]
        dec = compute_Dec(md)
        sd = compute_Sdec(md, dec)
        rows = witness_rows(md, dec, build_generators(md).labeled())
        assert sd.includes(InvariantLattice.from_rows(dec.dim, rows))
        assert rows == _GENERATOR_GAPS.get(text, sd.rows)

    @pytest.mark.parametrize("text", _VECTOR_SPECS)
    def test_generator_images_match_dense_c2(self, text):
        # the vectors, not just the lattice they span with Dec
        md = compile_spec(parse_spec(text))
        gs = build_generators(md)
        dense = []
        for name, h in gs.labeled():
            tf = c2(h)
            assert tf.c0 == 0 and not any(tf.c1), name
            dense.append(killing_decompose(md, tf.c2))
        assert _generator_images(md, gs) == dense

    def test_a_degree_one_image_of_an_orbit_sum_is_refused(self, monkeypatch):
        # the generator oracle reads c2(g) off the orbit sums only when no
        # rho-bar_j has an image in degree <= 1
        md = compile_spec(parse_spec("(SL(4) x Sp(4)) / mu(2)"))
        rho2, real = fundamental_orbit_sums(md)[1], _helpers.c2

        def skewed(f):
            # rho[2] gets c1 = (1, 0, ...) on top of its true image
            tf = real(f)
            if f != rho2:
                return tf
            return TruncatedForm(tf.c0, tuple(x + (i == 0) for i, x in enumerate(tf.c1)), tf.c2)

        monkeypatch.setattr(_helpers, "c2", skewed)
        with pytest.raises(AssertionError, match=r"^rho\[2\]: nonzero degree <=1 image$"):
            _generator_images(md, build_generators(md))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["SL(2)", "SL(4)", "SL(6)", "Sp(4)", "Sp(6)"]),
                    min_size=2, max_size=3))
    def test_index2_type_ac_takes_table_or_closure(self, names):
        # the closure witness runs unguarded: any error in it propagates
        rep = invariants_of(compile_spec(parse_spec(f"({' x '.join(names)}) / mu(2)")))
        assert rep.Q.includes(rep.Sdec) and rep.Sdec.includes(rep.Dec)
        assert rep.Sdec.mode in ("table", "closure")


class TestClosureWitness:
    """compute_Sdec's witness, Dec joined with the W = 0 rows of the Dec fold's
    nonzero classes, against the generator set's and the closed forms."""

    @pytest.mark.parametrize("text", _GOLDEN_AC_SPECS)
    def test_closure_equals_generator_witness(self, text):
        md = compile_spec(parse_spec(text))
        want = compute_Dec(md).join(_generator_images(md, build_generators(md)))
        assert closure_sdec(md).rows == want.rows

    @settings(max_examples=40, deadline=None)
    @given(ac_products_mod_mu2())
    def test_closure_equals_generator_witness_on_random_products(self, md):
        # a counterexample is a finding about the witness, not a case to skip
        want = compute_Dec(md).join(_generator_images(md, build_generators(md)))
        assert closure_sdec(md).rows == want.rows

    def test_every_table_value_contains_the_closure_join(self):
        # on the golden specs and every table family at the table_warm caps
        strict = {}
        for text in dict.fromkeys(golden_specs() + oracle_specs()):
            md = compile_spec(parse_spec(text))
            table = sdec_table(md, compute_Dec(md), compute_Q(md))
            if table is None:
                continue
            join = closure_sdec(md)
            assert table.includes(join), text
            if not table.same_rows(join):
                strict[text] = table.rows, join.rows
        # the one strict case: the type-A closed form Sdec = Q against a
        # witness of index 2 in it, open until an upper bound decides it
        # (ROADMAP.md, item 3)
        assert strict == {"(SL(8) x SL(8)) / mu(2)": (((1, 0), (0, 1)), ((1, 1), (0, 2)))}

    def test_type_a_strict_cases_follow_a_prime_power_pattern(self):
        # ROADMAP.md item 3's type-A family: pairs up to SL(32) and triples up
        # to SL(12), modulo every diagonal mu(k).  The closed form Sdec = Q is
        # strictly above the closure join exactly when, for a prime p | k,
        # every n_i is divisible by p^(v_p(k) + 2) for p = 2 and by
        # p^(v_p(k) + 1) for odd p; a spec off that pattern is a finding
        def v(p, n):
            return next(e for e in range(n.bit_length()) if n % p ** (e + 1))

        def pattern(ns, k):
            return any(all(n % p ** (v(p, k) + (2 if p == 2 else 1)) == 0 for n in ns)
                       for p in range(2, k + 1) if k % p == 0 and smallest_prime_factor(p) == p)

        specs = [(ns, k) for size, top in ((2, 32), (3, 12))
                 for ns in combinations_with_replacement(range(2, top + 1), size)
                 for k in range(2, math.gcd(*ns) + 1) if math.gcd(*ns) % k == 0]
        strict, off = [], {}
        for ns, k in specs:
            text = f"({' x '.join(f'SL({n})' for n in ns)}) / mu({k})"
            md = compile_spec(parse_spec(text))
            table, join = sdec_table(md, compute_Dec(md), compute_Q(md)), closure_sdec(md)
            assert table.includes(join), text
            if not table.same_rows(join):
                strict.append(text)
            if (not table.same_rows(join)) != pattern(ns, k):
                off[text] = table.rows, join.rows
        assert (len(specs), len(strict), off) == (429, 26, {})


class TestFactorGroup:
    def test_trivial(self):
        lat = InvariantLattice.from_rows(2, [[2, 0], [0, 2]])
        fg = factor_group(lat, lat)
        assert fg.invariant_factors == () and group_order(fg) == 1

    def test_smith_factors(self):
        sup = InvariantLattice.from_rows(2, [[1, 0], [0, 1]])
        sub = InvariantLattice.from_rows(2, [[2, 0], [0, 6]])
        fg = factor_group(sub, sup)
        assert fg.invariant_factors == (2, 6)

    def test_inclusion_checked(self):
        big = InvariantLattice.from_rows(2, [[1, 0], [0, 2]])
        small = InvariantLattice.from_rows(2, [[2, 0], [0, 2]])
        with pytest.raises(ValueError):
            factor_group(big, small)


def reduce_oracle(ring, f):
    """QuotientRing.reduce as it was written, one term at a time, kept as its
    oracle."""
    out = {}
    for e, c in f.terms.items():
        cls = ring.grading.of_exponent(e)
        v = out.get(cls, 0) + c
        if ring.modulus:
            v %= ring.modulus
        if v:
            out[cls] = v
        else:
            out.pop(cls, None)
    return out


class TestQuotientReduction:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reduce_matches_term_loop(self, data):
        # over Z and over Z/k, into rings of modulus 0 and 2..16; exponents up
        # to 2^30 also take the classifier's unpacking path
        rank = data.draw(st.integers(1, 3))
        congs = data.draw(st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                      st.integers(2, 6)), min_size=1, max_size=rank + 1))
        ring = QuotientRing(rank, congs, data.draw(st.sampled_from([0, *range(2, 17)])))
        exp = st.one_of(st.integers(-4, 4), st.sampled_from([-2 ** 30, 2 ** 30 - 1, 99991]))
        terms = data.draw(st.dictionaries(st.tuples(*[exp] * rank), st.integers(-40, 40),
                                          max_size=12))
        f = LaurentPoly(rank, data.draw(st.sampled_from([0, *range(2, 17)])), terms)
        assert ring.reduce(f) == reduce_oracle(ring, f)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pgo8_z16_constant_matches_quotient_ring(self, data):
        # the check reads the (Z/16)[Lambda/T*] image off the graded components
        # of x = sum f_i rho_i; a QuotientRing with the model's grading is its oracle
        md = pgo8_model()
        ring = QuotientRing(4, md.congruences, 16)
        assert ring.grading.images == md.grading.images
        scale = data.draw(st.sampled_from([1, 16]))
        exps = st.tuples(*[st.integers(-1, 1)] * 4)
        f = tuple(LaurentPoly(4, 0, data.draw(st.dictionaries(exps, st.integers(-20, 20),
                                                              max_size=3))).scale(scale)
                  for _ in range(4))
        img = reduce_oracle(ring, dot(f, fundamental_orbit_sums(md)))
        assert pgo8_parity_check(f)["z16_constant"] == (set(img) <= {zero_class(ring)})

    def test_pgo8_report_has_exactly_three_keys(self):
        # x = e^{omega_2} rho_1 is outside Z[T*], f_1 has odd augmentation and
        # x is not constant mod 16; 2 rho_3 is constant mod 16 but not in Z[T*]
        zero = LaurentPoly.zero(4, 0)
        rep = pgo8_parity_check((LaurentPoly.monomial(4, (0, 1, 0, 0)), zero, zero, zero))
        assert list(rep) == ["in_tstar", "parities_even", "z16_constant"]
        assert rep == {"in_tstar": False, "parities_even": (False, True, True),
                       "z16_constant": False}
        rep = pgo8_parity_check((zero, zero, LaurentPoly.const(4, 2, 0), zero))
        assert rep == {"in_tstar": False, "parities_even": (True, True, True),
                       "z16_constant": True}
        # a ring holds its modulus and grading, no second name for the rank
        ring = QuotientRing(4, pgo8_model().congruences, 16)
        assert not hasattr(ring, "rank") and len(ring.grading.images) == 4

    def test_constants(self):
        f = LaurentPoly.const(2, 5, 0)
        img, ring = quotient_reduction(f, [([1, 0], 2), ([0, 1], 2)], 3)
        assert img == {zero_class(ring): 2}

    def test_ring_homomorphism(self):
        rng = random.Random(31)
        ring = QuotientRing(2, [([1, 1], 2), ([1, 0], 4)], 8)
        for _ in range(20):
            a = LaurentPoly(2, 0, {tuple(rng.randint(-3, 3) for _ in range(2)):
                                   rng.randint(-4, 4) for _ in range(3)})
            b = LaurentPoly(2, 0, {tuple(rng.randint(-3, 3) for _ in range(2)):
                                   rng.randint(-4, 4) for _ in range(3)})
            assert ring.reduce(a * b) == quotient_mul(ring, ring.reduce(a), ring.reduce(b))

    def test_infinite_index_is_rejected(self):
        with pytest.raises(ValueError, match="sublattice is not of finite index"):
            QuotientRing(2, [([1, -1], 0)], 3)

    def test_sp_quotient_algebra(self):
        md = model(SimpleFactor("C", 3))
        cong = [(list(v), m) for v, m in md._residue[0]]
        ring = QuotientRing(3, cong, 0)
        cls1 = ring.grading.of_exponent((1, 0, 0))
        for i in range(3):
            rho_b = orbit_poly(md, fundamental_weight(md, 0, i), augmented=True)
            img = ring.reduce(rho_b)
            w = orbit_size(md, fundamental_weight(md, 0, i))
            if i % 2 == 0:
                assert img == {cls1: w, zero_class(ring): -w}
            else:
                assert img == {}


class TestPipeline:
    def test_inclusion_chain(self):
        for md in [model(fac_c(2), fac_c(2), kernel=[(1, 1)]),
                   model(SimpleFactor("B", 2), SimpleFactor("B", 3), kernel=[(1, 1)]),
                   model(SimpleFactor("A", 3), SimpleFactor("A", 3), kernel=[(2, 2)])]:
            rep = invariants_of(md)
            assert rep.Q.includes(rep.Sdec)
            assert rep.Sdec.includes(rep.Dec)

    def test_sp4xsp4_report(self):
        rep = invariants_of(model(fac_c(2), fac_c(2), kernel=[(1, 1)]))
        assert rep.inv_ind.invariant_factors == (2,)
        assert rep.inv_sd.invariant_factors == (2,)


def _assert_refused(text, message, capsys):
    """invariants_of raises AssertionError(message) on the spec, and
    `weylinv invariants` exits 2 with it on stderr and no traceback."""
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        invariants_of(compile_spec(parse_spec(text)))
    assert main(["invariants", "--spec", text]) == 2
    assert capsys.readouterr() == ("", f"verification failure: {message}\n")


def _assert_smith_forms(rep):
    """The report's inclusions hold and its factor groups are the Smith forms."""
    assert rep.Q.includes(rep.Sdec) and rep.Sdec.includes(rep.Dec)
    assert rep.inv_ind == factor_group(rep.Dec, rep.Q)
    assert rep.inv_sd == factor_group(rep.Dec, rep.Sdec)


class TestPipelineChecks:
    # Q = [[1, 7], [0, 8]] > Sdec = [[2, 6], [0, 8]] > Dec = [[4, 4], [0, 8]]
    STRICT = "(Spin(10) x Spin(10)) / mu(4)"

    # Sdec/Dec with its own Smith form, Sdec = Q, Sdec = Dec; Q is never Z^2
    @pytest.mark.parametrize("text", [STRICT, "(SL(4) x SL(4)) / mu(2)",
                                      "(Spin(5) x Spin(7)) / mu(2)"])
    def test_a_dec_outside_q_is_refused(self, text, monkeypatch, capsys):
        outside = InvariantLattice.from_rows(2, [[1, 0], [0, 1]])
        monkeypatch.setattr(invariants, "compute_Dec", lambda model: outside)
        _assert_refused(text, "Dec is not contained in Q", capsys)

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 1]],    # outside Q
                                      [[8, 8], [0, 16]]])  # inside Q, missing Dec
    def test_an_sdec_off_the_chain_is_refused(self, rows, monkeypatch, capsys):
        bad = InvariantLattice.from_rows(2, rows)
        monkeypatch.setattr(invariants, "compute_Sdec", lambda model, dec=None, q=None: bad)
        _assert_refused(self.STRICT, "inclusion chain Dec <= Sdec <= Q violated", capsys)

    def test_golden_factor_groups_are_the_smith_forms(self):
        # equal canonical rows stand in for Sdec/Dec's Smith form; every
        # branch is taken on the golden specs
        branches = set()
        for text in golden_specs():
            rep = invariants_of(compile_spec(parse_spec(text)))
            _assert_smith_forms(rep)
            branches.add("Dec" if rep.Sdec.rows == rep.Dec.rows else
                         "Q" if rep.Sdec.rows == rep.Q.rows else "own")
        assert branches == {"Dec", "Q", "own"}

    @settings(max_examples=100, deadline=None)
    @given(random_products())
    def test_random_factor_groups_are_the_smith_forms(self, spec):
        _assert_smith_forms(invariants_of(compile_spec(spec)))
