import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from weylinv.cli import parse_spec
from weylinv.intlinalg import congruence_kernel, det_int
from weylinv.invariants import QuotientRing, pgo8_lambda_prime, pgo8_model
from weylinv.laurent import LaurentPoly, augmentation
from weylinv import intlinalg, rootdata, spec as spec_module
from weylinv.rootdata import (
    GroupSpec,
    LatticeModel,
    SimpleFactor,
    center_group,
    compile_spec,
    congruence_grading,
    factor_orbit_sums,
    fundamental_orbit_sizes,
    fundamental_orbit_sums,
    killing_coeffs,
    killing_gram,
    orbit_poly,
    orbit_size,
    parabolic_order,
    residue_functionals,
    stabilizer_order,
    weyl_orbit,
    weyl_order,
)

from _helpers import (
    center_residues, dense_rows, entry_tuple, fundamental_weight, golden_specs, in_tstar, killing_value, lattice_grading,
    model, oracle_factors, oracle_specs, parabolic_order_oracle, per_column_grading,
    reflect_local, residue_allowed, standard_e_basis,
    table_cartan_rows, table_center_group, table_diag_entry, table_killing_coeffs,
    table_killing_gram, table_weyl_order, tstar_basis,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestClosedFormTables:
    """The data derived from the Dynkin diagram and the residue forms equal
    the hand-written per-type tables they replaced (tests/_helpers.py)."""

    @pytest.mark.parametrize("f", oracle_factors(), ids=str)
    def test_derived_data_equal_the_tables(self, f):
        # the edge list reaches the diagram from node 0, one new node per
        # edge, as the tree's one pass for the symmetrizer reads it; the tree
        # expanded (c_ii = 2 and the entries over each node's neighbours) and
        # K's sparse rows
        kind, n = f
        reached = [0]
        for a, b in rootdata.diagram_edges(kind, n):
            assert a in reached and b not in reached, (a, b)
            reached.append(b)
        assert sorted(reached) == list(range(n))
        tree = rootdata._type_tuples(kind, n)[0]
        assert dense_rows([(2, row) for _, row in tree]) == table_cartan_rows(kind, n)
        assert dense_rows(killing_gram(kind, n)) == table_killing_gram(kind, n)
        assert killing_coeffs(kind, n) == table_killing_coeffs(kind, n)
        assert center_group(kind, n) == table_center_group(kind, n)
        assert weyl_order(kind, n) == table_weyl_order(kind, n)

    @pytest.mark.parametrize("f", oracle_factors(), ids=str)
    def test_diagonal_entries_equal_the_table(self, f):
        for k in range(2, 21):
            assert _outcome(spec_module._diag_entry, f, k) == _outcome(table_diag_entry, f, k), k


@st.composite
def congruence_systems(draw):
    """(n, congruences) on Z^n, n in 1..6: one to three rows with moduli
    2..12, plus at most one vacuous modulus-1 row and one vacuous modulus-0
    row (a zero vector), in any order."""
    n = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(vec, st.integers(2, 12)), min_size=1, max_size=3))
    rows += draw(st.lists(st.tuples(vec, st.just(1)), max_size=1))
    rows += draw(st.lists(st.just(([0] * n, 0)), max_size=1))
    return n, draw(st.permutations(rows))


@st.composite
def column_systems(draw):
    """(n, congruences) on Z^n, n in 1..8, with k <= 3 rows of moduli 0-12
    whose columns repeat and vanish: each column is one of at most three
    drawn columns or the zero column."""
    k = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    col = st.tuples(*[st.integers(-12, 12)] * k)
    pool = draw(st.lists(col, min_size=1, max_size=3)) + [(0,) * k]
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return len(cols), [([c[i] for c in cols], m) for i, m in enumerate(moduli)]


def _moduli_images(grading_of, congs, n):
    g = grading_of(congs, n)
    return g.moduli, g.images


class TestCongruenceGrading:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(column_systems())
    def test_distinct_columns_match_the_per_column_oracle(self, system):
        n, congs = system
        assert _outcome(_moduli_images, congruence_grading, congs, n) == \
            _outcome(_moduli_images, per_column_grading, congs, n)

    def test_every_golden_model_matches_the_per_column_oracle(self):
        for text in golden_specs():
            md = compile_spec(parse_spec(text))
            old = per_column_grading(md.congruences, md.total_rank)
            assert (md.grading.moduli, md.grading.images) == (old.moduli, old.images), text

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(column_systems(), st.sampled_from([0, 2, 4, 16]))
    def test_quotient_rings_match_the_per_column_oracle(self, system, modulus):
        n, congs = system
        ring_grading = lambda congs, n: QuotientRing(n, congs, modulus).grading
        assert _outcome(_moduli_images, ring_grading, congs, n) == \
            _outcome(_moduli_images, per_column_grading, congs, n)

    def test_the_adjoint_d4_gradings_match_the_per_column_oracle(self):
        md = pgo8_model()
        for congs in (pgo8_lambda_prime(), md.congruences):
            old = per_column_grading(congs, 4)
            ring = QuotientRing(4, congs, 16)
            assert (ring.grading.moduli, ring.grading.images) == (old.moduli, old.images)
        assert (md.grading.moduli, md.grading.images) == (old.moduli, old.images)

    @settings(max_examples=200, deadline=None)
    @given(congruence_systems(), st.lists(st.lists(st.integers(-30, 30), min_size=6,
                                                   max_size=6), max_size=20))
    def test_matches_the_smith_form_oracle(self, system, vectors):
        n, congs = system
        basis = congruence_kernel(congs, n)
        old, new = lattice_grading(basis), congruence_grading(congs, n)
        assert new.moduli == old.moduli
        assert math.prod(new.moduli) == abs(det_int(basis))
        # class 0 iff every congruence holds: the basis of the kernel is in
        # class 0, and so is nothing else
        for a in [*basis, *(v[:n] for v in vectors)]:
            dots = [(sum(map(mul, v, a)), m) for v, m in congs]
            holds = all((s % m if m else s) == 0 for s, m in dots)
            assert (new.of_exponent(a) == new.zero) == holds
        # psi(new class of e_j) = old class of e_j extends to a group isomorphism
        psi = {new.zero: old.zero}
        queue = [new.zero]
        for c in queue:
            for a, b in zip(new.images, old.images):
                c2, o2 = new.add(c, a), old.add(psi[c], b)
                if c2 in psi:
                    assert psi[c2] == o2
                else:
                    psi[c2] = o2
                    queue.append(c2)
        assert len(psi) == len(set(psi.values())) == math.prod(new.moduli)

    def test_infinite_index_is_rejected(self):
        with pytest.raises(ValueError, match="sublattice is not of finite index"):
            congruence_grading([([1, 1], 0)], 2)
        assert congruence_grading([([0, 0], 0)], 2).moduli == ()
        assert congruence_grading([], 3).images == ((), (), ())

    @pytest.mark.parametrize("congs,n", [
        ([([1, 2, 3], 4)], 3), ([([1, 2, 3, 0], 4), ([0, 1, 1, 1], 2)], 4),
        ([([2, 0, 1], 6), ([0, 3, 3], 9)], 3)])
    def test_a_basis_that_misses_a_generator_raises(self, monkeypatch, congs, n):
        # every column of C and M lies in S: one its HNF basis cannot solve is
        # an internal error, not a grading
        real = rootdata.hnf
        monkeypatch.setattr(rootdata, "hnf", lambda rows: real(rows)[:-1])
        with pytest.raises(AssertionError, match="is not in the span of its HNF basis"):
            congruence_grading(congs, n)


class TestCompile:
    def test_equal_specs_share_one_model(self):
        text = "(SL(2) x Sp(4)) / mu(2)"
        assert compile_spec(parse_spec(text)) is compile_spec(parse_spec(text))
        tupled = GroupSpec((SimpleFactor("A", 1),) * 2, ((1, 1),))
        listed = GroupSpec([SimpleFactor("A", 1)] * 2, [(1, 1)])
        assert compile_spec(listed) is compile_spec(tupled)
        m, fresh = compile_spec(listed), LatticeModel(listed)
        assert m is not fresh
        assert tstar_basis(m) == tstar_basis(fresh) == ((1, 1), (0, 2))
        assert m.grading.moduli == fresh.grading.moduli == (2,)
        assert m.grading.images == fresh.grading.images == ((1,), (1,))

    def test_the_kernel_is_eliminated_once(self, monkeypatch):
        # GroupSpec reads the kernel as its subgroup; the model reads those
        # rows with no elimination over the centre's 3 columns, only the
        # grading's over the k = 1 congruence, and compile_spec finds a
        # compiled spec's model with no elimination at all
        spec = parse_spec("(SL(4) x Spin(10) x SL(2)) / mu(2)")
        widths = []

        def echelon(m, ncols):
            widths.append(ncols)
            return eliminate(m, ncols)

        eliminate = intlinalg._echelon
        monkeypatch.setattr(intlinalg, "_echelon", echelon)
        md = LatticeModel(spec)
        assert len(md.congruences) == 1 and widths and set(widths) == {1}
        compiled = compile_spec(spec)
        widths.clear()
        assert compile_spec(parse_spec("(SL(4) x Spin(10) x SL(2)) / mu(2)")) is compiled
        assert widths == [3]   # the parse's, over the centre's columns
        widths.clear()
        assert compile_spec(spec) is compiled
        assert widths == []

    def test_invalid_specs_are_rejected_as_before(self):
        # GroupSpec checks every entry's shape as it reads the kernel
        d4 = (SimpleFactor("D", 4),)
        with pytest.raises(ValueError, match=r"kernel entry \[1, 0\] must be a 2-tuple"):
            compile_spec(GroupSpec(d4, [[[1, 0]]]))
        assert compile_spec(GroupSpec(d4, [[(1, 0)]])).grading.moduli == (2,)
        with pytest.raises(ValueError, match="kernel tuple length"):
            compile_spec(GroupSpec(d4, [(0, 1)]))

    @pytest.mark.parametrize("factors, kernel, message", [
        (("A1",), (((1,),),), r"kernel entry \(1,\) must be an int"),
        (("D4",), (((1, 0, 0),),), r"kernel entry \(1, 0, 0\) must be a 2-tuple"),
        (("A1", "D4"), ((1, (1, 0)), (1, 1)), "kernel entry 1 must be a 2-tuple"),
        (("A1", "D4"), ((1, (1, 0)), (1,)), "kernel tuple length != number of factors"),
    ])
    def test_entry_shapes_are_checked_before_the_hnf(self, factors, kernel, message, monkeypatch):
        # every generator, the last one too, is checked before any elimination
        def no_hnf(rows):
            raise AssertionError("hnf ran before the shape checks")

        monkeypatch.setattr(rootdata, "hnf", no_hnf)
        with pytest.raises(ValueError, match=message):
            GroupSpec(tuple(SimpleFactor(f[0], int(f[1])) for f in factors), kernel)

    def test_simply_connected_trivial(self):
        m = model(SimpleFactor("C", 2))
        assert m.congruences == ()
        assert math.prod(m.grading.moduli) == 1
        assert m.grading.moduli == ()

    def test_type_a_congruence(self):
        # (SL4 x SL4)/mu2 diagonal: sum i*a_i + sum i*a'_i = 0 mod 2
        m = model(SimpleFactor("A", 3), SimpleFactor("A", 3), kernel=[(2, 2)])
        assert math.prod(m.grading.moduli) == 2
        for i, expected in [(0, 1), (1, 0), (2, 1)]:
            w = fundamental_weight(m, 0, i)
            assert m.grade_of_weight(w) == (expected % 2,)

    def test_type_b_congruence(self):
        # (Spin5 x Spin7)/mu2: a_m = a'_n mod 2, i.e. only spinor weights odd
        m = model(SimpleFactor("B", 2), SimpleFactor("B", 3), kernel=[(1, 1)])
        assert m.grading.images == ((0,), (1,), (0,), (0,), (1,))
        assert in_tstar(m, (0, 1, 0, 0, 1))
        assert not in_tstar(m, (0, 1, 0, 0, 0))

    def test_type_d_mu4(self):
        # Spin10 x Spin10 / mu4: index 4
        m = model(SimpleFactor("D", 5), SimpleFactor("D", 5), kernel=[(1, 1)])
        assert math.prod(m.grading.moduli) == 4
        assert m.grading.moduli == (4,)

    def test_pgo8_grading(self):
        m = model(SimpleFactor("D", 4), kernel=[((1, 0),), ((0, 1),)])
        assert math.prod(m.grading.moduli) == 4
        assert sorted(m.grading.moduli) == [2, 2]
        # T* = integer coordinates with even sum: w2 = e1+e2 is in T*
        assert in_tstar(m, (0, 1, 0, 0))
        assert not in_tstar(m, (1, 0, 0, 0))

    def test_residues_vanish_on_roots(self):
        for kind, rank in [("A", 4), ("B", 3), ("C", 4), ("D", 4), ("D", 5),
                           ("E6", 6), ("E7", 7)]:
            m = model(SimpleFactor(kind, rank))
            rows = table_cartan_rows(kind, rank)
            for alpha in rows:
                res = center_residues(m, tuple(alpha))
                assert all(x == 0 for x in res[0]), (kind, rank, alpha, res)

    def test_bad_kernel(self):
        with pytest.raises(ValueError):
            model(SimpleFactor("A", 2), kernel=[(1, 1)])

    @pytest.mark.parametrize("text", oracle_specs())
    def test_tstar_index_is_the_determinant(self, text):
        m = compile_spec(parse_spec(text))
        assert math.prod(m.grading.moduli) == abs(det_int(tstar_basis(m)))
        # the grading has the Smith-form oracle's moduli and kills T*, so its
        # kernel, of index |Lambda/T*|, is T*
        assert m.grading.moduli == lattice_grading(tstar_basis(m)).moduli
        assert all(m.grade_of_weight(r) == m.grading.zero for r in tstar_basis(m))

    @pytest.mark.parametrize("text", [
        "(SL(4) x SL(6) x SL(2)) / mu(2)", "(Spin(10) x Spin(12)) / mu(2)",
        "(E6 x E6) / mu(3)[1,2]", "PGL(3) x PGL(3)", "(SL(4) x Spin(10)) / mu(4)",
        "(SL(4) x SL(8)) / mu(4)", "PGO(8)", "(Spin(8) x E7 x Sp(4)) / mu(2)"])
    def test_residue_allowed_matches_fraction_sum(self, text):
        # a class tuple is allowed iff sum x * r / m is an integer for every
        # kernel generator, over its entries x, the classes r and moduli m
        m = compile_spec(parse_spec(text))
        funcs = [residue_functionals(f.kind, f.rank) for f in m.factors]
        classes = [list(itertools.product(*(range(mod) for _, mod in fs))) for fs in funcs]
        for residues in itertools.product(*classes):
            expect = all(
                sum(Fraction(x * r, mod)
                    for fi, (t, fs) in enumerate(zip(gen, funcs))
                    for x, r, (_, mod) in zip(entry_tuple(m, t, fi), residues[fi], fs)
                    ).denominator == 1
                for gen in m.spec.center_kernel)
            assert residue_allowed(m, residues) == expect, residues


class TestOrbits:
    def test_origin(self):
        m = model(SimpleFactor("C", 2))
        assert weyl_orbit(m, (0, 0)) == {(0, 0)}

    def test_c2_short_orbit(self):
        m = model(SimpleFactor("C", 2))
        orb = weyl_orbit(m, (1, 0))
        assert len(orb) == 4

    def test_orbit_size_formulas(self):
        for n in (2, 3, 4, 5):
            m = model(SimpleFactor("C", n))
            for i in range(n):
                w = fundamental_weight(m, 0, i)
                assert orbit_size(m, w) == 2 ** (i + 1) * math.comb(n, i + 1)
        for n in (1, 2, 3, 4):
            m = model(SimpleFactor("A", n))
            assert orbit_size(m, fundamental_weight(m, 0, 0)) == n + 1
        m = model(SimpleFactor("D", 4))
        assert orbit_size(m, fundamental_weight(m, 0, 0)) == 8
        m = model(SimpleFactor("E7", 7))
        assert orbit_size(m, fundamental_weight(m, 0, 6)) == 56
        assert orbit_size(m, fundamental_weight(m, 0, 0)) == 126
        m = model(SimpleFactor("E6", 6))
        assert orbit_size(m, fundamental_weight(m, 0, 0)) == 27

    def test_enumeration_matches_parabolic_formula(self):
        rng = random.Random(6)
        for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E6", 6)]:
            m = model(SimpleFactor(kind, rank))
            for _ in range(6):
                w = tuple(rng.randint(0, 2) for _ in range(rank))
                assert len(m.orbit_local(0, w)) == m.orbit_size_local(0, w)

    def test_e7_interior_orbit(self):
        m = model(SimpleFactor("E7", 7))
        w = fundamental_weight(m, 0, 3)
        assert len(weyl_orbit(m, w)) == orbit_size(m, w) == 10080

    def test_parabolic_order_full(self):
        # parabolic_order and weyl_order both read stabilizer_order of the
        # empty support, so this checks only that they agree;
        # TestClosedFormTables checks the orders against the closed formulas
        assert parabolic_order("E7", 7, frozenset(range(7))) == weyl_order("E7", 7)
        assert parabolic_order("B", 4, frozenset(range(4))) == weyl_order("B", 4)
        assert parabolic_order("D", 5, frozenset(range(5))) == weyl_order("D", 5)

    @pytest.mark.parametrize("kind, rank", [
        (k, r) for k, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for r in range(lo, 8)]
        + [("E6", 6), ("E7", 7)])
    def test_parabolic_order_matches_the_edge_scan(self, kind, rank):
        # every zero set: the runs of stabilizer_order against the components
        # found over every diagram edge, named by the closed forms
        for k in range(rank + 1):
            for zeros in itertools.combinations(range(rank), k):
                want = parabolic_order_oracle(kind, rank, frozenset(zeros))
                assert parabolic_order(kind, rank, frozenset(zeros)) == want
                support = [i for i in range(rank) if i not in zeros]
                assert stabilizer_order(kind, rank, support) == want, support

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from("ABCD"), st.integers(40, 200), st.floats(0, 1), st.randoms())
    def test_parabolic_order_at_large_rank(self, kind, rank, density, rng):
        zeros = frozenset(i for i in range(rank) if rng.random() < density)
        want = parabolic_order_oracle(kind, rank, zeros)
        assert parabolic_order(kind, rank, zeros) == want
        assert stabilizer_order(kind, rank, sorted(set(range(rank)) - zeros)) == want

    @pytest.mark.parametrize("kind, rank", [("A", r) for r in range(1, 7)]
                             + [(k, r) for k in "BC" for r in range(2, 6)]
                             + [("D", r) for r in range(4, 7)] + [("E6", 6), ("E7", 7)])
    def test_orbit_local_lists_the_dense_closure(self, kind, rank):
        # each fundamental orbit, from the dominant point and from its least
        # point, against its closure under every simple reflection of the
        # table's dense Cartan rows
        m = model(SimpleFactor(kind, rank))
        rows = table_cartan_rows(kind, rank)
        for j in range(rank):
            start = tuple(int(i == j) for i in range(rank))
            seen, todo = {start}, [start]
            while todo:
                w = todo.pop()
                for a_i, row in zip(w, rows):
                    v = tuple(a - a_i * r for a, r in zip(w, row))
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            assert m.orbit_local(0, start) == m.orbit_local(0, min(seen)) == seen, j

    @pytest.mark.parametrize("kind, rank", [
        (k, r) for k, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
        for r in [*range(lo, 13), 200, 1000]] + [("E6", 6), ("E7", 7)])
    def test_fundamental_orbit_sizes_are_the_stabilizer_quotients(self, kind, rank):
        worder = weyl_order(kind, rank)
        assert fundamental_orbit_sizes(kind, rank) == tuple(
            worder // stabilizer_order(kind, rank, [j]) for j in range(rank))

    def test_product_orbit(self):
        m = model(SimpleFactor("A", 1), SimpleFactor("A", 1))
        orb = weyl_orbit(m, (1, 1))
        assert orb == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


class TestOrbitPoly:
    def test_augmented_zero(self):
        m = model(SimpleFactor("A", 1))
        assert orbit_poly(m, (0,), augmented=True).is_zero()

    def test_sl2(self):
        m = model(SimpleFactor("A", 1))
        assert orbit_poly(m, (1,)) == LaurentPoly(1, 0, {(1,): 1, (-1,): 1})

    def test_homogeneous(self):
        m = model(SimpleFactor("C", 2), kernel=[(1,)])
        p = orbit_poly(m, fundamental_weight(m, 0, 0))
        classes = {m.grade_of_weight(e) for e in p.terms}
        assert classes == {(1,)}

    def test_reflection_invariance(self):
        for kind, rank in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("E6", 6)]:
            m = model(SimpleFactor(kind, rank))
            for j in range(rank):
                p = orbit_poly(m, fundamental_weight(m, 0, j))
                for i in range(rank):
                    reflected = {reflect_local(m, 0, e, i) for e in p.terms}
                    assert reflected == set(p.terms)

    def test_augmentation_counts(self):
        m = model(SimpleFactor("B", 2))
        p = orbit_poly(m, fundamental_weight(m, 0, 1))
        assert augmentation(p) == 4
        assert augmentation(orbit_poly(m, fundamental_weight(m, 0, 1), augmented=True)) == 0


# every factor the orbit sums are cached for: A1-A8, B2-B6, C2-C6, D4-D7, E6, E7
ORBIT_FACTORS = ([SimpleFactor("A", r) for r in range(1, 9)]
                 + [SimpleFactor(k, r) for k in "BC" for r in range(2, 7)]
                 + [SimpleFactor("D", r) for r in range(4, 8)]
                 + [SimpleFactor("E6", 6), SimpleFactor("E7", 7)])


def _orbit_sum_models():
    """Each factor alone, then seeded products of two and three of them."""
    rng = random.Random(11)
    out = [(f,) for f in ORBIT_FACTORS]
    out += [tuple(rng.sample(ORBIT_FACTORS, 2)) for _ in range(8)]
    out += [tuple(rng.choice(ORBIT_FACTORS) for _ in range(3)) for _ in range(6)]
    return out


class TestFundamentalOrbitSums:
    @pytest.mark.parametrize("factors", _orbit_sum_models(),
                             ids=lambda fs: "x".join(map(str, fs)))
    def test_equal_orbit_poly(self, factors):
        m = model(*factors)
        want = tuple(orbit_poly(m, m._basis_vec(i), augmented=True)
                     for i in range(m.total_rank))
        assert fundamental_orbit_sums(m) == want

    def test_quotients_share_the_factor_sums(self):
        m = compile_spec(parse_spec("(SL(4) x Sp(6)) / mu(2)"))
        assert fundamental_orbit_sums(m) == tuple(
            orbit_poly(m, m._basis_vec(i), augmented=True) for i in range(m.total_rank))
        assert factor_orbit_sums("A", 3) is factor_orbit_sums("A", 3)


class TestGradingWeights:
    def test_additivity(self):
        rng = random.Random(8)
        m = model(SimpleFactor("A", 3), SimpleFactor("A", 3), kernel=[(2, 2)])
        for _ in range(30):
            a = tuple(rng.randint(-3, 3) for _ in range(6))
            b = tuple(rng.randint(-3, 3) for _ in range(6))
            ab = tuple(x + y for x, y in zip(a, b))
            assert m.grade_of_weight(ab) == m.grading.add(
                m.grade_of_weight(a), m.grade_of_weight(b))


class TestKillingForms:
    @staticmethod
    def _reflect_symbols(q, rows, k):
        """Substitute w_k -> w_k - alpha_k in a quadratic symbol table."""
        rank = len(rows)
        sub = {i: {i: 1} for i in range(rank)}
        sub[k] = {j: -rows[k][j] for j in range(rank) if rows[k][j]}
        sub[k][k] = sub[k].get(k, 0) + 1
        out = {}
        for (i, j), c in q.items():
            for a, ca in sub[i].items():
                for b, cb in sub[j].items():
                    key = (min(a, b), max(a, b))
                    out[key] = out.get(key, 0) + c * ca * cb
        return {key: v for key, v in out.items() if v}

    def test_w_invariance(self):
        # invariance in S^2 of the weight symbols, under every simple reflection
        for kind, rank in [("A", 3), ("B", 2), ("B", 4), ("C", 2), ("C", 4),
                           ("D", 4), ("D", 5), ("E6", 6), ("E7", 7)]:
            q = killing_coeffs(kind, rank)
            rows = table_cartan_rows(kind, rank)
            for k in range(rank):
                assert self._reflect_symbols(q, rows, k) == q, (kind, rank, k)

    def test_standard_coordinate_expressions(self):
        # the fw-symbol tables expand from sum e_i^2 (C) and (sum e_i^2)/2 (B, D)
        for kind, rank in [("B", 2), ("B", 4), ("C", 2), ("C", 5),
                           ("D", 4), ("D", 5)]:
            rows = standard_e_basis(kind, rank)
            acc = {}
            for r in rows:
                for i in range(rank):
                    for j in range(i, rank):
                        c = r[i] * r[j] * (1 if i == j else 2)
                        if c:
                            acc[(i, j)] = acc.get((i, j), 0) + Fraction(c)
            scale = Fraction(1) if kind == "C" else Fraction(1, 2)
            acc = {k: v * scale for k, v in acc.items() if v}
            assert {k: Fraction(v) for k, v in killing_coeffs(kind, rank).items()} == acc

    def test_gram_matrix(self):
        # q(x) = x^T K x / 2: K is symmetric with 2c on the diagonal, c off it
        rng = random.Random(5)
        for kind, rank in [("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 5),
                           ("E6", 6), ("E7", 7)]:
            k, q = dense_rows(killing_gram(kind, rank)), killing_coeffs(kind, rank)
            assert all(k[i][j] == k[j][i] for i in range(rank) for j in range(rank))
            for _ in range(5):
                x = [rng.randint(-3, 3) for _ in range(rank)]
                assert sum(x[i] * k[i][j] * x[j] for i in range(rank) for j in range(rank)) \
                    == 2 * sum(c * x[i] * x[j] for (i, j), c in q.items())

    def test_values(self):
        # type C: q(e1) = 1
        assert killing_value("C", 3, (1, 0, 0)) == 1
        # type B: q = (sum e_i^2)/2, so q(e1) = 1/2 and q(spinor) = m/8
        assert killing_value("B", 3, (1, 0, 0)) == Fraction(1, 2)
        assert killing_value("B", 3, (0, 0, 1)) == Fraction(3, 8)
        # type D: q(e1 + e2) = 1
        assert killing_value("D", 4, (0, 1, 0, 0)) == 1
