import dataclasses
import hashlib
import json
import math
import random
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weylinv import syzygy as syzygy_module
from weylinv.fuzz import random_cert, random_flat_tuple
from weylinv.laurent import (
    LaurentPoly, dot, from_text, homogeneous_component, reduce_coefficients, to_text,
)
from weylinv.rootdata import GroupSpec, SimpleFactor, compile_spec, orbit_poly, orbit_size
from weylinv.spec import parse_spec
from weylinv.syzygy import (
    FlatnessError,
    NotASyzygyError,
    SyzygyCertificate,
    TransformMatrix,
    block_inverse_mod,
    check_flatness,
    is_unit_monomial,
    lift_syzygy,
    mat_det,
    mat_inverse_unit,
    mat_mul,
    modular_transform,
    model_transform,
    newton_transform,
    normalize_coefficients,
    reduction_data,
    trivialize_generalized,
    trivialize_syzygy,
    vec_mat,
)

from _helpers import (
    P, _bench_inputs, degree_one_gcd, full_normalized, fundamental_weight, golden_reduce_inputs,
    is_empty, wrong_degree_mod,
)


class TestFlatness:
    def test_examples(self):
        t = (P(2, {(1, 0): 1, (0, 0): -1}), P(2, {(1, 1): 1, (0, 0): 1}))
        assert check_flatness(t)[0]
        t = (P(2, {(0, 1): 1, (0, 0): -1}), P(2, {(1, 0): 1, (0, 0): 1}))
        ok, notes = check_flatness(t)
        assert not ok and "higher axes" in notes[0]

    def test_monomial_normalization_allowed(self):
        # entry 0 carries a unit monomial x2^3: wdeg on axis 1 is still zero
        t = (P(2, {(1, 3): 1, (0, 3): -1}), P(2, {(1, 1): 1, (0, 0): 1}))
        assert check_flatness(t)[0]

    def test_newton_tuples_are_flat(self):
        for n in (2, 3, 4):
            flat, _, _ = newton_transform("C", n)
            assert check_flatness(flat)[0]


class TestTrivialize:
    def test_zero_syzygy(self):
        t = random_flat_tuple(random.Random(0), 3, 0)
        z = tuple(P(3, {}) for _ in range(3))
        assert is_empty(trivialize_syzygy(t, z))

    def test_generator_round_trip(self):
        t = random_flat_tuple(random.Random(1), 3, 0)
        cert_in = SyzygyCertificate(3, 3, 0, {(0, 1): P(3, {(0, 0, 0): 1})})
        f = cert_in.expand(t)
        cert = trivialize_syzygy(t, f)
        assert cert.expand(t) == f

    @pytest.mark.parametrize("modulus", [0, 2, 4, 6])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_random_round_trips(self, modulus, rank):
        rng = random.Random(1000 * rank + modulus)
        for _ in range(10):
            t = random_flat_tuple(rng, rank, modulus)
            f = random_cert(rng, rank, modulus).expand(t)
            cert = trivialize_syzygy(t, f)
            assert cert.expand(t) == f

    def test_monomial_scaled_tuple(self):
        rng = random.Random(77)
        base = random_flat_tuple(rng, 3, 0)
        t = (base[0].mul_monomial((0, 2, -1)), base[1].mul_monomial((0, 0, 3)), base[2])
        assert check_flatness(t)[0]
        f = random_cert(rng, 3, 0).expand(t)
        cert = trivialize_syzygy(t, f)
        assert cert.expand(t) == f

    def test_rejects_non_syzygy(self):
        t = random_flat_tuple(random.Random(5), 2, 0)
        with pytest.raises(NotASyzygyError):
            trivialize_syzygy(t, (P(2, {(0, 0): 1}), P(2, {})))

    def test_rejects_non_flat(self):
        t = (P(2, {(0, 1): 1, (0, 0): 1}), P(2, {(1, 1): 1, (0, 0): 1}))
        with pytest.raises(FlatnessError):
            trivialize_syzygy(t, (P(2, {}), P(2, {})))


class TestLift:
    def test_empty(self):
        t = random_flat_tuple(random.Random(2), 2, 6)
        cert = SyzygyCertificate(2, 2, 6, {})
        assert lift_syzygy(t, cert).entries == {}

    def test_constants(self):
        t = random_flat_tuple(random.Random(3), 2, 6)
        cert = SyzygyCertificate(2, 2, 6, {(0, 1): P(2, {(0, 0): 4}, modulus=6)})
        lifted = lift_syzygy(t, cert)
        assert lifted.entries[(0, 1)] == P(2, {(0, 0): 4})

    def test_round_trip(self):
        rng = random.Random(4)
        t0 = random_flat_tuple(rng, 3, 0)
        t6 = tuple(reduce_coefficients(p, 6) for p in t0)
        cert = trivialize_syzygy(t6, random_cert(rng, 3, 6).expand(t6))
        lifted = lift_syzygy(t6, cert)
        back = {k: reduce_coefficients(g, 6) for k, g in lifted.entries.items()}
        assert back == cert.entries


class TestNewtonTransform:
    @pytest.mark.parametrize("kind,lo", [("A", 1), ("C", 2)])
    def test_flat_and_unimodular(self, kind, lo):
        for n in range(lo, 6):
            flat, tr, rho = newton_transform(kind, n)
            ok, notes = check_flatness(flat)
            assert ok, notes
            assert is_unit_monomial(tr.det)

    def test_matches_orbit_polys(self):
        for kind, n in [("A", 2), ("A", 3), ("C", 2), ("C", 3)]:
            m = compile_spec(GroupSpec((SimpleFactor(kind, n),)))
            _, _, rho = newton_transform(kind, n)
            for i in range(n):
                assert rho[i] == orbit_poly(m, fundamental_weight(m, 0, i), augmented=True)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            newton_transform("C", 1)
        with pytest.raises(ValueError):
            newton_transform("B", 3)

    def test_generalized_trivialization(self):
        rng = random.Random(6)
        for kind, n in [("A", 2), ("C", 3)]:
            flat, tr, rho = newton_transform(kind, n)
            f = random_cert(rng, n, 0, density=0.7, nterms=1).expand(rho)
            cert = trivialize_generalized(rho, tr, f, mat_inverse_unit(tr.entries))
            assert cert.expand(rho) == f


# sha256 of each Newton transform as text (the flat tuple, the matrix entries
# row by row, the determinant), pinned from the per-map substitutions (tau,
# phi for type A, phi for type C) that _substitute replaced; A9 and C9 from
# the inversion of tau(A~) by back substitution that the closed form H replaced
PINNED_TRANSFORMS = {
    ("A", 1): "c885baa0d7d0c8b52bd45689c7612df73c57bd57bb78039ac265eceb2946beec",
    ("A", 2): "41b240fc9f8c2f11c8bee7ae646bd8c16c823f4e98e94d2e77d277687083e243",
    ("A", 3): "66d56aeae4b23a1c453b05af9f673e700e2a6750b467f47890aa1a08f6b3151b",
    ("A", 4): "ed2e5b220c26e23e7a1d886a806f432cb0a979d37ed37dfb4c25e2d5dacb4ef6",
    ("A", 5): "c16919aee2913a642cb3390b5314a52335b37cae69225dd3fcbbf3c97176c4d1",
    ("A", 6): "6eb9aa1ebd584263bbcd890389141aeab447155f3a8a02da77d35be83f7d6658",
    ("A", 7): "469ec329a0c0953dcbd3197dcd399290559966b8f046d474935a83a942040c12",
    ("A", 8): "f43d11653a99e2a1f299835e908c8aacf3cc794d61e7b4d4422991a28df40b4d",
    ("A", 9): "822ed09daf4ef0cf7893526601db45aec0b1812cc55ec3555aba72c65cdef98c",
    ("C", 2): "b42c90bde916cc8a5c2439b33cd0a5a5b5a2cf4a1fdecf859bf0fcbbb53d8eba",
    ("C", 3): "78e6918d33ed5d8740ac09d896dfec69cc8ecfb2c7bd62f579f87b0b3bb665d5",
    ("C", 4): "1844e30e27e0fa1525e5e139afc146fdd28c4740ab863acd5ee505a1c53de58c",
    ("C", 5): "673bf9a94d1a9ecc380937e0ef757e06c8c18e7c9c9d89b90153cd2717dd5bbd",
    ("C", 6): "1b7d55f31983f8067e450b55c18b6398ea9d67a8259e7d77c469b95ce67a1776",
    ("C", 7): "02fa74beb40fa5aee39b1c639ceac7f01bc0d47c795debe0df23b11136f85c78",
    ("C", 8): "d1adce94d6e3837bf9103e9e4faf55eeac783f4711c68a05344b53399853197c",
    ("C", 9): "4225ea294c46bf651e66ed1fc2a5239590523832d668ef925f01b794304fafb9",
}


@pytest.mark.parametrize("kind,n", sorted(PINNED_TRANSFORMS))
def test_pinned_newton_transform(kind, n):
    flat, tr, _ = newton_transform(kind, n)
    h = hashlib.sha256()
    for line in (*map(to_text, flat), *(" | ".join(map(to_text, row)) for row in tr.entries),
                 to_text(tr.det)):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == PINNED_TRANSFORMS[kind, n]


@pytest.mark.parametrize("nv", range(1, 11))
def test_newton_factor_inverse(nv):
    # A~[j][i] = (-1)^(j-1) sigma_{i-j}(y_1..y_{nv-j}) and its closed-form
    # inverse H[j][i] = (-1)^(j-1) h_{i-j}(y_1..y_{nv-i+1}), 1-based, i >= j
    sigma = lambda k, nvars: syzygy_module._monomial_sum(combinations, nv, k, nvars)
    h = lambda k, nvars: syzygy_module._monomial_sum(combinations_with_replacement, nv, k, nvars)
    zero = LaurentPoly.zero(nv)
    atil = [[(-1) ** j * sigma(i - j, nv - j - 1) if i >= j else zero for i in range(nv)]
            for j in range(nv)]
    inv = [[(-1) ** j * h(i - j, nv - i) if i >= j else zero for i in range(nv)]
           for j in range(nv)]
    ident = [[LaurentPoly.const(nv, int(i == j)) for j in range(nv)] for i in range(nv)]
    assert mat_mul(atil, inv) == ident
    assert mat_mul(inv, atil) == ident


def test_substitute():
    x = LaurentPoly.monomial(1, (1,))
    one = LaurentPoly.const(1, 1)
    # y1^2 y2 + 3 with y1 -> x + 1, y2 -> 2: zero exponents are skipped
    poly = LaurentPoly(2, 0, {(2, 1): 1, (0, 0): 3})
    assert syzygy_module._substitute(poly, [x + one, one.scale(2)]) == (x + one) ** 2 * 2 + one * 3
    with pytest.raises(ValueError):
        syzygy_module._substitute(LaurentPoly.monomial(2, (1, -1)), [x, x])


class TestTransformCaches:
    @pytest.mark.parametrize("kind,n", [("A", n) for n in range(1, 7)]
                             + [("C", n) for n in range(2, 6)])
    def test_cached_transform_matches_a_fresh_one(self, kind, n):
        assert newton_transform(kind, n) == newton_transform.__wrapped__(kind, n)
        assert newton_transform(kind, n) is newton_transform(kind, n)

    def test_rho_is_the_orbit_sums_of_the_factor(self, monkeypatch):
        for kind, n in [("A", 3), ("C", 3)]:
            m = compile_spec(GroupSpec((SimpleFactor(kind, n),)))
            assert newton_transform(kind, n)[2] == tuple(
                orbit_poly(m, m._basis_vec(i), augmented=True) for i in range(n))
        # the check runs on every fresh transform
        monkeypatch.setattr(syzygy_module, "factor_orbit_sums",
                            lambda kind, n: tuple(LaurentPoly.zero(n) for _ in range(n)))
        with pytest.raises(AssertionError, match="orbit sum"):
            newton_transform.__wrapped__("A", 2)

    def test_transform_matrix_is_frozen(self):
        _, tr, _ = newton_transform("C", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.det = tr.det
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.entries = ()

    def test_cached_polynomial_terms_are_read_only(self):
        _, tr, _ = newton_transform("A", 2)
        with pytest.raises(TypeError):
            tr.entries[0][0].terms[(7, 7)] = 1
        with pytest.raises(TypeError):
            del tr.entries[0][0].terms[next(iter(tr.entries[0][0].terms))]
        assert newton_transform("A", 2) == newton_transform.__wrapped__("A", 2)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("spec", ["(Sp(6) x Sp(6))/mu(2)", "(SL(2) x SL(4))/mu(2)",
                                      "(Sp(8) x Sp(6))/mu(2)", "(SL(2) x Sp(4))/mu(2)"])
    def test_blockwise_inverse_mod_d(self, spec, d):
        # repeated blocks, blocks of one type and two ranks, blocks of both types
        m = compile_spec(parse_spec(spec))
        n = m.total_rank
        flat, tr, _ = model_transform(m)
        rows = [list(r) for r in tr.reduce(d).entries]
        assert syzygy_module._block_diagonal(
            m, lambda kind, rank: block_inverse_mod(kind, rank, d)[0], d) == tr.reduce(d).entries
        # each block sits where it maps the model's own orbit sums to the flat tuple
        rho = [reduce_coefficients(orbit_poly(m, m._basis_vec(i), augmented=True), d)
               for i in range(n)]
        assert vec_mat(rho, rows) == [reduce_coefficients(p, d) for p in flat]
        inv = [list(r) for r in syzygy_module._block_diagonal(
            m, lambda kind, rank: block_inverse_mod(kind, rank, d)[1], d)]
        assert inv == mat_inverse_unit(rows)
        if d == reduction_data(m)[0].d:
            assert modular_transform(m)[1:3] == (tr.reduce(d).entries, tuple(map(tuple, inv)))
        one = LaurentPoly.const(n, 1, d)
        assert mat_mul(rows, inv) == [[one if i == j else one.scale(0) for j in range(n)]
                                      for i in range(n)]

    def test_block_inverse_is_the_reduced_block(self):
        a, inv = block_inverse_mod("C", 3, 4)
        assert a == newton_transform("C", 3)[1].reduce(4).entries
        assert inv == tuple(tuple(r) for r in mat_inverse_unit([list(r) for r in a]))


class TestNormalizeCoefficients:
    def _model(self):
        return compile_spec(GroupSpec(
            (SimpleFactor("C", 2), SimpleFactor("C", 2)), ((1, 1),)))

    def test_degree_one_gcd(self):
        m = self._model()
        sizes = [orbit_size(m, m._basis_vec(i))
                 for i in range(4) if m.grading.images[i] == (1,)]
        assert degree_one_gcd(m) == math.gcd(*sizes) == 4

    def test_zero_syzygy_branch(self):
        m = self._model()
        n = m.total_rank
        d = degree_one_gcd(m)
        # f_i already satisfying the conclusion: wrong-degree components
        # divisible by d, so the mod-d syzygy is zero and f is unchanged
        f = []
        for i in range(n):
            cls = m.grading.images[i]
            terms = {}
            for e in [(1, 0, 1, 0), (0, 1, 0, 0)]:
                if m.grade_of_weight(e) == cls:
                    terms[e] = 3 * d
            f.append(LaurentPoly(n, 0, terms))
        g = normalize_coefficients(m, tuple(f))
        assert g == tuple(f)

    def test_construction_round_trip(self):
        from weylinv.generators import build_generators, combination_to_tuple

        rng = random.Random(8)
        m = self._model()
        n = m.total_rank
        d = degree_one_gcd(m)
        _, _, rho = model_transform(m)
        gs = build_generators(m)
        labels = [name for name, _ in gs.labeled()]
        for _ in range(5):
            # f = (lift of a random mod-d trivial syzygy) + (generator combo)
            cert = random_cert(rng, n, d, density=0.5, nterms=1)
            lifted = {k: LaurentPoly(n, 0, dict(g.terms))
                      for k, g in cert.entries.items()}
            h = SyzygyCertificate(n, n, 0, lifted).expand(rho)
            combo_in = {}
            for name in labels:
                if rng.random() < 0.5:
                    combo_in[name] = LaurentPoly.const(n, rng.randint(-2, 2), 0)
            base = combination_to_tuple(gs, combo_in)
            f = tuple(b + hh for b, hh in zip(base, h))
            combo = LaurentPoly.zero(n, 0)
            for fi, ri in zip(f, rho):
                combo = combo + fi * ri
            g = normalize_coefficients(m, f)
            combo2 = LaurentPoly.zero(n, 0)
            for gi, ri in zip(g, rho):
                combo2 = combo2 + gi * ri
            assert combo2 == combo
            for i in range(n):
                want = ((1 - m.grading.images[i][0]) % 2,)
                comp = homogeneous_component(g[i], m.grading, want)
                assert reduce_coefficients(comp, d).is_zero()

    def test_refuses_other_types(self):
        m = compile_spec(GroupSpec(
            (SimpleFactor("B", 2), SimpleFactor("B", 2)), ((1, 1),)))
        f = tuple(LaurentPoly.zero(4, 0) for _ in range(4))
        with pytest.raises(FlatnessError):
            normalize_coefficients(m, f)

    def test_checks_its_input(self):
        m = self._model()
        n = m.total_rank
        zero = LaurentPoly.zero(n, 0)
        deg1 = next(i for i in range(n) if m.grading.images[i] == (1,))
        # 1 * rho_i of a degree-1 fundamental weight is a degree-1 combination
        f = tuple(LaurentPoly.const(n, 1, 0) if i == deg1 else zero for i in range(n))
        with pytest.raises(ValueError, match="the combination is not of degree 0"):
            normalize_coefficients(m, f)
        with pytest.raises(ValueError, match="expected integral coefficients"):
            normalize_coefficients(m, tuple(LaurentPoly.zero(n, 3) for _ in range(n)))
        with pytest.raises(ValueError, match="tuple length must equal the model rank"):
            normalize_coefficients(m, (zero,) * (n - 1))


def syzygy_is_zero(m, f):
    """Whether every wrong-degree component of f vanishes mod d."""
    return all(s.is_zero() for s in wrong_degree_mod(m, f, reduction_data(m)[0].d))


@st.composite
def koszul_perturbed(draw):
    """(model, f): a generator combination of a reduce-workload spec, drawn
    as the workload draws it, plus up to three Koszul terms
    c e^mu (rho_j at i, -rho_i at j), which leave sum f_i rho_i unchanged."""
    from weylinv.generators import build_generators, combination_to_tuple

    inputs = _bench_inputs()
    spec = draw(st.sampled_from([spec for spec, _ in inputs.REDUCE_SPECS]))
    m = compile_spec(parse_spec(spec))
    n = m.total_rank
    gs = build_generators(m)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    combo = inputs.random_combination(rng, m, [name for name, _ in gs.labeled()])
    f = list(combination_to_tuple(gs, combo))
    index = st.integers(0, n - 1)
    for i, j, c, mu in draw(st.lists(st.tuples(
            index, index, st.integers(-3, 3), st.lists(st.integers(-1, 1), min_size=n,
                                                       max_size=n)), max_size=3)):
        if i != j:
            coeff = LaurentPoly.monomial(n, mu, c)
            f[i], f[j] = f[i] + coeff * gs.rho[j], f[j] - coeff * gs.rho[i]
    return m, tuple(f)


class TestNormalizedShortcut:
    """`_normalized` returns what the full normalization returns, with its
    wrong-degree parts, and runs the trivialization exactly when the mod-d
    syzygy is nonzero."""

    @staticmethod
    def normalized_and_calls(m, f):
        calls = []
        real = syzygy_module._trivialize_through

        def counting(*args):
            calls.append(args)
            return real(*args)

        combo = dot(f, reduction_data(m)[1])
        wrong = syzygy_module.graded_parts(m, f)[1]
        with mock.patch.object(syzygy_module, "_trivialize_through", counting):
            g, parts = syzygy_module._normalized(m, f, wrong)
        assert g == full_normalized(m, f, combo)
        assert parts == wrong_degree_mod(m, g)
        assert len(calls) == (0 if syzygy_is_zero(m, f) else 1)
        if not calls:
            assert g is f and parts is wrong
        return g, len(calls)

    def test_golden_reduce_inputs(self):
        # the oracle fills every model's transform; SL(12)'s A11 block takes
        # seconds, and TestReductionData reduces that input without it
        cases = [(spec, f) for spec, f in golden_reduce_inputs() if spec != "SL(12) / mu(2)"]
        calls = [self.normalized_and_calls(compile_spec(parse_spec(spec)), f)[1]
                 for spec, f in cases]
        # the workload's 49 ops and the 2 step-2 tuples have zero syzygies,
        # the 4 Koszul tuples not
        assert (len(cases), calls.count(0), calls.count(1)) == (55, 51, 4)

    def test_parts_of_every_golden_reduce_input(self):
        # SL(12)'s inputs included: their syzygies are zero, so no transform is filled
        cases = golden_reduce_inputs()
        assert len(cases) == 56
        for spec, f in cases:
            m = compile_spec(parse_spec(spec))
            wrong = syzygy_module.graded_parts(m, f)[1]
            g, parts = syzygy_module._normalized(m, f, wrong)
            assert parts == wrong_degree_mod(m, g)
            assert all(p.is_zero() for p in wrong_degree_mod(m, g, reduction_data(m)[0].d))

    def test_zero_syzygy_returns_f_itself(self):
        spec, f = golden_reduce_inputs()[0]
        g, calls = self.normalized_and_calls(compile_spec(parse_spec(spec)), f)
        assert calls == 0 and g is f

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(koszul_perturbed())
    def test_koszul_perturbed_combinations(self, case):
        self.normalized_and_calls(*case)

    def test_output_component_check_fires(self, monkeypatch):
        # an empty lift leaves the nonzero syzygy of a Koszul tuple in place
        spec, f = next((spec, f) for spec, f in golden_reduce_inputs()
                       if not syzygy_is_zero(compile_spec(parse_spec(spec)), f))
        m = compile_spec(parse_spec(spec))
        n = m.total_rank
        monkeypatch.setattr(syzygy_module, "lift_syzygy",
                            lambda t, cert: SyzygyCertificate(n, n, 0, {}))
        with pytest.raises(AssertionError, match="normalized component does not vanish mod d"):
            syzygy_module._normalized(
                m, f, syzygy_module.graded_parts(m, f)[1])

    def test_output_component_check_reads_the_returned_parts(self, monkeypatch):
        # a corrupted split of g's parts fails the mod-d check on the parts
        # it would return
        spec, f = next((spec, f) for spec, f in golden_reduce_inputs()
                       if not syzygy_is_zero(compile_spec(parse_spec(spec)), f))
        m = compile_spec(parse_spec(spec))
        wrong = syzygy_module.graded_parts(m, f)[1]
        real = syzygy_module.graded_parts
        one = LaurentPoly.const(m.total_rank, 1, 0)
        monkeypatch.setattr(syzygy_module, "graded_parts", lambda *args: (
            real(*args)[0], tuple(w + one for w in real(*args)[1])))
        with pytest.raises(AssertionError, match="normalized component does not vanish mod d"):
            syzygy_module._normalized(m, f, wrong)


# the reduce workload's A/C specs and an index-2 model of type B
GRADED_PARTS_SPECS = [spec for spec, _ in _bench_inputs().REDUCE_SPECS] + [
    "(Spin(5) x Spin(5)) / mu(2)"]


@st.composite
def graded_parts_tuples(draw, m):
    """A tuple of the model's length and ring: either random sparse entries of
    both degrees, mostly outside R[T*], or a generator combination, in R[T*],
    plus random entries at up to two positions."""
    from weylinv.generators import build_generators, combination_to_tuple

    n = m.total_rank
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    entry = st.builds(lambda terms: P(n, terms), st.dictionaries(exps, st.integers(-3, 3),
                                                                 max_size=4))
    if not draw(st.booleans()):
        return tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    gs = build_generators(m)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    f = list(combination_to_tuple(gs, _bench_inputs().random_combination(
        rng, m, [name for name, _ in gs.labeled()])))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        f[i] = f[i] + draw(entry)
    return tuple(f)


class TestGradedParts:
    """The degree test's graded identity: the degree-1 component of
    sum f_i rho_i read off the parity split of each f_i and rho_i equals the
    component of the dense product, and the wrong-degree tuple is each
    entry's component of the degree its weight's class does not call for."""

    @pytest.mark.parametrize("spec", GRADED_PARTS_SPECS)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_dense_product(self, spec, data):
        m = compile_spec(parse_spec(spec))
        f = data.draw(graded_parts_tuples(m))
        deg1, wrong = syzygy_module.graded_parts(m, f)
        assert deg1 == homogeneous_component(dot(f, reduction_data(m)[1]), m.grading, (1,))
        assert wrong == tuple(
            homogeneous_component(p, m.grading, ((1 - m.grading.images[i][0]) % 2,))
            for i, p in enumerate(f))

    @pytest.mark.parametrize("spec", GRADED_PARTS_SPECS)
    def test_the_wrong_degree_part_of_each_orbit_sum_is_constant_or_zero(self, spec):
        # W fixes the classes of Lambda/T*: rho_i is an orbit sum of omega_i's
        # class minus |W omega_i|
        m = compile_spec(parse_spec(spec))
        _, rho, rho_wrong = reduction_data(m)
        for i, (r, s) in enumerate(zip(rho, rho_wrong)):
            assert s == homogeneous_component(r, m.grading, ((1 - m.grading.images[i][0]) % 2,))
            size = orbit_size(m, m._basis_vec(i))
            want = -size if m.grading.images[i] == (1,) else 0
            assert s == LaurentPoly.const(m.total_rank, want, 0)


def test_a_corrupted_lift_still_raises():
    # koszul3.json has a nonzero mod-d syzygy, so both entry points lift it;
    # the lift's expansion gains e^{omega_0} at position 0, a term of the
    # degree that position calls for: the wrong-degree components keep
    # vanishing mod d, and only sum h_i rho_i = 0 can see the change
    from weylinv.generators import reduce_to_generators

    texts = json.loads((Path(__file__).resolve().parent / "data" / "reduce"
                        / "koszul3.json").read_text())
    m = compile_spec(parse_spec("SL(6) / mu(2)"))
    n = m.total_rank
    f = tuple(from_text(t, n) for t in texts)
    assert not syzygy_is_zero(m, f)
    real = syzygy_module.lift_syzygy
    extra = LaurentPoly.monomial(n, m._basis_vec(0))

    class Corrupted:
        def __init__(self, cert):
            self.cert = cert

        def expand(self, t):
            h = self.cert.expand(t)
            return (h[0] + extra,) + h[1:]

    g = normalize_coefficients(m, f)
    assert syzygy_is_zero(m, (g[0] - extra,) + g[1:])
    with mock.patch.object(syzygy_module, "lift_syzygy",
                           lambda q, cert: Corrupted(real(q, cert))):
        for entry in (reduce_to_generators, normalize_coefficients):
            with pytest.raises(AssertionError, match="normalization changed the combination"):
                entry(m, f)


def clear_transform_caches():
    for cache in (modular_transform, newton_transform, block_inverse_mod):
        cache.cache_clear()


def misses(cache):
    return cache.cache_info().misses


class TestReductionData:
    SPEC = "(Sp(4) x Sp(6)) / mu(2)"

    def test_fields(self):
        from weylinv.generators import gcd_chain
        from weylinv.rootdata import fundamental_orbit_sums

        m = compile_spec(parse_spec(self.SPEC))
        n = m.total_rank
        chain, rho, rho_wrong = reduction_data(m)
        rho_d, rows, inverse, (flat, stripped, units) = modular_transform(m)
        d = chain.d
        assert chain == gcd_chain(m) and d == degree_one_gcd(m) == 2
        assert rho == fundamental_orbit_sums(m)
        assert rho_wrong == tuple(
            homogeneous_component(r, m.grading, ((1 - m.grading.images[i][0]) % 2,))
            for i, r in enumerate(rho))
        assert rho_d == tuple(reduce_coefficients(r, d) for r in rho)
        # the transform over Z reduced mod d, its inverse, and the checked flat image
        flat_z, tr, _ = model_transform(m)
        assert rows == tr.reduce(d).entries
        assert inverse == tuple(map(tuple, mat_inverse_unit([list(r) for r in rows])))
        one = LaurentPoly.const(n, 1, d)
        assert mat_mul(rows, inverse) == [[one if i == j else one.scale(0) for j in range(n)]
                                          for i in range(n)]
        assert flat == tuple(vec_mat(rho_d, rows)) == tuple(
            reduce_coefficients(p, d) for p in flat_z)
        assert check_flatness(flat)[0]
        assert (stripped, units) == syzygy_module._strip_units(flat)
        # the generator data of a model with a factor of type B; no Newton transform
        b = compile_spec(parse_spec("(Spin(5) x Spin(5)) / mu(2)"))
        assert reduction_data(b)[0] == gcd_chain(b)
        with pytest.raises(FlatnessError, match="types A and C, not B"):
            modular_transform(b)

    def test_filled_once_per_spec(self):
        from weylinv.generators import (
            _model_generators, build_generators, combination_to_tuple, reduce_to_generators,
        )

        reduction_data.cache_clear()
        modular_transform.cache_clear()
        _model_generators.cache_clear()
        m = compile_spec(parse_spec(self.SPEC))
        gs = build_generators(m, m._basis_vec(2))
        assert gs.lambda0 != build_generators(m).lambda0
        f = combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(5, 1, 0),
                                      "h3[1]": LaurentPoly.const(5, 2, 0)})
        for _ in range(3):
            reduce_to_generators(compile_spec(parse_spec(self.SPEC)), f)
        # five build_generators calls, with two lambda0, share one generator
        # fill: a reduction given no set builds the default one and reads the
        # fill no further
        info = _model_generators.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
        # that fill, the three reductions' degree tests and the three
        # normalizations read reduction_data; a zero syzygy reads no transform
        info = reduction_data.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 6, 1)
        info = modular_transform.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
        assert syzygy_is_zero(m, f)
        # a Koszul pair makes the syzygy nonzero: the first such reduction
        # fills the transform, the other two read it
        k = list(f)
        k[0], k[1] = k[0] + gs.rho[1], k[1] - gs.rho[0]
        assert not syzygy_is_zero(m, k)
        hits = reduction_data.cache_info().hits
        for _ in range(3):
            reduce_to_generators(compile_spec(parse_spec(self.SPEC)), k)
        info = modular_transform.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        # three degree tests, three normalizations, the one transform fill
        # and the three output checks on g's wrong-degree parts
        assert reduction_data.cache_info().hits == hits + 10

    def test_zero_syzygy_golden_inputs_fill_no_transform(self):
        from weylinv.generators import reduce_to_generators

        cases = [(spec, f) for spec, f in golden_reduce_inputs()
                 if syzygy_is_zero(compile_spec(parse_spec(spec)), f)]
        clear_transform_caches()
        for spec, f in cases:
            reduce_to_generators(compile_spec(parse_spec(spec)), f)
        # the workload's 49 ops, the 2 step-2 tuples and the degree-0 SL(12) tuple
        assert len(cases) == 52
        assert [misses(c) for c in (modular_transform, newton_transform,
                                    block_inverse_mod)] == [0, 0, 0]

    def test_koszul_inputs_fill_the_transform_once_per_model(self):
        from weylinv.generators import reduce_to_generators

        cases = [(spec, f) for spec, f in golden_reduce_inputs()
                 if not syzygy_is_zero(compile_spec(parse_spec(spec)), f)]
        models = {compile_spec(parse_spec(spec)) for spec, _ in cases}
        clear_transform_caches()
        for spec, f in cases:
            reduce_to_generators(compile_spec(parse_spec(spec)), f)
        assert (len(cases), len(models)) == (4, 2)
        info = modular_transform.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        # one Newton block and one inverse mod d per distinct block of the models
        blocks = {(kind, rank, reduction_data(m)[0].d)
                  for m in models for kind, rank, _ in syzygy_module._blocks(m)}
        assert misses(block_inverse_mod) == len(blocks)
        assert misses(newton_transform) == len({b[:2] for b in blocks})

    def test_non_ac_model_raises_before_any_fill(self):
        from weylinv.generators import reduce_to_generators

        b = compile_spec(parse_spec("(Spin(5) x Spin(5)) / mu(2)"))
        f = (LaurentPoly.zero(4, 0),) * 4
        clear_transform_caches()
        # a zero f has a zero syzygy, so only the up-front type check refuses it
        with pytest.raises(FlatnessError, match="types A and C, not B"):
            reduce_to_generators(b, f)
        with pytest.raises(FlatnessError, match="types A and C, not B"):
            normalize_coefficients(b, f)
        assert [misses(c) for c in (modular_transform, newton_transform,
                                    block_inverse_mod)] == [0, 0, 0]

    def test_fill_time_checks_fire_on_a_fresh_fill(self, monkeypatch):
        m = compile_spec(parse_spec(self.SPEC))
        rho_d, rows, inverse, _ = modular_transform(m)
        n, d = m.total_rank, reduction_data(m)[0].d
        one, zero = LaurentPoly.const(n, 1, d), LaurentPoly.zero(n, d)
        ident = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        # rho_d is not flat, so rho_d * I is rejected when its flat image is formed
        with pytest.raises(FlatnessError, match="entry 0: uses higher axes"):
            trivialize_generalized(rho_d, TransformMatrix(ident, one),
                                   (zero,) * n, ident)
        # the fill forms rho_d * A_d from the blocks and rejects a non-flat one
        monkeypatch.setattr(syzygy_module, "block_inverse_mod", lambda kind, rank, d: (
            tuple(tuple(LaurentPoly.const(rank, int(i == j), d) for j in range(rank))
                  for i in range(rank)),) * 2)
        with pytest.raises(FlatnessError, match="entry 0: uses higher axes"):
            modular_transform.__wrapped__(m)
        monkeypatch.undo()
        assert modular_transform.__wrapped__(m) == (rho_d, rows, inverse,
                                                    modular_transform(m)[3])
        # a wrong block inverse fails the check made when the block is filled
        monkeypatch.setattr(syzygy_module, "mat_inverse_unit",
                            lambda rows: [[p.scale(0) for p in r] for r in rows])
        with pytest.raises(AssertionError, match="block inverse mod d is not an inverse"):
            block_inverse_mod.__wrapped__("C", 2, 2)


# --------------------------------------------------------------------------
# Laurent-matrix determinant and inverse against the Leibniz expansion


def leibniz_det(rows):
    """Sum over all n! permutations: the test oracle for mat_det."""
    n = len(rows)
    rank, modulus = rows[0][0].rank, rows[0][0].modulus
    acc = LaurentPoly.zero(rank, modulus)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = LaurentPoly.const(rank, -1 if inversions % 2 else 1, modulus)
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term
    return acc


MAT_RANK = 2


@st.composite
def laurent_polys(draw, modulus, max_terms=3):
    exps = st.tuples(*[st.integers(-1, 1)] * MAT_RANK)
    return P(MAT_RANK, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms)),
             modulus)


@st.composite
def laurent_matrices(draw):
    """Square matrices of size <= 5 over Z, Z/4 or Z/6, of five shapes."""
    modulus = draw(st.sampled_from([0, 4, 6]))
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["dense", "block", "permuted-block", "singular", "zero-row"]))
    zero = P(MAT_RANK, {}, modulus)
    rows = [[draw(laurent_polys(modulus)) for _ in range(n)] for _ in range(n)]
    if shape in ("block", "permuted-block"):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        block = [sum(i >= c for c in cuts) for i in range(n)]
        rows = [[p if block[i] == block[j] else zero for j, p in enumerate(row)]
                for i, row in enumerate(rows)]
        if shape == "permuted-block":
            rperm = draw(st.permutations(range(n)))
            cperm = draw(st.permutations(range(n)))
            rows = [[rows[rperm[i]][cperm[j]] for j in range(n)] for i in range(n)]
    elif shape == "singular" and n > 1:
        # the last row is a Laurent combination of two earlier rows
        a, b = draw(laurent_polys(modulus, 2)), draw(laurent_polys(modulus, 2))
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    elif shape == "zero-row":
        rows[draw(st.integers(0, n - 1))] = [zero] * n
    return shape, rows


@st.composite
def sparse_matrix(draw, modulus, n, m):
    """An n x m matrix over Z or Z/modulus, about half its entries zero."""
    zero = P(MAT_RANK, {}, modulus)
    entry = st.one_of(st.just(zero), laurent_polys(modulus))
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


def dense_product(a, b):
    """a * b as the fold of every product a[i][s] * b[s][j], zeros included."""
    zero = P(MAT_RANK, {}, b[0][0].modulus)

    def entry(row, j):
        acc = zero
        for x, col in zip(row, b):
            acc = acc + x * col[j]
        return acc

    return [[entry(row, j) for j in range(len(b[0]))] for row in a]


class TestMatProducts:
    """vec_mat, mat_mul and the memoised minors against the dense products on
    sparse matrices over Z and Z/m."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_vec_mat_and_mat_mul_match_the_dense_product(self, data):
        modulus = data.draw(st.sampled_from([0, 4, 6]))
        n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = data.draw(sparse_matrix(modulus, n, k))
        b = data.draw(sparse_matrix(modulus, k, m))
        assert mat_mul(a, b) == dense_product(a, b)
        assert vec_mat(a[0], b) == dense_product(a[:1], b)[0]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_minors_match_leibniz(self, data):
        # det_on(mask): the bottom popcount(mask) rows on the columns in mask
        modulus = data.draw(st.sampled_from([0, 4, 6]))
        n = data.draw(st.integers(1, 4))
        rows = data.draw(sparse_matrix(modulus, n, n))
        one = LaurentPoly.const(MAT_RANK, 1, modulus)
        det_on = syzygy_module._minors(rows, one)
        for mask in range(1, 1 << n):
            cols = [j for j in range(n) if mask >> j & 1]
            bottom = [[row[j] for j in cols] for row in rows[n - len(cols):]]
            assert det_on(mask) == leibniz_det(bottom)
        assert det_on(0) == one


class TestMatDet:
    @settings(max_examples=150, deadline=None)
    @given(laurent_matrices())
    def test_matches_leibniz(self, case):
        shape, rows = case
        det = mat_det(rows)
        assert det == leibniz_det(rows)
        if shape in ("singular", "zero-row") and len(rows) > 1:
            assert det.is_zero()

    @staticmethod
    def _assert_inverse(rows):
        inv = mat_inverse_unit(rows)
        n = len(rows)
        one = LaurentPoly.const(rows[0][0].rank, 1, rows[0][0].modulus)
        ident = [[one if i == j else one.scale(0) for j in range(n)] for i in range(n)]
        assert mat_mul(inv, rows) == ident
        assert mat_mul(rows, inv) == ident

    @pytest.mark.parametrize("kind,lo", [("A", 1), ("C", 2)])
    @pytest.mark.parametrize("modulus", [0, 2, 4])
    def test_newton_inverse(self, kind, lo, modulus):
        for n in range(lo, 7):
            _, tr, _ = newton_transform(kind, n)
            if modulus:
                tr = tr.reduce(modulus)
            rows = [list(r) for r in tr.entries]
            assert mat_det(rows) == tr.det
            self._assert_inverse(rows)

    @pytest.mark.parametrize("modulus", [0, 2, 4])
    def test_model_transform_inverse(self, modulus):
        m = compile_spec(GroupSpec(
            (SimpleFactor("A", 2), SimpleFactor("C", 3), SimpleFactor("A", 1))))
        _, tr, _ = model_transform(m)
        if modulus:
            tr = tr.reduce(modulus)
        rows = [list(r) for r in tr.entries]
        # the product of the block determinants is the full determinant
        assert mat_det(rows) == tr.det
        self._assert_inverse(rows)

    def test_inverse_rejects_non_unit_determinant(self):
        two = P(1, {(0,): 2})
        with pytest.raises(ValueError):
            mat_inverse_unit([[two]])
