import inspect
import json
import random
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylinv import generators, syzygy
from weylinv.cli import parse_spec
from weylinv.fuzz import random_graded_poly
from weylinv.generators import (
    GeneratorSet,
    _model_generators,
    build_generators,
    combination_to_tuple,
    expand_combination,
    gcd_chain,
    reduce_to_generators,
)
from weylinv.laurent import (
    EXPONENT_LIMIT,
    ExponentRangeError,
    LaurentPoly,
    RankMismatchError,
    augmentation,
    dot,
    from_text,
    graded_components,
    homogeneous_component,
)
from weylinv.rootdata import GroupSpec, SimpleFactor, compile_spec, orbit_poly
from weylinv.syzygy import FlatnessError, normalize_coefficients, reduction_data

from _helpers import _bench_inputs, dense_build_generators, golden_reduce_inputs, reflect_local

REDUCE_SPECS = [spec for spec, _ in _bench_inputs().REDUCE_SPECS]
# the specs with an h3 position, a degree-0 fundamental weight, where step 2 can act
STEP2_SPECS = [spec for spec in REDUCE_SPECS
               if (0,) in compile_spec(parse_spec(spec)).grading.images]


def pgsp4():
    return compile_spec(GroupSpec((SimpleFactor("C", 2),), ((1,),)))


def sp4xsp4():
    return compile_spec(GroupSpec(
        (SimpleFactor("C", 2), SimpleFactor("C", 2)), ((1, 1),)))


# total rank 8, and a single 7x7 Newton block: the determinant and adjugate
# of their transforms once expanded over all n! permutations
def sl4xsl6():
    return compile_spec(parse_spec("(SL(4) x SL(6)) / mu(2)"))


def sl8():
    return compile_spec(parse_spec("SL(8) / mu(2)"))


def spin5xspin5():
    return compile_spec(GroupSpec(
        (SimpleFactor("B", 2), SimpleFactor("B", 2)), ((1, 1),)))


class TestGcdChain:
    def test_pgsp4(self):
        chain = gcd_chain(pgsp4())
        assert chain.nprime == 1
        assert chain.sizes == (4,)
        assert chain.d_chain == (4,)
        assert chain.bezout[0][0] == 1

    def test_sp4_x_sp4(self):
        import math
        md = sp4xsp4()
        chain = gcd_chain(md)
        assert chain.nprime == 2
        assert chain.sizes == (4, 4)
        assert chain.d_chain == (math.gcd(4, 4), 4)

    def test_chain_invariants(self):
        import math
        for m, n in [(2, 3), (3, 5), (2, 2)]:
            md = compile_spec(GroupSpec(
                (SimpleFactor("C", m), SimpleFactor("C", n)), ((1, 1),)))
            chain = gcd_chain(md)
            np_ = chain.nprime
            # the degree-1 weights are the odd-index fundamental weights
            assert np_ == (m + 1) // 2 + (n + 1) // 2
            assert chain.d_chain[-1] == chain.sizes[-1]
            for i in range(np_ - 1):
                assert chain.d_chain[i + 1] % chain.d_chain[i] == 0
            for i in range(np_):
                assert sum(chain.bezout[i][j] * chain.sizes[j]
                           for j in range(i, np_)) == chain.d_chain[i]
            assert chain.d_chain[0] == math.gcd(*chain.sizes)

    def test_requires_index_two(self):
        m = compile_spec(GroupSpec((SimpleFactor("C", 2),)))
        with pytest.raises(ValueError):
            gcd_chain(m)


class TestBuildGenerators:
    def test_pgsp4_shapes(self):
        m = pgsp4()
        gs = build_generators(m)
        rho_w1 = orbit_poly(m, (1, 0))
        assert gs.h1 == ()
        assert gs.h2 == (rho_w1 * rho_w1 - LaurentPoly.const(2, 16, 0),)
        assert gs.h3 == (orbit_poly(m, (0, 1), augmented=True),)

    def test_every_generator_degree_zero_and_augmented(self):
        for model in (pgsp4(), sp4xsp4()):
            gs = build_generators(model)
            for name, h in gs.labeled():
                assert augmentation(h) == 0, name
                assert homogeneous_component(h, model.grading, (1,)).is_zero(), name

    def test_type_c_element_shape(self):
        # h1[1] on (Sp4 x Sp4)/mu2 is e^{lambda0} (rho(w1) - rho(w1'))
        m = sp4xsp4()
        gs = build_generators(m)
        z = orbit_poly(m, (1, 0, 0, 0)) - orbit_poly(m, (0, 0, 1, 0))
        expected = LaurentPoly.monomial(4, gs.lambda0) * z
        assert gs.h1 == (expected,)

    def test_type_b_element_membership(self):
        # e^{w2}(rho-bar(w2) - rho-bar(w2')) lies in Z[T*] and in the ideal
        m = spin5xspin5()
        z = orbit_poly(m, (0, 1, 0, 0), augmented=True) \
            - orbit_poly(m, (0, 0, 0, 1), augmented=True)
        y = LaurentPoly.monomial(4, (0, 1, 0, 0)) * z
        comps = graded_components(y, m.grading)
        assert set(comps) <= {m.grading.zero}
        assert augmentation(y) == 0
        # W-invariance of the building blocks: orbits are reflection-closed
        for w in [(0, 1, 0, 0), (0, 0, 0, 1)]:
            p = orbit_poly(m, w)
            for fi in range(2):
                for i in range(2):
                    reflected = set()
                    for e in p.terms:
                        loc = m.slice_of(e, fi)
                        r = reflect_local(m, fi, loc, i)
                        reflected.add(e[:m.offsets[fi]] + r + e[m.offsets[fi] + 2:])
                    assert reflected == set(p.terms)

    def test_lambda0_must_have_degree_one(self):
        m = pgsp4()
        with pytest.raises(ValueError):
            build_generators(m, lambda0=(0, 1))


class TestModelGenerators:
    """The per-model fill and the per-call twist by e^{lambda0} give the
    generator set that the dense per-call build gives."""

    @pytest.mark.parametrize("spec", REDUCE_SPECS)
    def test_matches_the_dense_build(self, spec):
        m = compile_spec(parse_spec(spec))
        ones = [m._basis_vec(k) for k in range(m.total_rank)
                if m.grade_of_weight(m._basis_vec(k)) == (1,)]
        lambdas = [None] + ones + [tuple(-x for x in v) for v in ones]
        for lambda0 in lambdas:
            gs, oracle = build_generators(m, lambda0), dense_build_generators(m, lambda0)
            for field in GeneratorSet._fields:
                assert getattr(gs, field) == getattr(oracle, field), (lambda0, field)

    @staticmethod
    def _degree_one_augmented(m):
        """e^{lambda0} - e^{-lambda0}: of degree 1 and augmentation 0."""
        n, lambda0 = m.total_rank, build_generators(m).lambda0
        return LaurentPoly.monomial(n, lambda0) - LaurentPoly.monomial(n, [-x for x in lambda0])

    def test_fill_checks_fire_on_a_fresh_fill(self, monkeypatch):
        # rho~(omega_1) gains y: each h2 generator stays of degree 0 and
        # augmentation 0 but no longer equals its row's expansion over rho
        m = sp4xsp4()
        y = self._degree_one_augmented(m)
        real = generators._rho_tilde_w

        def corrupted(chain, rho_ord, i):
            return real(chain, rho_ord, i) + y if i == 0 else real(chain, rho_ord, i)

        monkeypatch.setattr(generators, "_rho_tilde_w", corrupted)
        with pytest.raises(AssertionError, match="h2 expansion over rho is wrong"):
            _model_generators.__wrapped__(m)

    def test_call_checks_fire_on_warm_caches(self, monkeypatch):
        # a core P gains y: e^{lambda0} P keeps degree 0 and augmentation 0
        # but no longer equals its row's expansion over rho
        m = sp4xsp4()
        y = self._degree_one_augmented(m)
        default, h1_cores, rho_tilde_w1 = _model_generators(m)
        cores = tuple((core + y, coeffs) for core, coeffs in h1_cores)
        monkeypatch.setattr(generators, "_model_generators",
                            lambda model: (default, cores, rho_tilde_w1))
        with pytest.raises(AssertionError, match="h1 expansion over rho is wrong"):
            build_generators(m)

    def test_the_default_twist_returns_the_checked_fill(self, monkeypatch):
        # the twist runs on every call; a family equal to the fill's checked
        # default-lambda0 one is returned as the fill's own tuples, unchecked
        m = sp4xsp4()
        fill = _model_generators(m)
        checked = []
        real = generators._check_family

        def spy(name, *args):
            checked.append(name)
            return real(name, *args)

        monkeypatch.setattr(generators, "_check_family", spy)
        gs = build_generators(m)
        again = build_generators(m, gs.lambda0)
        assert (gs.h1, gs.h1_rows) == (again.h1, again.h1_rows)
        assert gs.h1 is again.h1 is fill[0].h1 and gs.h1_rows is again.h1_rows is fill[0].h1_rows
        assert gs == again == fill[0]
        assert checked == []
        ones = [m._basis_vec(k) for k in range(m.total_rank)
                if m.grade_of_weight(m._basis_vec(k)) == (1,)]
        other = build_generators(m, ones[1])
        assert checked == ["h1"] and other.h1 != fill[0].h1


class TestReduce:
    def test_zero(self):
        m = pgsp4()
        f = tuple(LaurentPoly.zero(2, 0) for _ in range(2))
        assert reduce_to_generators(m, f) == {}

    def test_single_generator_round_trip(self):
        m = pgsp4()
        gs = build_generators(m)
        f = combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(2, 1, 0)})
        combo = reduce_to_generators(m, f, gs)
        assert expand_combination(gs, combo) == gs.h2[0]

    def test_rejects_non_tstar_combination(self):
        m = pgsp4()
        gs = build_generators(m)
        f = (LaurentPoly.const(2, 1, 0), LaurentPoly.zero(2, 0))
        with pytest.raises(ValueError):
            reduce_to_generators(m, f, gs)

    def test_checks_the_tuple_as_normalization_does(self):
        # both entry points run one check of the tuple, with the same errors
        m = pgsp4()
        zero = LaurentPoly.zero(2, 0)
        cases = [
            ((LaurentPoly.const(2, 1, 3), LaurentPoly.const(2, 2, 3)),
             "expected integral coefficients"),
            ((zero, LaurentPoly.zero(3, 0)), "mixed rings/ranks in tuple"),
            ((zero,), "tuple length must equal the model rank"),
            ((), "empty tuple"),
        ]
        for f, msg in cases:
            for entry in (reduce_to_generators, normalize_coefficients):
                with pytest.raises(ValueError, match=msg):
                    entry(m, f)

    @pytest.mark.parametrize("model_fn", [pgsp4, sp4xsp4, sl4xsl6, sl8])
    def test_random_combination_round_trips(self, model_fn):
        model = model_fn()
        gs = build_generators(model)
        n = model.total_rank
        rng = random.Random(n)
        labels = [name for name, _ in gs.labeled()]
        for _ in range(8):
            combo_in = {}
            for name in labels:
                if rng.random() < 0.6:
                    c = random_graded_poly(rng, model.grading, max_tries=20)
                    if not c.is_zero():
                        combo_in[name] = c
            f = combination_to_tuple(gs, combo_in)
            target = expand_combination(gs, combo_in)
            combo_out = reduce_to_generators(model, f, gs)
            assert expand_combination(gs, combo_out) == target

    def test_lambda0_override_generates_same_ideal(self):
        # generator sets for two different lambda0 reduce through each other
        m = pgsp4()
        gs_a = build_generators(m)                      # lambda0 = w1
        gs_b = build_generators(m, lambda0=(-1, 0))     # lambda0 = -w1
        for gs_src, gs_dst in [(gs_a, gs_b), (gs_b, gs_a)]:
            for name, h in gs_src.labeled():
                rows = gs_src.rows_for(name)
                combo = reduce_to_generators(m, rows, gs_dst)
                assert expand_combination(gs_dst, combo) == h, (name,)


class TestErrorOrder:
    """Both entry points raise what they raised when the degree test formed
    sum f_i rho_i densely: the range and ring errors of `dot(f, rho)` first,
    then the degree error, then, in the normalization of a non-A/C model,
    FlatnessError.  `normalize_coefficients` checks the type before the
    degree, as it always has."""

    ENTRIES = (reduce_to_generators, normalize_coefficients)

    def test_out_of_range_exponent(self):
        m = pgsp4()
        rho = reduction_data(m)[1]
        top, zero = LaurentPoly.monomial(2, (EXPONENT_LIMIT, 0)), LaurentPoly.zero(2, 0)
        # e^{lim omega_1} has degree 1, so these tuples are outside R[T*] too;
        # e^{lim omega_2} at the degree-0 position meets rho_2^(1) = 0, so no
        # graded product pairs it with a nonzero factor
        top2 = LaurentPoly.monomial(2, (0, EXPONENT_LIMIT))
        for f in [(top, zero), (zero, top), (top, top), (zero, top2)]:
            with pytest.raises(ExponentRangeError) as dense:
                dot(f, rho)
            for entry in self.ENTRIES:
                with pytest.raises(ExponentRangeError) as got:
                    entry(m, f)
                assert str(got.value) == str(dense.value)

    def test_ring_of_another_rank(self):
        m = pgsp4()
        f = (LaurentPoly.const(3, 1, 0), LaurentPoly.zero(3, 0))
        for entry in self.ENTRIES:
            with pytest.raises(RankMismatchError, match="^3 vs 2$"):
                entry(m, f)

    def test_non_ac_model(self):
        b = spin5xspin5()
        n = b.total_rank
        zero = LaurentPoly.zero(n, 0)
        deg1 = next(i for i in range(n) if b.grading.images[i] == (1,))
        outside = tuple(LaurentPoly.const(n, 1, 0) if i == deg1 else zero for i in range(n))
        top = tuple(LaurentPoly.monomial(n, (EXPONENT_LIMIT,) + (0,) * (n - 1)) if i == deg1
                    else zero for i in range(n))
        with pytest.raises(ValueError, match="the combination is not in R\\[T\\*\\]"):
            reduce_to_generators(b, outside)
        with pytest.raises(ExponentRangeError):
            reduce_to_generators(b, top)
        for f in (outside, top):
            with pytest.raises(FlatnessError, match="types A and C, not B"):
                normalize_coefficients(b, f)


def _step2_tuple(gs, c, k):
    """f with sum f_i rho_i = c rho_k rho~(omega_1) at the h3 position k:
    c d at k and c a_0j rho_k at each chain position j <= n'.  For c of
    degree 1, step 2 kills its degree-1 part c d at k."""
    n, chain = len(gs.rho), gs.chain
    f = [LaurentPoly.zero(n, 0)] * n
    f[k] = c.scale(chain.d)
    for j in range(chain.nprime):
        f[chain.order[j]] = (c * gs.rho[k]).scale(chain.bezout[0][j])
    return f


def _step2_input(m, gs, rng):
    """`_step2_tuple` at the first h3 position with c = e^{lambda0}, plus a
    generator combination of rng: the recipe of the `step2_N.json` inputs."""
    c = LaurentPoly.monomial(m.total_rank, gs.lambda0)
    f = _step2_tuple(gs, c, gs.chain.order[gs.chain.nprime])
    combo = _bench_inputs().random_combination(rng, m, [name for name, _ in gs.labeled()])
    return tuple(a + b for a, b in zip(f, combination_to_tuple(gs, combo)))


class TestNoDenseTarget:
    """The degree test reads the graded parts and every check compares
    tuples: no `dot` takes the input tuple against rho, on any set or input."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for module in (generators, syzygy):
            def spy(xs, ys, start=None, real=module.dot):
                xs, ys = list(xs), list(ys)
                calls.append((xs, ys))
                return real(xs, ys, start)

            monkeypatch.setattr(module, "dot", spy)
        return calls

    @pytest.mark.parametrize("spec", REDUCE_SPECS)
    def test_no_dot_against_rho(self, spec, monkeypatch):
        m = compile_spec(parse_spec(spec))
        gs = build_generators(m)
        labels = [name for name, _ in gs.labeled()]
        rng = random.Random(spec)
        tuples = [combination_to_tuple(gs, _bench_inputs().random_combination(rng, m, labels))
                  for _ in range(3)]
        if gs.h3:
            tuples += [_step2_input(m, gs, rng) for _ in range(2)]
        recording, log = _recording(generators._tuple_proves)
        monkeypatch.setattr(generators, "_tuple_proves", recording)
        calls = self._spy(monkeypatch)
        for f in tuples:
            reduce_to_generators(m, f, gs)
        assert log and all(verdict for *_, verdict in log)
        assert calls and not any(ys == list(gs.rho) for _, ys in calls)

    def test_the_spy_sees_a_dot_against_rho(self, monkeypatch):
        # positive control: a Koszul pair gives a nonzero normalization
        # syzygy, whose check sum h_i rho_i = 0 is a dot against rho
        m = sp4xsp4()
        gs = build_generators(m)
        f = list(combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(4, 1, 0)}))
        f[0], f[1] = f[0] + gs.rho[1], f[1] - gs.rho[0]
        calls = self._spy(monkeypatch)
        reduce_to_generators(m, f, gs)
        against_rho = [xs for xs, ys in calls if ys == list(gs.rho)]
        assert against_rho and f not in against_rho

    def test_another_lambda0_forms_no_sum(self, monkeypatch):
        # a set of another lambda0 is proved by tuples too, step 2 included
        m = sp4xsp4()
        gs = build_generators(m)
        other = build_generators(m, [-x for x in gs.lambda0])
        one = LaurentPoly.const(4, 1, 0)
        k = gs.chain.order[gs.chain.nprime]
        tuples = [combination_to_tuple(gs, {"h2[1]": one}),
                  _step2_tuple(gs, LaurentPoly.monomial(4, gs.lambda0), k)]
        recording, log = _recording(generators._tuple_proves)
        monkeypatch.setattr(generators, "_tuple_proves", recording)
        calls = self._spy(monkeypatch)
        for f in tuples:
            reduce_to_generators(m, f, other)
            assert calls.count((list(f), list(gs.rho))) == 0
        assert log and all(state_gs is other and verdict for state_gs, *_, verdict in log)


class TestChecksFire:
    """A generator set that `build_generators` did not return is rejected on
    entry, and a step that changes the state with corrupted data trips the
    check after it.

    Each case reduces sum_h c_h h over (Sp(4) x Sp(4)) / mu(2) with a
    combination that makes the named step act, and corrupts what that step
    reads: a generator or its row over rho, which the entry check rejects,
    or the degree-1 element rho~(omega_1) of step 2, which the running
    check after step 2 catches.
    """

    ENTRY = "the generator set is not the model's"

    def _case(self, combo):
        m = sp4xsp4()
        gs = build_generators(m)
        return m, gs, combination_to_tuple(gs, combo)

    def test_step1_row(self):
        one = LaurentPoly.const(4, 1, 0)
        m, gs, f = self._case({"h2[1]": one})
        row = list(gs.h2_rows[0])
        j = next(j for j, r in enumerate(row) if r)
        row[j] = row[j] + one
        bad = gs._replace(h2_rows=(tuple(row),) + gs.h2_rows[1:])
        with pytest.raises(ValueError, match=self.ENTRY):
            reduce_to_generators(m, f, bad)

    def test_step2_coefficient(self, monkeypatch):
        m = sp4xsp4()
        gs = build_generators(m)
        n = m.total_rank
        # c rho_k rho~(omega_1) = sum_j c a_0j rho_k rho_j + c d rho_k, written
        # with the degree-1 part c d at the h3 position k, which step 2 kills
        f = _step2_tuple(gs, LaurentPoly.monomial(n, gs.lambda0),
                         gs.chain.order[gs.chain.nprime])
        combo = reduce_to_generators(m, f, gs)
        assert list(combo) == ["h3[1]"]
        assert expand_combination(gs, combo) == dot(f, gs.rho)
        # step 2 reads rho~(omega_1) off the warm fill and builds none
        monkeypatch.setattr(generators, "_rho_tilde_w", None)
        assert reduce_to_generators(m, f, gs) == combo
        default, h1_cores, rho_tilde_w1 = _model_generators(m)
        monkeypatch.setattr(generators, "_model_generators", lambda model: (
            default, h1_cores, rho_tilde_w1 + LaurentPoly.const(n, 1, 0)))
        with pytest.raises(AssertionError, match="running combination equality broken"):
            reduce_to_generators(m, f, gs)

    def test_step3_generator(self):
        one = LaurentPoly.const(4, 1, 0)
        m, gs, f = self._case({"h3[1]": one})
        bad = gs._replace(h3=tuple(h + one for h in gs.h3))
        with pytest.raises(ValueError, match=self.ENTRY):
            reduce_to_generators(m, f, bad)

    def test_foreign_rho_with_a_zero_syzygy(self):
        # a generator combination has a zero normalization syzygy, so the
        # normalization returns f without its combination check; the entry
        # check on the generator set, rho included, stands in for it
        one = LaurentPoly.const(4, 1, 0)
        m, gs, f = self._case({"h2[1]": one})
        wrong = syzygy.graded_parts(m, f)[1]
        g0, parts = syzygy._normalized(m, f, wrong)
        assert g0 is f and parts is wrong
        bad = gs._replace(rho=(gs.rho[0] + one,) + gs.rho[1:])
        other = build_generators(compile_spec(parse_spec("(SL(2) x SL(4)) / mu(2)")))
        for foreign in (bad, other):
            with pytest.raises(ValueError, match=self.ENTRY):
                reduce_to_generators(m, f, foreign)

    def test_last_step_generator(self):
        one = LaurentPoly.const(4, 1, 0)
        m, gs, f = self._case({"h1[1]": one})
        bad = gs._replace(h1=tuple(h + one for h in gs.h1))
        with pytest.raises(ValueError, match=self.ENTRY):
            reduce_to_generators(m, f, bad)


def _reduce_variant(edits):
    """(reduce_to_generators with each `old` of {old: new} in its source
    replaced by `new`, its globals): a copy of the function, run in a copy of
    the module namespace."""
    src = textwrap.dedent(inspect.getsource(generators.reduce_to_generators))
    for old, new in edits.items():
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    ns = dict(vars(generators))
    exec(compile(src, generators.__file__, "exec"), ns)
    return ns["reduce_to_generators"], ns


def _dense_identity(gs, f, combo, target):
    by_label = dict(gs.labeled())
    return dot([*f, *combo.values()], [*gs.rho, *(by_label[k] for k in combo)],
               LaurentPoly.zero(len(f), 0)) == target


def _recording(real):
    """(wrapper of the tuple verdict `real`, its log): the wrapper logs each
    state it is asked about as (gs, f, combo, verdict)."""
    log = []

    def recording(gs, f, combo, goal):
        verdict = real(gs, f, combo, goal)
        log.append((gs, tuple(f), dict(combo), verdict))
        return verdict

    return recording, log


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


class TestTupleProof:
    """The running checks and the final re-expansion compare F = f +
    sum_g c_g row_g with g0 + K(rho), for the normalized tuple g0 and the
    Koszul certificate K of step 2, on every accepted generator set; each
    verdict equals the dense identity sum f_i rho_i + sum c_g g = target."""

    def _agrees_with_dense(self, monkeypatch, model, f, gs=None):
        gs = gs or build_generators(model)
        recording, log = _recording(generators._tuple_proves)
        monkeypatch.setattr(generators, "_tuple_proves", recording)
        target = dot(f, gs.rho)
        out = reduce_to_generators(model, f, gs)
        assert log or not out
        for state_gs, state_f, combo, verdict in log:
            assert state_gs is gs
            assert verdict == _dense_identity(gs, state_f, combo, target)
        assert expand_combination(gs, out) == target
        return log

    @pytest.mark.parametrize("spec", REDUCE_SPECS)
    def test_verdict_matches_the_dense_identity(self, spec, monkeypatch):
        m = compile_spec(parse_spec(spec))
        inputs = _bench_inputs()
        labels = [name for name, _ in build_generators(m).labeled()]
        rng = random.Random(spec)
        for _ in range(4):
            f = combination_to_tuple(build_generators(m),
                                     inputs.random_combination(rng, m, labels))
            with monkeypatch.context() as mp:
                self._agrees_with_dense(mp, m, f)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(REDUCE_SPECS[:-1]), st.integers(0, 2 ** 32))
    def test_verdict_matches_the_dense_identity_random(self, spec, seed):
        m = compile_spec(parse_spec(spec))
        gs = build_generators(m)
        combo = _bench_inputs().random_combination(
            random.Random(seed), m, [name for name, _ in gs.labeled()])
        with pytest.MonkeyPatch.context() as mp:
            self._agrees_with_dense(mp, m, combination_to_tuple(gs, combo))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(STEP2_SPECS), st.integers(0, 2 ** 32))
    def test_step2_verdict_matches_the_dense_identity(self, spec, seed):
        # a random degree-1 c at a random h3 position, plus a combination:
        # step 2 acts, and the Koszul term it records completes each proof
        m = compile_spec(parse_spec(spec))
        gs = build_generators(m)
        n, chain, rng = m.total_rank, gs.chain, random.Random(seed)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(-1, 1) for _ in range(n))
            if m.grade_of_weight(e) == (1,):
                terms[e] = terms.get(e, 0) + rng.choice([-2, -1, 1, 2])
        c = LaurentPoly(n, 0, terms)
        if c.is_zero():
            c = LaurentPoly.monomial(n, gs.lambda0)
        k = chain.order[rng.randrange(chain.nprime, n)]
        combo = _bench_inputs().random_combination(rng, m, [name for name, _ in gs.labeled()])
        f = tuple(a + b for a, b in zip(_step2_tuple(gs, c, k), combination_to_tuple(gs, combo)))
        with pytest.MonkeyPatch.context() as mp:
            log = self._agrees_with_dense(mp, m, f)
        assert log and all(verdict for *_, verdict in log)

    @pytest.mark.parametrize("name, spec", [("step2_0", "(Sp(4) x Sp(4)) / mu(2)"),
                                            ("step2_1", "SL(6) / mu(2)")])
    def test_golden_step2_inputs(self, name, spec, monkeypatch):
        # the recorded inputs follow `_step2_input` with random.Random(0)
        m = compile_spec(parse_spec(spec))
        gs = build_generators(m)
        path = Path(__file__).resolve().parent / "data" / "reduce" / f"{name}.json"
        f = tuple(from_text(t, m.total_rank, 0) for t in json.loads(path.read_text()))
        assert f == _step2_input(m, gs, random.Random(0))
        log = self._agrees_with_dense(monkeypatch, m, f)
        assert log and all(verdict for *_, verdict in log)

    def test_the_default_set_is_accepted_without_a_build(self, monkeypatch):
        m = sp4xsp4()
        gs = build_generators(m)
        f = combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(4, 1, 0)})
        builds = []
        monkeypatch.setattr(generators, "build_generators",
                            lambda *args: builds.append(args) or build_generators(*args))
        reduce_to_generators(m, f, gs)
        assert builds == []
        reduce_to_generators(m, f, build_generators(m, [-x for x in gs.lambda0]))
        assert builds == [(m, tuple(-x for x in gs.lambda0))]

    @staticmethod
    def _koszul_row(gs, m):
        """gs with h2[1]'s row plus the Koszul pair (rho_b at a, -rho_a at b):
        a row that still expands to h2[1], but not one of the fill's."""
        a, b = 0, 1
        row = list(gs.h2_rows[0])
        row[a], row[b] = row[a] + gs.rho[b], row[b] - gs.rho[a]
        assert dot(row, gs.rho) == gs.h2[0]
        return gs._replace(h2_rows=(tuple(row),) + gs.h2_rows[1:])

    def test_other_sets(self, monkeypatch):
        # a set that build_generators did not return is rejected on entry; a
        # copy of the default set and the sets of other lambda0 are proved
        # by tuples, with every verdict the dense identity's and True
        m = sp4xsp4()
        gs = build_generators(m)
        ones = [m._basis_vec(k) for k in range(m.total_rank)
                if m.grade_of_weight(m._basis_vec(k)) == (1,)]
        assert build_generators(m, ones[1]).lambda0 != gs.lambda0
        rng = random.Random(3)
        labels = [name for name, _ in gs.labeled()]
        combos = [{"h2[1]": LaurentPoly.const(4, 1, 0)}] + [
            _bench_inputs().random_combination(rng, m, labels) for _ in range(6)]
        tuples = [combination_to_tuple(gs, combo) for combo in combos]
        with pytest.raises(ValueError, match="the generator set is not the model's"):
            reduce_to_generators(m, tuples[0], self._koszul_row(gs, m))
        # equal rows in a new tuple are not the fill's own
        copied = gs._replace(h2_rows=tuple(row for row in gs.h2_rows))
        assert copied.h2_rows is not gs.h2_rows
        for other in (copied, build_generators(m, ones[1]),
                      build_generators(m, [-x for x in ones[0]])):
            for f in tuples:
                with monkeypatch.context() as mp:
                    log = self._agrees_with_dense(mp, m, f, other)
                assert log and all(verdict for *_, verdict in log)

    @pytest.mark.parametrize("old, new, combo, message", [
        # step 1 subtracts c * row[j + 1] at position j
        ("rows = gs.h2_rows[i]", "rows = gs.h2_rows[i][1:] + gs.h2_rows[i][:1]",
         {"h2[1]": 1}, "running combination equality broken"),
        # step 1 credits the other h2 generator
        ('add_coeff(f"h2[{i + 1}]", c)', 'add_coeff(f"h2[{(i + 1) % np_ + 1}]", c)',
         {"h2[1]": 1}, "running combination equality broken"),
        # step 2 records no Koszul pair (None: the step-2 tuple of c = e^{lambda0})
        ("_add_entry(koszul, gi, oj, c.scale(a))", "pass",
         None, "running combination equality broken"),
        # step 3 credits h2[1]
        ('add_coeff(f"h3[{i - np_ + 1}]", f[gi])', 'add_coeff("h2[1]", f[gi])',
         {"h3[1]": 1}, "running combination equality broken"),
        # step 4 credits h2[i + 1]
        ('add_coeff(f"h1[{i + 1}]", c)', 'add_coeff(f"h2[{i + 1}]", c)',
         {"h1[1]": 1}, "final combination does not reproduce the input"),
    ])
    def test_a_wrong_step_still_raises(self, old, new, combo, message):
        m = sp4xsp4()
        gs = build_generators(m)
        if combo is None:
            f = _step2_tuple(gs, LaurentPoly.monomial(4, gs.lambda0),
                             gs.chain.order[gs.chain.nprime])
        else:
            f = combination_to_tuple(
                gs, {k: LaurentPoly.const(4, c, 0) for k, c in combo.items()})
        mutant, ns = _reduce_variant({old: new})
        ns["_tuple_proves"], log = _recording(ns["_tuple_proves"])
        with pytest.raises(AssertionError, match=message):
            mutant(m, f, gs)
        # the tuples differed, so the proof failed and raised
        assert log and log[-1][3] is False
        # the same input passes the unmutated reduction
        ref, ns = _reduce_variant({old: old})
        ns["_tuple_proves"], log = _recording(ns["_tuple_proves"])
        ref(m, f, gs)
        assert log and all(verdict for *_, verdict in log)


@st.composite
def step_inputs(draw):
    """(model, f) in R[T*]: a generator combination of a reduce-workload spec,
    drawn as the workload draws it, plus, where the spec has an h3 position,
    a step-2 tuple of a random degree-1 monomial, and one or two Koszul
    terms c e^mu (rho_j at i, -rho_i at j) with c odd, which often make the
    normalization's syzygy nonzero."""
    m = compile_spec(parse_spec(draw(st.sampled_from(REDUCE_SPECS))))
    gs = build_generators(m)
    n, chain = m.total_rank, gs.chain
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    combo = _bench_inputs().random_combination(rng, m, [name for name, _ in gs.labeled()])
    f = list(combination_to_tuple(gs, combo))
    if chain.nprime < n:
        e = draw(st.sampled_from([m._basis_vec(k) for k in range(n)
                                  if m.grading.images[k] == (1,)]))
        k = chain.order[draw(st.integers(chain.nprime, n - 1))]
        f = [a + b for a, b in zip(f, _step2_tuple(gs, LaurentPoly.monomial(n, e), k))]
    index = st.integers(0, n - 1)
    mu = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    odd = st.sampled_from([-3, -1, 1, 3])
    for i, j, c, e in draw(st.lists(st.tuples(index, index, odd, mu), min_size=1, max_size=2)):
        if i != j:
            coeff = LaurentPoly.monomial(n, e, c)
            f[i], f[j] = f[i] + coeff * gs.rho[j], f[j] - coeff * gs.rho[i]
    return m, tuple(f)


class TestStepsReadTheNormalizedParts:
    """Steps 1-2 read the wrong-degree parts that `_normalized` returns, not
    a new split of f: each part read equals the current coefficient's
    component of that degree, and a wrong part fails a later check."""

    PROBED = {"comp0 = wrong[gi]": "comp0 = _probe(wrong[gi], f[gi], (0,))",
              "comp1 = wrong[gi]": "comp1 = _probe(wrong[gi], f[gi], (1,))"}

    def _reads_current_parts(self, m, f):
        """The probed reduction's output, after checking that it reads one
        part per position, each the current f_i's component."""
        probed, ns = _reduce_variant(self.PROBED)
        log = []
        ns["_probe"] = lambda part, state, cls: log.append((part, state, cls)) or part
        out = probed(m, f)
        assert len(log) == m.total_rank
        for part, state, cls in log:
            assert part == homogeneous_component(state, m.grading, cls)
        return out

    def test_golden_reduce_inputs(self):
        for spec, f in golden_reduce_inputs():
            m = compile_spec(parse_spec(spec))
            assert self._reads_current_parts(m, f) == reduce_to_generators(m, f)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(step_inputs())
    def test_drawn_inputs(self, case):
        m, f = case
        out = self._reads_current_parts(m, f)
        assert expand_combination(build_generators(m), out) == dot(f, build_generators(m).rho)

    @pytest.mark.parametrize("old, combo, message", [
        # step 1 clears twice its part: a degree-0 part is left at a chain position
        ("comp0 = wrong[gi]", {"h2[1]": 1}, "step 4 precondition broken: degree-0 part present"),
        # step 2 clears twice its part (None: the step-2 tuple of c = e^{lambda0})
        ("comp1 = wrong[gi]", None, "step 2 left a degree-1 component behind"),
    ])
    def test_a_doubled_part_fails_a_later_check(self, old, combo, message):
        m = sp4xsp4()
        gs = build_generators(m)
        if combo is None:
            f = _step2_tuple(gs, LaurentPoly.monomial(4, gs.lambda0),
                             gs.chain.order[gs.chain.nprime])
        else:
            f = combination_to_tuple(
                gs, {k: LaurentPoly.const(4, c, 0) for k, c in combo.items()})
        mutant, ns = _reduce_variant({old: old + ".scale(2)"})
        ns["_tuple_proves"], log = _recording(ns["_tuple_proves"])
        with pytest.raises(AssertionError, match=message):
            mutant(m, f, gs)
        # the coefficients and the subtractions agree, so every tuple proof
        # held: the class check after the step raised
        assert log and all(verdict for *_, verdict in log)
        reduce_to_generators(m, f, gs)
