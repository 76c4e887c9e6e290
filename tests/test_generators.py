import random

import pytest

from weylinv import generators
from weylinv.cli import parse_spec
from weylinv.fuzz import random_graded_poly
from weylinv.generators import (
    build_generators,
    combination_to_tuple,
    expand_combination,
    gcd_chain,
    reduce_to_generators,
)
from weylinv.laurent import (
    LaurentPoly,
    augmentation,
    dot,
    graded_components,
    homogeneous_component,
)
from weylinv.rootdata import GroupSpec, SimpleFactor, compile_spec, orbit_poly

from _helpers import reflect_local


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


class TestChecksFire:
    """A step that changes the state with corrupted data trips the check after it.

    Each case reduces sum_h c_h h over (Sp(4) x Sp(4)) / mu(2) with a
    combination that makes the named step act, and corrupts what that step
    reads: a generator, its row over rho, or the degree-0 element of step 2.
    """

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
        with pytest.raises(AssertionError, match="running combination equality broken"):
            reduce_to_generators(m, f, bad)

    def test_step2_coefficient(self, monkeypatch):
        m = sp4xsp4()
        gs = build_generators(m)
        n, chain = m.total_rank, gs.chain
        # c rho_k rho~(omega_1) = sum_j c a_0j rho_k rho_j + c d rho_k, written
        # with the degree-1 part c d at the h3 position k, which step 2 kills
        c = LaurentPoly.monomial(n, gs.lambda0)
        k = chain.order[chain.nprime]
        f = [LaurentPoly.zero(n, 0)] * n
        f[k] = c.scale(chain.d)
        for j in range(chain.nprime):
            f[chain.order[j]] = (c * gs.rho[k]).scale(chain.bezout[0][j])
        combo = reduce_to_generators(m, f, gs)
        assert list(combo) == ["h3[1]"]
        assert expand_combination(gs, combo) == dot(f, gs.rho)
        real = generators._rho_tilde_w
        monkeypatch.setattr(generators, "_rho_tilde_w",
                            lambda *a: real(*a) + LaurentPoly.const(n, 1, 0))
        with pytest.raises(AssertionError, match="running combination equality broken"):
            reduce_to_generators(m, f, gs)

    def test_step3_generator(self):
        one = LaurentPoly.const(4, 1, 0)
        m, gs, f = self._case({"h3[1]": one})
        bad = gs._replace(h3=tuple(h + one for h in gs.h3))
        with pytest.raises(AssertionError, match="running combination equality broken"):
            reduce_to_generators(m, f, bad)

    def test_last_step_generator(self):
        one = LaurentPoly.const(4, 1, 0)
        m, gs, f = self._case({"h1[1]": one})
        bad = gs._replace(h1=tuple(h + one for h in gs.h1))
        with pytest.raises(AssertionError,
                           match="final combination does not reproduce the input"):
            reduce_to_generators(m, f, bad)
