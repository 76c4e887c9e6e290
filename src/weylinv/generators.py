"""Generator sets for the W-invariant augmentation ideal intersected with R[T*].

Builds, for an index-2 character lattice, the three families of generators
(h1 / h2 / h3) from the gcd chain of degree-1 orbit sizes, and implements the
four-step reduction that rewrites any combination sum f_i rho_i lying in
R[T*] as an explicit combination of the generators.  Only h1 depends on the
degree-1 weight lambda0: the rest is built and checked once per model.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .laurent import LaurentPoly, augmentation, dot, dots, homogeneous_component
from .rootdata import LatticeModel
from .syzygy import (  # noqa: F401  (GcdChain and gcd_chain are public here too)
    GcdChain,
    _add_entry,
    _empty_cert,
    _model_tuple,
    _normalized,
    gcd_chain,
    graded_parts,
    reduction_data,
)


class ReductionError(ValueError):
    pass


class GeneratorSet(namedtuple("GeneratorSet",
                              "model chain lambda0 h1 h2 h3 rho h1_rows h2_rows h3_rows")):
    """The h1/h2/h3 generators together with the data they were built from.

    `h1`, `h2`, `h3` and `rho` (natural fw order) are tuples of LaurentPoly;
    `h*_rows` expand each generator over the rho's (natural order).
    """

    __slots__ = ()

    def labeled(self):
        out = []
        for k, h in enumerate(self.h1):
            out.append((f"h1[{k + 1}]", h))
        for k, h in enumerate(self.h2):
            out.append((f"h2[{k + 1}]", h))
        for k, h in enumerate(self.h3):
            out.append((f"h3[{k + 1}]", h))
        return out

    def rows_for(self, name):
        fam, idx = name.split("[")
        k = int(idx.rstrip("]")) - 1
        return {"h1": self.h1_rows, "h2": self.h2_rows, "h3": self.h3_rows}[fam][k]


def _rho_tilde_w(chain, rho_ord, i):
    """rho~(omega_i) = rho~_i + d_i, a pure degree-1 element, where
    rho~_i = sum_j a_ij rho_j over chain positions j >= i (0-based i)."""
    n, np_ = rho_ord[0].rank, chain.nprime
    return dot([LaurentPoly.const(n, a, 0) for a in chain.bezout[i][i:np_]],
               rho_ord[i:np_], LaurentPoly.const(n, chain.d_chain[i], 0))


def _check_family(name, gens, rows, rho, grading):
    """Each generator of the family is homogeneous of degree 0, has
    augmentation 0 and equals its row's expansion over rho."""
    for k, h in enumerate(gens):
        if homogeneous_component(h, grading, (1,)):
            raise AssertionError(f"generator {name}[{k + 1}] is not homogeneous of degree 0")
        if augmentation(h) != 0:
            raise AssertionError(f"generator {name}[{k + 1}] has nonzero augmentation")
    for gen, row in zip(gens, rows):
        if dot(row, rho) != gen:
            raise AssertionError(f"{name} expansion over rho is wrong")


@lru_cache(maxsize=None)
def _model_generators(model: LatticeModel) -> tuple:
    """(gs, h1_cores, rho_tilde_w1): the generator set of the default
    lambda0 = omega_{o_1}, the lambda0-free h1 cores and rho~(omega_1), what
    `build_generators` and `reduce_to_generators` read of the model,
    computed and checked once per model and process.

    h1[i] is e^{lambda0} * P_i for the lambda0-free core
    P_i = (r_i/s_i) rho_w(i) - (r_i/d_{i+1}) rho~_w(i+1); `h1_cores[i]` is
    (P_i, c) with h1_rows[i][j] = c[j] e^{lambda0}.  rho~(omega_1) is a
    factor of each h2 generator and of step 2's h3 coefficients.  The h2 and
    h3 families do not depend on lambda0 and are checked here; so is gs's
    h1 family, which `build_generators` returns when its twist equals it.
    """
    chain, rho_nat, _ = reduction_data(model)
    n = model.total_rank
    np_ = chain.nprime
    rho_ord = tuple(rho_nat[chain.order[k]] for k in range(n))
    rho_w_ord = tuple(rho_ord[k] + LaurentPoly.const(n, s, 0)
                      for k, s in enumerate(chain.sizes)) if np_ else ()
    d = chain.d
    zero = LaurentPoly.zero(n, 0)

    h1_cores = []
    for i in range(np_ - 1):
        s_i = chain.sizes[i]
        d_next = chain.d_chain[i + 1]
        r_i = s_i * d_next // math.gcd(s_i, d_next)
        core = (rho_w_ord[i].scale(r_i // s_i)
                - _rho_tilde_w(chain, rho_ord, i + 1).scale(r_i // d_next))
        coeffs = [0] * n
        coeffs[chain.order[i]] = r_i // s_i
        for j in range(i + 1, np_):
            coeffs[chain.order[j]] = -(r_i // d_next) * chain.bezout[i + 1][j]
        h1_cores.append((core, tuple(coeffs)))
    h2, h2_rows = [], []
    rho_tilde_w1 = _rho_tilde_w(chain, rho_ord, 0)
    for i in range(np_):
        s_i = chain.sizes[i]
        gen = rho_w_ord[i] * rho_tilde_w1 - LaurentPoly.const(n, d * s_i, 0)
        h2.append(gen)
        row = [zero] * n
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
        row = [zero] * n
        row[chain.order[k]] = LaurentPoly.const(n, 1, 0)
        h3_rows.append(tuple(row))

    lambda0 = model._basis_vec(chain.order[0])
    h1, h1_rows = _twist(n, lambda0, h1_cores)
    _check_family("h1", h1, h1_rows, rho_nat, model.grading)
    _check_family("h2", h2, h2_rows, rho_nat, model.grading)
    _check_family("h3", h3, h3_rows, rho_nat, model.grading)
    gs = GeneratorSet(model, chain, lambda0, h1, tuple(h2), tuple(h3), rho_nat,
                      h1_rows, tuple(h2_rows), tuple(h3_rows))
    return gs, tuple(h1_cores), rho_tilde_w1


def _twist(n, lambda0, h1_cores):
    """(h1, h1_rows): the h1 cores and their rows times e^{lambda0}."""
    e_l0 = LaurentPoly.monomial(n, lambda0)
    zero = LaurentPoly.zero(n, 0)
    h1 = tuple(e_l0 * core for core, _ in h1_cores)
    h1_rows = tuple(tuple(e_l0.scale(c) if c else zero for c in coeffs)
                    for _, coeffs in h1_cores)
    return h1, h1_rows


def build_generators(model: LatticeModel, lambda0=None) -> GeneratorSet:
    """Generator families per the gcd-chain definition, verified degree 0.

    The h2 and h3 families and the h1 cores come from `_model_generators`;
    each call twists the cores by e^{lambda0}.  A twist equal to the fill's
    checked default set's h1 family returns that set with this lambda0 (for
    n' = 1 every twist is empty); any other h1 family is checked here.
    """
    default, h1_cores, _ = _model_generators(model)
    lambda0 = default.lambda0 if lambda0 is None else tuple(lambda0)
    if model.grade_of_weight(lambda0) != (1,):
        raise ValueError("lambda0 must have degree 1")
    h1, h1_rows = _twist(model.total_rank, lambda0, h1_cores)
    if h1 == default.h1 and h1_rows == default.h1_rows:
        return default._replace(lambda0=lambda0)
    _check_family("h1", h1, h1_rows, default.rho, model.grading)
    return default._replace(lambda0=lambda0, h1=h1, h1_rows=h1_rows)


def expand_combination(gs: GeneratorSet, combo: dict) -> LaurentPoly:
    """Evaluate sum coeff * generator for {label: coefficient poly}."""
    by_label = dict(gs.labeled())
    return dot(combo.values(), [by_label[name] for name in combo],
               LaurentPoly.zero(gs.model.total_rank, 0))


def _row_terms(gs: GeneratorSet, combo: dict):
    """(j, c_g, row_g[j]) for each nonzero entry of each combination row."""
    for name, c in combo.items():
        for j, r in enumerate(gs.rows_for(name)):
            if r:
                yield j, c, r


def combination_to_tuple(gs: GeneratorSet, combo: dict) -> tuple:
    """Rewrite a generator combination as an f-tuple with sum f_i rho_i."""
    zero = LaurentPoly.zero(gs.model.total_rank, 0)
    return tuple(dots(_row_terms(gs, combo), [zero] * gs.model.total_rank))


def _tuple_proves(gs: GeneratorSet, f, combo: dict, goal: tuple) -> bool:
    """Whether F_j = f_j + sum_g c_g row_g[j] equals goal_j for every j:
    `dots` sums the rows' nonzero entries onto f, with dot's ring and
    exponent-range checks."""
    return dots(_row_terms(gs, combo), f) == list(goal)


def _accepted(model: LatticeModel, gs: GeneratorSet | None) -> GeneratorSet:
    """The generator set a reduction reads: `build_generators(model)` for
    None, else gs if it equals `build_generators(model, gs.lambda0)`, and
    ValueError if not.  The default set holds the fill's own objects, so it
    equals the fill's default set by identity tests, without a second build."""
    if gs is None:
        return build_generators(model)
    if gs != _model_generators(model)[0] and (
            gs.model is not model or gs != build_generators(model, gs.lambda0)):
        raise ValueError("the generator set is not the model's")
    return gs


def reduce_to_generators(model: LatticeModel, f, gs: GeneratorSet | None = None) -> dict:
    """Express sum f_i rho_i (in R[T*]) as a generator combination.

    gs must equal `build_generators(model, lambda0)` for some lambda0
    (ValueError otherwise); None reads the default set.  After the degree
    test, read off the graded parts (`syzygy.graded_parts`), and the
    coefficient normalization to g0, which returns g0's wrong-degree parts
    w_i = g0_i^(1-|i|), four elimination steps take f to 0.
    After each step that changed the state, and as the final re-expansion,
    one tuple equality proves sum f_i rho_i + sum c_g g = sum g0_i rho_i; a
    failed proof raises.  A step that changed nothing leaves the state the
    previous check (or the normalization's own) verified.  Returns
    {label: coeff}.

    The proof: F = f + sum_g c_g row_g equals g0 + K(rho), for the Koszul
    certificate K that step 2 records.  Step 2 writes c d rho_k as
    c rho~ rho_k - sum_j c a_j rho_{o_j} rho_k, so it moves F by K(rho) for
    K = sum_j c a_j S_(k, o_j); steps 1, 3 and 4 leave F unchanged.  Each
    row of gs expands to its generator over rho (`build_generators` checks
    every family it returns) and K(rho) . rho = 0, so sum f_i rho_i +
    sum c_g g = sum F_j rho_j = sum g0_j rho_j, the input's sum: g0 is f or
    passed the normalization's combination check.

    Steps 1-2 read w, not f, and w stays f's wrong-degree part: step 1 at
    chain position i subtracts only the degree-1 terms c rho_w(i) a_j at
    chain positions (c = w_{o_i}/d; rho_w(i) is an orbit sum of degree 1)
    and the c d = w_{o_i} that clears o_i, never a position >= n'; step 2
    at k = o_i, i >= n', subtracts c rho_k a_j at chain positions and
    c d = w_k at k alone.
    """
    gs = _accepted(model, gs)
    chain = gs.chain
    n = model.total_rank
    np_ = chain.nprime
    f_in = _model_tuple(model, f)
    rho = gs.rho
    d = chain.d
    grading = model.grading

    deg1, wrong = graded_parts(model, f_in)
    if deg1:
        raise ValueError("the combination is not in R[T*]")

    goal, wrong = _normalized(model, f_in, wrong)
    f = list(goal)
    result: dict[str, LaurentPoly] = {}
    changed = False  # since the last verified state

    # every step that changes f adds a nonzero coefficient (Z[T*] is a domain)
    def add_coeff(name, coeff):
        nonlocal changed
        if coeff.is_zero():
            return
        changed = True
        cur = result.get(name)
        result[name] = coeff if cur is None else cur + coeff

    def running_check():
        nonlocal changed
        if changed and not _tuple_proves(gs, f, result, goal):
            raise AssertionError("running combination equality broken")
        changed = False

    # step 1: kill f_i^(0) for chain positions i <= n'
    for i in range(np_):
        gi = chain.order[i]
        comp0 = wrong[gi]
        if comp0.is_zero():
            continue
        c = _exact_div(comp0, d, "step 1")
        add_coeff(f"h2[{i + 1}]", c)
        rows = gs.h2_rows[i]
        for j in range(n):
            if rows[j]:
                f[j] = f[j] - c * rows[j]
    running_check()

    # step 2: kill f_i^(1) for chain positions i > n'.  c d rho_k is
    # c rho~ rho_k - sum_j c a_j rho_{o_j} rho_k: F moves by the Koszul pairs
    # (k, o_j) with c a_j, which K records
    koszul = None
    for i in range(np_, n):
        gi = chain.order[i]
        comp1 = wrong[gi]
        if comp1.is_zero():
            continue
        c = _exact_div(comp1, d, "step 2")
        if koszul is None:
            rho_tilde_w1 = _model_generators(model)[2]
            koszul = _empty_cert(n, n, 0)
        add_coeff(f"h3[{i - np_ + 1}]", c * rho_tilde_w1)
        for j in range(np_):
            a = chain.bezout[0][j]
            if a:
                oj = chain.order[j]
                f[oj] = f[oj] - (c * rho[gi]).scale(a)
                _add_entry(koszul, gi, oj, c.scale(a))
        f[gi] = f[gi] - c.scale(d)
    if koszul is not None:
        goal = tuple(g + k for g, k in zip(goal, koszul.expand(rho)))
    running_check()

    # step 3: absorb the remaining degree-0 coefficients of the h3 positions
    for i in range(np_, n):
        gi = chain.order[i]
        if f[gi].is_zero():
            continue
        if homogeneous_component(f[gi], grading, (1,)):
            raise AssertionError("step 2 left a degree-1 component behind")
        add_coeff(f"h3[{i - np_ + 1}]", f[gi])
        f[gi] = LaurentPoly.zero(n, 0)
    running_check()

    # step 4: eliminate the degree-1 coefficients at chain positions 1..n'
    e_l0_inv = LaurentPoly.monomial(n, tuple(-x for x in gs.lambda0))
    for i in range(np_ - 1):
        gi = chain.order[i]
        comp1 = f[gi]
        if comp1.is_zero():
            continue
        if homogeneous_component(comp1, grading, (0,)):
            raise AssertionError("step 4 precondition broken: degree-0 part present")
        s_i = chain.sizes[i]
        d_next = chain.d_chain[i + 1]
        r_i = s_i * d_next // math.gcd(s_i, d_next)
        scale = r_i // s_i
        cdiv = _exact_div(comp1, scale, "step 4 divisibility")
        c = cdiv * e_l0_inv
        add_coeff(f"h1[{i + 1}]", c)
        rows = gs.h1_rows[i]
        for j in range(n):
            if rows[j]:
                f[j] = f[j] - c * rows[j]
        if not f[gi].is_zero():
            raise AssertionError("step 4 failed to clear the position")

    # the steps must leave f = 0, the last degree-1 position included
    if any(not fi.is_zero() for fi in f):
        running_check()
        if np_ and not f[chain.order[np_ - 1]].is_zero():
            raise ReductionError("nonzero residue at the last degree-1 position")
        raise ReductionError("reduction left nonzero coefficients")
    # with f = 0 the running equality is the final re-expansion
    if not _tuple_proves(gs, f, result, goal):
        raise AssertionError("final combination does not reproduce the input")
    return result


def _exact_div(poly: LaurentPoly, k: int, where: str) -> LaurentPoly:
    if k == 1:
        return poly
    terms = {}
    for key, c in poly._packed.items():
        if c % k:
            raise ReductionError(f"{where}: coefficient {c} not divisible by {k}")
        terms[key] = c // k
    return LaurentPoly._trusted(poly.rank, poly.modulus, terms, poly._bound)
