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

from .laurent import LaurentPoly, augmentation, dot, homogeneous_component
from .rootdata import LatticeModel
from .syzygy import (  # noqa: F401  (GcdChain and gcd_chain are public here too)
    GcdChain,
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
    """(chain, rho, h1_cores, h2, h3, h2_rows, h3_rows, h1, h1_rows): what
    `build_generators` and `reduce_to_generators` read of the model, computed
    and checked once per model and process.

    h1[i] is e^{lambda0} * P_i for the lambda0-free core
    P_i = (r_i/s_i) rho_w(i) - (r_i/d_{i+1}) rho~_w(i+1); `h1_cores[i]` is
    (P_i, c) with h1_rows[i][j] = c[j] e^{lambda0}.  The h2 and h3 families
    do not depend on lambda0 and are checked here; so is the h1 family of the
    default lambda0 (the last two fields), which `build_generators` returns
    when its twist equals it.
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
    rho_tilde_w0 = _rho_tilde_w(chain, rho_ord, 0)
    for i in range(np_):
        s_i = chain.sizes[i]
        gen = rho_w_ord[i] * rho_tilde_w0 - LaurentPoly.const(n, d * s_i, 0)
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

    h1, h1_rows = _twist(n, _default_lambda0(model, chain), h1_cores)
    _check_family("h1", h1, h1_rows, rho_nat, model.grading)
    _check_family("h2", h2, h2_rows, rho_nat, model.grading)
    _check_family("h3", h3, h3_rows, rho_nat, model.grading)
    return (chain, rho_nat, tuple(h1_cores), tuple(h2), tuple(h3),
            tuple(h2_rows), tuple(h3_rows), h1, h1_rows)


def _default_lambda0(model, chain):
    return model._basis_vec(chain.order[0])


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
    default-lambda0 family returns the fill's own tuples, which the fill
    checked; any other h1 family is checked here.
    """
    (chain, rho, h1_cores, h2, h3, h2_rows, h3_rows,
     h1_default, h1_rows_default) = _model_generators(model)
    if lambda0 is None:
        lambda0 = _default_lambda0(model, chain)
    lambda0 = tuple(lambda0)
    if model.grade_of_weight(lambda0) != (1,):
        raise ValueError("lambda0 must have degree 1")

    h1, h1_rows = _twist(model.total_rank, lambda0, h1_cores)
    if h1 == h1_default and h1_rows == h1_rows_default:
        h1, h1_rows = h1_default, h1_rows_default
    else:
        _check_family("h1", h1, h1_rows, rho, model.grading)
    return GeneratorSet(model, chain, lambda0, h1, h2, h3, rho, h1_rows, h2_rows, h3_rows)


def expand_combination(gs: GeneratorSet, combo: dict) -> LaurentPoly:
    """Evaluate sum coeff * generator for {label: coefficient poly}."""
    by_label = dict(gs.labeled())
    return dot(combo.values(), [by_label[name] for name in combo],
               LaurentPoly.zero(gs.model.total_rank, 0))


def combination_to_tuple(gs: GeneratorSet, combo: dict) -> tuple:
    """Rewrite a generator combination as an f-tuple with sum f_i rho_i."""
    n = gs.model.total_rank
    rows = [gs.rows_for(name) for name in combo]
    zero = LaurentPoly.zero(n, 0)
    return tuple(dot(combo.values(), [r[j] for r in rows], zero) for j in range(n))


def _rows_checked(model: LatticeModel, gs: GeneratorSet) -> bool:
    """Whether every row of gs is one this process checked against rho: the
    tuples of the model's fill themselves, its default-lambda0 h1 family
    included (`build_generators` returns those for the default twist)."""
    _, _, _, h2, h3, h2_rows, h3_rows, h1, h1_rows = _model_generators(model)
    return (gs.h2 is h2 and gs.h3 is h3 and gs.h2_rows is h2_rows
            and gs.h3_rows is h3_rows and gs.h1 is h1 and gs.h1_rows is h1_rows)


def _tuple_proves(gs: GeneratorSet, f, combo: dict, g0: tuple) -> bool:
    """Whether F_j = f_j + sum_g c_g row_g[j] equals g0_j for every j.

    One pass over each row's nonzero entries sorts the pairs (c_g, row_g[j])
    by position; each position's pairs are then summed onto f_j by `dot`,
    with its ring and exponent-range checks.
    """
    xs, ys = [[] for _ in f], [[] for _ in f]
    for name, c in combo.items():
        for j, r in enumerate(gs.rows_for(name)):
            if r:
                xs[j].append(c)
                ys[j].append(r)
    return all((dot(x, y, fj) if x else fj) == gj
               for x, y, fj, gj in zip(xs, ys, f, g0))


def reduce_to_generators(model: LatticeModel, f, gs: GeneratorSet | None = None) -> dict:
    """Express sum f_i rho_i (in R[T*]) as a generator combination.

    Runs the coefficient normalization and then the four elimination steps,
    asserting the running equality sum f_i rho_i + sum c_g g = target after
    each step that changed the state: a step that changed nothing leaves the
    state the previous check (or the normalization's own check) verified.
    After the last step the final re-expansion is that check.

    The degree test, deg_1(sum f_i rho_i) = 0, runs on every call, on the
    graded parts (`syzygy.graded_parts`): deg_1 = sum_i f_i^(0) rho_i^(1) +
    f_i^(1) rho_i^(0), exact without forming target = sum f_i rho_i.

    Each check first forms F = f + sum_g c_g row_g, entry by entry, and
    compares it with g0, the normalized tuple.  If gs holds rows this
    process checked (`_rows_checked`) and F == g0, the identity is proved:
    sum f_i rho_i + sum c_g g = sum F_j rho_j = sum g0_j rho_j = target, since
    each such row expands to its generator over rho (`_check_family`) and g0
    either is f or passed the normalization's combination check.  Otherwise
    the identity is evaluated densely against target, which is formed then,
    once per call: after a failed tuple proof, so after step 2 (which adds
    a Koszul term to F; steps 1, 3 and 4 leave F unchanged), or for a
    generator set that is not the fill's.  A mismatch raises.  Returns
    {label: coeff}.
    """
    if gs is None:
        gs = build_generators(model)
    chain = gs.chain
    n = model.total_rank
    np_ = chain.nprime
    f_in = _model_tuple(model, f)
    rho = gs.rho
    d = chain.d
    grading = model.grading
    # the tuple proof reads target as sum f_i rho_i over the model's own rho,
    # and the degree test reads the model's wrong-degree parts of it; a
    # genuine gs holds that very tuple
    _, rho_model, rho_wrong = reduction_data(model)
    if rho != rho_model:
        raise ValueError("the generator set's rho is not the model's")

    deg1, wrong = graded_parts(model, f_in, rho, rho_wrong)
    if deg1:
        raise ValueError("the combination is not in R[T*]")

    g0 = _normalized(model, f_in, wrong)
    f = list(g0)
    result: dict[str, LaurentPoly] = {}
    rows_checked = _rows_checked(model, gs)
    changed = False  # since the last verified state
    target = None

    def input_combination():
        """target = sum f_i rho_i of the input, formed on first read."""
        nonlocal target
        if target is None:
            target = dot(f_in, rho)
        return target

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
        if not changed:
            return
        changed = False
        if rows_checked and _tuple_proves(gs, f, result, g0):
            return
        by_label = dict(gs.labeled())
        gens = [by_label[name] for name in result]
        if dot([*f, *result.values()], [*rho, *gens]) != input_combination():
            raise AssertionError("running combination equality broken")

    # step 1: kill f_i^(0) for chain positions i <= n'
    for i in range(np_):
        gi = chain.order[i]
        comp0 = homogeneous_component(f[gi], grading, (0,))
        if comp0.is_zero():
            continue
        c = _exact_div(comp0, d, "step 1")
        add_coeff(f"h2[{i + 1}]", c)
        rows = gs.h2_rows[i]
        for j in range(n):
            if rows[j]:
                f[j] = f[j] - c * rows[j]
    running_check()

    # step 2: kill f_i^(1) for chain positions i > n'
    rho_tilde_w1 = None
    for i in range(np_, n):
        gi = chain.order[i]
        comp1 = homogeneous_component(f[gi], grading, (1,))
        if comp1.is_zero():
            continue
        c = _exact_div(comp1, d, "step 2")
        if rho_tilde_w1 is None:
            rho_ord = tuple(rho[chain.order[k]] for k in range(n))
            rho_tilde_w1 = _rho_tilde_w(chain, rho_ord, 0)
        add_coeff(f"h3[{i - np_ + 1}]", c * rho_tilde_w1)
        for j in range(np_):
            a = chain.bezout[0][j]
            if a:
                f[chain.order[j]] = f[chain.order[j]] - (c * rho[gi]).scale(a)
        f[gi] = f[gi] - c.scale(d)
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
        if homogeneous_component(f[gi], grading, (0,)):
            raise AssertionError("step 4 precondition broken: degree-0 part present")
        comp1 = f[gi]
        if comp1.is_zero():
            continue
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
    if rows_checked and _tuple_proves(gs, f, result, g0):
        return result
    if expand_combination(gs, result) != input_combination():
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
