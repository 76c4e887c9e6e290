"""Generator sets for the W-invariant augmentation ideal intersected with R[T*].

Builds, for an index-2 character lattice, the three families of generators
(h1 / h2 / h3) from the gcd chain of degree-1 orbit sizes, and implements the
four-step reduction that rewrites any combination sum f_i rho_i lying in
R[T*] as an explicit combination of the generators.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .laurent import LaurentPoly, augmentation, dot, homogeneous_component
from .rootdata import LatticeModel
from .syzygy import (  # noqa: F401  (GcdChain and gcd_chain are public here too)
    GcdChain,
    _normalized,
    gcd_chain,
    reduction_data,
    validate_tuple,
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


def build_generators(model: LatticeModel, lambda0=None) -> GeneratorSet:
    """Generator families per the gcd-chain definition, verified degree 0."""
    chain, rho_nat = reduction_data(model)
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


def reduce_to_generators(model: LatticeModel, f, gs: GeneratorSet | None = None) -> dict:
    """Express sum f_i rho_i (in R[T*]) as a generator combination.

    Runs the coefficient normalization and then the four elimination steps,
    asserting the running equality after each step that changed the state:
    a step that changed nothing leaves the state the previous check (or the
    normalization's own check) verified.  After the last step the final
    re-expansion is that check.  Returns {label: coeff}.
    """
    if gs is None:
        gs = build_generators(model)
    chain = gs.chain
    n = model.total_rank
    np_ = chain.nprime
    f = list(validate_tuple(f))
    if len(f) != n:
        raise ValueError("tuple length must equal the model rank")
    rho = gs.rho
    d = chain.d
    grading = model.grading

    target = dot(f, rho)
    if homogeneous_component(target, grading, (1,)):
        raise ValueError("the combination is not in R[T*]")

    f = list(_normalized(model, tuple(f), target))
    result: dict[str, LaurentPoly] = {}
    by_label = dict(gs.labeled())
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
        if not changed:
            return
        changed = False
        gens = [by_label[name] for name in result]
        if dot([*f, *result.values()], [*rho, *gens]) != target:
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
    if expand_combination(gs, result) != target:
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
