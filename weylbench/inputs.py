"""Seeded inputs for the three workloads, with the reason each was chosen.

Everything here is plain data or a pure function of the seed, except
`reduce_inputs`, which builds f-tuples through weylinv's public generator API
(the recipe of acceptance criterion 4) and returns them as text.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# invariants_cold

# pinned results: (inv_ind, inv_sd) invariant factors, "sd=ind" when the type-A
# closed form Sdec = Q makes the two groups equal, or None for "chain only".
# Values come from what the acceptance suite asserts and the closed forms the
# README lists; mixed-type Inv3_sd is never pinned (it is only a lower bound).
ANCHORS = [
    # the acceptance suite's EXERCISED_SPECS
    ("(SL(4) x SL(4)) / mu(2)", "sd=ind", "type-A diagonal, p-primary index 2"),
    ("(SL(6) x SL(3)) / mu(3)", "sd=ind", "type-A diagonal, index 3"),
    ("(SL(8) x SL(4)) / mu(4)", "sd=ind", "type-A diagonal, index 4; A7 orbit scan"),
    ("(SL(8) x SL(8)) / mu(2)", ((2, 2), (2, 2)), "cor:typeA, both n_i = 0 mod 4"),
    ("(Spin(5) x Spin(5)) / mu(2)", ((2,), (2,)), "propB with two rank-2 factors"),
    ("(Spin(5) x Spin(7)) / mu(2)", ((2,), ()), "propB, one rank-2 factor"),
    ("(Spin(7) x Spin(9)) / mu(2)", ((2,), ()), "propB, no rank-2 factor"),
    ("(Sp(2) x Sp(2)) / mu(2)", ((2,), (2,)), "prop:typec (1, 1)"),
    ("(Sp(4) x Sp(4)) / mu(2)", ((2,), (2,)), "prop:typec (2, 2)"),
    ("(Sp(8) x Sp(4)) / mu(2)", ((2,), (2,)), "prop:typec (4, 2)"),
    ("(Sp(8) x Sp(8)) / mu(2)", ((2, 2), (2,)), "prop:typec (4, 4), both divisible by 4"),
    ("(Sp(4) x Sp(6)) / mu(2)", ((2,), (2,)), "prop:typec (2, 3), mixed divisibility"),
    ("(Spin(10) x Spin(10)) / mu(4)", ((4,), (2,)), "Ddiagonal mu(4)"),
    ("(Spin(10) x Spin(10)) / mu(2)", ((2,), ()), "Ddiagonal mu(2)"),
    ("(Spin(8) x Spin(8)) / mu(2)", ((2,), ()), "Ddiagonal mu(2), D4 centre 2x2"),
    ("(E6 x E6) / mu(3)", ((2, 6), ()), "prop:typeE, E6 orbit scan"),
    ("(E7 x E7) / mu(2)", ((3, 12), ()), "prop:typeE, the E7 Dec cliff"),
    ("PGO(8)", ((2,), ()), "adjoint D4: Sdec = Dec"),
    ("PGSp(4) x PGSp(8)", ((2,), ()), "cor:typec, per-factor kernels"),
    ("SO(5) x SO(7)", ((), ()), "cor:typeB, per-factor kernels"),
    ("SL(2)", ((), ()), "simply connected simple group, the cheapest op"),
    # mixed types: the Sdec fallback chain (table -> generators -> elements)
    ("(SL(2) x Spin(7)) / mu(2)", None, "mixed A/B: Sdec falls back past the table"),
    ("(SL(6) x E6) / mu(3)", None, "mixed A/E6: Sdec fallback, E6 scan"),
    ("(SL(4) x Spin(10)) / mu(4)", None, "mixed A/D: Sdec fallback, bracket open"),
    ("(E7 x Sp(6)) / mu(2)", None, "mixed E7/C: Sdec fallback, E7 scan"),
    # three factors: the class-list product in the Dec enumeration
    ("(SL(6) x SL(6) x SL(6)) / mu(2)", "sd=ind", "three-factor product enumeration"),
    ("(SL(4) x SL(4) x SL(8)) / mu(4)", "sd=ind", "three factors of mixed size"),
    ("(Spin(10) x Spin(10) x Spin(14)) / mu(4)", ((4, 4), (2, 2)), "cor:typeD at m = 3"),
]

# input properties of the seeded draw (caps, not measured cost): specs of
# 1-3 factors, each of rank <= 2, modulo a diagonal mu(k).  A drawn spec with
# a factor of rank >= 6 costs anywhere from 40 ms to 1.2 s cold, so a handful
# of them moved ops_per_s by a third from seed to seed; the anchors carry the
# large cases at fixed inputs instead.  The small specs hold the median op, so
# each pass draws the same number of them per factor count (cost grows with
# the factor count), which keeps op_p50_ms from moving with the seed.
DRAW_PER_FACTOR_COUNT = {1: 12, 2: 12, 3: 12}
# factor -> orders k for which mu(k) embeds diagonally in its centre
DRAW_FACTORS = {"SL(2)": (2,), "SL(3)": (3,), "Spin(5)": (2,), "Sp(4)": (2,)}


def draw_spec(rng: random.Random, nfactors: int) -> str:
    """nfactors small factors modulo an admissible diagonal mu(k)."""
    names = sorted(DRAW_FACTORS)
    while True:
        facs = [rng.choice(names) for _ in range(nfactors)]
        orders = set.intersection(*(set(DRAW_FACTORS[f]) for f in facs))
        if orders:
            return f"({' x '.join(facs)}) / mu({rng.choice(sorted(orders))})"


def cold_inputs(seed: int, pass_index: int = 0) -> list[dict]:
    """Anchors plus this pass's draw, in a seeded order."""
    rng = random.Random(f"invariants_cold:{seed}:{pass_index}")
    ops = [{"kind": "invariants", "spec": s, "pin": pin, "anchor": True}
           for s, pin, _ in ANCHORS]
    for nfactors, count in DRAW_PER_FACTOR_COUNT.items():
        for _ in range(count):
            ops.append({"kind": "invariants", "spec": draw_spec(rng, nfactors),
                        "pin": None, "anchor": False})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# table_warm: the `weylinv table` families at per-family rank caps.  The caps
# leave out (SL(2) x SL(8))/mu(2) and the Spin(14) triples: each costs about
# a second, and how much of that a family's earlier ops have already cached
# depends on the seeded order, so with them op_tail_ms moved by a fifth from
# seed to seed.  The cold workload's anchors cover SL(8) and Spin(14).

TABLE_FAMILIES = (
    ("cor:typeA", 3), ("propB", 5), ("prop:typec", 6), ("cor:typec", 5),
    ("Ddiagonal", 7), ("cor:typeD", 5), ("prop:typeE", 4), ("pgo8", 4),
)


def family_specs(family: str, max_rank: int) -> list[str]:
    """Specs of one `weylinv table` family, as the CLI enumerates them."""
    mr = max_rank
    pairs = [(a, b) for a in range(1, mr + 1) for b in range(a, mr + 1)]
    if family == "cor:typeA":
        return [f"(SL({2 * a}) x SL({2 * b})) / mu(2)" for a, b in pairs]
    if family == "propB":
        return [f"(Spin({2 * a + 1}) x Spin({2 * b + 1})) / mu(2)" for a, b in pairs if a >= 2]
    if family == "prop:typec":
        return [f"(Sp({2 * a}) x Sp({2 * b})) / mu(2)" for a, b in pairs]
    if family == "cor:typec":
        return [f"PGSp({2 * a}) x PGSp({2 * b})" for a, b in pairs]
    if family == "Ddiagonal":
        odd = range(5, mr + 1, 2)
        return ([f"(Spin({2 * a}) x Spin({2 * b})) / mu(4)" for a in odd for b in odd if b >= a]
                + [f"(Spin({2 * a}) x Spin({2 * b})) / mu(2)" for a, b in pairs
                   if a >= 4 and (a + b) % 2 == 0])
    if family == "cor:typeD":
        odd = range(5, mr + 1, 2)
        return [f"(Spin({2 * a}) x Spin({2 * b}) x Spin({2 * c})) / mu(4)"
                for a in odd for b in odd for c in odd if a <= b <= c]
    if family == "prop:typeE":
        return ["(E6 x E6) / mu(3)", "(E7 x E7) / mu(2)"]
    if family == "pgo8":
        return ["PGO(8)"]
    raise ValueError(f"unknown family {family!r}")


def table_inputs(seed: int, pass_index: int = 0) -> list[list[dict]]:
    """One op list per family; seed and pass permute the order inside each family."""
    rng = random.Random(f"table_warm:{seed}:{pass_index}")
    out = []
    for family, mr in TABLE_FAMILIES:
        specs = family_specs(family, mr)
        rng.shuffle(specs)
        out.append([{"kind": "invariants", "spec": s} for s in specs])
    return out


# ---------------------------------------------------------------------------
# reduce: A/C specs with an index-2 grading, every total rank from 2 to 7

REDUCE_SPECS = (
    # (spec, combinations per pass)
    ("PGSp(4)", 4), ("(SL(2) x SL(2)) / mu(2)", 4),
    ("SL(4) / mu(2)", 4), ("(SL(2) x Sp(4)) / mu(2)", 4), ("PGSp(6)", 4),
    ("(Sp(4) x Sp(4)) / mu(2)", 4), ("(SL(2) x SL(4)) / mu(2)", 4), ("PGSp(8)", 4),
    ("(Sp(4) x Sp(6)) / mu(2)", 4), ("SL(6) / mu(2)", 4),
    ("(Sp(6) x Sp(6)) / mu(2)", 4), ("(SL(4) x SL(4)) / mu(2)", 4),
    ("(Sp(8) x Sp(6)) / mu(2)", 1),
)


def random_combination(rng, model, labels):
    """Acceptance criterion 4's recipe: sparse degree-0 coefficients on ~60% of labels."""
    from weylinv import LaurentPoly

    n = model.total_rank
    combo = {}
    for name in labels:
        if rng.random() < 0.6:
            terms = {}
            tries = 0
            while len(terms) < 2 and tries < 30:
                e = tuple(rng.randint(-1, 1) for _ in range(n))
                if model.grade_of_weight(e) == model.grading.zero:
                    terms[e] = terms.get(e, 0) + rng.randint(-2, 2)
                tries += 1
            coeff = LaurentPoly(n, 0, terms)
            if not coeff.is_zero():
                combo[name] = coeff
    return combo


def reduce_inputs(seed: int, pass_index: int = 0) -> list[dict]:
    """This pass's generator combinations turned into f-tuples, as polynomial text."""
    from weylinv import build_generators, compile_spec, parse_spec, to_text
    from weylinv.generators import combination_to_tuple

    rng = random.Random(f"reduce:{seed}:{pass_index}")
    ops = []
    for spec, count in REDUCE_SPECS:
        model = compile_spec(parse_spec(spec))
        gs = build_generators(model)
        labels = [name for name, _ in gs.labeled()]
        for _ in range(count):
            combo = random_combination(rng, model, labels)
            f = combination_to_tuple(gs, combo)
            ops.append({"kind": "reduce", "spec": spec,
                        "f": [to_text(p) for p in f],
                        "combo": {k: to_text(v) for k, v in sorted(combo.items())}})
    rng.shuffle(ops)
    return ops
