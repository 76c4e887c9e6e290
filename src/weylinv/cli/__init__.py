"""Command-line interface: computations, tables, verification runs.

The spec grammar lives in `weylinv.spec`; its parser and printer are
re-exported here.  `python -m weylinv.cli` runs `main` through this
package's `__main__`.  `argparse`, `json` and `random` are imported by the
functions that use them, so `import weylinv` does not load them.
"""

from __future__ import annotations

import itertools
import os
import sys

from ..fuzz import random_graded_poly, random_poly, syzygy_case
from ..generators import ReductionError, build_generators, reduce_to_generators
from ..invariants import (
    DecMismatchError,
    InvariantLattice,
    QuotientRing,
    compute_Dec,
    compute_Sdec,
    invariants_of,
    pgo8_lambda_prime,
    pgo8_model,
    pgo8_parity_check,
    quotient_generators,
)
from ..laurent import LaurentPoly, from_text, to_text
from ..rootdata import compile_spec, fundamental_orbit_sums
from ..spec import SpecParseError, parse_spec, spec_to_text
from ..syzygy import (
    check_flatness,
    is_unit_monomial,
    lift_syzygy,
    newton_transform,
    reduce_coefficients,
    trivialize_syzygy,
)


# --------------------------------------------------------------------------
# output helpers


def _lattice_json(lat: InvariantLattice):
    return {
        "hnf": [list(r) for r in lat.rows],
        "exactness": "exact" if lat.exact else "lower-bound",
        "mode": lat.mode,
    }


def _group_json(fg):
    return {"factors": list(fg.invariant_factors)}


def _fmt_group(fg):
    if not fg.invariant_factors:
        return "0"
    return " + ".join(f"Z/{d}" for d in fg.invariant_factors)


_TSV_HEADER = "spec\tQ\tDec\tSdec\tinv_ind\tinv_sd"


def _tsv_row(spec_text, rep):
    def rows(lat):
        return str([list(r) for r in lat.rows])
    return "\t".join([spec_text, rows(rep.Q), rows(rep.Dec), rows(rep.Sdec),
                      _fmt_group(rep.inv_ind), _fmt_group(rep.inv_sd)])


def run_invariants(args) -> int:
    import json

    spec = parse_spec(args.spec)
    model = compile_spec(spec)
    rep = invariants_of(model)
    payload = {
        "spec": spec_to_text(spec),
        "Q": _lattice_json(rep.Q),
        "Dec": _lattice_json(rep.Dec),
        "Sdec": _lattice_json(rep.Sdec),
        "inv_ind": _group_json(rep.inv_ind),
        "inv_sd": _group_json(rep.inv_sd),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    if args.tsv:
        print(_TSV_HEADER)
        print(_tsv_row(payload["spec"], rep))
        return 0
    print(f"spec: {payload['spec']}")
    print(f"Q:    {payload['Q']['hnf']}")
    print(f"Dec:  {payload['Dec']['hnf']} ({payload['Dec']['exactness']}, {rep.Dec.mode})")
    print(f"Sdec: {payload['Sdec']['hnf']} ({payload['Sdec']['exactness']}, {rep.Sdec.mode})")
    print(f"Inv3_ind: {_fmt_group(rep.inv_ind)}")
    print(f"Inv3_sd:  {_fmt_group(rep.inv_sd)}")
    if args.show_generators:
        for name, sub, sup in (("Inv3_ind", rep.Dec, rep.Q),
                               ("Inv3_sd", rep.Dec, rep.Sdec)):
            gens = quotient_generators(sub, sup)
            pretty = ", ".join(
                f"(Z/{d})(" + " ".join(f"{c:+d}q{i+1}" for i, c in enumerate(v) if c) + ")"
                for d, v in gens) or "0"
            print(f"{name} generators: {pretty}")
    return 0


def run_generators(args) -> int:
    spec = parse_spec(args.spec)
    model = compile_spec(spec)
    lambda0 = None
    if args.lambda0 is not None:
        idx = args.lambda0 - 1
        if not 0 <= idx < model.total_rank:
            raise ValueError(f"lambda0 index out of range 1..{model.total_rank}")
        lambda0 = model._basis_vec(idx)
    gs = build_generators(model, lambda0)
    print(f"spec: {spec_to_text(spec)}")
    print(f"reindexing (fundamental weights, degree-1 first): "
          f"{[i + 1 for i in gs.chain.order]}")
    print(f"orbit sizes s: {list(gs.chain.sizes)}")
    print(f"gcd chain d:   {list(gs.chain.d_chain)}")
    print(f"lambda0: x{gs.lambda0.index(1) + 1}")
    for name, h in gs.labeled():
        print(f"{name} = {to_text(h)}")
    return 0


def run_reduce(args) -> int:
    import json

    spec = parse_spec(args.spec)
    model = compile_spec(spec)
    try:
        with open(args.input) as fh:
            entries = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read --input {args.input!r}: {exc.strerror}") from exc
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ValueError(f"cannot parse --input {args.input!r}: {exc}") from exc
    if not isinstance(entries, list) or len(entries) != model.total_rank \
            or not all(isinstance(e, str) for e in entries):
        raise ValueError(f"input must be a JSON array of {model.total_rank} polynomial strings")
    f = []
    for i, s in enumerate(entries, 1):
        try:
            f.append(from_text(s, model.total_rank, 0))
        except ValueError as exc:
            raise ValueError(f"entry {i} of --input {args.input!r}: {exc}") from exc
    gs = build_generators(model)
    combo = reduce_to_generators(model, tuple(f), gs)
    payload = {
        "spec": spec_to_text(spec),
        "combination": {name: to_text(c) for name, c in sorted(combo.items())},
        "reindexing": [i + 1 for i in gs.chain.order],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def run_verify_flatness(args) -> int:
    kind = args.type
    flat, tr, rho = newton_transform(kind, args.rank)
    ok, notes = check_flatness(flat)
    unit = is_unit_monomial(tr.det)
    for note in notes:
        print(note)
    print(f"det(A) = {to_text(tr.det)} ({'unit monomial' if unit else 'NOT a unit'})")
    if args.dump_poly:
        for i, p in enumerate(flat):
            print(f"r[{i + 1}] = {to_text(p)}")
        for i, p in enumerate(rho):
            print(f"rho[{i + 1}] = {to_text(p)}")
    return 0 if ok and unit else 2


def run_fuzz_syzygy(args) -> int:
    import random

    rng = random.Random(args.seed)
    failures = 0
    for case in range(args.cases):
        t, f = syzygy_case(rng)
        try:
            cert = trivialize_syzygy(t, f)
            if cert.expand(t) != f:
                raise AssertionError("the certificate does not expand to f")
            if t[0].modulus:
                lifted = lift_syzygy(t, cert)
                back = {k: reduce_coefficients(g, t[0].modulus)
                        for k, g in lifted.entries.items()}
                if back != cert.entries:
                    raise AssertionError("the lifted certificate does not reduce to the original")
        except Exception as exc:  # pragma: no cover - failure report path
            failures += 1
            print(f"case {case}: FAIL ({exc})")
    print(f"{args.cases} cases, {failures} failures")
    return 0 if failures == 0 else 2


def run_pgo8_check(args) -> int:
    import random

    model = pgo8_model()
    rng = random.Random(args.seed)
    ring = QuotientRing(4, pgo8_lambda_prime(), 4)
    rho = fundamental_orbit_sums(model)
    e1 = (1, 0, 0, 0)
    e2 = (-1, 1, 0, 0)
    img1 = ring.reduce(rho[0])
    ok = img1 == {ring.grading.of_exponent(e1): 2, ring.grading.of_exponent(e2): 2}
    print(f"rho_1 -> 2 e^[e1] + 2 e^[e2] in (Z/4)[L/L']: {'ok' if ok else 'FAIL'}")
    for i in (1, 2, 3):
        good = ring.reduce(rho[i]) == {}
        ok = ok and good
        print(f"rho_{i + 1} -> 0: {'ok' if good else 'FAIL'}")
    zero = LaurentPoly.zero(4, 0)
    bad = 0
    for _ in range(args.cases):
        f = [zero, random_graded_poly(rng, model.grading), zero, zero]
        for i in range(4):
            for j in range(i + 1, 4):
                if rng.random() < 0.4:
                    h = random_poly(rng, 4, 0, 2, lo=-1, hi=1, clo=-4, chi=4)
                    f[i] = f[i] + h * rho[j]
                    f[j] = f[j] - h * rho[i]
        rep = pgo8_parity_check(tuple(f))
        if not (rep["in_tstar"] and all(rep["parities_even"]) and rep["z16_constant"]):
            bad += 1
    print(f"parity check on {args.cases} tuples: {args.cases - bad} ok, {bad} failures")
    dec = compute_Dec(model)
    sdec = compute_Sdec(model, dec)
    conc = dec.rows == ((4,),) and sdec.rows == ((4,),)
    print(f"Dec = Sdec = 4Zq: {'ok' if conc else 'FAIL'}")
    return 0 if ok and bad == 0 and conc else 2


_FAMILIES = {
    "cor:typeA": lambda mr: [f"(SL({2*a}) x SL({2*b})) / mu(2)"
                             for a in range(1, mr + 1) for b in range(a, mr + 1)],
    "propB": lambda mr: [f"(Spin({2*a+1}) x Spin({2*b+1})) / mu(2)"
                         for a in range(2, mr + 1) for b in range(a, mr + 1)],
    "prop:typec": lambda mr: [f"(Sp({2*a}) x Sp({2*b})) / mu(2)"
                              for a in range(1, mr + 1) for b in range(a, mr + 1)],
    "cor:typec": lambda mr: [f"PGSp({2*a}) x PGSp({2*b})"
                             for a in range(1, mr + 1) for b in range(a, mr + 1)],
    "Ddiagonal": lambda mr: [f"(Spin({2*a}) x Spin({2*b})) / mu(4)"
                             for a in range(5, mr + 1, 2) for b in range(a, mr + 1, 2)]
                            + [f"(Spin({2*a}) x Spin({2*b})) / mu(2)"
                               for a in range(4, mr + 1) for b in range(a, mr + 1)
                               if (a + b) % 2 == 0],
    "cor:typeD": lambda mr: [f"(Spin({2*a}) x Spin({2*b}) x Spin({2*c})) / mu(4)"
                             for a in range(5, mr + 1, 2)
                             for b in range(a, mr + 1, 2)
                             for c in range(b, mr + 1, 2)],
    "prop:typeE": lambda mr: ["(E6 x E6) / mu(3)", "(E7 x E7) / mu(2)"],
    "pgo8": lambda mr: ["PGO(8)"],
}


def run_table(args) -> int:
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family {args.family!r}; known: {sorted(_FAMILIES)}")
    family = _FAMILIES[args.family]
    specs = family(args.max_rank)
    if not specs:
        first = next(r for r in itertools.count(args.max_rank + 1) if family(r))
        print(f"weylinv table: error: family {args.family!r} starts at rank {first}, "
              f"above --max-rank {args.max_rank}", file=sys.stderr)
        return 1
    print(_TSV_HEADER)
    code = 0
    for stext in specs:
        spec = parse_spec(stext)
        model = compile_spec(spec)
        try:
            rep = invariants_of(model)
        except DecMismatchError as exc:
            print(f"{stext}\tMISMATCH: {exc}")
            code = 2
            continue
        print(_tsv_row(stext, rep))
    return code


def make_parser():
    import argparse

    ap = argparse.ArgumentParser(
        prog="weylinv",
        description="Exact invariant-group and syzygy computations on weight lattices")
    sub = ap.add_subparsers(dest="verb", required=True)

    def at_least(lo):
        def integer(text):  # argparse names it in "invalid integer value: 'x'"
            if int(text) < lo:
                raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
            return int(text)
        return integer

    p = sub.add_parser("invariants", help="compute Q, Dec, Sdec and factor groups")
    p.add_argument("--spec", required=True)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--tsv", action="store_true")
    p.add_argument("--show-generators", action="store_true")
    p.set_defaults(fn=run_invariants)

    p = sub.add_parser("generators", help="print the generator set")
    p.add_argument("--spec", required=True)
    p.add_argument("--lambda0", type=int, default=None,
                   help="1-based fundamental-weight index for the degree-1 shift")
    p.set_defaults(fn=run_generators)

    p = sub.add_parser("reduce", help="reduce an f-tuple to the generators")
    p.add_argument("--spec", required=True)
    p.add_argument("--input", required=True, help="JSON array of polynomial strings")
    p.set_defaults(fn=run_reduce)

    p = sub.add_parser("verify-flatness", help="check the Newton transform")
    p.add_argument("--type", required=True, choices=["A", "C"])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--dump-poly", action="store_true")
    p.set_defaults(fn=run_verify_flatness)

    p = sub.add_parser("fuzz-syzygy", help="randomized trivialization round-trips")
    p.add_argument("--cases", type=at_least(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=run_fuzz_syzygy)

    p = sub.add_parser("table", help="emit a family table as TSV")
    p.add_argument("--family", required=True)
    p.add_argument("--max-rank", type=at_least(1), default=4)
    p.set_defaults(fn=run_table)

    p = sub.add_parser("pgo8-check", help="adjoint D4 verification suite")
    p.add_argument("--cases", type=at_least(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=run_pgo8_check)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`... | head -1`): send what is left
        # to devnull so the flush at exit does not raise again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DecMismatchError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ReductionError) as exc:
        # internal consistency checks (e.g. a certificate that does not
        # expand back) raise bare AssertionErrors; reduce_to_generators
        # raises ReductionError only on input that passed its degree-0 check
        msg = " ".join(str(exc).split()) or type(exc).__name__
        print(f"verification failure: {msg}", file=sys.stderr)
        return 2
    except (SpecParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:   # e.g. the per-node root data of SL(99999999999)
        print("error: out of memory; is a rank too large?", file=sys.stderr)
        return 1
