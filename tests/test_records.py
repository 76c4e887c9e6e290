"""The record types are namedtuples that keep the dataclass behaviour they
replaced, and `import weylinv` loads no module that no computation needs."""

import ast
import dataclasses
import os
import subprocess
import sys

import pytest

import weylinv
from weylinv import (
    FactorGroup,
    GcdChain,
    GeneratorSet,
    GroupSpec,
    InvariantLattice,
    LatticeModel,
    SimpleFactor,
    SyzygyCertificate,
    TransformMatrix,
    TruncatedForm,
    compile_spec,
    gcd_chain,
    invariants_of,
    newton_transform,
    parse_spec,
)
from weylinv.invariants import InvariantReport
from weylinv.rootdata import cartan_rows, center_group, frozen_setattr, residue_functionals

# (type, fields, defaults of the trailing fields, frozen)
RECORDS = [
    (SimpleFactor, ("kind", "rank"), {}, True),
    (GroupSpec, ("factors", "center_kernel"), {"center_kernel": ()}, True),
    (TruncatedForm, ("c0", "c1", "c2"), {}, True),
    (InvariantLattice, ("dim", "rows", "exact", "mode"), {"exact": True, "mode": "exact"}, True),
    (FactorGroup, ("invariant_factors", "free_rank"), {"free_rank": 0}, True),
    (TransformMatrix, ("entries", "det"), {}, True),
    (SyzygyCertificate, ("length", "rank", "modulus", "entries"), {}, False),
    (GcdChain, ("order", "nprime", "sizes", "d_chain", "bezout"), {}, False),
    (GeneratorSet, ("model", "chain", "lambda0", "h1", "h2", "h3", "rho",
                    "h1_rows", "h2_rows", "h3_rows"), {}, False),
    (InvariantReport, ("spec", "Q", "Dec", "Sdec", "inv_ind", "inv_sd"), {}, False),
]


def _samples():
    """One instance of each frozen record type, built as the package builds them."""
    spec = parse_spec("(SL(2) x Spin(10)) / mu(2)")
    _, tr, _ = newton_transform("C", 2)
    return [spec.factors[1], spec, TruncatedForm(1, (0, 2), (((0, 1), 3),)),
            InvariantLattice(2, ((1, 0), (0, 1))), FactorGroup((2,)), tr]


@pytest.mark.parametrize("cls,fields,defaults,frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_fields_and_defaults(cls, fields, defaults, frozen):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert cls.__slots__ == ()
    assert (cls.__setattr__ is frozen_setattr) == frozen


def test_lattice_model_is_immutable():
    # compile_spec hands one model to every caller of a spec
    model = compile_spec(parse_spec("(SL(2) x Spin(10)) / mu(2)"))
    assert LatticeModel.__setattr__ is LatticeModel.__delattr__ is frozen_setattr
    assert model.offsets == (0, 1)
    assert model._cartan[1][3] == (0, 0, -1, 2, 0)
    assert model._residue == ((((1,), 2),), (((2, 0, 2, 1, 3), 4),))
    for name in ("offsets", "_cartan", "_residue", "factors", "congruences", "grading.images"):
        value = model.grading.images if name == "grading.images" else getattr(model, name)
        assert isinstance(value, tuple), name
        assert all(not isinstance(x, (list, dict, set)) for x in value), name
    for name in ("offsets", "grading", "spec", "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field {name!r}"):
            setattr(model, name, ())
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'offsets'"):
        del model.offsets
    assert model.offsets == (0, 1)


def test_models_share_their_per_type_tuples():
    # the Cartan and residue tuples are built once per (kind, rank); the
    # residue moduli are the centre's invariant factors
    a = compile_spec(parse_spec("(SL(2) x Spin(10)) / mu(2)"))
    b = compile_spec(parse_spec("Spin(10) x SL(2) x Spin(10)"))
    for name in ("_cartan", "_residue"):
        x, y = getattr(a, name), getattr(b, name)
        assert x[0] is y[1] and x[1] is y[0] is y[2], name
    for model in (a, b):
        for f, cartan, residue in zip(model.factors, model._cartan, model._residue):
            assert cartan == tuple(map(tuple, cartan_rows(f.kind, f.rank)))
            assert residue == tuple((tuple(v), m) for v, m in residue_functionals(f.kind, f.rank))
            assert tuple(m for _, m in residue) == center_group(f.kind, f.rank)
    assert b._cartan[0][3] == (0, 0, -1, 2, 0)
    assert b._residue == ((((2, 0, 2, 1, 3), 4),), (((1,), 2),), (((2, 0, 2, 1, 3), 4),))
    assert tuple(tuple(m for _, m in r) for r in b._residue) == ((4,), (2,), (4,))


def test_per_type_readers_read_the_type_tuples(monkeypatch):
    # center_group, center_order and killing_gram read the one per-type
    # cache: with the tables unreadable, a (kind, rank) already in it still
    # gives all three
    from weylinv import rootdata

    def readers():
        return (rootdata.center_group("D", 6), rootdata.center_order("D", 6, (1, 1)),
                rootdata.killing_gram("D", 6))

    want = readers()
    rootdata._type_tuples("D", 6)

    def unreadable(kind, n):
        raise AssertionError("a per-type table was read again")

    monkeypatch.setattr(rootdata, "cartan_rows", unreadable)
    monkeypatch.setattr(rootdata, "residue_functionals", unreadable)
    rootdata.killing_gram.cache_clear()
    assert readers() == want


# repr text as the dataclasses printed it
PINNED_REPRS = [
    (FactorGroup((2,), 0), "FactorGroup(invariant_factors=(2,), free_rank=0)"),
    (FactorGroup((2, 4)), "FactorGroup(invariant_factors=(2, 4), free_rank=0)"),
    (InvariantLattice(2, ((1, 0), (0, 1))),
     "InvariantLattice(dim=2, rows=((1, 0), (0, 1)), exact=True, mode='exact')"),
    (InvariantLattice(dim=1, rows=((4,),), exact=False, mode="table"),
     "InvariantLattice(dim=1, rows=((4,),), exact=False, mode='table')"),
    (SimpleFactor("D", 4), "SimpleFactor(kind='D', rank=4)"),
    (GroupSpec((SimpleFactor("A", 1),)),
     "GroupSpec(factors=(SimpleFactor(kind='A', rank=1),), center_kernel=())"),
    (parse_spec("(SL(2) x Spin(10)) / mu(2)"),
     "GroupSpec(factors=(SimpleFactor(kind='A', rank=1), SimpleFactor(kind='D', rank=5)), "
     "center_kernel=((1, 2),))"),
    (TruncatedForm(1, (0, 2), (((0, 1), 3),)), "TruncatedForm(c0=1, c1=(0, 2), c2=(((0, 1), 3),))"),
    (SyzygyCertificate(2, 1, 0, {}), "SyzygyCertificate(length=2, rank=1, modulus=0, entries={})"),
    (gcd_chain(compile_spec(parse_spec("PGSp(4)"))),
     "GcdChain(order=(0, 1), nprime=1, sizes=(4,), d_chain=(4,), bezout=((1,),))"),
    (newton_transform("A", 1)[1],
     "TransformMatrix(entries=((LaurentPoly('1 * x1'),),), det=LaurentPoly('1 * x1'))"),
]


@pytest.mark.parametrize("rec,text", PINNED_REPRS, ids=[t.split("(")[0] for _, t in PINNED_REPRS])
def test_pinned_repr(rec, text):
    assert repr(rec) == text


def test_str():
    assert str(SimpleFactor("D", 4)) == "D4"
    assert str(parse_spec("(SL(2) x Spin(10)) / mu(2)")) == "(A1 x D5) / <1 kernel generator(s)>"
    assert str(FactorGroup((2,))) == repr(FactorGroup((2,)))


def test_invariant_report_repr():
    rep = invariants_of(compile_spec(parse_spec("(SL(2) x SL(2)) / mu(2)")))
    assert repr(rep) == (
        "InvariantReport(spec=GroupSpec(factors=(SimpleFactor(kind='A', rank=1), "
        "SimpleFactor(kind='A', rank=1)), center_kernel=((1, 1),)), "
        "Q=InvariantLattice(dim=2, rows=((1, 3), (0, 4)), exact=True, mode='exact'), "
        "Dec=InvariantLattice(dim=2, rows=((2, 2), (0, 4)), exact=True, mode='both'), "
        "Sdec=InvariantLattice(dim=2, rows=((1, 3), (0, 4)), exact=True, mode='table'), "
        "inv_ind=FactorGroup(invariant_factors=(2,), free_rank=0), "
        "inv_sd=FactorGroup(invariant_factors=(2,), free_rank=0))")


def test_keyword_construction():
    assert SimpleFactor(kind="C", rank=3) == SimpleFactor("C", 3)
    assert GroupSpec(factors=(SimpleFactor("A", 1),)) == GroupSpec((SimpleFactor("A", 1),), ())
    assert InvariantLattice(dim=1, rows=((2,),), mode="table") == \
        InvariantLattice(1, ((2,),), True, "table")
    assert FactorGroup(invariant_factors=(2,), free_rank=1).free_rank == 1
    assert TruncatedForm(c0=1, c1=(), c2=()).c0 == 1
    cert = SyzygyCertificate(length=2, rank=1, modulus=0, entries={})
    assert (cert.length, cert.rank, cert.modulus, cert.entries) == (2, 1, 0, {})


def test_equality_and_hash_within_a_type():
    a, b = InvariantLattice(2, ((1, 0), (0, 2))), InvariantLattice(2, ((1, 0), (0, 2)))
    assert a == b and hash(a) == hash(b)
    assert a != InvariantLattice(2, ((1, 0), (0, 2)), exact=False)
    assert len({SimpleFactor("A", 1), SimpleFactor("A", 1), SimpleFactor("C", 2)}) == 2


@pytest.mark.parametrize("index", range(6))
def test_frozen_types_refuse_assignment(index):
    rec = _samples()[index]
    name = type(rec)._fields[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.other = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(rec, name)


def test_simple_factor_validation():
    with pytest.raises(ValueError, match="unknown factor kind 'X'"):
        SimpleFactor("X", 1)
    with pytest.raises(ValueError, match="rank 0 too small for type A"):
        SimpleFactor("A", 0)
    with pytest.raises(ValueError, match="type E6 has fixed rank 6"):
        SimpleFactor(kind="E6", rank=7)


def test_truncated_form_is_not_a_sequence_under_scaling():
    form = TruncatedForm(1, (0, 2), (((0, 1), 3),))
    with pytest.raises(TypeError):
        3 * form
    assert form * TruncatedForm(2, (0, 0), ()) == TruncatedForm(2, (0, 4), (((0, 1), 6),))


# modules `import weylinv` used to load that no computation needs
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "json")

FOOTPRINT_SCRIPT = """
import sys
preloaded = set(sys.modules)
loaded = lambda: [m for m in %r if m in sys.modules and m not in preloaded]
import weylinv
from weylinv.generators import combination_to_tuple
out = {"import": loaded()}
for text in ("(SL(4) x Spin(10)) / mu(4)", "(E7 x Sp(6)) / mu(2)"):
    weylinv.invariants_of(weylinv.compile_spec(weylinv.parse_spec(text)))
out["invariants_of"] = loaded()
model = weylinv.compile_spec(weylinv.parse_spec("PGSp(4)"))
gs = weylinv.build_generators(model)
n = model.total_rank
combo = {name: weylinv.LaurentPoly.const(n, k + 1, 0) for k, (name, _) in enumerate(gs.labeled())}
weylinv.reduce_to_generators(model, combination_to_tuple(gs, combo), gs)
out["reduce_to_generators"] = loaded()
print(out)
"""


def test_import_footprint():
    # the Sdec closure witness (the first two specs) and the generator
    # reduction run without them too
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT % (HEAVY,)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == {"import": [], "invariants_of": [],
                                             "reduce_to_generators": []}


def test_import_does_not_load_re():
    # -S: no site hooks, which may load `re` before weylinv does
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(weylinv.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; import weylinv; print(sorted(m for m in ('re', 'enum') if m in sys.modules))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SHOW_GENERATORS_SCRIPT = """
import contextlib, io, sys
preloaded = set(sys.modules)
from weylinv.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["invariants", "--spec", "PGO(8)", "--show-generators"])
print(code, "Inv3_ind generators: (Z/2)(+2q1)" in out.getvalue().splitlines(),
      [m for m in ("fractions", "decimal") if m in sys.modules and m not in preloaded])
"""


def test_show_generators_without_fractions():
    # the unimodular Smith transform is inverted in integers
    proc = subprocess.run([sys.executable, "-c", SHOW_GENERATORS_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "[]"]
