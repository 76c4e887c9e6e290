import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from weylinv.cli import main, parse_spec, spec_to_text, SpecParseError
from weylinv.fuzz import syzygy_case
from weylinv.intlinalg import lattice_contains
from weylinv.laurent import to_text
from weylinv.rootdata import GroupSpec, SimpleFactor
from weylinv import rootdata, spec as spec_module
from weylinv.syzygy import trivialize_syzygy


def run_cli(*argv):
    """Run main() capturing stdout; returns (exit code, output)."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.mark.parametrize("argv", [
    ("verify-flatness", "--type", "C", "--rank", "6", "--dump-poly"),  # fails in a print
    ("invariants", "--spec", "SL(2)")])  # fits the buffer: fails in the final flush
def test_closed_stdout_exits_1_without_traceback(argv, capsys):
    # stdout is a pipe whose reader has gone, as in `weylinv ... | head -1`
    r, w = os.pipe()
    os.close(r)
    out = os.fdopen(w, "w")
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
        out.close()
    assert code == 1
    assert capsys.readouterr().err == ""


def test_out_of_memory_exits_1_without_traceback(monkeypatch, capsys):
    # as `invariants --spec "SL(99999999999)"` does in its per-node root data
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr("weylinv.cli.compile_spec", exhausted)
    assert main(["invariants", "--spec", "SL(2)"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory; is a rank too large?\n")


# sha256 of stdout, pinned from the tuple-keyed Laurent core: term order and
# values must not drift with the polynomial representation
PINNED_OUTPUTS = [
    (("verify-flatness", "--type", "A", "--rank", "1", "--dump-poly"),
     "6c87a7b536ccd9a0c2c983f2503c7e358f97ddfdf90d6261d33e62f6ee53c665"),
    (("verify-flatness", "--type", "A", "--rank", "2", "--dump-poly"),
     "7f81a50a4e0005bbe6af0356e27340cd7074d433901d76cfbbf13ed42855c2da"),
    (("verify-flatness", "--type", "A", "--rank", "3", "--dump-poly"),
     "986368b81fa38641f31f8d9fd6ebff443d2738faab9a22ce008b5b907e511d8e"),
    (("verify-flatness", "--type", "A", "--rank", "4", "--dump-poly"),
     "9edb52d11204e434e323d61dfb0f6c18ee13180ae7766bd930365d82d85b1ef0"),
    (("verify-flatness", "--type", "A", "--rank", "5", "--dump-poly"),
     "d8ef0f848b166974513480ec1a7719d5df0342441c5e87c43f35f214013dc49a"),
    (("verify-flatness", "--type", "A", "--rank", "6", "--dump-poly"),
     "7a451a269212bcbfc3e395806f5734249687f8b18e45be073c5aff30aba13872"),
    (("verify-flatness", "--type", "C", "--rank", "2", "--dump-poly"),
     "d63228a27160b8c4e6e867086da441bba352b5f148e532c31aa9de8387e15ae0"),
    (("verify-flatness", "--type", "C", "--rank", "3", "--dump-poly"),
     "52d866c703916237cbf6e457a527c7cbfca73ae64352ed01c9ef1510576445f5"),
    (("verify-flatness", "--type", "C", "--rank", "4", "--dump-poly"),
     "ab88e893edb6934f9bbc27399e7230635a67c6c4f005666003ee3b8517331396"),
    (("verify-flatness", "--type", "C", "--rank", "5", "--dump-poly"),
     "c65ed195126c13f1d1489c2775b890cf04ea91dd47031190eecdbd4a8148bcfc"),
    (("verify-flatness", "--type", "C", "--rank", "6", "--dump-poly"),
     "f1996a2514f65af6b9420a414dc0e521f38943d570a6fdc191e7331cdd996aef"),
    (("generators", "--spec", "PGSp(8)"),
     "985fdc18eb777ba89ac1f31ec83eb18d3084d03181e16ed072bf28143ba65895"),
    (("generators", "--spec", "SL(6) / mu(2)"),
     "d682bf82f239902006837871d258830d6da2c416f7c26d232647363148f54554"),
    (("generators", "--spec", "(Sp(4) x Sp(6)) / mu(2)"),
     "c1ec84241a5a82a900ea7045d00e073dc9543b21d58c7462a367c0a3f0d4f9c5"),
] + [(("fuzz-syzygy", "--seed", str(seed)),
      "6a03b50c15720cc8f42a308af02229b6b746ba2395141cb4893fd64bd1b49487")
     for seed in range(4)]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS,
                         ids=[" ".join(a) for a, _ in PINNED_OUTPUTS])
def test_pinned_text_outputs(argv, digest):
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the 50 `fuzz-syzygy --seed N` cases (tuple, syzygy and the
# certificate found for it, as text), pinned from the draw the CLI made inline
# before it moved to weylinv.fuzz.syzygy_case; the stdout digests above see
# only the summary line
PINNED_FUZZ_CASES = {
    0: "3d687618c7a01ef1204c95626b640b00a3d1029de8b65788c0b4fc93fba631ec",
    1: "39dae74819b217ff0af77b040fe3e6506016285911e739f3b943618cfcac3480",
    2: "160d9cd6873953a435caeb91d516b7d45acfe81cf77785f548151993ab877491",
    3: "8028f261811f8010b4e35bccc780640bc31193c936725503af8a1775897345e5",
}


@pytest.mark.parametrize("seed", sorted(PINNED_FUZZ_CASES))
def test_pinned_fuzz_syzygy_cases(seed):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(50):
        t, f = syzygy_case(rng)
        cert = trivialize_syzygy(t, f)
        for line in (" | ".join(map(to_text, t)), " | ".join(map(to_text, f)),
                     " | ".join(f"{i},{j}: {to_text(g)}"
                                for (i, j), g in sorted(cert.entries.items()))):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == PINNED_FUZZ_CASES[seed]


# the centre pattern parse_spec matched with a regex before it split the
# centre with string methods, kept as their oracle
OLD_CENTER_RE = re.compile(r"^mu\((\d+)\)(\[([-\d,]+)\])?$")


def old_split_center(c):
    m = OLD_CENTER_RE.match(c)
    return None if m is None else (m.group(1), m.group(3))


CENTER_STRINGS = ["mu()", "mu(2)[", "mu(2)[1,,2]", "mu(2)x", "mu(-2)", "mu(2)", "mu(3)[1,2]",
                  "mu(2)[-1,3]", "mu(02)", "mu(1)", "mu(2)[]", "mu(2))", "mu(2)[1]]", "mu(2",
                  "mu(2)[1]x", "nu(2)", "mu(x)", "mu(2)[1;2]", "mu(2)[1,2]", "mu(4)[0,1]",
                  "mu(2)[1-2]", "mu(\u0663)", "mu(2)(3)", "mu()[1,1]", ""]


# the factor pattern parse_spec matched with a regex before it parsed the
# token with string methods, kept as their oracle (as a full match: its `$`
# also let a token end in a newline, which the parser now rejects), with the
# PSO name added since
OLD_FACTOR_RE = re.compile(r"^(SL|Spin|Sp|PGL|PGSp|SO|PSO|PGO|HSpin)\((\d+)\)$|^(E6|E7)$")

FACTOR_NAMES = ("SL", "Spin", "Sp", "PGL", "PGSp", "SO", "PSO", "PGO", "HSpin")
ACCEPTED_TOKENS = [f"{name}({num})" for name in FACTOR_NAMES
                   for num in ("0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "16",
                               "02", "\u0663")] + ["E6", "E7"]
MALFORMED_TOKENS = ["", "SL", "SL()", "SL(2", "SL2)", "SL(2))", "SL((2))", "sl(2)", "SL(-2)",
                    "SL(+2)", "SL(2.0)", "SL(2)(3)", "SL(\u00b2)", "SL(2)\n", "E7\n", "SL(2)\t",
                    "E8", "E6(1)", "E", "(2)", "PGO", "Spin(8", "HSpin)8(", "SL(2,3)", "SL(2 )"]


def _token_outcome(tok):
    try:
        return spec_module._factor_token(tok, 0)
    except ValueError as exc:   # SL(1), PGL(0), ... fail past the token shape
        return str(exc)


def _parse_outcome(text):
    try:
        return parse_spec(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestParse:
    @pytest.mark.parametrize("c", CENTER_STRINGS)
    def test_center_split_matches_regex_oracle(self, c, monkeypatch):
        # the same split, and the same spec or the same error from parse_spec
        assert spec_module._split_center(c) == old_split_center(c)
        for prod in ("SL(2)", "(SL(2) x SL(4))"):
            text = f"{prod} / {c}"
            new = _parse_outcome(text)
            with monkeypatch.context() as mp:
                mp.setattr(spec_module, "_split_center", old_split_center)
                assert _parse_outcome(text) == new

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(alphabet="mu()[]-,0123x", max_size=14),
        st.builds(lambda k, res: f"mu({k})" + ("" if res is None else f"[{res}]"),
                  st.text(alphabet="0123-", max_size=3),
                  st.none() | st.text(alphabet="0123-,]", max_size=6))))
    def test_center_split_matches_regex_oracle_random(self, c):
        assert spec_module._split_center(c) == old_split_center(c)

    @pytest.mark.parametrize("tok", ACCEPTED_TOKENS + MALFORMED_TOKENS)
    def test_factor_token_matches_regex_oracle(self, tok):
        bad = f"bad factor {tok!r} at position 0"
        assert (_token_outcome(tok) == bad) == (OLD_FACTOR_RE.fullmatch(tok) is None)
        assert (OLD_FACTOR_RE.fullmatch(tok) is None) == (tok in MALFORMED_TOKENS)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="SLpinGOHE67()0129\n", max_size=9))
    def test_factor_token_matches_regex_oracle_random(self, tok):
        bad = f"bad factor {tok!r} at position 0"
        assert (_token_outcome(tok) == bad) == (OLD_FACTOR_RE.fullmatch(tok) is None)

    def test_products_and_diagonal(self):
        spec = parse_spec("(SL(8) x SL(8)) / mu(2)")
        assert spec.factors == (SimpleFactor("A", 7), SimpleFactor("A", 7))
        assert spec.center_kernel == ((4, 4),)

    def test_pgo8(self):
        spec = parse_spec("PGO(8)")
        assert spec.factors == (SimpleFactor("D", 4),)
        assert sorted(spec.center_kernel) == [((0, 1),), ((1, 0),)]

    def test_non_diagonal_e6(self):
        spec = parse_spec("(E6 x E6) / mu(3)[1,2]")
        assert spec.center_kernel == ((1, 2),)

    def test_aliases(self):
        assert parse_spec("PGL(5)").center_kernel == ((1,),)
        assert parse_spec("PGSp(6)").center_kernel == ((1,),)
        assert parse_spec("SO(7)").center_kernel == ((1,),)
        assert parse_spec("SO(10)").center_kernel == ((2,),)
        assert parse_spec("SO(12)").center_kernel == (((1, 0),),)
        assert parse_spec("HSpin(16)").center_kernel == (((0, 1),),)
        assert parse_spec("Sp(2)").factors == (SimpleFactor("A", 1),)
        assert parse_spec("Spin(3)").factors == (SimpleFactor("A", 1),)
        assert parse_spec("Spin(6)") == parse_spec("SL(4)")
        assert parse_spec("SO(6)") == parse_spec("SL(4) / mu(2)")
        assert parse_spec("PSO(6)") == parse_spec("SL(4) / mu(4)") == parse_spec("PGL(4)")

    def test_mixed_parity_d_mu2(self):
        spec = parse_spec("(Spin(10) x Spin(12)) / mu(2)")
        assert spec.center_kernel == ((2, (1, 0)),)

    def test_errors(self):
        for bad in ["SL(1)", "Spin(4)", "Sp(3)", "PGO(10)", "HSpin(10)",
                    "(SL(4) x SL(4)) / mu(3)", "(Spin(8) x Spin(8)) / mu(4)",
                    "Q(8)", "SL(4) /", "(E6 x E6) / mu(3)[1]", "SL(3) / mu(2)[1]"]:
            with pytest.raises(SpecParseError):
                parse_spec(bad)

    @pytest.mark.parametrize("text, message", [
        ("SO(4)", "SO(4) not supported at position 0"),
        ("PSO(8)", "PSO(8) not supported at position 0: only PSO(6) is"),
        ("SL(2) x PSO(4)", "PSO(4) not supported at position 1: only PSO(6) is"),
        ("HSpin(4)", "HSpin(4) not supported at position 0"),
        ("SL(2) x SO(1)", "SO(1) not supported at position 1"),
        ("PGL(1)", "PGL(1) needs n >= 2 at position 0"),
        ("SL(2) x PGSp(0)", "PGSp(0) needs an even argument >= 2 at position 1"),
        ("SL(2) x SO(04)", "SO(04) not supported at position 1"),
        ("SL(2)/mu(4)", "mu(4) does not embed in the center of SL(2) at position 0"),
        ("(SL(4) x SL(4)) / mu(3)", "mu(3) does not embed in the center of SL(4) at position 0"),
        ("(SL(4) x SL(2)) / mu(4)", "mu(4) does not embed in the center of SL(2) at position 1"),
        ("(Spin(8) x Spin(8)) / mu(4)",
         "mu(4) does not embed in the center of Spin(8) at position 0 (center is 2x2)")])
    def test_errors_name_the_token_as_typed(self, text, message, capsys):
        with pytest.raises(SpecParseError, match=re.escape(message) + "$"):
            parse_spec(text)
        assert main(["invariants", "--spec", text]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_residues_not_from_mu_k(self, capsys):
        # a residue of order 3 defines no map from mu(2)
        assert main(["invariants", "--spec", "SL(3) / mu(2)[1]"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: mu(2)[1] is not a map from mu(2): its residues have order 3"]
        for ok in ["SL(2) / mu(2)[0]", "SL(2) / mu(2)[2]", "(E6 x E6) / mu(3)[1,2]",
                   "(SL(2) x Spin(8)) / mu(2)[1,3]"]:
            assert main(["invariants", "--spec", ok]) == 0, ok

    @pytest.mark.parametrize("center", ["mu(2)[1,,1]", "mu(2)[1-2]", "mu(2)[--1]"])
    def test_bad_residues(self, center, capsys):
        # digits, '-' and ',' that do not split into integers
        text = f"(SL(2) x SL(2)) / {center}"
        with pytest.raises(SpecParseError, match=re.escape(f"bad residues in center '{center}'")):
            parse_spec(text)
        assert main(["invariants", "--spec", text]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad residues in center '{center}'"]

    def test_bad_center_quotes_the_stripped_text(self, capsys):
        text = "(SL(2) x SL(2)) / mu(2)[1,"
        with pytest.raises(SpecParseError, match=re.escape("bad center 'mu(2)[1,'")):
            parse_spec(text)
        assert main(["invariants", "--spec", text]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: bad center 'mu(2)[1,'"]

    def test_round_trip(self):
        for text in ["SL(2)", "(SL(8) x SL(8)) / mu(2)", "PGO(8)",
                     "(E6 x E6) / mu(3)[1,2]", "(E6 x E6) / mu(3)",
                     "PGSp(4) x PGSp(8)", "SO(5) x Spin(7)",
                     "(Sp(4) x Sp(4)) / mu(2)", "HSpin(16)",
                     "(Spin(10) x Spin(10)) / mu(4)", "SL(4) / mu(2)",
                     "SL(6) / mu(3)", "(SO(6) x Sp(4)) / mu(2)"]:
            spec = parse_spec(text)
            assert parse_spec(spec_to_text(spec)) == spec, text


SPEC_FACTORS = ["SL(2)", "SL(3)", "SL(4)", "PGL(2)", "PGL(4)", "Sp(4)", "PGSp(6)", "SO(5)",
                "Spin(7)", "SO(10)", "SO(12)", "HSpin(16)", "Spin(8)", "SO(8)", "HSpin(8)",
                "PGO(8)", "E6", "E7", "Spin(6)", "SO(6)", "PSO(6)", "SL(6)", "SL(8)",
                # A1 aliases: the name order decides which token prints
                "Sp(2)", "PGSp(2)", "SO(3)", "Spin(3)"]


@st.composite
def parsed_specs(draw):
    """Specs built by parse_spec from random grammar text."""
    factors = draw(st.lists(st.sampled_from(SPEC_FACTORS), min_size=1, max_size=3))
    text = " x ".join(factors)
    if draw(st.booleans()):
        text = f"({text}) / mu({draw(st.sampled_from([2, 3, 4, 6, 8]))})"
        if draw(st.booleans()):
            text = text[:-1] + f")[{','.join(str(draw(st.integers(0, 9))) for _ in factors)}]"
    try:
        return parse_spec(text)
    except SpecParseError:
        assume(False)


class TestSpecRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(parsed_specs())
    def test_parsed_specs_round_trip(self, spec):
        assert parse_spec(spec_to_text(spec)) == spec

    @settings(max_examples=150, deadline=None)
    @given(parsed_specs(), st.randoms(use_true_random=False))
    def test_permuted_kernels_round_trip_or_raise(self, spec, rng):
        # a spec is its group: a permuted kernel builds the same spec
        kernel = list(spec.center_kernel)
        rng.shuffle(kernel)
        permuted = GroupSpec(spec.factors, tuple(kernel))
        assert permuted == spec
        assert spec_to_text(permuted) == spec_to_text(spec)

    @pytest.mark.parametrize("text, want", [
        # the rows on one factor take the first name that carries them;
        # every writing of one group prints as that group's one text
        ("SL(2) x PGO(8)", "SL(2) x PGO(8)"),
        ("(SL(2) x SO(8)) / mu(2)[0,1]", "SL(2) x PGO(8)"),
        ("PGO(8) x SL(2)", "PGO(8) x SL(2)"),
        ("PGO(8) x PGO(8)", "PGO(8) x PGO(8)"),
        ("SO(6) x Sp(4)", "SO(6) x Sp(4)"),
        ("SL(4) / mu(2)", "SO(6)"),
        ("(SO(6) x Sp(4)) / mu(2)", "SO(6) x PGSp(4)"),
        ("(PGL(2) x PGL(2)) / mu(2)", "PGL(2) x PGL(2)"),
        ("SO(3)", "PGL(2)"), ("PSO(6)", "PGL(4)"), ("Spin(6)", "SL(4)"),
        # residues that kill the centre generate the trivial subgroup
        ("SL(2) / mu(2)[2]", "SL(2)"),
        ("(SL(2) x SL(2)) / mu(4)[2,2]", "SL(2) x SL(2)"),
        # a row on one factor that no name carries prints as the centre
        ("SO(12) / mu(2)[1]", "SO(12) / mu(2)[1]"),
        ("Spin(8) / mu(2)[3]", "Spin(8) / mu(2)[3]"),
        ("(SL(2) x SO(6)) / mu(4)[1,1]", "(SL(2) x SO(6)) / mu(4)[1,1]"),
        # the rows left for the centre span a cyclic subgroup, which prints as
        # one generator: rows ((1,0),(0,1)), ((2,0),(0,3)) and ((1,1),(0,2))
        ("(E6 x E7) / mu(6)[1,1]", "(E6 x E7) / mu(6)[1,1]"),
        ("(SL(6) x SL(6)) / mu(6)[2,3]", "(SL(6) x SL(6)) / mu(6)[2,3]"),
        ("(SL(2) x SL(6)) / mu(6)[1,1]", "(SL(2) x SL(6)) / mu(6)[1,1]"),
        # SO(6)'s 2 is no canonical row, (1,1) and (0,2) are: a factor's name
        # reads the kernel's elements on that factor, and the centre is
        # printed modulo what the names carry
        ("(SO(6) x SL(8)) / mu(8)[3,9]", "(SO(6) x SL(8)) / mu(8)[1,1]"),
    ])
    def test_render_edge_cases(self, text, want):
        spec = parse_spec(text)
        assert spec_to_text(spec) == want
        assert parse_spec(want) == spec

    def test_swapped_adjoint_kernel(self):
        a1 = SimpleFactor("A", 1)
        assert spec_to_text(GroupSpec((a1, a1), ((1, 0), (0, 1)))) == "PGL(2) x PGL(2)"
        for swapped in (((0, 1), (1, 0)), ((1, 1), (1, 0))):
            assert GroupSpec((a1, a1), swapped) == GroupSpec((a1, a1), ((1, 0), (0, 1)))
            assert spec_to_text(GroupSpec((a1, a1), swapped)) == "PGL(2) x PGL(2)"
        with pytest.raises(ValueError, match="not expressible"):
            spec_to_text(GroupSpec((a1,) * 3, ((1, 1, 0), (0, 1, 1))))

    @pytest.mark.parametrize("spec, want", [
        (GroupSpec([SimpleFactor("A", 1)], [(1,)]), "PGL(2)"),
        (GroupSpec([SimpleFactor("A", 1)], [[1]]), "PGL(2)"),
        (GroupSpec([SimpleFactor("A", 3), SimpleFactor("C", 2)], [[2, 0], [2, 1]]),
         "SO(6) x PGSp(4)"),
        (GroupSpec([SimpleFactor("D", 4)], [[(1, 0)], [(0, 1)]]), "PGO(8)"),
        (GroupSpec([SimpleFactor("A", 1), SimpleFactor("D", 4)], [[0, (0, 1)], [1, (1, 0)]]),
         "(SL(2) x HSpin(8)) / mu(2)"),
    ])
    def test_list_built_specs_print_as_tuple_built_ones(self, spec, want):
        # GroupSpec reads the sequences as tuples
        assert spec_to_text(spec) == want
        assert parse_spec(want) == spec

    def test_names_read_only_the_factor_they_print(self, monkeypatch):
        # a token read as another factor (SO(201) as B100, SO(401) as B200)
        # is passed over before its kernel entries read that factor's centre
        read = []

        def center_group(kind, n):
            read.append((kind, n))
            return rootdata.center_group(kind, n)

        spec = parse_spec("HSpin(400)")
        monkeypatch.setattr(spec_module, "center_group", center_group)
        assert spec_to_text(spec) == "HSpin(400)"
        assert read and set(read) == {("D", 200)}


def koszul_input(tmp_path):
    """(spec, path) of an f-tuple whose mod-d syzygy is nonzero, so that its
    normalization runs the trivialization: the tuple of h2[1] with
    f_0 += rho_1 and f_1 -= rho_0, which leaves sum f_i rho_i unchanged."""
    from weylinv.generators import build_generators, combination_to_tuple
    from weylinv.laurent import LaurentPoly
    from weylinv.rootdata import compile_spec

    spec = "(Sp(4) x Sp(4))/mu(2)"
    gs = build_generators(compile_spec(parse_spec(spec)))
    f = list(combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(4, 1, 0)}))
    f[0], f[1] = f[0] + gs.rho[1], f[1] - gs.rho[0]
    path = tmp_path / "f.json"
    path.write_text(json.dumps([to_text(p) for p in f]))
    return spec, path


class TestRun:
    def test_invariants_json(self):
        code, out = run_cli("invariants", "--spec", "(Sp(4) x Sp(4))/mu(2)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["inv_ind"]["factors"] == [2]
        assert data["inv_sd"]["factors"] == [2]

    @pytest.mark.parametrize("spec, sdec_labels, factors", [
        ("(SL(4) x Sp(4))/mu(2)", ("exact", "closure"), [2]),
        ("(SL(2) x SL(2) x SL(2))/mu(2)", ("lower-bound", "table"), [2, 2])])
    def test_sdec_labels_without_dec_closed_form(self, spec, sdec_labels, factors):
        # Dec is exact from the closure of the orbit sums, but no Dec closed form
        # covers these specs, so a table Sdec is only a lower bound; the
        # closure witness is exact where it reaches Q
        code, out = run_cli("invariants", "--spec", spec, "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["Dec"]["exactness"], data["Dec"]["mode"]) == ("exact", "hilbert")
        assert (data["Sdec"]["exactness"], data["Sdec"]["mode"]) == sdec_labels
        assert data["inv_ind"]["factors"] == data["inv_sd"]["factors"] == factors

    @pytest.mark.parametrize("spec", ["PGL(2)", "HSpin(8)"])
    def test_sdec_exact_when_dec_equals_q(self, spec):
        # Dec <= Sdec <= Q, so Dec = Q pins Sdec down; the mode stays the one
        # that produced it.  PGL(2) = PGSp(2) has a Dec closed form, HSpin(8)
        # none, so only its exact Sdec label comes from Dec = Q
        code, out = run_cli("invariants", "--spec", spec, "--json")
        assert code == 0
        data = json.loads(out)
        dec_mode = {"PGL(2)": "both", "HSpin(8)": "hilbert"}[spec]
        assert data["Dec"]["hnf"] == data["Q"]["hnf"] == data["Sdec"]["hnf"]
        assert (data["Dec"]["exactness"], data["Dec"]["mode"]) == ("exact", dec_mode)
        assert (data["Sdec"]["exactness"], data["Sdec"]["mode"]) == ("exact", "table")

    @pytest.mark.parametrize("spec, want", [
        ("(Spin(12) x Spin(12)) / mu(2)[1,1]",
         '{"Dec": {"exactness": "exact", "hnf": [[4, 0], [0, 4]], "mode": "hilbert"}, '
         '"Q": {"exactness": "exact", "hnf": [[1, 3], [0, 4]], "mode": "exact"}, '
         '"Sdec": {"exactness": "lower-bound", "hnf": [[2, 2], [0, 4]], "mode": "closure"}, '
         '"inv_ind": {"factors": [4]}, "inv_sd": {"factors": [2]}, '
         '"spec": "(Spin(12) x Spin(12)) / mu(2)[1,1]"}'),
        ("(Spin(8) x Spin(12)) / mu(2)[1,1]",
         '{"Dec": {"exactness": "exact", "hnf": [[2, 0], [0, 4]], "mode": "hilbert"}, '
         '"Q": {"exactness": "exact", "hnf": [[1, 2], [0, 4]], "mode": "exact"}, '
         '"Sdec": {"exactness": "lower-bound", "hnf": [[2, 0], [0, 4]], "mode": "closure"}, '
         '"inv_ind": {"factors": [2]}, "inv_sd": {"factors": []}, '
         '"spec": "(Spin(8) x Spin(12)) / mu(2)[1,1]"}')])
    def test_half_spin_kernels_on_d_even_factors(self, spec, want):
        # the all-D closed forms hold only for the vector element on every
        # D-even factor of rank >= 6; these half-spin kernels exited 2 with a
        # Dec mismatch while the forms read only the kernel's order
        assert run_cli("invariants", "--spec", spec, "--json") == (0, want + "\n")

    def test_pgl2_factor_has_a_dec_closed_form(self):
        # PGL(2) = PGSp(2) is PGSp(2r) at r = 1: Dec = 4 // gcd(2, 1) q = 4q.
        # The closed form checks the computed Dec, and the per-factor
        # Sdec = Dec is then exact, as for PGSp(4) x PGSp(8)
        code, out = run_cli("invariants", "--spec", "PGL(2) x PGSp(8)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["Dec"] == {"exactness": "exact", "hnf": [[4, 0], [0, 2]], "mode": "both"}
        assert data["Sdec"] == {"exactness": "exact", "hnf": [[4, 0], [0, 2]], "mode": "table"}
        assert data["inv_ind"]["factors"] == [2]
        assert data["inv_sd"]["factors"] == []

    def test_high_rank_factors_scan_their_own_bound(self):
        # Lambda/T* is (Z/6)^3, but each factor's closure runs over its own Z/6
        code, out = run_cli("invariants", "--spec", "PGL(6) x PGL(6) x PGL(6)", "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["Dec"]["exactness"], data["Dec"]["mode"]) == ("exact", "hilbert")
        assert data["Dec"]["hnf"] == [[12, 0, 0], [0, 12, 0], [0, 0, 12]]

    def test_single_factor_modulo_part_of_its_centre(self):
        code, out = run_cli("invariants", "--spec", "SL(4) / mu(2)", "--json")
        assert code == 0
        assert json.loads(out)["spec"] == "SO(6)"

    @pytest.mark.parametrize("alias, name", [("Spin(6)", "SL(4)"), ("SO(6)", "SL(4) / mu(2)"),
                                             ("PSO(6)", "PGL(4)")])
    def test_a3_aliases_print_as_a3(self, alias, name):
        # D3 = A3: the alias's --json output is the A3 spec's, byte for byte
        code, out = run_cli("invariants", "--spec", alias, "--json")
        assert code == 0
        assert (code, out) == run_cli("invariants", "--spec", name, "--json")

    def test_trivial_simply_connected(self):
        code, out = run_cli("invariants", "--spec", "SL(2)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["inv_ind"]["factors"] == []
        assert data["Q"]["hnf"] == data["Dec"]["hnf"] == data["Sdec"]["hnf"]

    def test_determinism(self):
        args = ("invariants", "--spec", "(Spin(7) x Spin(7))/mu(2)", "--json")
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_usage_error_exit_code(self):
        code, _ = run_cli("invariants", "--spec", "NOPE(3)")
        assert code == 1

    def test_verify_flatness(self):
        code, out = run_cli("verify-flatness", "--type", "C", "--rank", "4")
        assert code == 0
        assert "unit monomial" in out

    def test_fuzz(self):
        code, out = run_cli("fuzz-syzygy", "--cases", "5", "--seed", "1")
        assert code == 0
        assert "0 failures" in out

    def test_pgo8_check(self):
        code, out = run_cli("pgo8-check", "--cases", "3", "--seed", "2")
        assert code == 0

    def test_generators_and_reduce(self, tmp_path):
        code, out = run_cli("generators", "--spec", "(Sp(4) x Sp(4))/mu(2)")
        assert code == 0
        assert "h2[1]" in out
        # build the f-tuple encoding h2[1] and reduce it through the CLI
        from weylinv.generators import build_generators, combination_to_tuple
        from weylinv.laurent import LaurentPoly, to_text
        from weylinv.rootdata import compile_spec
        model = compile_spec(parse_spec("(Sp(4) x Sp(4))/mu(2)"))
        gs = build_generators(model)
        f = combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(4, 1, 0)})
        path = tmp_path / "f.json"
        path.write_text(json.dumps([to_text(p) for p in f]))
        code, out = run_cli("reduce", "--spec", "(Sp(4) x Sp(4))/mu(2)",
                            "--input", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["combination"] == {"h2[1]": "1"}

    def test_verification_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import weylinv.cli

        def broken(*args, **kwargs):
            raise AssertionError("certificate does not expand back to the syzygy")

        monkeypatch.setattr(weylinv.cli, "reduce_to_generators", broken)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(["0"] * 4))
        code = main(["reduce", "--spec", "(Sp(4) x Sp(4))/mu(2)", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "verification failure: certificate does not expand back to the syzygy"]

    def test_reduction_error_after_the_degree_check_is_a_verification_failure(
            self, tmp_path, monkeypatch, capsys):
        import weylinv.generators
        from weylinv.generators import ReductionError

        def broken(poly, k, where):
            raise ReductionError(f"{where}: coefficient 1 not divisible by {k}")

        from weylinv.generators import build_generators, combination_to_tuple
        from weylinv.laurent import LaurentPoly, to_text
        from weylinv.rootdata import compile_spec

        spec = "(Sp(4) x Sp(4))/mu(2)"
        gs = build_generators(compile_spec(parse_spec(spec)))
        f = combination_to_tuple(gs, {"h2[1]": LaurentPoly.const(4, 1, 0)})
        path = tmp_path / "f.json"
        path.write_text(json.dumps([to_text(p) for p in f]))
        # the input is of degree 0; step 1 then divides by d = 4
        monkeypatch.setattr(weylinv.generators, "_exact_div", broken)
        code = main(["reduce", "--spec", spec, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "verification failure: step 1: coefficient 1 not divisible by 4"]

    @pytest.mark.parametrize("error", ["NotASyzygyError", "FlatnessError"])
    def test_rejected_library_syzygy_is_a_verification_failure(
            self, tmp_path, monkeypatch, capsys, error):
        import weylinv.syzygy

        def broken(*args, **kwargs):
            raise getattr(weylinv.syzygy, error)("tuple is not a syzygy")

        spec, path = koszul_input(tmp_path)
        monkeypatch.setattr(weylinv.syzygy, "_trivialize_through", broken)
        code = main(["reduce", "--spec", spec, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "verification failure: library-built syzygy rejected: tuple is not a syzygy"]

    @pytest.mark.parametrize("name, message", [
        ("_flat_form", "library-built syzygy rejected: entry 0: uses higher axes"),
        ("mat_inverse_unit", "block inverse mod d is not an inverse"),
    ], ids=["flat-image", "block-inverse"])
    def test_failed_transform_fill_is_a_verification_failure(
            self, tmp_path, monkeypatch, capsys, name, message):
        # a nonzero syzygy fills the model's transform mod d; a check that
        # fails in that fill is the library's, whatever error it raises
        import weylinv.syzygy
        from weylinv.syzygy import block_inverse_mod, modular_transform

        def non_flat(t):
            raise weylinv.syzygy.FlatnessError("entry 0: uses higher axes")

        def zero_inverse(rows):
            return [[p.scale(0) for p in row] for row in rows]

        spec, path = koszul_input(tmp_path)
        modular_transform.cache_clear()
        block_inverse_mod.cache_clear()
        monkeypatch.setattr(weylinv.syzygy, name,
                            {"_flat_form": non_flat, "mat_inverse_unit": zero_inverse}[name])
        code = main(["reduce", "--spec", spec, "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"verification failure: {message}"]
        monkeypatch.undo()
        assert main(["reduce", "--spec", spec, "--input", str(path)]) == 0

    @pytest.mark.parametrize("module, name, error, prefix", [
        ("syzygy", "_trivialize_through", "NotASyzygyError", "library-built syzygy rejected: "),
        ("generators", "_exact_div", "ReductionError", "")], ids=["syzygy", "step-1"])
    def test_verification_failure_on_warm_caches(
            self, tmp_path, monkeypatch, capsys, module, name, error, prefix):
        # the first run caches the model and its reduction data; the per-call
        # checks of the second run still go through the library
        import importlib

        mod = importlib.import_module(f"weylinv.{module}")

        def broken(*args, **kwargs):
            raise getattr(mod, error)("injected")

        spec, path = koszul_input(tmp_path)
        assert main(["reduce", "--spec", spec, "--input", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(mod, name, broken)
        code = main(["reduce", "--spec", spec, "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"verification failure: {prefix}injected"]

    @pytest.mark.parametrize("spec,entries,message", [
        ("(Spin(5) x Spin(5))/mu(2)", ["0"] * 4,
         "error: generalized flatness is available for types A and C, not B"),
        ("(Sp(4) x Sp(4))/mu(2)", ["1 * x1", "0", "0", "0"],
         "error: the combination is not in R[T*]"),
        ("(Sp(4) x Sp(4))/mu(2)", ["1 * x1^4294967296", "0", "0", "0"],
         "error: entry 1 of --input {path!r}: "
         "exponent (4294967296, 0, 0, 0) is outside the packed range +-2147483647"),
        ("(Sp(4) x Sp(4))/mu(2)", ["1", "1", "1 * x1^a", "1"],
         "error: entry 3 of --input {path!r}: invalid literal for int() with base 10: 'a'"),
        ("(Sp(4) x Sp(4))/mu(2)", ["1", "x9", "1", "1"],
         "error: entry 2 of --input {path!r}: variable x9 out of rank 4"),
    ], ids=["non-AC-factor", "not-degree-0", "exponent-out-of-range", "bad-exponent-text",
            "variable-out-of-rank"])
    def test_reduce_bad_input_is_a_usage_error(self, tmp_path, capsys, spec, entries, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(entries))
        code = main(["reduce", "--spec", spec, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [message.format(path=str(path))]

    def test_a_closure_witness_outside_q_is_refused(self, monkeypatch, capsys):
        # no closed form covers this spec, so its Sdec is Dec joined with the
        # W = 0 rows of the Dec fold's nonzero class; a row (1, 0) there lies
        # outside Q = [[1, 1], [0, 2]] and must fail the chain check
        import weylinv.invariants
        from weylinv.invariants import _fold_step
        from weylinv.rootdata import compile_spec

        def skewed(grading, states, buckets, into=None):
            out = _fold_step(grading, states, buckets, into)
            if into is not None and (1,) in out:   # the witness step
                out[(1,)].add((0, 1, 0))
            return out

        spec = "(SL(4) x Sp(4))/mu(2)"
        md = compile_spec(parse_spec(spec))
        monkeypatch.setattr(weylinv.invariants, "_fold_step", skewed)
        message = "inclusion chain Dec <= Sdec <= Q violated"
        with pytest.raises(AssertionError, match=f"^{message}$"):
            weylinv.invariants.invariants_of(md)
        code = main(["invariants", "--spec", spec])
        assert (code, *capsys.readouterr()) == (2, "", f"verification failure: {message}\n")

    @pytest.mark.parametrize("height", ["0", "-1"])
    @pytest.mark.parametrize("spec", ["(Sp(4) x Sp(4))/mu(2)", "(SL(2) x Spin(7))/mu(2)"])
    def test_height_below_one_is_a_usage_error(self, spec, height, capsys):
        # Dec has one exact path and no height: every --height is unknown
        code = main(["invariants", "--spec", spec, "--height", height])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == f"weylinv: error: unrecognized arguments: --height {height}"

    @pytest.mark.parametrize("flags, message", [
        (["--height", "4"], "weylinv: error: unrecognized arguments: --height 4"),
        (["--mode", "enumerate"], "weylinv: error: unrecognized arguments: --mode enumerate"),
        (["--mode", "table"], "weylinv: error: unrecognized arguments: --mode table"),
        (["--mode", "both"], "weylinv: error: unrecognized arguments: --mode both"),
        (["--mode", "generators"], "weylinv: error: unrecognized arguments: --mode generators"),
        (["--mode", "elements"], "weylinv: error: unrecognized arguments: --mode elements")],
        ids=["height", "enumerate", "table", "both", "generators", "elements"])
    def test_removed_dec_knobs_are_usage_errors(self, flags, message, capsys):
        code = main(["invariants", "--spec", "(Sp(4) x Sp(4))/mu(2)", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[0].startswith("usage: weylinv")
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["invariants", "--spec", "SL(2)", "--json", "--tsv"],
         "weylinv invariants: error: argument --tsv: not allowed with argument --json"),
        (["fuzz-syzygy", "--cases", "-1"],
         "weylinv fuzz-syzygy: error: argument --cases: must be at least 0, got -1"),
        (["pgo8-check", "--cases", "-1"],
         "weylinv pgo8-check: error: argument --cases: must be at least 0, got -1"),
        (["table", "--family", "cor:typeA", "--max-rank", "0"],
         "weylinv table: error: argument --max-rank: must be at least 1, got 0")],
        ids=["json-and-tsv", "fuzz-negative-cases", "pgo8-negative-cases", "max-rank-0"])
    def test_out_of_range_options_are_usage_errors(self, argv, message, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == message

    @pytest.mark.parametrize("argv, message", [
        (["generators", "--spec", "PGSp(4)", "--lambda0", "3"],
         "error: lambda0 index out of range 1..2"),
        (["generators", "--spec", "PGSp(4)", "--lambda0", "2"],
         "error: lambda0 must have degree 1"),
        (["table", "--family", "typeZ"],
         "error: unknown family 'typeZ'; known: ['Ddiagonal', 'cor:typeA', 'cor:typeD', "
         "'cor:typec', 'pgo8', 'prop:typeE', 'prop:typec', 'propB']")],
        ids=["lambda0-out-of-range", "lambda0-degree-0", "unknown-family"])
    def test_bad_values_are_usage_errors(self, argv, message, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.splitlines() == [message]

    def test_zero_cases(self):
        assert run_cli("fuzz-syzygy", "--cases", "0") == (0, "0 cases, 0 failures\n")

    def test_reduce_missing_input(self, tmp_path, capsys):
        code = main(["reduce", "--spec", "(Sp(4) x Sp(4))/mu(2)",
                     "--input", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read")

    def test_reduce_input_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text("not json")
        code = main(["reduce", "--spec", "(Sp(4) x Sp(4))/mu(2)", "--input", str(path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot parse --input {str(path)!r}: "
            "Expecting value: line 1 column 1 (char 0)"]

    def test_reduce_non_string_entries(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps([1, 2, 3, 4]))
        code = main(["reduce", "--spec", "(Sp(4) x Sp(4))/mu(2)", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "error: input must be a JSON array of 4 polynomial strings"]

    @pytest.mark.parametrize("spec", ["(Spin(10) x Spin(10) x Spin(10)) / mu(4)",
                                      "(E6 x E6) / mu(3)"])
    def test_show_generators(self, spec):
        code, data = run_cli("invariants", "--spec", spec, "--json")
        assert code == 0
        lattices = json.loads(data)
        code, out = run_cli("invariants", "--spec", spec, "--show-generators")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        dec = lattices["Dec"]["hnf"]
        dim = len(dec)
        for name, sup_key, group_key in (("Inv3_ind", "Q", "inv_ind"),
                                         ("Inv3_sd", "Sdec", "inv_sd")):
            text = lines[f"{name} generators"]
            gens = [] if text == "0" else text[1:-1].split("), (")
            orders = []
            for g in gens:
                order_text, vec_text = g.split(")(")
                order = int(order_text[len("Z/"):])
                vec = [0] * dim
                for term in vec_text.split():
                    coeff, idx = term.split("q")
                    vec[int(idx) - 1] = int(coeff)
                assert lattice_contains(lattices[sup_key]["hnf"], vec), (name, g)
                multiples = [k for k in range(1, order + 1)
                             if lattice_contains(dec, [k * x for x in vec])]
                assert multiples[0] == order, (name, g)
                orders.append(order)
            assert orders == lattices[group_key]["factors"]
        if spec == "(E6 x E6) / mu(3)":
            assert lines["Inv3_ind generators"] == "(Z/2)(+3q1), (Z/6)(-1q1 +1q2)"

    def test_table_family(self):
        code, out = run_cli("table", "--family", "prop:typeE")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("spec\t")
        row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert row["inv_ind"] == "Z/2 + Z/6"
        row2 = dict(zip(lines[0].split("\t"), lines[2].split("\t")))
        assert row2["inv_ind"] == "Z/3 + Z/12"

    def test_table_pgo8(self):
        code, out = run_cli("table", "--family", "pgo8")
        assert code == 0
        assert "[[4]]\t[[4]]\tZ/2\t0" in out

    @pytest.mark.parametrize("family, first", [("propB", 2), ("Ddiagonal", 4),
                                               ("cor:typeD", 5)])
    def test_max_rank_below_the_first_rank_is_a_usage_error(self, family, first, capsys):
        for cap in sorted({1, first - 1}):
            code = main(["table", "--family", family, "--max-rank", str(cap)])
            out, err = capsys.readouterr()
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                f"weylinv table: error: family {family!r} starts at rank {first}, "
                f"above --max-rank {cap}"]
        assert main(["table", "--family", family, "--max-rank", str(first)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_unknown_family(self):
        code, _ = run_cli("table", "--family", "nope")
        assert code == 1


class TestConsoleScript:
    def test_module_run_is_warning_free(self):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "weylinv.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "usage: weylinv" in proc.stdout

    @pytest.mark.parametrize("n, k", [(2, 12), (2, 24), (6, 6)])
    def test_many_factors_modulo_the_diagonal(self, n, k):
        # (SL(n)^k)/mu(n): Dec is spanned by n e_i + n e_k (i < k) and 2n e_k,
        # so Q/Dec = (Z/n)^(k-1).  The Dec fold is polynomial in k; the
        # former class-combination loop took seconds at k = 12 (n = 2) and
        # k = 6 (n = 6)
        spec = f"({' x '.join([f'SL({n})'] * k)}) / mu({n})"
        proc = subprocess.run([sys.executable, "-m", "weylinv.cli", "invariants",
                               "--spec", spec, "--json"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        rows = [[n * (j in (i, k - 1)) for j in range(k)] for i in range(k - 1)]
        assert data["Dec"] == {"exactness": "exact", "hnf": rows + [[0] * (k - 1) + [2 * n]],
                               "mode": "hilbert"}
        assert data["inv_ind"]["factors"] == [n] * (k - 1)

    def test_a_huge_rank_runs_out_of_memory_at_once(self):
        # the per-node root data is allocated whole before any loop over the
        # nodes, so under a 1 GiB address-space limit, set in the child only,
        # SL(99999999999) fails at once with the usage error
        script = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "from weylinv.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", script, "invariants",
                               "--spec", "SL(99999999999)"],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr == "error: out of memory; is a rank too large?\n"

    def test_fuzz_syzygy_checks_the_lift_under_optimize(self):
        # the lift round trip raises its AssertionError explicitly, so
        # `python -O` keeps it: a lift that loses the certificate exits 2
        script = ("import sys, types, weylinv.cli as cli; "
                  "cli.lift_syzygy = lambda t, cert: types.SimpleNamespace(entries={}); "
                  "sys.exit(cli.main(['fuzz-syzygy', '--seed', '0', '--cases', '20']))")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "the lifted certificate does not reduce to the original" in proc.stdout

    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from weylinv.cli import main; import sys; "
             "sys.exit(main(['invariants', '--spec', 'SL(2)', '--json']))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["inv_ind"]["factors"] == []
