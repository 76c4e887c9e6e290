"""The group-spec grammar: parse text into a GroupSpec and print it back.

Grammar:  product [ "/" center ]
          product := factor ("x" factor)*
          factor  := SL(n) | Spin(n) | Sp(2n) | E6 | E7
                   | PGL(n) | PGSp(2n) | SO(n) | PSO(6) | PGO(8) | HSpin(2n)
          center  := mu(k) [ "[" residue "," ... "]" ]   (default: diagonal)

Spin(3) is SL(2) and SO(3) is PGL(2); Spin(6) is SL(4), SO(6) is
SL(4) / mu(2) and PSO(6) is SL(4) / mu(4), that is PGL(4).  Spin(n) and
SO(n) need n = 3, n = 6, odd n >= 5 or even n >= 8; PSO(n) needs n = 6.

Adjoint/special factor forms expand to per-factor kernel generators; a mu(k)
center adds one kernel generator across the whole product, and explicit
residues must have an order dividing k.  For factors of type D with even
rank, a residue integer r encodes the pair (r // 2, r % 2) in the (spinor,
vector) coordinates of the center character group.  The GroupSpec holds
the subgroup these generators generate, not the generators as written, so
every writing of one group parses to one spec and prints as one text
(`spec_to_text`).
"""

from __future__ import annotations

import math

from .rootdata import GroupSpec, SimpleFactor, center_group, center_order


class SpecParseError(ValueError):
    pass


# in the order `_name` tries them: of the names that fit, the first prints,
# so SL(2) and PGL(2) stand for their A1 aliases
_FACTOR_NAMES = ("SL", "Spin", "Sp", "PGL", "PGSp", "SO", "PSO", "PGO", "HSpin")


def _factor_token(tok: str, pos: int, factor: SimpleFactor | None = None):
    """(SimpleFactor, kernel entries) for one grammar token: E6, E7, or a
    factor name with a nonempty run of decimal digits in parentheses.  The
    entries are the per-factor kernel generators the name puts on its
    factor, in order: none for a simply connected name, one for a quotient
    by a cyclic subgroup, and PGO(8)'s pair.  Given `factor`, a factor name
    read as another factor gives None before its entries are computed.

    This is the grammar's one map between names and factors: `_name` reads
    it backwards."""
    if tok in ("E6", "E7"):
        return SimpleFactor(tok, int(tok[1])), ()
    name, paren, rest = tok.partition("(")
    digits = rest[:-1]
    if not (paren and name in _FACTOR_NAMES and rest.endswith(")") and digits.isdecimal()):
        raise SpecParseError(f"bad factor {tok!r} at position {pos}")
    num = int(digits)
    if name in ("SL", "PGL"):
        if num < 2:
            raise SpecParseError(f"{tok} needs n >= 2 at position {pos}")
        f = SimpleFactor("A", num - 1)
    elif name in ("Sp", "PGSp"):
        if num % 2 or num < 2:
            raise SpecParseError(f"{tok} needs an even argument >= 2 at position {pos}")
        f = SimpleFactor("A", 1) if num == 2 else SimpleFactor("C", num // 2)
    elif name == "PSO":
        if num != 6:
            raise SpecParseError(f"{tok} not supported at position {pos}: only PSO(6) is")
        f = SimpleFactor("A", 3)   # SL(4) / mu(4), the kernel of PGL(4)
    elif name == "PGO":
        if num != 8:
            raise SpecParseError(f"{tok} not supported at position {pos}: only PGO(8) is")
        f = SimpleFactor("D", 4)
    elif num in (3, 6):   # Spin(3) = SL(2), Spin(6) = SL(4)
        f = SimpleFactor("A", num // 2)
    elif num < (5 if num % 2 else 8):
        raise SpecParseError(f"{tok} not supported at position {pos}")
    else:
        f = SimpleFactor("B", (num - 1) // 2) if num % 2 else SimpleFactor("D", num // 2)
    if name == "HSpin" and (f.kind != "D" or f.rank % 2):
        raise SpecParseError(f"{tok} needs 2n with n even, n >= 4 at position {pos}")
    if factor not in (None, f):
        return None
    if name == "SO":
        return f, (_diag_entry(f, 2),)
    return f, {"PGL": (1,), "PGSp": (1,), "PSO": (1,), "PGO": ((1, 0), (0, 1)),
               "HSpin": ((0, 1),)}.get(name, ())


def _name(f: SimpleFactor, entries):
    """The first token that `_factor_token` reads as f with these kernel
    entries, or None: each of `_FACTOR_NAMES` in order, with the argument
    rank + 1, 2 rank and 2 rank + 1, then E6 and E7.  A token read as
    another factor is passed over before its entries are computed."""
    n = f.rank
    for tok in [f"{name}({num})" for name in _FACTOR_NAMES
                for num in (n + 1, 2 * n, 2 * n + 1)] + ["E6", "E7"]:
        try:
            if _factor_token(tok, 0, f) == (f, entries):
                return tok
        except SpecParseError:
            pass
    return None


def _zero_entry(f: SimpleFactor):
    return (0, 0) if f.kind == "D" and f.rank % 2 == 0 else 0


def _diag_entry(f: SimpleFactor, k: int, name=None):
    """Kernel entry of f under the diagonal mu(k): N // k on a cyclic centre
    Z/N with k | N, and (1, 0) for k = 2 on the 2x2 centre of D-even.

    The error names the factor as `name` (default: f)."""
    grp = center_group(f.kind, f.rank)
    if len(grp) == 1 and grp[0] % k == 0:
        return grp[0] // k
    if len(grp) == 2 and k == 2:
        return (1, 0)
    raise SpecParseError(f"mu({k}) does not embed in the center of {name or f}"
                         + (" (center is 2x2)" if len(grp) == 2 else ""))


def _split_center(c: str):
    """(k, residues) for c = mu(k) or mu(k)[residues], with k a nonempty run of
    decimal digits and residues a nonempty run of digits, '-' and ','
    (residues is None without brackets); None for any other c."""
    if not c.startswith("mu("):
        return None
    k, paren, rest = c[3:].partition(")")
    if not paren or not k.isdecimal():
        return None
    if not rest:
        return k, None
    res = rest[1:-1]
    if len(rest) < 3 or rest[0] != "[" or rest[-1] != "]" \
            or not all(ch in "-," or ch.isdecimal() for ch in res):
        return None
    return k, res


def _first_at_depth_zero(s: str, char: str):
    """Index of the first `char` in s at parenthesis depth 0,
    the depth after it, or None: the grammar's one depth scan."""
    depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if not depth and ch == char:
            return i
    return None


def parse_spec(text: str) -> GroupSpec:
    """Parse the group-spec grammar into a GroupSpec: the kernel generators
    the text writes, read as their subgroup's canonical generators."""
    s = text.strip()
    split_at = _first_at_depth_zero(s, "/")
    prod_text = s if split_at is None else s[:split_at]
    center_text = None if split_at is None else s[split_at + 1:].strip()

    p = prod_text.replace(" ", "")
    # outer parentheses wrap the whole product unless the depth returns to 0
    # before its end
    if p.startswith("(") and p.endswith(")") \
            and _first_at_depth_zero(p, ")") in (None, len(p) - 1):
        p = p[1:-1]
    # factor names contain no bare 'x'; split on it
    toks = p.split("x")
    if not toks or not all(toks):
        raise SpecParseError(f"empty factor in {text!r}")
    factors, entries = zip(*[_factor_token(tok, i) for i, tok in enumerate(toks)])
    zero = tuple(map(_zero_entry, factors))
    kernel = [zero[:fi] + (e,) + zero[fi + 1:] for fi, es in enumerate(entries) for e in es]

    if center_text is not None:
        parts = _split_center(center_text.replace(" ", ""))
        if parts is None:
            raise SpecParseError(f"bad center {center_text!r}")
        k = int(parts[0])
        if k < 2:
            raise SpecParseError("mu(k) needs k >= 2")
        if parts[1]:
            try:
                vals = [int(v) for v in parts[1].split(",")]
            except ValueError:  # an empty piece, or a '-' inside a number
                raise SpecParseError(f"bad residues in center {center_text!r}") from None
            if len(vals) != len(factors):
                raise SpecParseError("residue tuple length != number of factors")
            # r is (r // 2, r % 2) on D-even's 2x2 centre
            gen = tuple((v // 2 % 2, v % 2) if isinstance(z, tuple) else v
                        for z, v in zip(zero, vals))
            order = _order(factors, gen)
            if k % order:
                raise SpecParseError(
                    f"mu({k})[{parts[1]}] is not a map from mu({k}): "
                    f"its residues have order {order}")
            kernel.append(gen)
        else:
            kernel.append(tuple(_diag_entry(f, k, f"{tok} at position {i}")
                                for i, (f, tok) in enumerate(zip(factors, toks))))
    return GroupSpec(factors, tuple(kernel))


def spec_to_text(spec: GroupSpec) -> str:
    """The one canonical text of the spec's group, with
    parse_spec(spec_to_text(s)) == s.

    The spec holds its kernel's canonical generators (`GroupSpec`), so every
    writing of one group prints the same text, by one rule: each factor takes
    the first name that `_factor_token` reads back with the canonical
    generators of the kernel's elements on that factor alone
    (`_factor_rows`), all of them or else the first alone; the rest of the
    kernel prints as the centre, as one element of greatest order modulo
    what the names carry (`_cyclic_generator`).  It generates the rest
    exactly when the rest is cyclic, so every cyclic kernel and every parsed
    spec prints; a spec whose rest is not cyclic, say two rows that each
    couple factors, is not expressible and raises ValueError.
    """
    text = _render(spec)   # names, residues and mu(k) that parse_spec reads
    if parse_spec(text) != spec:
        raise ValueError("spec not expressible in the grammar")
    return text


def _render(spec: GroupSpec) -> str:
    factors = spec.factors
    names, mods = [], []   # mods: per centre coordinate, the d whose multiples the names carry
    for i, f in enumerate(factors):
        rows = _factor_rows(spec, i)
        # the most of the factor's rows, from the first, that a name carries;
        # every factor has a name for none of them.  What a name carries is,
        # coordinate by coordinate, the multiples of a divisor of the modulus
        k = next(k for k in range(len(rows), -1, -1) if _name(f, rows[:k]))
        names.append(_name(f, rows[:k]))
        mods += [math.gcd(m, *(_flat(e)[j] for e in rows[:k]))
                 for j, m in enumerate(center_group(f.kind, f.rank))]
    prod = " x ".join(names)
    flat = _cyclic_generator([[x for e in gen for x in _flat(e)] for gen in spec.center_kernel],
                             mods)
    if flat is None:
        return prod
    if len(names) > 1:
        prod = f"({prod})"
    flat = iter(flat)
    gen = tuple((next(flat), next(flat)) if isinstance(z, tuple) else next(flat)
                for z in map(_zero_entry, factors))
    order = _order(factors, gen)
    try:   # the diagonal mu(order), when it embeds in every factor
        diag = tuple(_diag_entry(f, order) for f in factors)
    except SpecParseError:
        diag = None
    if diag == gen:
        return f"{prod} / mu({order})"
    vals = [str(e[0] * 2 + e[1]) if isinstance(e, tuple) else str(e) for e in gen]
    return f"{prod} / mu({order})[{','.join(vals)}]"


def _flat(e) -> tuple:
    return e if isinstance(e, tuple) else (e,)


def _factor_rows(spec: GroupSpec, i: int) -> tuple:
    """The canonical generators of the kernel's elements on factor i alone:
    the rows of the kernel's HNF with factor i's columns last that vanish on
    every other factor."""
    moved = [j for j in range(len(spec.factors)) if j != i] + [i]
    spec = GroupSpec([spec.factors[j] for j in moved],
                     [[gen[j] for j in moved] for gen in spec.center_kernel])
    zero = tuple(map(_zero_entry, spec.factors[:-1]))
    return tuple(gen[-1] for gen in spec.center_kernel if gen[:-1] == zero)


def _order(factors, gen) -> int:
    return math.lcm(*(center_order(f.kind, f.rank, e) for f, e in zip(factors, gen)))


def _cyclic_generator(rows, mods):
    """An element of greatest order in the group that the flat rows span in
    the product of the Z/d over d in mods, each coordinate in [0, d), or
    None when that group is trivial: it generates the group exactly when
    the group is cyclic.  Each row merges into the element so far.  Of
    orders m and n, split lcm(m, n) into coprime a | m and b | n; (m/a) gen
    has order a, (n/b) row has order b, and their sum has order lcm(m, n)."""
    gen, m = None, 1
    for row in rows:
        n = math.lcm(*(d // math.gcd(x, d) for x, d in zip(row, mods)))
        if n > 1 and gen is not None:
            a, b = m, n // math.gcd(m, n)
            while (d := math.gcd(a, b)) > 1:
                a, b = a // d, b * d
            row, n = [m // a * x + n // b * y for x, y in zip(gen, row)], math.lcm(m, n)
        if n > 1:
            gen, m = [x % d for x, d in zip(row, mods)], n
    return gen
