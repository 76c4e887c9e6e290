"""The group-spec grammar: parse text into a GroupSpec and print it back.

Grammar:  product [ "/" center ]
          product := factor ("x" factor)*
          factor  := SL(n) | Spin(n) | Sp(2n) | E6 | E7
                   | PGL(n) | PGSp(2n) | SO(n) | PGO(8) | HSpin(2n)
          center  := mu(k) [ "[" residue "," ... "]" ]   (default: diagonal)

Spin(3) is SL(2) and SO(3) is PGL(2); Spin(6) is SL(4) and SO(6) is
SL(4) / mu(2).  Spin(n) and SO(n) need n = 3, n = 6, odd n >= 5 or even
n >= 8.

Adjoint/special factor forms expand to per-factor kernel generators; a mu(k)
center adds one kernel generator across the whole product, and explicit
residues must have an order dividing k.  For factors of type D with even
rank, a residue integer r encodes the pair (r // 2, r % 2) in the (spinor,
vector) coordinates of the center character group.
"""

from __future__ import annotations

import math

from .rootdata import GroupSpec, SimpleFactor, center_group, center_order


class SpecParseError(ValueError):
    pass


_FACTOR_NAMES = ("SL", "Spin", "Sp", "PGL", "PGSp", "SO", "PGO", "HSpin")


def _factor_token(tok: str, pos: int):
    """(SimpleFactor, per-factor kernel entry or None) for one grammar token:
    E6, E7, or a factor name with a nonempty run of decimal digits in
    parentheses."""
    if tok in ("E6", "E7"):
        return SimpleFactor(tok, int(tok[1])), None
    name, paren, rest = tok.partition("(")
    digits = rest[:-1]
    if not (paren and name in _FACTOR_NAMES and rest.endswith(")") and digits.isdecimal()):
        raise SpecParseError(f"bad factor {tok!r} at position {pos}")
    num = int(digits)

    def spin_factor(n):
        if n in (3, 6):   # Spin(3) = SL(2), Spin(6) = SL(4)
            return SimpleFactor("A", n // 2)
        if n < (5 if n % 2 else 8):
            raise SpecParseError(f"{tok} not supported at position {pos}")
        return SimpleFactor("B", (n - 1) // 2) if n % 2 else SimpleFactor("D", n // 2)

    if name in ("SL", "PGL"):
        if num < 2:
            raise SpecParseError(f"{tok} needs n >= 2 at position {pos}")
        return SimpleFactor("A", num - 1), (1 if name == "PGL" else None)
    if name in ("Sp", "PGSp"):
        if num % 2 or num < 2:
            raise SpecParseError(f"{tok} needs an even argument >= 2 at position {pos}")
        r = num // 2
        f = SimpleFactor("A", 1) if r == 1 else SimpleFactor("C", r)
        return f, (1 if name == "PGSp" else None)
    if name == "Spin":
        return spin_factor(num), None
    if name == "SO":
        f = spin_factor(num)
        return f, _diag_entry(f, 2)
    if name == "PGO":
        if num != 8:
            raise SpecParseError(f"{tok} not supported at position {pos}: only PGO(8) is")
        return SimpleFactor("D", 4), "full"
    if name == "HSpin":
        f = spin_factor(num)
        if f.kind != "D" or f.rank % 2:
            raise SpecParseError(f"{tok} needs 2n with n even, n >= 4 at position {pos}")
        return f, (0, 1)
    raise SpecParseError(f"bad factor {tok!r}")


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


def parse_spec(text: str) -> GroupSpec:
    """Parse the group-spec grammar into a GroupSpec."""
    s = text.strip()
    depth = 0
    split_at = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split_at = i
            break
    prod_text = s if split_at is None else s[:split_at]
    center_text = None if split_at is None else s[split_at + 1:]

    p = prod_text.replace(" ", "")
    if p.startswith("(") and p.endswith(")"):
        depth = 0
        wraps = True
        for i, ch in enumerate(p):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(p) - 1:
                    wraps = False
                    break
        if wraps:
            p = p[1:-1]
    # factor names contain no bare 'x'; split on it
    toks = p.split("x")
    if not toks or not all(toks):
        raise SpecParseError(f"empty factor in {text!r}")
    factors, entries = [], []
    for i, tok in enumerate(toks):
        f, e = _factor_token(tok, i)
        factors.append(f)
        entries.append(e)

    kernel = []
    for fi, e in enumerate(entries):
        if e is None:
            continue
        if e == "full":
            for gen_entry in ((1, 0), (0, 1)):
                gen = [_zero_entry(f) for f in factors]
                gen[fi] = gen_entry
                kernel.append(tuple(gen))
            continue
        gen = [_zero_entry(f) for f in factors]
        gen[fi] = e
        kernel.append(tuple(gen))

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
            gen = []
            for f, v in zip(factors, vals):
                if f.kind == "D" and f.rank % 2 == 0:
                    gen.append((v // 2 % 2, v % 2))
                else:
                    gen.append(v)
            order = math.lcm(*(center_order(f.kind, f.rank, e) for f, e in zip(factors, gen)))
            if k % order:
                raise SpecParseError(
                    f"mu({k})[{parts[1]}] is not a map from mu({k}): "
                    f"its residues have order {order}")
            kernel.append(tuple(gen))
        else:
            kernel.append(tuple(_diag_entry(f, k, f"{tok} at position {i}")
                                for i, (f, tok) in enumerate(zip(factors, toks))))
    return GroupSpec(tuple(factors), tuple(kernel))


def _factor_name(f: SimpleFactor):
    if f.kind == "A":
        return f"SL({f.rank + 1})"
    if f.kind == "B":
        return f"Spin({2 * f.rank + 1})"
    if f.kind == "C":
        return f"Sp({2 * f.rank})"
    if f.kind == "D":
        return f"Spin({2 * f.rank})"
    return f.kind


def _quotient_factor_name(f: SimpleFactor, e):
    """Grammar name of factor f modulo its kernel entry e, or None if it has none."""
    if f.kind == "A" and e == 1:
        return f"PGL({f.rank + 1})"
    if f.kind == "C" and e == 1:
        return f"PGSp({2 * f.rank})"
    if f.kind in ("B", "D") and e == _diag_entry(f, 2):
        return _factor_name(f).replace("Spin", "SO")
    if f.kind == "A" and f.rank == 3 and e == 2:
        return "SO(6)"
    if f.kind == "D" and f.rank % 2 == 0 and e == (0, 1):
        return f"HSpin({2 * f.rank})"
    return None


def spec_to_text(spec: GroupSpec) -> str:
    """Canonical grammar text with parse_spec(spec_to_text(s)) == s.

    The grammar fixes the order of the kernel generators: per-factor ones in
    factor order, then at most one centre.  A spec it cannot write that way,
    such as one with two generators that no factor name carries, raises
    ValueError.
    """
    text = _render(spec)
    try:
        back = parse_spec(text)
    except SpecParseError:
        back = None
    if back != spec:
        raise ValueError("spec not expressible in the grammar")
    return text


def _render(spec: GroupSpec) -> str:
    names = [_factor_name(f) for f in spec.factors]
    kernel = spec.center_kernel
    last_named = -1   # the grammar lists per-factor generators in factor order
    shared = None
    k = 0
    while k < len(kernel):
        gen = kernel[k]
        k += 1
        support = [i for i, (f, e) in enumerate(zip(spec.factors, gen))
                   if e != _zero_entry(f)]
        if shared is None and len(support) == 1 and support[0] > last_named:
            i = support[0]
            name = _quotient_factor_name(spec.factors[i], gen[i])
            # PGO(8) is SO(8)'s generator followed by HSpin(8)'s.  In a product
            # whose kernel ends with that pair, the second one prints as the
            # centre instead: (SL(2) x SO(8)) / mu(2)[0,1].
            if name == "SO(8)" and kernel[k:k + 1] == (gen[:i] + ((0, 1),) + gen[i + 1:],) \
                    and (len(spec.factors) == 1 or k + 1 < len(kernel)):
                name, k = "PGO(8)", k + 1
            # SO(6) is SL(4) / mu(2), which prints as the centre unless a
            # later generator takes it: (SO(6) x Sp(4)) / mu(2)
            if name == "SO(6)" and k == len(kernel):
                name = None
            if name is not None:
                names[i] = name
                last_named = i
                continue
        # a generator no factor name carries, e.g. the mu(2) of SL(4) / mu(2)
        # or the zero one of SL(2) / mu(2)[0], is printed as the centre
        if shared is not None:
            raise ValueError("spec not expressible in the grammar")
        shared = gen
    prod = " x ".join(names)
    if shared is None:
        return prod
    if len(names) > 1:
        prod = f"({prod})"
    # residues that kill the centre, as in SL(2) / mu(2)[2], print under mu(2)
    order = max(2, math.lcm(*(center_order(f.kind, f.rank, e)
                              for f, e in zip(spec.factors, shared))))
    diag = tuple(_diag_entry(f, order) if _embeddable(f, order) else None
                 for f in spec.factors)
    if diag == shared:
        return f"{prod} / mu({order})"
    vals = []
    for f, e in zip(spec.factors, shared):
        if f.kind == "D" and f.rank % 2 == 0:
            vals.append(str(e[0] * 2 + e[1]))
        else:
            vals.append(str(e))
    return f"{prod} / mu({order})[{','.join(vals)}]"


def _embeddable(f, k):
    try:
        _diag_entry(f, k)
        return True
    except SpecParseError:
        return False
