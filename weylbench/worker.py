"""Worker interpreter: imports weylinv, then runs ops sent one JSON line at a time.

Usage: python3 worker.py SRC_DIR TRACE_PATH|-

The first line it writes reports `perf_counter()` right after `import weylinv`
returns; the parent subtracts its own spawn timestamp (both clocks are
CLOCK_MONOTONIC) to get the set-up time.  Each later line answers one op with
its duration, an output digest and the result of the output checks.  With a
trace path, every op runs under a `spans.Tracer`; the spans are written there
and the per-layer totals are sent when stdin closes.
"""

import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import weylinv  # noqa: E402  (timed: this import is the set-up being measured)

    _READY = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def _coords(basis, rows):
    """(X, det B) with X B = rows over Q, for a square basis B; X is None if B is singular."""
    n = len(basis)
    # Gauss-Jordan on [B^T | rows^T]: column k of the result solves B^T x = rows[k]
    a = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(r[i]) for r in rows]
         for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return None, Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [[a[i][n + k] for i in range(n)] for k in range(len(rows))], det


def check_invariants(op, rep):
    """Output checks for one invariants op; returns a list of failures."""
    q, dec = rep.Q.rows, rep.Dec.rows
    sdec = rep.Sdec.rows if rep.Sdec else dec
    if any(len(rows) != rep.Q.dim for rows in (q, dec, sdec)):
        return ["a lattice is not of full rank"]

    def inside(sub, sup):
        x, _ = _coords(sup, sub)
        return x is not None and all(v.denominator == 1 for row in x for v in row)

    bad = []
    if not (inside(dec, sdec) and inside(sdec, q)):
        bad.append("Dec <= Sdec <= Q violated")
    ind = rep.inv_ind.invariant_factors
    index = abs(_coords(dec, [])[1] / _coords(q, [])[1])
    if index != math.prod(ind):
        bad.append(f"|Q/Dec| = {index} but Inv3_ind = {ind}")
    pin = op.get("pin")
    sd = rep.inv_sd.invariant_factors if rep.inv_sd is not None else None
    if pin == "sd=ind":
        if sd != ind:
            bad.append(f"type-A closed form wants Inv3_sd = Inv3_ind, got {sd} vs {ind}")
    elif pin is not None:
        want_ind, want_sd = (tuple(x) for x in pin)
        if ind != want_ind or sd != want_sd:
            bad.append(f"pinned ({want_ind}, {want_sd}), got ({ind}, {sd})")
    return bad


def run_invariants(op):
    spec = weylinv.parse_spec(op["spec"])
    model = weylinv.compile_spec(spec)
    return weylinv.invariants_of(model)


def digest_invariants(rep):
    return json.dumps([rep.Q.rows, rep.Dec.rows, rep.Sdec.rows if rep.Sdec else None,
                       rep.inv_ind.invariant_factors,
                       rep.inv_sd.invariant_factors if rep.inv_sd else None])


class ReduceOp:
    """Parsed reduce input; parsing and the expected target stay outside the timing."""

    def __init__(self, op):
        self.spec = weylinv.parse_spec(op["spec"])
        n = sum(f.rank for f in self.spec.factors)
        self.f = tuple(weylinv.from_text(s, n, 0) for s in op["f"])
        self.combo_in = {k: weylinv.from_text(s, n, 0) for k, s in op["combo"].items()}

    def __call__(self):
        model = weylinv.compile_spec(self.spec)
        gs = weylinv.build_generators(model)
        return gs, weylinv.reduce_to_generators(model, self.f, gs)


def check_reduce(red, gs, combo):
    if weylinv.expand_combination(gs, combo) != weylinv.expand_combination(gs, red.combo_in):
        return ["returned combination does not re-expand to the input"]
    return []


def main():
    trace_path = sys.argv[2]
    tracer = None
    if trace_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()
    src = os.path.realpath(sys.argv[1])
    loaded = os.path.realpath(weylinv.__file__)
    out = sys.stdout
    if not loaded.startswith(src + os.sep):
        out.write(json.dumps({"error": f"weylinv loaded from {loaded}, not {src}"}) + "\n")
        return 2
    out.write(json.dumps({"ready": _READY}) + "\n")
    out.flush()
    op_id = 0
    for line in sys.stdin:
        op = json.loads(line)
        try:
            if op["kind"] == "invariants":
                fn, arg = run_invariants, (op,)
            else:
                fn, arg = ReduceOp(op), ()
            t0 = time.perf_counter()
            if tracer is None:
                result = fn(*arg)
            else:
                result = tracer.run_op(op_id, fn, *arg)
            dt = time.perf_counter() - t0
            if op["kind"] == "invariants":
                bad, digest = check_invariants(op, result), digest_invariants(result)
            else:
                gs, combo = result
                bad = check_reduce(fn, gs, combo)
                digest = json.dumps({k: weylinv.to_text(v) for k, v in sorted(combo.items())})
            reply = {"ok": not bad, "seconds": dt, "digest": digest, "errors": bad}
        except Exception as exc:  # a failed op is counted and the run goes on
            reply = {"ok": False, "seconds": None, "digest": None,
                     "errors": [f"{type(exc).__name__}: {exc}"]}
        reply["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.write(json.dumps(reply) + "\n")
        out.flush()
        op_id += 1
    if tracer is not None:
        tracer.uninstall()
        totals = spans.layer_totals(tracer.log, tracer.group_of)
        tracer.log.write(trace_path)
        out.write(json.dumps({"totals": totals}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
