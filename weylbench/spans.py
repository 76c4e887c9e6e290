"""In-memory span tracing around calls into weylinv's public layer functions.

A `Tracer` wraps each public name listed in `LAYERS` at every attribute that
binds it (the defining module, every importing module, the package namespace
and, for methods, the class), records one span per call and restores the
original bindings on `uninstall()`.  Spans live in flat `array` columns so a
run with a million Laurent multiplications stays small, and are written out
only when the worker finishes.

Self time of a span is its duration minus the part of its interval that its
child spans cover; `layer_metrics` folds self times and counters into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# layer group -> public names it wraps ("Class.method" for methods)
LAYERS = {
    "laurent.mul": ("weylinv.laurent", ["LaurentPoly.__mul__"]),
    "laurent.add": ("weylinv.laurent", ["LaurentPoly.__add__", "LaurentPoly.__sub__"]),
    "laurent.divide": ("weylinv.laurent", ["bounded_divide"]),
    "laurent.grade": ("weylinv.laurent", ["homogeneous_component", "graded_components"]),
    "laurent.reduce": ("weylinv.laurent", ["reduce_coefficients"]),
    "intlinalg.hnf": ("weylinv.intlinalg", ["hnf", "hnf_with_transform"]),
    "intlinalg.snf": ("weylinv.intlinalg", ["snf_with_left", "snf_diagonal"]),
    "intlinalg.kernel": ("weylinv.intlinalg", ["congruence_kernel"]),
    "intlinalg.inverse": ("weylinv.intlinalg", ["inverse_fraction", "det_int"]),
    "intlinalg.contains": ("weylinv.intlinalg", ["lattice_contains"]),
    "rootdata.compile": ("weylinv.rootdata", ["compile_spec"]),
    "rootdata.orbit": ("weylinv.rootdata", ["weyl_orbit", "orbit_poly",
                                            "LatticeModel.orbit_local"]),
    "rootdata.orbit_size": ("weylinv.rootdata", ["orbit_size", "parabolic_order"]),
    "syzygy.mat_det": ("weylinv.syzygy", ["mat_det"]),
    "syzygy.mat_inverse": ("weylinv.syzygy", ["mat_inverse_unit"]),
    "syzygy.trivialize": ("weylinv.syzygy", ["trivialize_syzygy", "trivialize_generalized",
                                             "lift_syzygy"]),
    "syzygy.transform": ("weylinv.syzygy", ["newton_transform", "model_transform"]),
    "syzygy.normalize": ("weylinv.syzygy", ["normalize_coefficients"]),
    "generators.chain": ("weylinv.generators", ["gcd_chain"]),
    "generators.build": ("weylinv.generators", ["build_generators"]),
    "generators.reduce": ("weylinv.generators", ["reduce_to_generators"]),
    "invariants.Q": ("weylinv.invariants", ["compute_Q"]),
    "invariants.Dec": ("weylinv.invariants", ["compute_Dec", "dec_table"]),
    "invariants.Sdec": ("weylinv.invariants", ["compute_Sdec", "sdec_table"]),
    "invariants.factor_group": ("weylinv.invariants", ["factor_group"]),
    "invariants.c2": ("weylinv.invariants", ["c2", "killing_decompose"]),
    "cli.parse_spec": ("weylinv.cli", ["parse_spec"]),
}

# groups whose `.calls` the benchmark reports
COUNTED = ("laurent.mul", "laurent.add", "laurent.divide", "intlinalg.hnf", "intlinalg.snf",
           "rootdata.orbit", "syzygy.mat_det", "syzygy.trivialize", "invariants.Dec",
           "invariants.Sdec")

ROOT = "op"


def _size(result):
    """Work measure of a result: terms of a polynomial, points of an orbit."""
    terms = getattr(result, "terms", None)
    if terms is not None:
        return len(terms)
    if isinstance(result, (set, frozenset)):
        return len(result)
    return 0


class SpanLog:
    """Flat columns of spans: name id, op id, parent index, start/end ns, size, error."""

    def __init__(self):
        self.names = [ROOT]
        self.name = array("i")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.err = array("b")

    def __len__(self):
        return len(self.name)

    def open(self, name_id, op, parent, start):
        self.name.append(name_id)
        self.op.append(op)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(start)
        self.size.append(0)
        self.err.append(0)
        return len(self.name) - 1

    def self_times(self):
        """Per-span self time in ns: duration minus the union of child intervals.

        Spans are stored in start order, so each parent sees its children in
        start order and the covered part is a running union.
        """
        n = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        own = array("q", (end[i] - start[i] for i in range(n)))
        cover_end = array("q", start)
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], cover_end[p])
            hi = min(end[i], end[p])
            if hi > lo:
                own[p] -= hi - lo
            if end[i] > cover_end[p]:
                cover_end[p] = end[i]
        return own

    def write(self, path):
        """Write every span as one TSV line (gzip): name, op, parent, start, end, size, err."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\top\tparent\tstart_ns\tend_ns\tsize\terr\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.size[i]}\t{self.err[i]}\n")


class Tracer:
    """Installs span-recording wrappers on weylinv's layer functions."""

    def __init__(self):
        self.log = SpanLog()
        self.group_of = {0: ROOT}
        self._stack = [-1]
        self._op = -1
        self._undo = []

    def _wrap(self, fn, name_id):
        log, clock, stack = self.log, time.perf_counter_ns, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = log.open(name_id, self._op, stack[-1], clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.err[idx] = 1
                raise
            finally:
                log.end[idx] = clock()
                stack.pop()
            log.size[idx] = _size(result)
            return result

        return traced

    def install(self):
        """Rebind every wrapped public name wherever a loaded weylinv module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "weylinv" or k.startswith("weylinv."))]
        for group, (home, names) in LAYERS.items():
            home_mod = sys.modules[home]
            for qual in names:
                name_id = len(self.log.names)
                self.log.names.append(qual)
                self.group_of[name_id] = group
                cls_name, _, attr = qual.rpartition(".")
                owners = [getattr(home_mod, cls_name)] if cls_name else modules
                orig = vars(owners[0])[attr] if cls_name else getattr(home_mod, attr)
                wrapper = self._wrap(orig, name_id)
                for owner in owners:
                    for key, val in list(vars(owner).items()):
                        if val is orig:   # every alias too, e.g. __rmul__ = __mul__
                            setattr(owner, key, wrapper)
                            self._undo.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def run_op(self, op_id, fn, *args):
        """Return fn(*args), run inside a root span for op `op_id`."""
        self._op = op_id
        idx = self.log.open(0, op_id, -1, time.perf_counter_ns())
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            self.log.end[idx] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1


def layer_totals(log: SpanLog, group_of: dict) -> dict:
    """Sum self time, calls, sizes and errors per layer group.

    A call counts once per group: a span whose parent belongs to the same
    group (such as `__sub__` calling `__add__`) adds its self time but not a
    call.
    """
    own = log.self_times()
    out = {}
    for i in range(len(log)):
        if log.op[i] < 0:   # input parsing and output checks, outside every op
            continue
        g = group_of[log.name[i]]
        t = out.setdefault(g, {"spans": 0, "self_ns": 0, "calls": 0, "size": 0,
                               "failed": 0, "total_ns": 0})
        t["spans"] += 1
        t["self_ns"] += own[i]
        p = log.parent[i]
        if p < 0 or group_of[log.name[p]] != g:
            t["calls"] += 1
            t["size"] += log.size[i]
            t["failed"] += log.err[i]
            t["total_ns"] += log.end[i] - log.start[i]
    return out


def merge_totals(acc: dict, more: dict) -> dict:
    for g, t in more.items():
        a = acc.setdefault(g, dict.fromkeys(t, 0))
        for k, v in t.items():
            a[k] += v
    return acc


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from merged layer totals."""
    def get(g, k):
        return totals.get(g, {}).get(k, 0)

    out = {}
    for g in LAYERS:
        if g in COUNTED:
            out[f"{g}.calls"] = (get(g, "calls"), "count")
        out[f"{g}.self_s"] = (get(g, "self_ns") / 1e9, "s")
    out["laurent.mul.terms_out"] = (get("laurent.mul", "size"), "count")
    out["rootdata.orbit.points"] = (get("rootdata.orbit", "size"), "count")
    sdec_calls, sdec_failed = get("invariants.Sdec", "calls"), get("invariants.Sdec", "failed")
    out["invariants.Sdec.failed"] = (sdec_failed, "count")
    out["invariants.Sdec.useful_ratio"] = (
        (sdec_calls - sdec_failed) / sdec_calls if sdec_calls else 0.0, "ratio")
    op_ns = get(ROOT, "total_ns")
    layer_ns = sum(t["self_ns"] for g, t in totals.items() if g != ROOT)
    out["trace.op_s"] = (op_ns / 1e9, "s")
    out["trace.unattributed_s"] = (get(ROOT, "self_ns") / 1e9, "s")
    out["trace.attributed_share"] = (layer_ns / op_ns if op_ns else 0.0, "ratio")
    out["trace.spans"] = (sum(t["spans"] for t in totals.values()), "count")
    return out
