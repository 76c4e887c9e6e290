"""Tests of the benchmark itself: seeded inputs, span arithmetic, transparent wrappers."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_same_seed_same_inputs():
    assert inputs.cold_inputs(3) == inputs.cold_inputs(3)
    assert inputs.table_inputs(3) == inputs.table_inputs(3)
    assert inputs.reduce_inputs(3) == inputs.reduce_inputs(3)
    assert inputs.cold_inputs(3) != inputs.cold_inputs(4)
    assert inputs.reduce_inputs(3) != inputs.reduce_inputs(4)


def test_draw_respects_caps_and_strata():
    from weylinv import parse_spec

    ops = inputs.cold_inputs(11)
    drawn = [op["spec"] for op in ops if not op["anchor"]]
    counts = {}
    for text in drawn:
        ranks = [f.rank for f in parse_spec(text).factors]
        assert max(ranks) <= 2
        counts[len(ranks)] = counts.get(len(ranks), 0) + 1
    assert counts == inputs.DRAW_PER_FACTOR_COUNT


def _log(rows):
    """SpanLog from (name, parent, start, end) rows given in start order."""
    log = spans.SpanLog()
    log.names = ["op", "a", "b"]
    for name, parent, start, end in rows:
        idx = log.open(log.names.index(name), 0, parent, start)
        log.end[idx] = end
    return log


def test_self_time_on_synthetic_tree():
    # op [0,100]: children a [10,40] and b [30,60] overlap on [30,40];
    # a has child b [15,25]; b [30,60] has child a [50,90], clipped at 60.
    log = _log([
        ("op", -1, 0, 100),
        ("a", 0, 10, 40),
        ("b", 1, 15, 25),
        ("b", 0, 30, 60),
        ("a", 3, 50, 90),
    ])
    assert list(log.self_times()) == [100 - 50, 30 - 10, 10, 30 - 10, 40]
    group_of = {0: "op", 1: "g.a", 2: "g.b"}
    totals = spans.layer_totals(log, group_of)
    assert totals["op"]["self_ns"] == 50
    assert totals["g.a"]["self_ns"] == 20 + 40
    assert totals["g.b"]["self_ns"] == 10 + 20
    assert totals["g.a"]["calls"] == 2 and totals["g.b"]["calls"] == 2


def test_nested_same_group_counts_one_call():
    log = _log([("op", -1, 0, 10), ("a", 0, 1, 9), ("a", 1, 2, 5)])
    totals = spans.layer_totals(log, {0: "op", 1: "g", 2: "g"})
    assert totals["g"]["calls"] == 1
    assert totals["g"]["self_ns"] == 8
    assert totals["op"]["self_ns"] == 2


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail(list(range(100)))
    assert value == 89 and n == 100 and pct == 90.0
    assert sum(1 for v in range(100) if v > value) == 10


def _outputs():
    import random

    import weylinv
    from weylinv.generators import combination_to_tuple, expand_combination

    rep = weylinv.invariants_of(weylinv.compile_spec(weylinv.parse_spec("(Sp(4) x Sp(6)) / mu(2)")))
    model = weylinv.compile_spec(weylinv.parse_spec("(Sp(4) x Sp(4)) / mu(2)"))
    gs = weylinv.build_generators(model)
    combo = inputs.random_combination(random.Random(5), model, [n for n, _ in gs.labeled()])
    out = weylinv.reduce_to_generators(model, combination_to_tuple(gs, combo), gs)
    return (rep.Q.rows, rep.Dec.rows, rep.Sdec.rows, rep.inv_ind, rep.inv_sd,
            expand_combination(gs, out) == expand_combination(gs, combo),
            sorted((k, weylinv.to_text(v)) for k, v in out.items()))


def test_wrappers_leave_results_unchanged():
    import weylinv
    from weylinv import laurent, rootdata

    plain = _outputs()
    mul, compile_spec = laurent.LaurentPoly.__mul__, rootdata.compile_spec
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert laurent.LaurentPoly.__mul__ is not mul
        assert laurent.LaurentPoly.__rmul__ is laurent.LaurentPoly.__mul__
        assert weylinv.compile_spec is not compile_spec
        traced = tracer.run_op(0, _outputs)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert laurent.LaurentPoly.__mul__ is mul and laurent.LaurentPoly.__rmul__ is mul
    assert weylinv.compile_spec is compile_spec and rootdata.compile_spec is compile_spec
    totals = spans.layer_totals(tracer.log, tracer.group_of)
    assert totals["invariants.Dec"]["calls"] == 1
    assert totals["generators.reduce"]["calls"] == 1
    assert totals["laurent.mul"]["calls"] > 0
    assert sum(t["self_ns"] for t in totals.values()) == totals["op"]["total_ns"]


def test_benchmark_json_lists_the_printed_metrics():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rec = run.Recorder()
    rec.setup, rec.samples, rec.attempted = [0.1], [0.01], 1
    e2e, _ = run.end_to_end(rec)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers = spans.layer_metrics({})
    layers["trace.overhead_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert set(bench["workloads"][i]["name"] for i in range(3)) == set(run.WORKLOADS)


def test_output_checks_catch_wrong_results():
    from types import SimpleNamespace as NS

    import worker

    def rep(q, dec, sdec, ind, sd):
        lat = lambda rows: NS(rows=rows, dim=2)  # noqa: E731
        return NS(Q=lat(q), Dec=lat(dec), Sdec=lat(sdec),
                  inv_ind=NS(invariant_factors=ind), inv_sd=NS(invariant_factors=sd))

    z2, dec = [[1, 0], [0, 1]], [[2, 0], [0, 2]]
    good = rep(z2, dec, [[1, 0], [0, 2]], (2, 2), (2,))
    assert worker.check_invariants({"pin": ((2, 2), (2,))}, good) == []
    assert worker.check_invariants({"pin": ((2,), ())}, good)
    assert worker.check_invariants({"pin": "sd=ind"}, good)
    assert worker.check_invariants({}, rep(z2, dec, [[3, 0], [0, 1]], (2, 2), ()))
    assert worker.check_invariants({}, rep(z2, dec, dec, (2,), ()))
