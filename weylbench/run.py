"""weylinv benchmark: three closed-loop workloads against the public API.

    python3 weylbench/run.py --workload invariants_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; weylinv is imported from ./src.  One client,
closed loop: the next op starts after the previous one returns, and at most
one worker interpreter runs at a time.  A run makes a fixed number of passes,
round(--seconds / NOMINAL_PASS_S), each over inputs drawn from (seed, pass).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and then the same inputs traced, checks that both give identical outputs,
and prints the per-layer metrics.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("invariants_cold", "table_warm", "reduce")
SETUP_PROBES = 7          # extra bare spawns per run, so setup_s is a median
OP_TIMEOUT_S = 90.0       # an op slower than this counts as failed
TRACE_DIR = ".weylbench"  # span files, under the checkout root


class WorkerError(RuntimeError):
    pass


# Workers read and write bytecode in src/weylinv/__pycache__ whatever the
# caller's environment says, so setup_s measures importing weylinv, not
# compiling it, and no file is written outside the checkout.
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}


class Worker:
    """One worker interpreter; records its set-up time and peak RSS."""

    def __init__(self, src, trace_path=None):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), src, trace_path or "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            env=WORKER_ENV)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        hello = self._read(OP_TIMEOUT_S)
        if "ready" not in hello:
            self.kill()
            raise WorkerError(hello.get("error", "worker did not start"))
        self.setup_s = hello["ready"] - self.t_spawn
        self.maxrss_kib = 0
        self.totals = None

    def _read(self, timeout):
        if not self.sel.select(timeout):
            self.kill()
            raise WorkerError(f"no reply within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, op):
        self.proc.stdin.write(json.dumps(op) + "\n")
        self.proc.stdin.flush()
        reply = self._read(OP_TIMEOUT_S)
        self.maxrss_kib = max(self.maxrss_kib, reply["maxrss_kib"])
        return reply

    def close(self):
        self.proc.stdin.close()
        if self.proc.poll() is None and self.sel.select(OP_TIMEOUT_S):
            line = self.proc.stdout.readline()
            if line:
                self.totals = json.loads(line).get("totals")
        self.sel.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self):
        self.proc.kill()
        self.proc.wait()


class Recorder:
    """Collects op latencies, output digests, failures, set-up samples and layer totals."""

    def __init__(self):
        self.samples = []     # seconds per completed op
        self.digests = {}     # (pass, ..., index) -> output digest
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup = []
        self.maxrss_kib = 0
        self.totals = {}

    def spawned(self, w: Worker):
        self.setup.append(w.setup_s)

    def retired(self, w: Worker):
        self.maxrss_kib = max(self.maxrss_kib, w.maxrss_kib)
        if w.totals:
            spans.merge_totals(self.totals, w.totals)

    def op(self, key, op, reply):
        self.attempted += 1
        if reply["ok"]:
            self.samples.append(reply["seconds"])
        else:
            self.failed += 1
            self.errors.append(f"{op['spec']}: {'; '.join(reply['errors'])}")
        self.digests[key] = reply["digest"]

    def worker_failed(self, key, op, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{op['spec']}: {exc}")


class Session:
    """Spawns workers for one run and numbers their span files."""

    def __init__(self, src, trace):
        self.src = src
        self.trace = trace
        self.count = 0

    def spawn(self, rec: Recorder):
        path = None
        if self.trace:
            path = os.path.join(TRACE_DIR, f"spans-{self.count}.tsv.gz")
        self.count += 1
        w = Worker(self.src, path)
        rec.spawned(w)
        return w


def _run_ops(session, rec, worker, ops, keys):
    """Run ops on one worker; a worker that dies is replaced and the run goes on."""
    for key, op in zip(keys, ops):
        if worker is None:
            worker = session.spawn(rec)
        try:
            rec.op(key, op, worker.run(op))
        except WorkerError as exc:
            rec.worker_failed(key, op, exc)
            rec.retired(worker)
            worker = None
    return worker


def _retire(rec, worker):
    if worker is not None:
        worker.close()
        rec.retired(worker)


def cold_pass(session, rec, ops, p, _state):
    for i, op in enumerate(ops):
        _retire(rec, _run_ops(session, rec, session.spawn(rec), [op], [(p, i)]))


def table_pass(session, rec, families, p, _state):
    for f, ops in enumerate(families):
        keys = [(p, f, i) for i in range(len(ops))]
        _retire(rec, _run_ops(session, rec, session.spawn(rec), ops, keys))


def reduce_pass(session, rec, ops, p, state):
    # one long-lived worker for the whole run
    w = state.get("worker") or session.spawn(rec)
    state["worker"] = _run_ops(session, rec, w, ops, [(p, i) for i in range(len(ops))])


PASSES = {"invariants_cold": cold_pass, "table_warm": table_pass, "reduce": reduce_pass}

# Seconds one pass takes at the baseline.  A run makes a fixed number of
# passes, round(--seconds / NOMINAL_PASS_S), so that every run of a workload
# measures the same work; at the baseline the run then lasts about --seconds.
NOMINAL_PASS_S = {"invariants_cold": 10.0, "table_warm": 3.0, "reduce": 5.0}
OVERRUN = 4.0   # stop starting passes once a run has taken this many times --seconds


INPUTS = {"invariants_cold": inputs.cold_inputs, "table_warm": inputs.table_inputs,
          "reduce": inputs.reduce_inputs}


def make_inputs(workload, seed, passes):
    """The inputs of each pass, drawn from (seed, pass): more draws per run, steadier runs."""
    return [INPUTS[workload](seed, p) for p in range(passes)]


def tail(values):
    """(value, percentile, count) at the highest percentile with >= 10 samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(rec: Recorder):
    samples = rec.samples
    tail_v, tail_p, n = tail(samples)
    return {
        "setup_s": (statistics.median(rec.setup), "s"),
        "ops_per_s": (len(samples) / sum(samples), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * tail_v, "ms"),
        "peak_rss_mb": (rec.maxrss_kib / 1024, "MiB"),
    }, {"tail_percentile": tail_p, "samples": n,
        "failed_share": rec.failed / rec.attempted if rec.attempted else 0.0}


def _run_passes(session, rec, workload, data, seconds):
    """Run the passes in order; returns how many ran."""
    state = {}
    t0 = time.perf_counter()
    done = 0
    for p, ops in enumerate(data):
        if done and time.perf_counter() - t0 > OVERRUN * seconds:
            break
        PASSES[workload](session, rec, ops, p, state)
        done += 1
    _retire(rec, state.pop("worker", None))
    return done


def run(workload, seed, seconds, trace, src):
    """Returns (untraced recorder, recorder of the reported run, metrics, extra lines)."""
    passes = 1 if trace else max(1, round(seconds / NOMINAL_PASS_S[workload]))
    data = make_inputs(workload, seed, passes)
    rec = Recorder()
    session = Session(src, False)
    Worker(src).close()   # compiles bytecode once, outside the samples
    for _ in range(SETUP_PROBES):
        _retire(rec, session.spawn(rec))
    done = _run_passes(session, rec, workload, data, seconds)
    if not trace:
        metrics, extra = end_to_end(rec)
        extra["passes"] = done
        return rec, rec, metrics, extra

    os.makedirs(TRACE_DIR, exist_ok=True)
    traced = Recorder()
    _run_passes(Session(src, True), traced, workload, data, seconds)
    mismatched = [k for k, d in rec.digests.items() if traced.digests.get(k) != d]
    for k in mismatched:
        traced.failed += 1
        traced.errors.append(f"input {k}: traced output differs from untraced output")
    metrics = spans.layer_metrics(traced.totals)
    untraced_s = sum(rec.samples)
    metrics["trace.overhead_ratio"] = (sum(traced.samples) / untraced_s if untraced_s else 0.0,
                                       "ratio")
    return rec, traced, metrics, {"mismatched": len(mismatched)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "weylinv", "__init__.py")):
        print("error: run from a checkout root that holds src/weylinv", file=sys.stderr)
        return 2
    sys.path.insert(0, src)   # the reduce inputs are built with weylinv's generator API
    try:
        base, rec, metrics, extra = run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), src)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = rec.failed + (base.failed if base is not rec else 0)
    attempted = rec.attempted + (base.attempted if base is not rec else 0)
    for err in (base.errors if base is not rec else []) + rec.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{args.workload}\t{name}\t{value:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
