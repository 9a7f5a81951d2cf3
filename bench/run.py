"""Benchmark of the zwtick exact engine.

Run from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see `workloads.py`): ``nf_roundtrip`` (normal form -> diagram ->
operator, exact), ``certify`` (rule-instance and lemma certification) and
``verdicts`` (equality, CP and PPT decisions).  Each is one caller in a
closed loop: the next op starts when the last one returns.  Every op's
output is checked against an answer built with its input.

``--trace 0`` measures the end-to-end metrics.  It runs whole cycles of the
workload until ``--seconds`` have passed and at least 100 ops have run, and
times set-up (import plus input generation) in this process and in six
fresh ones.

``--trace 1`` measures the per-layer metrics.  It runs a fixed number of
cycles three times, each in a fresh process: untraced, with span wrappers,
and with span wrappers plus hot-method counters (see `tracing.py`).  It
fails unless the three runs saw identical inputs and outputs, the two traced
runs made identical counts, and another seed gives other inputs.  Spans are
written to ``bench/out/``.

All times are reported at reference speed (see `speed.py`): each op's wall
time is scaled by how long a fixed reference task took around it, which
cancels the speed swings of a shared machine.

A human-readable summary goes to standard output; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 100
SETUP_PROBES = 6
#: Cycles per traced pass; each pass takes a few seconds untraced.
TRACE_CYCLES = {"nf_roundtrip": 1, "certify": 1, "verdicts": 40}

#: name -> (unit, better).  `ok_ratio` is 1 - fail_ratio: a metric that
#: reads 0 has no relative spread, so the failure share is reported this way.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, the end-to-end metrics and workloads it should move).
PER_LAYER = {
    "scalar.mul.calls": ("count", "lower", "throughput_ops_s on nf_roundtrip; latency_p50_ms on verdicts"),
    "scalar.mul.s": ("s", "lower", "throughput_ops_s on nf_roundtrip; latency_p50_ms on verdicts"),
    "scalar.add.calls": ("count", "lower", "throughput_ops_s on nf_roundtrip; latency_p50_ms on verdicts"),
    "scalar.add.s": ("s", "lower", "throughput_ops_s on nf_roundtrip; latency_p50_ms on verdicts"),
    "scalar.inverse.calls": ("count", "lower", "latency_p50_ms on verdicts (exact minors at dimension 4)"),
    "scalar.inverse.s": ("s", "lower", "latency_p50_ms on verdicts (exact minors at dimension 4)"),
    "diagram.nodes.built": ("count", "lower", "throughput_ops_s and latency_p50_ms on certify"),
    "diagram.hash.calls": ("count", "lower", "throughput_ops_s and latency_p50_ms on certify"),
    "diagram.generators": ("count", "lower", "throughput_ops_s and latency_p50_ms on certify"),
    "diagram.parse.s": ("s", "lower", "latency_p50_ms on verdicts"),
    "semantics.unzip.s": ("s", "lower", "throughput_ops_s, latency_p90_ms, peak_rss_mb on nf_roundtrip"),
    "semantics.unzip.generators": ("count", "lower", "throughput_ops_s, latency_p90_ms, peak_rss_mb on nf_roundtrip"),
    "semantics.interp.s": ("s", "lower", "throughput_ops_s, latency_p90_ms, peak_rss_mb on nf_roundtrip"),
    "semantics.kron.calls": ("count", "lower", "throughput_ops_s, latency_p90_ms on nf_roundtrip"),
    "semantics.kron.entries": ("count", "lower", "throughput_ops_s, latency_p90_ms, peak_rss_mb on nf_roundtrip"),
    "semantics.kron.identity_ratio": ("ratio", "lower", "throughput_ops_s, latency_p90_ms on nf_roundtrip"),
    "semantics.kron.s": ("s", "lower", "throughput_ops_s, latency_p90_ms on nf_roundtrip"),
    "semantics.matmul.calls": ("count", "lower", "throughput_ops_s, latency_p90_ms on nf_roundtrip"),
    "semantics.matmul.entries": ("count", "lower", "throughput_ops_s, peak_rss_mb on nf_roundtrip"),
    "semantics.matmul.s": ("s", "lower", "throughput_ops_s, latency_p90_ms on nf_roundtrip"),
    "semantics.readout.s": ("s", "lower", "throughput_ops_s on nf_roundtrip"),
    "semantics.psd.s": ("s", "lower", "latency_p50_ms, latency_p90_ms on verdicts only"),
    "semantics.psd.exact": ("count", "higher", "latency_p50_ms, latency_p90_ms on verdicts only"),
    "semantics.psd.numeric": ("count", "lower", "latency_p50_ms, latency_p90_ms on verdicts only"),
    "qinfo.partial_transpose.s": ("s", "lower", "latency_p50_ms, latency_p90_ms on verdicts only"),
    "qinfo.ppt.s": ("s", "lower", "latency_p50_ms, latency_p90_ms on verdicts only"),
    "normalform.nf_from_matrix.s": ("s", "lower", "throughput_ops_s on nf_roundtrip"),
    "normalform.nf_to_diagram.s": ("s", "lower", "throughput_ops_s on nf_roundtrip"),
    "normalform.canonical.s": ("s", "lower", "throughput_ops_s on certify; latency_p90_ms on verdicts"),
    "normalform.terms": ("count", "lower", "throughput_ops_s on nf_roundtrip"),
    "rules.instantiate.s": ("s", "lower", "throughput_ops_s on certify"),
    "rules.instances": ("count", "higher", "throughput_ops_s on certify"),
    "other.s": ("s", "lower", "time in ops outside every layer above"),
    "trace.untraced_s": ("s", "lower", "op time of the untraced pass"),
    "trace.traced_s": ("s", "lower", "op time of the span pass"),
    "trace.overhead_s": ("s", "lower", "span pass minus untraced pass"),
    "trace.counters_overhead_s": ("s", "lower", "counters pass minus untraced pass"),
}


def _parse_args(argv: "list[str] | None") -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="zwtick benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one pass of a traced run, or one set-up probe.
    ap.add_argument("--pass", dest="pass_", choices=("setup", "untraced", "spans", "counters"))
    # Internal, for the benchmark's tests: cap the ops of traced passes.
    ap.add_argument("--ops", type=int, default=None)
    return ap.parse_args(argv)


def _load_library() -> None:
    if not (SRC / "zwtick" / "__init__.py").is_file():
        raise SystemExit(f"bench: no zwtick sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    # One caller on one thread: keep numpy's linear algebra from spawning
    # worker threads that spin beside it.  Passes inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _setup(workload: str, seed: int):
    """Import the library and build the first cycle of inputs; time both."""
    before = speed.reference_time()
    t0 = perf_counter()
    import workloads

    try:
        wl = workloads.Workload(workload, seed)
    except ValueError as exc:
        raise SystemExit(f"bench: {exc}") from None
    wl.cycle(0)
    elapsed = perf_counter() - t0
    return wl, elapsed * speed.NOMINAL_S * 2.0 / (before + speed.reference_time())


# -- fingerprints of inputs and outputs -------------------------------------


def fingerprint(obj) -> str:
    """Text that identifies an op argument or result exactly."""
    import zwtick as zw

    if isinstance(obj, zw.Matrix):
        return "M[" + ";".join(" ".join(map(str, row)) for row in obj.data) + "]"
    if isinstance(obj, zw.Diagram):
        return zw.print_diagram(obj)
    if isinstance(obj, zw.RuleSchema):
        return obj.name
    if isinstance(obj, zw.CheckReport):
        return "|".join(obj.lines())
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(fingerprint(x) for x in obj) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}={fingerprint(v)}" for k, v in sorted(obj.items())) + "}"
    return str(obj)


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}:{fingerprint(op.args)}:{fingerprint(op.expected)}\n".encode())
    return h.hexdigest()


# -- the op loop -------------------------------------------------------------


class Runner:
    """Runs ops one after another and keeps what the metrics need.

    An op fails when it raises, returns None or returns a wrong answer;
    every failure is counted.  With `outputs`, a hash object, each result is
    fingerprinted outside the timed region.
    """

    def __init__(self, wl, tracer=None, outputs=None):
        self.wl = wl
        self.tracer = tracer
        self.outputs = outputs
        self.speed = speed.Speed()
        self.wall: list[float] = []
        self._before: list[int] = []
        self.failed = 0
        self.notes: list[str] = []

    def run(self, ops) -> None:
        for op in ops:
            index = len(self.wall)
            self._before.append(self.speed.before_op())
            span = self.tracer.begin_op(index) if self.tracer is not None else None
            t0 = perf_counter()
            try:
                ok, out = self.wl.run_op(op)
            except Exception as exc:  # a failed op is data, not a crash
                ok, out = False, f"{type(exc).__name__}: {exc}"
            self.wall.append(perf_counter() - t0)
            if span is not None:
                self.tracer.end(span)
            if not ok or out is None:
                self.failed += 1
                if len(self.notes) < 5:
                    self.notes.append(f"{op.kind}: expected {fingerprint(op.expected)[:80]}, got {str(out)[:200]}")
            if self.outputs is not None:
                self.outputs.update(f"{index}:{fingerprint(out)}\n".encode())

    def finish(self) -> tuple[list[float], list[float]]:
        """Per-op scale factors, and latencies in seconds at reference speed."""
        self.speed.finish()
        scales = [self.speed.scale(b) for b in self._before]
        return scales, [t * k for t, k in zip(self.wall, scales)]


def latency_quantiles(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds (needs >= 100 samples)."""
    q = statistics.quantiles(latencies, n=10)
    return q[4] * 1000.0, q[8] * 1000.0


def _metric(name: str, value: float, table: dict) -> dict:
    return {"value": value, "unit": table[name][0]}


def result_line(correct: bool, attempted: int, failed: int, values: dict, table: dict) -> str:
    """The final JSON line: every metric of `table`, with its unit."""
    missing = set(table) - set(values)
    if missing:
        raise ValueError(f"metrics missing from the result: {sorted(missing)}")
    metrics = {name: _metric(name, values[name], table) for name in table}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def _child(args: argparse.Namespace, pass_: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass", pass_]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {pass_} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- --trace 0 ---------------------------------------------------------------


def run_end_to_end(args: argparse.Namespace) -> int:
    wl, setup_main = _setup(args.workload, args.seed)
    setups = [setup_main] + [_child(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]

    runner = Runner(wl)
    cycles, peak_rss_kb = 0, 0
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(runner.wall) < MIN_OPS:
        runner.run(wl.cycle(cycles))
        cycles += 1
        # Memory over a fixed amount of work: the caches keep growing, so
        # a longer run (or a faster commit) would otherwise read higher.
        if not peak_rss_kb and len(runner.wall) >= MIN_OPS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            memory_ops = len(runner.wall)
    _, latencies = runner.finish()
    busy = sum(latencies)
    attempted, failed = len(latencies), runner.failed
    p50, p90 = latency_quantiles(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": (attempted - failed) / busy,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    for note in runner.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {cycles} cycles, "
          f"{sum(runner.wall):.2f} s wall, {busy:.2f} s at reference speed, {failed} failed")
    print(f"  setup_s           {values['setup_s']:.4f} s (median of {len(setups)} fresh processes)")
    print(f"  throughput_ops_s  {values['throughput_ops_s']:.4f} 1/s")
    print(f"  latency_p50_ms    {p50:.4f} ms (n={attempted})")
    print(f"  latency_p90_ms    {p90:.4f} ms (n={attempted}, {attempted - int(0.9 * attempted)} beyond)")
    print(f"  fail_ratio        {failed / attempted:.4f} ({failed}/{attempted}); ok_ratio {values['ok_ratio']:.4f}")
    print(f"  peak_rss_mb       {values['peak_rss_mb']:.1f} MB (over the first {memory_ops} ops)")
    print(result_line(failed == 0, attempted, failed, values, END_TO_END))
    return 0


# -- --trace 1 ---------------------------------------------------------------


def _trace_ops(wl, limit: "int | None") -> list:
    ops = [op for k in range(TRACE_CYCLES[wl.name]) for op in wl.cycle(k)]
    return ops[:limit] if limit is not None else ops


def run_pass(args: argparse.Namespace) -> int:
    """One fresh-process pass; prints its findings as one JSON line."""
    wl, setup_s = _setup(args.workload, args.seed)
    if args.pass_ == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ops = _trace_ops(wl, args.ops)
    report = {"inputs": inputs_digest(ops), "ops": len(ops)}
    tracer = None
    if args.pass_ != "untraced":
        import tracing

        tracer = tracing.Tracer(args.pass_)
        tracer.install()
    outputs = hashlib.sha256()
    runner = Runner(wl, tracer, outputs)
    try:
        runner.run(ops)
    finally:
        if tracer is not None:
            tracer.restore()
    scales, latencies = runner.finish()
    report.update(outputs=outputs.hexdigest(), op_s=sum(latencies), failed=runner.failed, notes=runner.notes)
    if tracer is not None:
        self_s, calls = tracer.self_times(scales)
        # Scalar self time is summed over the pass; scale it by the mean.
        mean_scale = sum(latencies) / sum(runner.wall)
        scalar_self = {k: v * mean_scale for k, v in tracer.scalar_self.items()}
        report.update(self_s=self_s, calls=calls, counts=dict(tracer.counts),
                      scalar_calls=dict(tracer.scalar_calls), scalar_self=scalar_self)
        if args.pass_ == "spans":
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(str(path), [op.kind for op in ops])
            report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


def _shared_counts(p: dict) -> dict:
    """Counts both traced levels record: span calls and observer counts."""
    fine = {"diagram.nodes.built", "diagram.hash.calls"}
    return {"calls": p["calls"], "counts": {k: v for k, v in p["counts"].items() if k not in fine}}


def layer_metrics(spans: dict, counters: dict, untraced: dict) -> dict:
    """Per-layer metrics from the three passes of a traced run."""
    import tracing

    self_s, calls, counts = spans["self_s"], spans["calls"], counters["counts"]
    values = {}
    named = set()
    for _, _, name in tracing.TARGETS:
        if f"{name}.s" in PER_LAYER:
            values[f"{name}.s"] = self_s.get(name, 0.0)
            named.add(name)
    values["other.s"] = sum(v for k, v in self_s.items() if k not in named)
    for name in ("semantics.kron", "semantics.matmul"):
        values[f"{name}.calls"] = calls.get(name, 0)
    for key in ("diagram.nodes.built", "diagram.hash.calls", "diagram.generators",
                "semantics.unzip.generators", "semantics.kron.entries", "semantics.matmul.entries",
                "semantics.psd.exact", "semantics.psd.numeric", "normalform.terms", "rules.instances"):
        values[key] = counts.get(key, 0)
    kron_calls = values["semantics.kron.calls"]
    values["semantics.kron.identity_ratio"] = (
        counts.get("semantics.kron.identity_operand", 0) / kron_calls if kron_calls else 0.0
    )
    for _, name in tracing.SCALAR_METHODS:
        values[f"{name}.calls"] = counters["scalar_calls"].get(name, 0)
        values[f"{name}.s"] = counters["scalar_self"].get(name, 0.0)
    values["trace.untraced_s"] = untraced["op_s"]
    values["trace.traced_s"] = spans["op_s"]
    values["trace.overhead_s"] = spans["op_s"] - untraced["op_s"]
    values["trace.counters_overhead_s"] = counters["op_s"] - untraced["op_s"]
    return values


def check_determinism(args: argparse.Namespace, passes: dict) -> list[str]:
    """Problems that make a traced run fail; empty when all checks hold."""
    import workloads

    problems = []
    names = list(passes)
    for key in ("inputs", "outputs"):
        if len({passes[p][key] for p in names}) != 1:
            problems.append(f"{key} differ between the {', '.join(names)} passes")
    if _shared_counts(passes["spans"]) != _shared_counts(passes["counters"]):
        problems.append("the two traced passes made different counts")
    limit = args.ops
    here = inputs_digest(_trace_ops(workloads.Workload(args.workload, args.seed), limit))
    other = inputs_digest(_trace_ops(workloads.Workload(args.workload, args.seed + 1), limit))
    if here != passes["untraced"]["inputs"]:
        problems.append("regenerating the seed's inputs gave other inputs")
    if here == other:
        problems.append(f"seeds {args.seed} and {args.seed + 1} gave identical inputs")
    return problems


def run_traced(args: argparse.Namespace) -> int:
    passes = {p: _child(args, p) for p in ("untraced", "spans", "counters")}
    problems = check_determinism(args, passes)
    if problems:
        for p in problems:
            print(f"bench: determinism check failed: {p}", file=sys.stderr)
        return 1
    values = layer_metrics(passes["spans"], passes["counters"], passes["untraced"])
    failed = max(p["failed"] for p in passes.values())
    attempted = passes["untraced"]["ops"]
    for p in passes.values():
        for note in p["notes"]:
            print(f"FAILED {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: traced {attempted} ops three times, {failed} failed; "
          f"spans in {passes['spans']['spans_file']}")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {PER_LAYER[name][0]}")
    print(result_line(failed == 0, attempted, failed, values, PER_LAYER))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _parse_args(argv)
    _load_library()
    if args.pass_ is not None:
        return run_pass(args)
    if args.trace:
        return run_traced(args)
    return run_end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
