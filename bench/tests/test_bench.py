"""Tests of the benchmark itself: inputs, checks, tracing and the result line.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import zwtick as zw  # noqa: E402
import zwtick.semantics  # noqa: E402

WORKLOADS = ("nf_roundtrip", "certify", "verdicts")


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_inputs(name):
    first = run.inputs_digest(workloads.Workload(name, 7).cycle(0))
    again = run.inputs_digest(workloads.Workload(name, 7).cycle(0))
    other = run.inputs_digest(workloads.Workload(name, 8).cycle(0))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", WORKLOADS)
def test_cycles_have_a_fixed_composition(name):
    def kinds(seed):
        return sorted(op.kind for op in workloads.Workload(name, seed).cycle(1))

    assert kinds(3) == kinds(4)


def test_certification_grid_size():
    assert len(workloads.rule_grid(0)) == 1128
    ops = workloads.Workload("certify", 0).cycle(0)
    assert sum(op.kind == "certify.corpus" for op in ops) == 1
    assert len(ops) == 1129


def test_hermitian_inputs():
    rng = workloads._rng("test", 0)
    for qubits, entries, _ in workloads.NF_CYCLE:
        m = workloads.hermitian(rng, qubits, entries)
        assert m.is_hermitian()
        assert sum(not m.data[x][y].is_zero() for x in range(m.rows) for y in range(x, m.cols)) == entries


def test_verdict_expectations_cover_both_answers():
    ops = workloads.Workload("verdicts", 0).cycle(0)
    for prefix in ("eq.", "cp.", "ppt."):
        assert {op.expected for op in ops if op.kind.startswith(prefix)} == {True, False}


def test_werner_threshold_is_exact():
    pt = zw.partial_transpose(zw.Matrix(workloads.werner(Fraction(1, 3))), 1)
    # At p = 1/3 the smallest eigenvalue of the partial transpose is exactly 0.
    assert zw.is_psd(pt) is True
    assert zw.is_psd(zw.partial_transpose(zw.Matrix(workloads.werner(Fraction(1, 2))), 1)) is False


# -- output checks and failure counting --------------------------------------


def test_wrong_expected_answer_counts_as_failure():
    wl = workloads.Workload("verdicts", 0)
    op = next(op for op in wl.cycle(0) if op.kind.startswith("ppt."))
    flipped = workloads.Op(op.kind, op.args, not op.expected)
    runner = run.Runner(wl)
    runner.run([op, flipped])
    scales, latencies = runner.finish()
    assert len(latencies) == len(scales) == 2
    assert runner.failed == 1
    assert runner.notes and runner.notes[0].startswith("ppt.")


def test_raising_op_counts_as_failure():
    wl = workloads.Workload("verdicts", 0)
    bad = workloads.Op("eq.w2", ("(id 1)", "(bogus"), True)
    runner = run.Runner(wl)
    runner.run([bad])
    assert (len(runner.wall), runner.failed) == (1, 1)
    assert "DiagramParseError" in runner.notes[0]


def test_round_trip_check_compares_exactly():
    wl = workloads.Workload("nf_roundtrip", 0)
    op = next(op for op in wl.cycle(0) if op.kind == "nf.q1e3")
    ok, out = wl.run_op(op)
    assert ok and out == op.expected
    other = workloads.hermitian(workloads._rng("x", 1), 1, 3)
    ok, _ = wl.run_op(workloads.Op(op.kind, op.args, other))
    assert not ok


def test_speed_scale_brackets_each_op():
    s = speed.Speed()
    s.samples = [0.004, 0.002, 0.001]
    assert s.scale(0) == pytest.approx(speed.NOMINAL_S / 0.003)
    assert s.scale(1) == pytest.approx(speed.NOMINAL_S / 0.0015)


# -- tracing ---------------------------------------------------------------------


def test_tracer_restores_originals():
    originals = {
        "state_operator": zwtick.semantics.state_operator,
        "kron": zwtick.semantics.SMat.kron,
        "mul": zw.Scalar.__mul__,
        "pkg": zw.diagrams_equal,
    }
    t = tracing.Tracer("counters")
    t.install()
    assert zwtick.semantics.state_operator is not originals["state_operator"]
    assert zw.Scalar.__mul__ is not originals["mul"]
    t.restore()
    assert zwtick.semantics.state_operator is originals["state_operator"]
    assert zwtick.semantics.SMat.kron is originals["kron"]
    assert zw.Scalar.__mul__ is originals["mul"]
    assert zw.diagrams_equal is originals["pkg"]


def test_self_time_subtracts_children():
    t = tracing.Tracer("spans")
    a, b = t._name_id("a"), t._name_id("b")
    outer = t.begin(a)
    inner = t.begin(b)
    t.end(inner)
    t.end(outer)
    t.sp_start[outer], t.sp_end[outer] = 0.0, 10.0
    t.sp_start[inner], t.sp_end[inner] = 2.0, 5.0
    self_s, calls = t.self_times()
    assert self_s == {"a": 7.0, "b": 3.0}
    assert calls == {"a": 1, "b": 1}
    assert t.sp_parent[inner] == outer


def test_recursive_calls_make_one_span():
    d = zw.parse_diagram("(compose (w 1 1) (compose tick (z 2 1 1)))")
    t = tracing.Tracer("spans")
    t.install()
    try:
        zw.unzip(d)
    finally:
        t.restore()
    assert t.self_times()[1] == {"semantics.unzip": 1}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_passes_agree(name):
    passes = {p: _last_json(_cli("--workload", name, "--seed", "2", "--pass", p, "--ops", "4"))
              for p in ("untraced", "spans", "counters")}
    assert len({p["outputs"] for p in passes.values()}) == 1
    assert len({p["inputs"] for p in passes.values()}) == 1
    assert all(p["failed"] == 0 for p in passes.values())
    assert run._shared_counts(passes["spans"]) == run._shared_counts(passes["counters"])


def test_counters_repeat_exactly():
    def counts():
        p = _last_json(_cli("--workload", "verdicts", "--seed", "5", "--pass", "counters", "--ops", "30"))
        return p["calls"], p["counts"], p["scalar_calls"]

    first = counts()
    assert first[2]["scalar.mul"] > 0 and first[1]["diagram.hash.calls"] > 0
    assert counts() == first


def test_traced_run_reports_every_layer_metric():
    res = _last_json(_cli("--workload", "verdicts", "--seed", "1", "--seconds", "1", "--trace", "1", "--ops", "30"))
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["semantics.psd.exact"]["value"] > 0
    assert res["metrics"]["diagram.parse.s"]["value"] > 0


# -- the result line and BENCHMARK.json ----------------------------------------


def test_result_line_has_every_metric_with_unit():
    values = {name: 1.5 for name in run.END_TO_END}
    doc = json.loads(run.result_line(True, 10, 0, values, run.END_TO_END))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    for name, (unit, _) in run.END_TO_END.items():
        assert doc["metrics"][name] == {"value": 1.5, "unit": unit}
    del values["setup_s"]
    with pytest.raises(ValueError):
        run.result_line(True, 10, 0, values, run.END_TO_END)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()
    }


def test_end_to_end_run_prints_all_metrics():
    proc = _cli("--workload", "verdicts", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    res = _last_json(proc)
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert res["attempted"] >= run.MIN_OPS and res["failed"] == 0 and res["correct"]
    assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert "fail_ratio" in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli("--workload", "verdicts", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
