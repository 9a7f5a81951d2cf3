"""Measure every workload over several seeds and append a trajectory point.

Run from the repository root:

    python3 bench/record.py --label "<commit> <what changed>" --seeds 10

For each workload this runs ``run.py --trace 0`` once per seed (seeds 0..N-1)
and ``run.py --trace 1`` on seed 0, prints each end-to-end metric's median
and its spread (interquartile range over median) and appends the point to
``bench/trajectory.json``.  For the dense 3-qubit round trips it also reports
each layer's share of their op time, from the span file of the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"
DENSE_KIND = "nf.q3e20"

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"record: {workload} seed {seed} trace {trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "runs": values}


def dense_breakdown(spans_file: Path) -> dict:
    """Share of the dense 3-qubit round trips' op time spent in each span."""
    doc = json.loads(spans_file.read_text())
    names, kinds = doc["names"], doc["op_kinds"]
    spans = doc["spans"]
    child = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    own, total = defaultdict(float), 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        if kinds[op] != DENSE_KIND:
            continue
        own[names[name]] += end - start - child[i]
        if parent < 0:
            total += end - start
    return {"ops": sum(k == DENSE_KIND for k in kinds), "op_s": total,
            "share": {k: v / total for k, v in sorted(own.items(), key=lambda kv: -kv[1])}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    if args.seeds < 2:
        raise SystemExit("record: quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds,
             "end_to_end": {}, "per_layer": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, seed, args.seconds, 0) for seed in range(args.seeds)]
        point["end_to_end"][name] = {
            m: summarize([r["metrics"][m]["value"] for r in runs]) for m in run.END_TO_END
        }
        point["end_to_end"][name]["attempted"] = [r["attempted"] for r in runs]
        point["end_to_end"][name]["failed"] = [r["failed"] for r in runs]
        point["per_layer"][name] = {m: v["value"] for m, v in _run(name, 0, args.seconds, 1)["metrics"].items()}
        for m in run.END_TO_END:
            s = point["end_to_end"][name][m]
            print(f"{name:13s} {m:17s} median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
    spans = run.OUT_DIR / "spans-nf_roundtrip-seed0.json"
    point["dense_3q_breakdown"] = dense_breakdown(spans)
    print("dense 3-qubit shares:", json.dumps(point["dense_3q_breakdown"]["share"]))
    doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
    doc["layer_map"] = {m: v[2] for m, v in run.PER_LAYER.items()}
    doc["points"].append(point)
    TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
