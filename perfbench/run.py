"""The repository's benchmark: Table-3/4 query workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace 1``
re-runs the fixed pass through per-layer wrappers and prints every per-layer
metric, including the tracing overhead.  Without ``--workload`` it runs every
workload, each in its own process.  Informational lines start with
``[perfbench]``; the last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload name; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def result_metrics(metrics: dict, wanted: list[dict]) -> dict:
    """Metrics as printed, after checking names and units against BENCHMARK.json."""
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        raise RuntimeError(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}


def run_one(args, bench: dict) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sparkenv
    import workloads

    spec = workloads.SPECS[args.workload]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    session = sparkenv.Session(ROOT, spec.name, args.seed)
    try:
        out = workloads.run(spec, args.seed, seconds, bool(args.trace), session)
    finally:
        session.close()
    for line in out.info:
        print(line)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    return {
        "correct": not out.tally.fatal,
        "attempted": out.tally.n_attempted,
        "failed": out.tally.n_failed,
        "metrics": result_metrics(out.metrics, wanted),
    }


def run_all(args, bench: dict) -> dict:
    """Every workload in its own process; metrics are keyed ``workload.metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {w['name']} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        print(f"[perfbench] {w['name']}: {json.dumps(res)}", flush=True)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w['name']}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a repository checkout", file=sys.stderr)
        return 2
    bench = load_spec()
    if args.workload is not None and args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_one(args, bench) if args.workload else run_all(args, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
