"""Record a baseline: every workload on ten seeds, plus one traced run each.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs perfbench/run.py exactly as BENCHMARK.json says (one fresh process per
run, `run_seconds` each) and writes, per workload, the median, quartiles
and spread (interquartile range over median) of every end-to-end metric,
and the per-layer metrics of one traced run, with the host it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    """The run's result object and the report lines printed before it."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    *report, last = proc.stdout.strip().splitlines()
    return json.loads(last), report


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def environment() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"environment": environment(), "run_seconds": seconds,
           "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, seconds, 0)[0] for seed in out["seeds"]]
        traced, traced_report = run_once(name, 1, seconds, 1)
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: {"unit": runs[0]["metrics"][k]["unit"], "bound": bound,
                               **summarize([r["metrics"][k]["value"] for r in runs])}
                           for k, bound in bounds.items()},
            "per_layer_seed1": traced["metrics"],
            "traced_report_seed1": traced_report,
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
        print(f"{name}: done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
