"""Record a baseline: run every workload over several seeds, untraced, and
once traced, then write bench/baseline.json with the environment, the
median and quartiles of each end-to-end metric, its spread (interquartile
range over median, as statistics.quantiles gives the quartiles) and the
traced run's per-layer metrics, and the wall time of every run.

    python3 bench/record_baseline.py [--seeds 1-10] [--seconds 15]
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
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = perf_counter()
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    return dict(json.loads(p.stdout.strip().splitlines()[-1]), wall_s=perf_counter() - t0)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--output", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"environment": environment(), "run_seconds": args.seconds,
           "seeds": [lo, hi], "end_to_end": {}, "failures": {}, "per_layer": {}, "wall_s": {}}
    for w in spec["workloads"]:
        name = w["name"]
        results = [run(name, seed, args.seconds, 0) for seed in range(lo, hi + 1)]
        table = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "bound": m["bound"],
                                "unit": m["unit"], "values": values}
            print(f"{name:<15} {m['name']:<12} median {med:12.6g}  spread "
                  f"{(q3 - q1) / med:.4f}  bound {m['bound']}", flush=True)
        out["end_to_end"][name] = table
        out["failures"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
        }
        traced = run(name, lo, args.seconds, 1)
        out["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["wall_s"][name] = {"untraced": [r["wall_s"] for r in results], "traced": traced["wall_s"]}
    Path(args.output).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
