"""Benchmark launcher for superlum.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload, one table

Run from the root of a checkout; the package is imported from its src/.
Each workload runs in a fresh worker process (worker.py) with BLAS and
OpenMP threads pinned to 1: a closed loop, one client, one thread.

With --trace 0 the run prints every end-to-end metric with its unit and
sample count, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  Timings are converted to the
reference speed of the machine (see worker.py).  setup_s is the median over
2 * SETUP_PROBES + 1 fresh interpreters of the wall time from process start
to the end of `import superlum` plus the workload's first, untimed op, less
the time the benchmark spends in between on its own imports and on building
that op's input.  Half of the probes run before the measured worker and half
after it (one more, unmeasured, compiles the bytecode first), so that they
sample the machine at two times.  The default --seconds is BENCHMARK.json's
run_seconds.

With --trace 1 the worker wraps the package's public functions and the run
reports per-layer self times, call counts and size-bucketed costs instead,
plus tracing.overhead_ratio (traced over untraced time of the same ops).

`attempted` counts ops, `failed` the ops that raised or failed their oracle
(listed by class in the report), and `correct` is false when any op gave a
silently wrong answer (see workloads.SILENT).  Exits non-zero without a
result line when the package is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_sweep", "diagram_frames", "path_census", "phase_scan")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _start(args, workdir: Path, probe: bool) -> tuple[float, str]:
    """Run one worker; return (its set-up time at the reference speed, its last line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--root", str(ROOT)]
    cmd += ["--tiny"] * args.tiny + ["--probe"] * probe
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                _, bench_s, speed = line.split()
                ready = (perf_counter() - t0 - float(bench_s)) * float(speed)
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerFailed(f"{args.workload} worker exited with code {code}")
    return ready, lines[-1] if lines else ""


def run_workload(args) -> dict:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        if not args.trace:
            _start(args, workdir, probe=True)  # compiles the bytecode; not measured
            setup += [_start(args, workdir, probe=True)[0] for _ in range(SETUP_PROBES)]
        ready, last = _start(args, workdir, probe=False)
        setup.append(ready)
        if not args.trace:
            setup += [_start(args, workdir, probe=True)[0] for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = json.loads(last)
    raw["setup"] = setup
    return raw


def report(args, spec: dict, raw: dict) -> dict:
    """Print the human-readable report and return the result object."""
    n = raw["attempted"]
    failed = n - raw["passed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {n}  failed {failed}  failed_ratio {failed / n:.4f}")
    if args.trace:
        values, names = raw["metrics"], spec["per_layer"]
    else:
        values = dict(raw, setup_s=statistics.median(raw["setup"]))
        names = spec["end_to_end"]
        samples = {"setup_s": f"{len(raw['setup'])} interpreter starts",
                   "ops_per_s": f"{raw['ok_slots']} passed slots over {raw['op_s']:.2f} s "
                                f"of fastest latencies",
                   "op_p90_ms": f"{raw['slots']} slots",
                   "op_p50_ms": f"{raw['slots']} slots, fastest of {raw['repeats']} passes",
                   "peak_rss_mb": "1 process"}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        note = "" if args.trace else f"  (n = {samples[name]})"
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"  {'failed_ratio':<52} {failed / n:>14.6g} ratio  (n = {n} ops)")
    for cls, count in sorted(raw["failures"].items()):
        print(f"  failure {cls}: {count}")
    return {"correct": raw["silent"] == 0, "attempted": n, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny input sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "superlum" / "__init__.py").is_file():
        print(f"error: no superlum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        sub = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            results[name] = report(sub, spec, run_workload(sub))
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
