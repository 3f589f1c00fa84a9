"""One workload in one fresh process: import superlum, run the first op
untimed, print READY, then run the closed loop (one client, one thread) and
print one JSON line with the raw results.  Started by run.py, which pins
BLAS/OpenMP threads to 1 and puts the checkout's src/ on PYTHONPATH.

The package is imported before anything else, so that it pays for its own
dependencies (numpy among them).  The READY line carries the time the
benchmark then spent on its own imports, on building the warm-up input and
on calibrating, which run.py subtracts from setup_s, and the speed factor
that converts the set-up time to the reference speed.

Timings of the untraced run are given at the reference speed.  A shared
machine here runs the same code at speeds up to twice apart, in spells of
seconds to minutes, so a run's raw timings follow the state of the machine
more than the program.  A fixed pure-Python loop that allocates small
objects as the program does (calibration_s; a loop of arithmetic alone
tracked the diagram ops half as well) is timed just before and just after
each op, and the op's latency is multiplied by REFERENCE_CAL_S over the mean
of the two: the latency the op would have had with the machine at the speed
it showed when REFERENCE_CAL_S was taken.  Only the benchmark's own loop is
timed for this, so a change in the program moves the reported latencies in
full.

The untraced loop makes REPEATS passes over the same op slots, spread over
the run: the first runs whole rounds (see workloads.py) for --seconds /
REPEATS and at least the workload's min_slots, the others replay those
slots with fresh contents of the same shape.  At the run_seconds in
BENCHMARK.json the slot floor decides on every workload, so each run
measures the same whole rounds.  A slot's latency is its fastest pass, which
drops the timings that a burst of preemption hit; two calibrations around
an op correct for the machine's speed only on average over the op.  An
op's latency covers only the program calls; generating its input and
checking its output happen outside.
"""

from __future__ import annotations

from time import perf_counter

import superlum  # noqa: F401  (first: see the module docstring)
import superlum.cli  # noqa: F401  (cli is not imported by the package root)

T_PACKAGE = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import LAYERS, SILENT, WORKLOADS, PathCensus, raised_class  # noqa: E402

TINY_MIN_OPS = 10
REPEATS = 2
CAP_S = 100.0
CAL_ITERATIONS = 6_000
# calibration_s() on an idle core of the 2-vCPU Intel Xeon VM (Python 3.11)
# the baseline was recorded on: the 2nd percentile of 3000 timings
REFERENCE_CAL_S = 3.0e-3


def load_package(root: Path):
    where = Path(superlum.__file__).resolve()
    if root.resolve() / "src" not in where.parents:
        raise SystemExit(f"superlum imported from {where}, not from {root}/src")
    return superlum


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = perf_counter()
    table = {}
    for i in range(CAL_ITERATIONS):
        table[str(i)] = (float(i), [i, i + 1.0])
    del table
    return perf_counter() - t0


def run_op(wl, sl, op, scaled: bool = False):
    """Call the program once; return (latency s, output or None, failure classes).

    A full collection first, outside the timed window, so the cyclic
    collector's passes inside an op depend on that op's own allocations and
    not on the garbage of the ops before it.  With scaled, the latency is
    converted to the reference speed (see the module docstring)."""
    gc.collect()
    before = calibration_s() if scaled else 0.0
    out, fails = None, None
    t0 = perf_counter()
    try:
        out = wl.call(sl, op)
    except Exception as exc:  # every exception from the program is a counted failure
        fails = [raised_class(exc)]
    dt = perf_counter() - t0
    if scaled:
        dt *= 2 * REFERENCE_CAL_S / (before + calibration_s())
    return dt, out, wl.check(op, out) if fails is None else fails


def untraced_loop(wl, sl, seconds: float, min_ops: int) -> dict:
    """REPEATS passes over the same slots; see the module docstring.

    Every execution is checked and counted in attempted and failed.  The
    prelude (a workload's few largest ops) runs once, in the first pass: it
    is checked and counts toward peak_rss_mb, but its single timings are left
    out of the latency and throughput figures, which they would otherwise
    dominate.  ops_per_s is the number of timed slots whose executions all passed over
    the sum of their fastest latencies."""
    best, failures, failed_slots = {}, Counter(), set()
    attempted = passed = silent = 0

    def execute(slot, repeat):
        nonlocal attempted, passed, silent
        dt, _, fails = run_op(wl, sl, wl.op(slot, repeat), scaled=True)
        attempted += 1
        passed += not fails
        silent += any(f in SILENT for f in fails)
        failures.update(fails)
        if fails:
            failed_slots.add(slot)
        if not wl.is_prelude(slot):
            best[slot] = min(dt, best.get(slot, math.inf))

    slot = 0
    t_start = perf_counter()
    while True:
        elapsed = perf_counter() - t_start
        if elapsed >= CAP_S / REPEATS or (wl.round_start(slot) and elapsed >= seconds / REPEATS
                                          and len(best) >= min_ops):
            break
        execute(slot, 0)
        slot += 1
    for repeat in range(1, REPEATS):
        for timed in list(best):
            execute(timed, repeat)
    lat = np.array(list(best.values()))
    lat_ms = lat * 1e3
    ok = len(best) - len(failed_slots & best.keys())
    return {
        "attempted": attempted,
        "passed": passed,
        "silent": silent,
        "failures": dict(failures),
        "slots": len(best),
        "repeats": REPEATS,
        "ok_slots": ok,
        "op_s": float(np.sum(lat)),
        "ops_per_s": ok / float(np.sum(lat)),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _bucket(size: int) -> int:
    return int(round(math.log10(max(size, 1))))


def traced_loop(wl, sl, seconds: float) -> dict:
    from tracing import Tracer  # not imported by untraced runs, so setup_s excludes it

    tracer = Tracer(sl)
    ops, traced_s, untraced_s = {}, [], []
    failures = Counter()
    attempted = passed = silent = listed = nonfinite = 0
    slot = 0
    t_start = perf_counter()
    while True:
        elapsed = perf_counter() - t_start
        if elapsed >= CAP_S or (wl.round_start(slot) and elapsed >= seconds and slot):
            break
        op = wl.op(slot)
        ops[slot] = op
        # alternate which pass runs first, so warm caches favour neither
        for traced in ((True, False) if slot % 2 else (False, True)):
            if traced:
                tracer.current_op = slot
                tracer.install()
                try:
                    dt, out, fails = run_op(wl, sl, op)
                finally:
                    tracer.uninstall()
                traced_s.append(dt)
                result = out, fails
            else:
                gc.collect()
                t0 = perf_counter()
                try:
                    wl.call(sl, op)
                except Exception:  # failures are counted from the traced pass
                    pass
                untraced_s.append(perf_counter() - t0)
        out, fails = result
        attempted += 1
        passed += not fails
        silent += any(f in SILENT for f in fails)
        failures.update(fails)
        nonfinite += any("nonfinite" in f for f in fails)
        if out is not None and isinstance(wl, PathCensus):
            listed += PathCensus.paths_listed(out)
        slot += 1

    sp = tracer.spans()
    layer_of = np.array([LAYERS.index(layer) for layer in tracer.layers])
    span_layer = layer_of[sp["name"]] if sp["name"].size else np.zeros(0, dtype=int)
    wall = float(np.sum(traced_s))
    m: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        mine = span_layer == i
        m[f"{layer}.self_s"] = float(np.sum(sp["self"][mine]))
        m[f"{layer}.calls"] = int(np.sum(mine))
        m[f"{layer}.failed"] = sum(n for f, n in failures.items() if f.split(".")[0] == layer)
    # the ops' time outside every span, from the root spans alone; the layer
    # self times must add up to the root spans' time for the two to account
    # for the wall time, which the smoke test checks
    m["bench.self_s"] = wall - float(np.sum(sp["dur"][sp["parent"] < 0]))
    m["tracing.wall_s"] = wall
    m["tracing.spans"] = int(sp["dur"].size)
    m["tracing.overhead_ratio"] = wall / float(np.sum(untraced_s))

    def spans_of(qual):
        sel = sp["name"] == tracer.name_id.get(qual, -1)
        return sp["dur"][sel], sp["op"][sel]

    def mean(qual, scale):
        dur, _ = spans_of(qual)
        return float(dur.mean() * scale) if dur.size else 0.0

    def grouped(qual, key, per_event, scale):
        """Inclusive time of qual's spans summed over the ops that key()
        maps to each group, divided by their events (op sizes) or calls."""
        time, units = Counter(), Counter()
        for d, o in zip(*(a.tolist() for a in spans_of(qual))):
            k = key(ops[o])
            if k is not None:
                time[k] += d
                units[k] += ops[o].size if per_event else 1
        return lambda k: time[k] / units[k] * scale if units[k] else 0.0

    def size_bucket(kinds, lo, hi):
        return lambda op: min(max(_bucket(op.size), lo), hi) if op.kind in kinds else None

    m["kinematics.boost_1p1.us_per_call"] = mean("kinematics.boost_1p1", 1e6)
    diagram = ("bundle", "large")
    g = grouped("diagrams.transform_diagram", size_bucket(diagram, 2, 5), True, 1e6)
    for b in (2, 3, 4, 5):
        m[f"diagrams.transform_diagram.us_per_event.n1e{b}"] = g(b)
    for qual in ("diagrams.role_report", "render.render_svg"):
        m[f"{qual}.us_per_event"] = grouped(qual, size_bucket(diagram, 0, 0), True, 1e6)(0)

    def path_shape(op):
        if op.kind == "ladder":
            return f"ladder{op.size}"
        if op.kind == "bundle":
            return f"bundle1e{min(max(_bucket(op.size), 2), 3)}"
        return "chain" if op.kind == "chain" else None

    g = grouped("diagrams.count_paths_auto", path_shape, False, 1e3)
    for key in [f"ladder{k}" for k in range(10, 19)] + ["bundle1e2", "bundle1e3", "chain"]:
        m[f"diagrams.count_paths_auto.ms.{key}"] = g(key)
    m["diagrams.paths_listed"] = listed
    g = grouped("invariants.invariant_P", size_bucket(("invariant_P",), 2, 6), True, 1e9)
    for b in (2, 3, 4, 5, 6):
        m[f"invariants.invariant_P.ns_per_phase.n1e{b}"] = g(b)
    m["invariants.finiteness_scan.ms"] = mean("invariants.finiteness_scan", 1e3)
    m["invariants.nonfinite_results"] = nonfinite
    g = grouped("sympoly.expansion_reconstruction_check",
                lambda op: op.size if op.kind == "expansion" else None, False, 1e3)
    for order in (2, 3, 4):
        m[f"sympoly.expansion_reconstruction_check.ms.N{order}"] = g(order)
    m["verify.run_suite.ms"] = mean("verify.run_suite", 1e3)
    return {"attempted": attempted, "passed": passed, "silent": silent,
            "failures": dict(failures), "metrics": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true", help="exit after the first op")
    args = ap.parse_args(argv)

    sl = load_package(Path(args.root))
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir), tiny=args.tiny)
    warm = wl.warmup()
    bench_s = perf_counter() - T_PACKAGE
    try:
        wl.call(sl, warm)
    except Exception:  # the warm-up op is untimed and unchecked
        pass
    t_cal = perf_counter()
    speed = 2 * REFERENCE_CAL_S / (calibration_s() + calibration_s())
    bench_s += perf_counter() - t_cal
    print(f"READY {bench_s!r} {speed!r}", flush=True)
    if args.probe:
        return 0
    if args.trace:
        result = traced_loop(wl, sl, args.seconds)
    else:
        result = untraced_loop(wl, sl, args.seconds, TINY_MIN_OPS if args.tiny else wl.min_slots)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
