#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload toy-pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's inputs are made from ``--seed``, set up several times (median
reported as ``setup_s``), warmed up once, then timed pass after pass until
``--seconds`` have gone by and at least the workload's minimum number of
passes has run.  Every pass's output is checked.  A fixed reference kernel
(``calibrate.py``) is timed right before and after every set-up and pass,
and the time metrics are medians of those sections in seconds at reference
speed, so that swings of a shared machine's speed cancel.  The measured
times go to the record beside them.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The exit code is 0 only when every check passed.

With ``--trace 1`` passes alternate between untraced and traced, the
per-layer numbers are medians over the traced passes, and the tracing
overhead is the traced minus the untraced median pass time.  Spans and a
result record with the software versions go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
SPEED_SHARE = 0.1        # reference timings around a pass, as a share of the pass

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("words_per_s", "1/s"),
    ("target_acc", "ratio"),
    ("peak_rss_mb", "MB"),
]


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import adsm
    except ImportError as exc:
        print(f"cannot import adsm from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(adsm.__file__).startswith(src + os.sep):
        print(f"adsm was imported from {adsm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }
    wl = workloads.WORKLOADS[args.workload](args.size)
    checks = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    try:
        record = measure(wl, args, checks, tracer)
    except Exception:
        traceback.print_exc()
        checks.count(1, 1, "exception")
        print(json.dumps({"correct": False, "attempted": checks.attempted,
                          "failed": checks.failed, "metrics": {}}))
        return 1

    record.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, env=env,
                  attempted=checks.attempted, failed=checks.failed,
                  failed_frac=checks.failed / checks.attempted, notes=checks.notes)
    os.makedirs(workloads.OUT, exist_ok=True)
    stem = os.path.join(workloads.OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracing.write_spans(stem + ".spans.tsv", record.pop("phases"))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    correct = checks.failed == 0
    print(f"env: {json.dumps(env)}")
    print(f"{wl.name} seed {args.seed}: {record['passes']} passes; pass median "
          f"{record['wall_median_s']:.4f} s measured, {record['scaled_wall_median_s']:.4f} s "
          f"at reference speed (p90 {record['scaled_wall_p90_s']:.4f}, max "
          f"{record['scaled_wall_max_s']:.4f}); failed {checks.failed}/{checks.attempted} "
          f"(failed_frac {record['failed_frac']:.4g})")
    for note in checks.notes:
        print(f"CHECK FAILED: {note}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def measure(wl, args, checks, tracer) -> dict:
    """Set up, warm up, run timed passes, check them; returns the record."""
    import calibrate                         # loads numpy: only after cap_threads

    setup_times, setup_scaled, setup_phases = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        before = calibrate.reference(0.2)        # also warms the kernel up
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
            after = calibrate.reference()
            setup_scaled.append(calibrate.at_reference_speed(setup_times[-1], before, after))
            before = after
            if tracer is not None:
                setup_phases.append(tracer.take())
        wl.warmup(state)
        if tracer is not None:
            tracer.take()
            tracer.uninstall()

        walls, refs, traced_walls, accs, pass_phases = [], [], [], [], []
        before = calibrate.reference(0.1)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(walls) > len(traced_walls)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                output = wl.run(state)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            after = calibrate.reference(SPEED_SHARE * wall / 2)
            if traced:
                traced_walls.append(wall)
                pass_phases.append(tracer.take())
            else:
                walls.append(wall)
                refs.append((before, after))
            accs.append(wl.check(state, output, checks))
            before = calibrate.reference(SPEED_SHARE * wall / 2)
            done = len(walls) + len(traced_walls)
            if (time.perf_counter() - start >= args.seconds and done >= wl.min_passes
                    and (tracer is None or traced_walls)):
                break
        extra = wl.finish(state, checks)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for acc in accs[1:]:
        checks.check(acc == accs[0], "target accuracy identical across passes")
    work = wl.work(state)
    scaled = [calibrate.at_reference_speed(w, *pair) for w, pair in zip(walls, refs)]
    wall = statistics.median(walls)
    ordered = sorted(scaled)
    record = {
        "passes": len(walls) + len(traced_walls),
        "wall_samples_s": walls,
        "wall_median_s": wall,
        "setup_samples_s": setup_times,
        "scaled_wall_samples_s": scaled,
        "reference_around_passes_s": refs,
        "scaled_wall_median_s": statistics.median(scaled),
        "scaled_wall_p90_s": ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))],
        "scaled_wall_max_s": ordered[-1],
        "scaled_setup_samples_s": setup_scaled,
        "work": {"frames": work.frames, "words": work.words},
        **extra,
    }
    if tracer is None:
        wall_ref = record["scaled_wall_median_s"]
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": wall_ref,
            "frames_per_s": work.frames / wall_ref,
            "words_per_s": work.words / wall_ref,
            "target_acc": accs[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        return record

    passes = tracing.median_metrics([tracing.layer_metrics(s) for s in pass_phases])
    setups = tracing.median_metrics([tracing.layer_metrics(s) for s in setup_phases])
    values = {k: passes[k] or setups[k] for k in passes}
    traced_wall = statistics.median(traced_walls)
    values.update({"trace.untraced_wall_s": wall, "trace.traced_wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - wall})
    record["traced_wall_samples_s"] = traced_walls
    record["phases"] = ([(f"setup{i}", s) for i, s in enumerate(setup_phases)]
                        + [(f"pass{i}", s) for i, s in enumerate(pass_phases)])
    record["metrics"] = {k: {"value": values[k], "unit": u} for k, u, _ in tracing.PER_LAYER}
    return record


if __name__ == "__main__":
    sys.exit(main())
