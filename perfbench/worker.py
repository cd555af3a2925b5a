"""One fresh process of a benchmark run; `run.py` starts it and reads its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE --check 0|1

MODE is `setup` (time importing qpalg and building the inputs, then exit),
`measure` (set up, then run whole passes of the workload's operations for
S seconds, each timed next to the calibration kernel) or `trace` (set up,
one untraced pass, then one pass under cProfile for the per-layer
metrics).  With --check 1 the first pass's outputs go through the
independent checks.  The result is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KERNEL_REPEATS = 5


def _import_and_build(workload, seed):
    import qpalg.gradings  # noqa: F401
    import qpalg.qperm  # noqa: F401
    return workload.build(seed)


def _run_op(op):
    try:
        return op.run()
    except Exception as exc:           # a crashing operation counts as failed
        return exc


def _succeeded(op, out) -> bool:
    return not isinstance(out, Exception) and bool(op.succeeded(out))


def _kernel_median() -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        start = calibration.clock()
        calibration.kernel()
        times.append(calibration.clock() - start)
    return statistics.median(times)


def _checked(workload, inputs, outputs) -> list[str]:
    try:
        return workload.check(inputs, outputs)
    except Exception as exc:           # an output the checks cannot read is wrong
        return [f"check raised {exc!r}"]


def measure(workload, inputs, sampler, seconds, result):
    ops = workload.operations(inputs)
    samples = {op.name: {"s": [], "cal": []} for op in ops}
    first = None
    start = calibration.clock()
    passes = attempted = failed = 0
    while passes == 0 or calibration.clock() - start < seconds:
        outputs = []
        for op in ops:
            out, secs, cal = sampler.measure(lambda op=op: _run_op(op))
            samples[op.name]["s"].append(secs)
            samples[op.name]["cal"].append(cal)
            attempted += 1
            failed += not _succeeded(op, out)
            outputs.append(out)
        digest = workload.digest(outputs)
        if first is None:
            first, result["digest"] = outputs, digest
        elif digest != result["digest"]:
            result["errors"].append(f"pass {passes + 1} outputs differ from pass 1")
        passes += 1
    sampler.stop()
    result.update(samples=samples, passes=passes, attempted=attempted, failed=failed,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return first


def trace(workload, inputs, sampler, seed, result):
    """One untraced pass, then input building and one pass under cProfile."""
    gc_phases = {"s": 0.0, "n": 0, "start": 0.0}

    def on_gc(phase, info):
        now = calibration.clock()
        if phase == "start":
            gc_phases["start"] = now
        else:
            gc_phases["s"] += now - gc_phases["start"]
            gc_phases["n"] += 1

    ops = workload.operations(inputs)
    gc.callbacks.append(on_gc)
    measured = [sampler.measure(lambda op=op: _run_op(op)) for op in ops]
    gc.callbacks.remove(on_gc)
    sampler.stop()
    outputs = [m[0] for m in measured]
    untraced_cal = sum(m[2] for m in measured)
    kernel_s = statistics.median(sampler.samples)

    profile = cProfile.Profile()
    profile.enable()
    traced_ops = workload.operations(workload.build(seed))
    profile.disable()
    before = _kernel_median()
    start = calibration.clock()
    profile.enable()
    traced = [_run_op(op) for op in traced_ops]
    profile.disable()
    traced_s = calibration.clock() - start
    traced_cal = traced_s / ((before + _kernel_median()) / 2)

    if workload.digest(traced) != workload.digest(outputs):
        result["errors"].append("traced outputs differ from untraced outputs")
    layers = tracing.layer_metrics(profile)
    layers.update({
        "python.gc_s": gc_phases["s"],
        "python.gc_collections": gc_phases["n"],
        "calibration.kernel_s": kernel_s,
        "trace.overhead_x": traced_cal / untraced_cal,
    })
    pairs = list(zip(ops, outputs)) + list(zip(traced_ops, traced))
    result.update(layers=layers, passes=2, attempted=len(pairs),
                  failed=sum(not _succeeded(op, out) for op, out in pairs),
                  digest=workload.digest(outputs))
    return outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    for _ in range(KERNEL_REPEATS):    # the first calls of a fresh process run slow
        calibration.kernel()
    sampler = calibration.Sampler()
    sampler.start()
    inputs, setup_seconds, setup_cal = sampler.measure(
        lambda: _import_and_build(workload, args.seed), KERNEL_REPEATS)
    import qpalg
    if os.path.dirname(os.path.dirname(os.path.abspath(qpalg.__file__))) != SRC:
        print(f"qpalg was imported from {qpalg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_seconds, "setup_cal": setup_cal, "errors": []}
    if args.mode == "setup":
        sampler.stop()
    else:
        if args.mode == "measure":
            outputs = measure(workload, inputs, sampler, args.seconds, result)
        else:
            outputs = trace(workload, inputs, sampler, args.seed, result)
        if args.check:
            result["errors"] += _checked(workload, inputs, outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
