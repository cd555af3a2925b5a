"""Benchmark of qpalg's certificates: time to verdict, checked verdicts, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--runs R] [--seconds S] [--workload NAME]

The first form runs one workload in fresh worker processes, one after
another, checks their outputs and prints every metric by name and unit.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

The second form runs two sets of R runs of every workload on the same
code, alternating between the sets, and prints each end-to-end metric's
medians, quartiles and verdict against its bound.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import KERNEL_REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5          # fresh processes whose set-up is timed, per run
DEADLINE_S = 170.0         # a run gives up (exit 1, no result) after this long
MAX_ERRORS_SHOWN = 20


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(workload, seed, mode, deadline, seconds=0.0, check=0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--check", str(check)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _consistent(results) -> list[str]:
    errors = [e for r in results for e in r["errors"]]
    if len({r["digest"] for r in results}) != 1:
        errors.append("worker processes produced different outputs")
    return errors


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics from untraced workers; the first one is checked."""
    procs = WORKLOADS[workload].procs
    measured, setup_cal = [], []
    for i in range(max(procs, SETUP_SAMPLES)):
        if i < procs:
            r = _worker(workload, seed, "measure", deadline, seconds / procs, int(i == 0))
            measured.append(r)
        else:
            r = _worker(workload, seed, "setup", deadline)
        setup_cal.append(r["setup_cal"])
    ops = measured[0]["samples"]
    per_op_cal = {name: statistics.median(c for r in measured for c in r["samples"][name]["cal"])
                  for name in ops}
    per_op_s = {name: statistics.median(s for r in measured for s in r["samples"][name]["s"])
                for name in ops}
    metrics = {
        "verdict_cal": (sum(per_op_cal.values()), "cal"),
        "verdict_s": (sum(per_op_s.values()), "s"),
        "setup_s": (statistics.median(setup_cal) * KERNEL_REFERENCE_S, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in measured), "MiB"),
    }
    info = {"workers": procs, "setup_samples": len(setup_cal),
            "passes": sum(r["passes"] for r in measured),
            "per_operation_cal": {k: round(v, 3) for k, v in per_op_cal.items()}}
    return (metrics, sum(r["attempted"] for r in measured),
            sum(r["failed"] for r in measured), _consistent(measured), info)


def traced(workload: str, seed: int, deadline: float, units: dict):
    r = _worker(workload, seed, "trace", deadline, check=1)
    metrics = {name: (value, units[name]) for name, value in r["layers"].items()}
    return metrics, r["attempted"], r["failed"], _consistent([r]), {"passes": r["passes"]}


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qpalg", "__init__.py")):
        print(f"no qpalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    spec = _spec()
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, attempted, failed, errors, info = traced(
                args.workload, args.seed, deadline, units)
            wanted = list(units)
        else:
            metrics, attempted, failed, errors, info = measure(
                args.workload, args.seed, args.seconds, deadline)
            wanted = [m["name"] for m in spec["end_to_end"]]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"benchmark does not produce {missing}", file=sys.stderr)
        return 1
    for e in errors[:MAX_ERRORS_SHOWN]:
        print(f"CHECK FAILED: {e}")
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"CHECK FAILED: ... and {len(errors) - MAX_ERRORS_SHOWN} more")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} cores={os.cpu_count()} "
          f"attempted={attempted} failed={failed} {json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print("all metrics: " + json.dumps({k: v for k, (v, _) in metrics.items()}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0


# -- same-code steadiness ---------------------------------------------------

def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _one_run(workload, seed, seconds) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    every = json.loads(next(l for l in lines if l.startswith("all metrics: "))[13:])
    final = json.loads(lines[-1])
    return {"metrics": every, "share": (final["failed"], final["attempted"]),
            "correct": final["correct"]}


def steadiness(args) -> int:
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    all_ok = True
    print(f"python={platform.python_version()} cores={os.cpu_count()} "
          f"runs per set={args.runs} seconds={args.seconds}")
    for workload in names:
        sets = {"A": [], "B": []}
        for r in range(args.runs):
            for s in (("A", "B") if r % 2 == 0 else ("B", "A")):
                seed = 1 + r + (args.runs if s == "B" else 0)
                start = time.monotonic()
                sets[s].append(_one_run(workload, seed, args.seconds))
                print(f"  {workload} set {s} seed {seed}: {time.monotonic() - start:.1f} s wall",
                      flush=True)
        runs = sets["A"] + sets["B"]
        shares = {f * 1.0 / a for f, a in (x["share"] for x in runs)}
        correct = all(x["correct"] for x in runs)
        all_ok &= correct and len(shares) == 1
        print(f"\n{workload}: correct={correct} failed shares={sorted(shares)}")
        print(f"  {'metric':12s} {'set':3s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
              f"{'spread':>7s}   verdict")
        for metric in runs[0]["metrics"]:
            qa = _quartiles([x["metrics"][metric] for x in sets["A"]])
            qb = _quartiles([x["metrics"][metric] for x in sets["B"]])
            pooled = _quartiles([x["metrics"][metric] for x in runs])
            spread = (pooled[2] - pooled[0]) / pooled[1]
            drift = qb[1] / qa[1] - 1
            bound = bounds.get(metric)
            if bound is None:
                verdict = "reference only (not gated)"
            else:
                ok = abs(drift) <= bound and (metric == "setup_s" or spread <= bound)
                all_ok &= ok
                verdict = (f"{'ok' if ok else 'FAIL'}: spread {spread:.1%}, "
                           f"B/A median {drift:+.1%}, bound {bound:.0%}")
            for label, q in (("A", qa), ("B", qb)):
                print(f"  {metric:12s} {label:3s} {q[0]:10.5g} {q[1]:10.5g} {q[2]:10.5g} "
                      f"{(q[2] - q[0]) / q[1]:7.1%}" + (f"   {verdict}" if label == "B" else ""))
    print(f"\nsteadiness: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
