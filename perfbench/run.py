"""gerbedex benchmark: one workload, measured in its own processes.

    python3 perfbench/run.py --workload torus-index --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports gerbedex from its
`src/`.  Set-up is measured in SETUP_RUNS separate processes (the last one
goes on to run the timed loop) and reported as their median.  BLAS and
OpenMP threads of the workload process are capped at the number of usable
CPUs.  The human-readable report, with the host facts, comes first; the
last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run.  Records and span files go to `.perfbench/` in the checkout.

--heldout-seed runs the same workload again on a second seed, with the
same mix and per-class sizes, and prints both sets of figures side by side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    env.update({name: cap for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, seed, deadline, extra):
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_op is not None:
        command += ["--corrupt-op", str(args.corrupt_op)]
    try:
        done = subprocess.run(command + extra, env=worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran out of time") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, seed, deadline):
    """Set-up probes, then the timed run; set-up is the median of all."""
    setups = [run_worker(args, seed, deadline, ["--setup-only"])["setup_s"]
              for _ in range(0 if args.smoke else SETUP_RUNS - 1)]
    report = run_worker(args, seed, deadline, [])
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    report["end_to_end"]["setup_s"] = statistics.median(setups)
    report["end_to_end"]["peak_rss_mb"] = report["peak_rss_mb"]
    return report


def metrics_of(args, report):
    if args.trace:
        return report["per_layer"]
    return {name: {"value": report["end_to_end"][name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def describe(args, report):
    e2e = report["end_to_end"]
    n = e2e["samples"]
    lines = [
        f"host: {json.dumps(report['host'], sort_keys=True)}",
        f"mix: closed loop, one client; round {report['round']} x "
        f"{report['rounds']} = {n} timed ops; class medians (s) "
        f"{json.dumps({c: round(v, 4) for c, v in e2e['class_medians_s'].items()})}",
    ]
    for name, unit in E2E_UNITS.items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{e2e['tail_percentile']:g} of {n} samples, "
                    f"{e2e['tail_beyond']} beyond it)")
        elif name == "setup_s":
            note = f"  (median of {len(report['setup_samples_s'])} set-ups)"
        lines.append(f"{name} = {e2e[name]:.6g} {unit}{note}")
    lines.append(f"failed_ratio = {report['failed'] / report['attempted']:.6g}"
                 f"  ({report['failed']} of {report['attempted']} attempted)")
    lines += [f"error: {e}" for e in report["errors"]]
    if args.trace:
        lines.append(f"spans: {report['spans_file']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="also run on this seed and compare")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest class of each kind, one set-up")
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="make the oracle of this op expect a wrong value")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gerbedex" / "__init__.py").is_file():
        print(f"perfbench: no gerbedex sources in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    seeds = [args.seed] + ([] if args.heldout_seed is None
                           else [args.heldout_seed])
    try:
        reports = [measure(args, seed, deadline) for seed in seeds]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for seed, report in zip(seeds, reports):
        print(f"-- seed {seed}")
        print("\n".join(describe(args, report)))
        record = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        record.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    metrics = [metrics_of(args, report) for report in reports]
    if len(reports) == 2:
        print(f"-- held-out seed {seeds[1]} / seed {seeds[0]}")
        for name, first in metrics[0].items():
            second = metrics[1][name]["value"]
            ratio = second / first["value"] if first["value"] else float("nan")
            print(f"{name}: {first['value']:.6g} -> {second:.6g} "
                  f"{first['unit']}  (x{ratio:.3f})")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics[0]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
