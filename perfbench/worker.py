"""One workload in its own process: set up, run the closed loop, report.

Started by run.py with the thread caps already in its environment.  Prints
one JSON line with the measured figures.  With --setup-only it stops after
set-up and reports only the set-up time, so that run.py can take the
median over several set-ups.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))

import numpy as np  # noqa: E402

import gerbedex  # noqa: E402
from tracer import Tracer, span_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Spans made inside ops, with the layer their self time is charged to.
# The registry calls made during ops build or perturb ModuleConnections,
# so their work is geometry work.
OP_SPANS = {
    "bench.op": "bench",
    "bench.oracle": "bench",
    "spectral.build_flux_background": "spectral",
    "spectral.LatticeGauge": "spectral",
    "spectral.overlap_index": "spectral",
    "spectral.monopole_kernel": "spectral",
    "registry.flux_connection": "geometry",
    "registry.monopole_connection": "geometry",
    "registry.perturbation_form": "geometry",
    "registry.perturbed_connection": "geometry",
    "characteristic.topological_index": "characteristic",
    "clifford.canonical_lift": "clifford",
    "clifford.nearest_lift": "clifford",
    "gerbe.lift_transitions": "gerbe",
    "gerbe.spin_module": "gerbe",
    "gerbe.verify_module": "gerbe",
    "cech.cohomology": "cech",
    "cech.bockstein": "cech",
    "cech.is_cocycle": "cech",
    "cech.solve_coboundary": "cech",
    "manifest.write_nerve": "manifest",
    "manifest.read_nerve": "manifest",
}
# Spans made only while setting up; reported per run, not per op.
SETUP_SPANS = ("registry.benchmark_registry", "manifest.sphere_frame_manifest",
               "manifest.parse_manifest", "cech.lens_complex")
# Exact per-op work counts, computed from the inputs by each workload.
COUNTS = {
    "spectral.operator_dim": "count/op",
    "spectral.dense_bytes": "B/op",
    "gerbe.samples_lifted": "count/op",
    "clifford.lifts.n2": "count/op",
    "clifford.lifts.n4": "count/op",
    "clifford.lifts.n6": "count/op",
    "cech.coboundary_entries": "count/op",
    "geometry.quad_nodes": "count/op",
}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail_latency(latencies):
    """(percentile, value, samples beyond) of the tail latency.

    The highest of p99.9, p99, p95 and p90 (nearest rank) that has at least
    ten samples beyond it; p90 when none has.  The classes of a round are
    at least a quarter of its ops, so p90 and above stay in the slowest
    class's block however many rounds fit in the run.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank


def host_facts(seed, threads):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_cap": threads, "seed": seed}


class Loop:
    """Closed loop with one client over whole rounds of input classes."""

    def __init__(self, workload, ctx, tracer, seed, corrupt_op=None):
        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer
        self.seed = seed
        self.corrupt_op = corrupt_op
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counts = {}

    def op(self, index, cls):
        """One verified op; index None is the uncounted warm-up op."""
        wl, tr = self.workload, self.tracer
        counted = index is not None
        rng = np.random.default_rng([self.seed, 1, index] if counted
                                    else [self.seed, 0])
        tr.op = index
        ok, inp = False, None
        start = time.perf_counter()
        try:
            with tr.span("bench.op"):
                inp = wl.make_input(self.ctx, rng, cls)
                out = wl.run(tr, self.ctx, inp)
                with tr.span("bench.oracle"):
                    ok = wl.check(self.ctx, inp, out,
                                  wrong=counted and index == self.corrupt_op)
            if not ok:
                self.errors.append(f"op {index} ({cls}): oracle mismatch")
        except Exception as exc:  # a failing op is counted, not fatal
            self.errors.append(f"op {index} ({cls}): "
                               f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        tr.op = None
        if counted:
            self.attempted += 1
            self.failed += not ok
        if counted and tr.enabled and inp is not None:
            for name, value in wl.counts(self.ctx, inp).items():
                self.counts[name] = self.counts.get(name, 0) + value
        return latency, ok

    def run(self, classes, seconds):
        """Whole rounds while the next one is predicted to end in time.

        Traced, each round is replayed with the tracer on, on the same
        inputs, so the two walls give the tracing overhead.
        """
        tr = self.tracer
        deadline = time.perf_counter() + seconds
        round_walls, untraced, traced, index = [], 0.0, 0.0, 0
        trace = tr.enabled
        while not round_walls or (time.perf_counter()
                                  + statistics.fmean(round_walls) <= deadline):
            begin = time.perf_counter()
            tr.enabled = False
            for offset, cls in enumerate(classes):
                latency, ok = self.op(index + offset, cls)
                self.latencies.append((cls, latency, ok))
            middle = time.perf_counter()
            untraced += middle - begin
            if trace:
                tr.enabled = True
                for offset, cls in enumerate(classes):
                    self.op(index + offset, cls)
                traced += time.perf_counter() - middle
            round_walls.append(time.perf_counter() - begin)
            index += len(classes)
        tr.enabled = trace
        return len(round_walls), untraced, traced


def end_to_end(loop, wall):
    latencies = [lat for _, lat, _ in loop.latencies]
    passed = sum(ok for _, _, ok in loop.latencies)
    percentile, tail, beyond = tail_latency(latencies)
    by_class = {}
    for cls, lat, _ in loop.latencies:
        by_class.setdefault(str(cls), []).append(lat)
    return {
        "ops_per_s": passed / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "samples": len(latencies),
        "class_medians_s": {c: statistics.median(v)
                            for c, v in by_class.items()},
    }


def per_layer(loop, setup_wall, untraced, traced):
    spans = loop.tracer.spans
    ops = {op for _, _, op, _, _, _ in spans if op is not None}
    n = len(ops)
    op_totals = span_totals(spans, ops)
    setup_totals = span_totals(spans, {None})
    metrics = {}
    for name in OP_SPANS:
        calls, busy, own = op_totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count/op")
        metrics[f"{name}.busy_s"] = (busy / n, "s/op")
        metrics[f"{name}.self_s"] = (own / n, "s/op")
    for name in SETUP_SPANS:
        calls, busy, own = setup_totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count/run")
        metrics[f"{name}.busy_s"] = (busy, "s/run")
        metrics[f"{name}.self_s"] = (own, "s/run")
    op_wall = op_totals["bench.op"][1]
    for layer in dict.fromkeys(OP_SPANS.values()):
        own = sum(op_totals.get(name, (0, 0.0, 0.0))[2]
                  for name, owner in OP_SPANS.items() if owner == layer)
        metrics[f"{layer}.share"] = (own / op_wall, "1")
    for name, unit in COUNTS.items():
        metrics[name] = (loop.counts.get(name, 0) / n, unit)
    metrics["setup.wall_s"] = (setup_wall, "s")
    metrics["trace.ops"] = (n, "count")
    metrics["trace.overhead_ratio"] = (traced / untraced, "1")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-op", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(gerbedex.__file__).resolve().parent != SOURCE / "gerbedex":
        sys.exit(f"perfbench: gerbedex was imported from {gerbedex.__file__}, "
                 f"not from {SOURCE}")
    seed = args.seed % (1 << 63)
    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    ctx = workload.setup(tracer, args.out_dir)
    loop = Loop(workload, ctx, tracer, seed, args.corrupt_op)
    loop.op(None, workload.smoke_round[0])  # warm-up
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    classes = workload.smoke_round if args.smoke else workload.round
    rounds, untraced, traced = loop.run(classes, args.seconds)
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors[:5],
        "round": [str(c) for c in classes],
        "rounds": rounds,
        "end_to_end": end_to_end(loop, untraced),
        "host": host_facts(args.seed, os.environ.get("OMP_NUM_THREADS")),
    }
    if args.trace:
        report["per_layer"] = per_layer(loop, setup_s, untraced, traced)
        spans_path = args.out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
