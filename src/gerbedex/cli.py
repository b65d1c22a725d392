"""Command-line harness: run check suites and emit JSON reports.

Each subcommand runs one verification suite and writes a JSON report
(UTF-8, sorted keys) to --out or stdout.  Exit code 0 means every
assertion in the suite held, 1 means a failed assertion or a computation
error (the report carries the details), and 2 is reserved for usage
errors.  Reports are deterministic for fixed flags and seed.

`chern`, `index` and `all` report index rows, each built by `index_row`
from one table keyed by benchmark: the pairing of a label's twist, the
analytic index of the same label, their residual and the verdict.
"""

import argparse
import functools
import itertools
import json
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cech
from .characteristic import topological_index
from .clifford import SpinElement, plane_rotation, spinor_rep
from .manifest import parse_manifest, read_nerve, run_tasks, sphere_frame_manifest
from .registry import (ProjectivePlaneBenchmark, SphereBenchmark,
                       TorusBenchmark, benchmark_registry)
from .spectral import build_flux_background, monopole_kernel, overlap_index

DEFAULT_QUAD_ORDER = 32
DEFAULT_LATTICE_SIZE = 12


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"value {value!r} is not JSON-serializable")


def _random_spin_element(rng, n, factors=3):
    """Product of `factors` lifted rotations in random coordinate planes."""
    g = SpinElement.identity(n)
    for _ in range(factors):
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        g = g * plane_rotation(n, i, j, float(rng.uniform(0.0, 2.0 * np.pi)))
    return g


# -------------------------------------------------------------------- suites


def _clifford_suite(args):
    """Algebra relations, blade span, and the two-to-one cover residuals."""
    rng = np.random.default_rng(args.seed)
    report, ok = {}, True
    pair_counts = {2: 34, 4: 33, 6: 33}
    for n in (2, 4, 6):
        rep = spinor_rep(n)
        anti = 0.0
        for i, gi in enumerate(rep.gamma):
            for j, gj in enumerate(rep.gamma):
                target = -2.0 * np.eye(rep.dim) if i == j else np.zeros(rep.dim)
                anti = max(anti, float(np.abs(gi @ gj + gj @ gi - target).max()))
        eye = np.eye(rep.dim, dtype=complex)
        stacked = np.stack([
            functools.reduce(np.matmul, (rep.gamma[i] for i in blade), eye).ravel()
            for size in range(n + 1)
            for blade in itertools.combinations(range(n), size)])
        span = int(np.linalg.matrix_rank(stacked))
        adjoint = 0.0
        for _ in range(pair_counts[n]):
            g, h = _random_spin_element(rng, n), _random_spin_element(rng, n)
            composed = (g * h).adjoint_matrix()
            projected = g.adjoint_matrix() @ h.adjoint_matrix()
            adjoint = max(adjoint, float(np.abs(composed - projected).max()))
        entry_ok = (anti < 1e-12 and span == 4 ** (n // 2)
                    and adjoint < 1e-10)
        report[f"n{n}"] = {
            "anticommutation_residual": anti,
            "span_rank": span,
            "span_rank_expected": 4 ** (n // 2),
            "adjoint_residual": adjoint,
            "random_pairs": pair_counts[n],
            "pass": entry_ok,
        }
        ok = ok and entry_ok
    return report, ok


def _cech_suite(args):
    """Shipped complexes, or degree-2 cohomology of a nerve file via --in."""
    source = getattr(args, "input", None)
    if source:
        nerve = read_nerve(source)
        entry = {
            "source": str(source),
            "h2_integer_orders": list(cech.cohomology(nerve, 2, ring="Z").orders),
        }
        bocksteins = {}
        for k in (2, 3):
            result = cech.cohomology(nerve, 2, ring=k)
            entry[f"h2_mod{k}_orders"] = list(result.orders)
            if result.orders:
                flag = cech.bockstein(result.generators[0], nerve)
                bocksteins[str(k)] = {"nontrivial": not flag.trivial}
        entry["bockstein"] = bocksteins
        return entry, True
    report, ok = {}, True
    tetra = cech.tetrahedron_sphere()
    tetra_orders = cech.cohomology(tetra, 2, ring="Z").orders
    tetra_ok = tetra_orders == (0,)
    report["tetrahedron"] = {"h2_integer_orders": list(tetra_orders),
                             "pass": tetra_ok}
    rp2 = cech.projective_plane()
    rp2_result = cech.cohomology(rp2, 2, ring=2)
    generator_lifts = (bool(rp2_result.orders)
                       and cech.solve_coboundary(rp2_result.generators[0], rp2)
                       is not None)
    rp2_ok = rp2_result.orders == (2,) and not generator_lifts
    report["projective_plane"] = {"h2_mod2_orders": list(rp2_result.orders),
                                  "generator_lifts": generator_lifts,
                                  "pass": rp2_ok}
    lens_nerve, lens_cocycle = cech.standard_lens_cocycle(3)
    lens_orders = cech.cohomology(lens_nerve, 2, ring=3).orders
    beta = cech.bockstein(lens_cocycle, lens_nerve)
    lens_ok = lens_orders == (3,) and not beta.trivial
    report["lens_3"] = {"h2_mod3_orders": list(lens_orders),
                        "bockstein_nontrivial": not beta.trivial,
                        "pass": lens_ok}
    return report, tetra_ok and rp2_ok and lens_ok


def _gerbe_suite(args):
    """Run the tasks of the sphere frame manifest: lift, cocycle, spin module."""
    return run_tasks(parse_manifest(sphere_frame_manifest()), seed=args.seed)


# Per benchmark: the twist of a label, the analytic index of that label
# (given the benchmark, the label and the lattice size), the tolerance on
# |pairing - analytic index| (0: they must be equal), and the shipped labels.
_IndexBenchmark = namedtuple("_IndexBenchmark", "twist analytic tolerance labels")
_INDEX_TABLE = {
    "S2": _IndexBenchmark(
        SphereBenchmark.monopole_connection,
        lambda bench, m, size: monopole_kernel(m).index,
        1e-6, range(-3, 4)),
    "T2": _IndexBenchmark(
        TorusBenchmark.flux_connection,
        lambda bench, m, size: overlap_index(build_flux_background(size, m)),
        1e-10, range(-3, 4)),
    "CP2": _IndexBenchmark(
        ProjectivePlaneBenchmark.module_character,
        lambda bench, k, size: bench.section_count(k),
        0.0, range(5)),
}


def index_row(bench, label, lattice_size=DEFAULT_LATTICE_SIZE):
    """Both index sides of one label, with their residual: `value` pairs the
    genus with the label's twist, and the row passes when `index_analytic`
    agrees with it within the benchmark's tolerance."""
    twist, analytic, tolerance, _ = _INDEX_TABLE[bench.name]
    report = topological_index(bench, twist(bench, label))
    index = analytic(bench, label, lattice_size)
    residual = abs(report.value - index)
    return {"value": report.value, "index_topological": report.nearest,
            "index_analytic": index, "residual": residual,
            "pass": report.value == index or residual < tolerance}


def _index_section(manifold, labels, args):
    """The index rows of the given labels on one benchmark."""
    bench = benchmark_registry(
        manifold, **({} if manifold == "CP2" else {"order": args.grid_order}))
    rows = {str(label): index_row(bench, label, args.lattice_size)
            for label in labels}
    ok = all(row["pass"] for row in rows.values())
    return {"manifold": manifold, "grid_order": args.grid_order,
            "lattice_size": args.lattice_size,
            "tolerance": _INDEX_TABLE[manifold].tolerance, "rows": rows,
            "pass": ok}, ok


def _chern_suite(args):
    """Index rows for every shipped label of one benchmark."""
    manifold = args.manifold or "S2"
    return _index_section(manifold, _INDEX_TABLE[manifold].labels, args)


def _index_suite(args):
    """The index row of one label on one benchmark."""
    flux = args.flux if args.flux is not None else 1
    return _index_section(args.manifold or "T2", [flux], args)


def _all_suite(args):
    """Every suite; each benchmark's index rows are built once."""
    sections, ok = {}, True
    for name, suite in (("clifford", _clifford_suite),
                        ("cech", _cech_suite),
                        ("gerbe", _gerbe_suite)):
        rep, good = suite(args)
        sections[name] = rep
        ok = ok and good
    index = {}
    for manifold, entry in _INDEX_TABLE.items():
        index[manifold], good = _index_section(manifold, entry.labels, args)
        ok = ok and good
    sections["index"] = index
    return sections, ok


_SUITES = {
    "clifford-check": _clifford_suite,
    "cech": _cech_suite,
    "gerbe": _gerbe_suite,
    "chern": _chern_suite,
    "index": _index_suite,
    "all": _all_suite,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gerbedex",
        description="Verification suites for the spin/index toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{clifford-check,cech,gerbe,chern,index,all}")
    descriptions = {
        "clifford-check": "algebra relations, blade span, double-cover lifts",
        "cech": "cohomology of shipped complexes or a nerve file",
        "gerbe": "frame-bundle lifting and the obstruction cocycle",
        "chern": "character integrals on a benchmark manifold",
        "index": "spectral versus topological index on one benchmark",
        "all": "every suite in one report",
    }
    for name in _SUITES:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("--out", default=None,
                         help="write the JSON report to this path")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--grid-order", type=int, default=DEFAULT_QUAD_ORDER,
                         help="quadrature order per panel (default 32)")
        cmd.add_argument("--manifold", choices=("S2", "T2", "CP2"),
                         default=None)
        cmd.add_argument("--flux", type=int, default=None)
        cmd.add_argument("--lattice-size", type=int, default=DEFAULT_LATTICE_SIZE)
        if name == "cech":
            cmd.add_argument("--in", dest="input", default=None,
                             help="nerve file to analyze")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, ok = _SUITES[args.command](args)
        payload = {"command": args.command, "pass": bool(ok),
                   "report": report}
    except Exception as exc:
        ok = False
        payload = {"command": args.command, "pass": False,
                   "error": str(exc), "error_type": type(exc).__name__}
    text = json.dumps(payload, sort_keys=True, indent=2,
                      default=_jsonable) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
