"""Command-line harness: run check suites and emit JSON reports.

Each subcommand runs one verification suite and writes a JSON report
(UTF-8, sorted keys) to --out or stdout.  Exit code 0 means every
assertion in the suite held, 1 means a failed assertion or a computation
error (the report carries the details), and 2 is reserved for usage
errors.  Reports are deterministic for fixed flags and seed.
"""

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cech
from .characteristic import topological_index, twisted_chern_character
from .clifford import CliffordElement, SpinElement, plane_rotation, represent, spinor_rep
from .gerbe import lift_transitions, spin_module, verify_module
from .geometry import integrate_top
from .manifest import parse_manifest, read_nerve, sphere_frame_manifest
from .registry import benchmark_registry
from .spectral import index_compare

DEFAULT_QUAD_ORDER = 32


def _default_order():
    return int(os.environ.get("GERBEDEX_QUAD_ORDER", str(DEFAULT_QUAD_ORDER)))


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


def _benchmark(cache, name, grid_order):
    if name not in cache:
        kwargs = {} if name == "CP2" else {"order": grid_order}
        cache[name] = benchmark_registry(name, **kwargs)
    return cache[name]


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
        blades = [CliffordElement(n, {blade: 1.0})
                  for size in range(n + 1)
                  for blade in itertools.combinations(range(n), size)]
        stacked = np.stack([represent(b, rep).ravel() for b in blades])
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
    """Lift the sphere frame manifest, check the cocycle and spin module."""
    parsed = parse_manifest(sphere_frame_manifest())
    data = parsed.transitions.validate()
    lifted, cocycle = lift_transitions(data)
    closed = cech.is_cocycle(cocycle.cochain, cocycle.nerve)
    trivial = cocycle.trivial
    rng = np.random.default_rng(args.seed)
    edges = list(data.edges)
    trials, invariant = 10, True
    for _ in range(trials):
        flips = [e for e in edges if rng.random() < 0.5]
        basepoints = {e: int(rng.integers(0, data.edges[e].count))
                      for e in edges}
        _, other = lift_transitions(data, seed=int(rng.integers(1 << 30)),
                                    sign_flips=flips, basepoints=basepoints)
        diff = cech.Cochain(2, 2, tuple(
            a + b for a, b in zip(cocycle.cochain.values,
                                  other.cochain.values)))
        if not (cech.is_cocycle(diff, data.nerve)
                and cech.solve_coboundary(diff, data.nerve) is not None):
            invariant = False
    spin_check = verify_module(spin_module(lifted), cocycle)
    ok = (closed and trivial and invariant and spin_check.ok
          and spin_check.max_residual < 1e-9)
    report = {
        "manifest": parsed.name,
        "cocycle_closed": closed,
        "class_trivial": trivial,
        "cocycle_values": [int(v) for v in cocycle.cochain.values],
        "randomized_trials": trials,
        "class_invariant": invariant,
        "spin_module_residual": spin_check.max_residual,
        "pass": ok,
    }
    return report, ok


def _chern_one(manifold, args, cache):
    if manifold == "CP2":
        bench = _benchmark(cache, "CP2", args.grid_order)
        rows, ok = {}, True
        for k in range(5):
            result = topological_index(bench, bench.module_character(k))
            expected = bench.section_count(k)
            row_ok = result.value == expected and result.gap < 1e-9
            rows[str(k)] = {"index": result.nearest,
                            "exact_value": str(result.value),
                            "integrality_gap": result.gap,
                            "section_count": expected,
                            "pass": row_ok}
            ok = ok and row_ok
        return {"grid_order": args.grid_order, "rows": rows,
                "pass": ok}, ok
    tolerance = 1e-6 if manifold == "S2" else 1e-10
    bench = _benchmark(cache, manifold, args.grid_order)
    rows, ok = {}, True
    for m in range(-3, 4):
        conn = (bench.monopole_connection(m) if manifold == "S2"
                else bench.flux_connection(m))
        value = float(integrate_top(twisted_chern_character(conn).part(2)))
        residual = abs(value - m)
        row_ok = residual < tolerance
        rows[str(m)] = {"integral": value, "target": m,
                        "residual": residual, "pass": row_ok}
        ok = ok and row_ok
    return {"grid_order": args.grid_order, "tolerance": tolerance,
            "rows": rows, "pass": ok}, ok


def _chern_suite(args):
    """First character integrals against their integer targets."""
    return _chern_one(args.manifold or "S2", args, {})


def _index_suite(args):
    """Both index computations on one benchmark, compared."""
    manifold = args.manifold or "T2"
    flux = args.flux if args.flux is not None else 1
    cache = {}
    bench = (_benchmark(cache, manifold, args.grid_order)
             if manifold in ("S2", "T2") else None)
    report = index_compare(manifold, flux, lattice_size=args.lattice_size,
                           benchmark=bench)
    report = dict(report)
    report["grid_order"] = args.grid_order
    return report, report["match"]


def _all_suite(args):
    """Every suite; the benchmark objects are shared across sections."""
    sections, ok = {}, True
    for name, suite in (("clifford", _clifford_suite),
                        ("cech", _cech_suite),
                        ("gerbe", _gerbe_suite)):
        rep, good = suite(args)
        sections[name] = rep
        ok = ok and good
    cache = {}
    chern = {}
    for manifold in ("S2", "T2", "CP2"):
        rep, good = _chern_one(manifold, args, cache)
        chern[manifold] = rep
        ok = ok and good
    sections["chern"] = chern
    index = {}
    for manifold, fluxes in (("T2", (-2, 0, 1, 3)), ("S2", (-3, 1))):
        rows = {}
        for m in fluxes:
            row = index_compare(manifold, m, lattice_size=args.lattice_size,
                                benchmark=cache[manifold])
            rows[str(m)] = row
            ok = ok and row["match"]
        index[manifold] = rows
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
        cmd.add_argument("--grid-order", type=int, default=None,
                         help="quadrature order per panel (default env "
                              "GERBEDEX_QUAD_ORDER or 32)")
        cmd.add_argument("--manifold", choices=("S2", "T2", "CP2"),
                         default=None)
        cmd.add_argument("--flux", type=int, default=None)
        cmd.add_argument("--lattice-size", type=int, default=12)
        if name == "cech":
            cmd.add_argument("--in", dest="input", default=None,
                             help="nerve file to analyze")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    if args.grid_order is None:
        args.grid_order = _default_order()
    try:
        report, ok = _SUITES[args.command](args)
        payload = {"command": args.command, "pass": bool(ok),
                   "report": report}
    except Exception as exc:
        ok = False
        payload = {"command": args.command, "pass": False,
                   "error": str(exc)}
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
