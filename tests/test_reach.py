"""Reach audit: every function in `src` runs in a CLI suite or a benchmark
workload, or is allowlisted with the open ROADMAP item it waits for.

The audit runs this file as a script in a fresh interpreter.  A
`sys.setprofile` hook records every Python function called while the
interpreter runs each CLI suite (with `--out` to a scratch file) and one
full round of each perfbench workload, `check` and `counts` included.  The
workloads are imported read-only: bytecode writing is switched off, and
nothing under `perfbench/` is written.  The functions of `src` are listed
with `ast`; a function matches a called code object by file, first line
and name.

    python tests/test_reach.py OUT_DIR    # prints the reached functions

Two rules, so that the allowlist can only shrink:
  * an unreached function must be on the allowlist;
  * an allowlisted function must not be reached.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gerbedex"
PERFBENCH = ROOT / "perfbench"
SEED = 7

FIXED_REASONS = (
    "protocol method",
    "entry point",
    "error constructor",
    "input-dependent branch that Tier-1 covers",
)

# qualified name -> the open ROADMAP item it waits for, or a fixed reason
ALLOWLIST = {
    # the paper's relative character, integral of A-hat ch(E/S), in the report
    **dict.fromkeys((
        "characteristic.clifford_commutant_residual",
        "characteristic._check_commutant",
        "characteristic.twisting_curvature",
        "characteristic.relative_chern_character",
        "characteristic._supertrace_character",
        "characteristic._supertrace_character.supertraced",
        "characteristic.relative_character_of_module",
        "clifford.CliffordModuleFiber.__init__",
        "clifford.CliffordModuleFiber.dim",
        "clifford.CliffordModuleFiber.multiplicity",
        "clifford.CliffordModuleFiber.from_tensor",
        "clifford.CliffordModuleFiber.conjugate",
        "clifford.CliffordModuleFiber.volume_chirality",
        "clifford.CliffordModuleFiber.curvature_action",
        "clifford.relative_supertrace",
        "clifford.TwistingFactor.__init__",
        "clifford.extract_twisting_factor",
        "registry.SphereBenchmark.clifford_fiber",
        "registry.TorusBenchmark.clifford_fiber",
    ), "ROADMAP item 7"),
    # the gerbe-module algebra: spin^c modules and manifest module tasks
    **dict.fromkeys((
        "cech.zero_cochain",
        "gerbe.zero_gerbe_cocycle",
        "gerbe.ModuleCheck.__bool__",
        "gerbe._require_same_shape",
        "gerbe.tensor_modules",
        "gerbe.direct_sum",
        "gerbe.endomorphism_descent",
        "gerbe.weight_decompose",
        "gerbe.descend_weight_zero",
        "gerbe.identity_module",
    ), "ROADMAP items 4 and 10"),
    # the spinor bundle twisted by L_m: the object both index sides read
    **dict.fromkeys((
        "registry._diag_phases",
        "registry.SphereBenchmark.spin_connection",
        "registry.SphereBenchmark.spin_connection.phi_ns",
        "registry.SphereBenchmark.spin_connection.phi_sn",
        "registry.SphereBenchmark.twisted_connection",
        "geometry.tensor_connection",
        "geometry._kron_transition",
        "geometry._kron_transition.combined",
        "geometry.connection_difference",
    ), "ROADMAP items 3 and 7"),
    # one manifest path: suites read what they check
    **dict.fromkeys((
        "manifest.write_manifest",
        "manifest.read_manifest",
    ), "ROADMAP item 10"),
    # the dense Wilson operator; the spin-structure item decides whether it stays
    **dict.fromkeys((
        "spectral.wilson_dirac",
        "spectral.LatticeDiracOperator.__post_init__",
        "spectral.LatticeDiracOperator.hermitian_form",
    ), "ROADMAP item 8"),
    "spectral.MonopoleKernel.total_dimension": "ROADMAP item 3",
    "cech.coboundary": "ROADMAP item 2",
    **dict.fromkeys((
        "symbolic.RingElement.__setattr__",
        "symbolic.RingElement.__rsub__",
        "symbolic.RingElement.__eq__",
        "symbolic.RingElement.__hash__",
        "symbolic.RingElement.__repr__",
        "geometry.FormField.__sub__",
        "geometry.FormField.__neg__",
    ), "protocol method"),
    "cli.main": "entry point",
    "clifford.LiftAmbiguityError.__init__": "error constructor",
    "gerbe.HolonomyError.__init__": "error constructor",
    "spectral.NearZeroModeError.__init__": "error constructor",
    **dict.fromkeys((
        "smith._bezout",
        "smith._Elimination.row_swap",
        "smith._Elimination.row_bezout",
        "smith._Elimination.col_bezout",
    ), "input-dependent branch that Tier-1 covers"),
}


def _cli_runs(scratch):
    lens = scratch / "lens3.nerve"
    return [
        ["all", "--seed", "7"],
        ["clifford-check", "--seed", "7"],
        ["cech", "--seed", "7"],
        ["cech", "--in", str(lens)],
        ["gerbe", "--seed", "7"],
        ["chern", "--manifold", "S2"],
        ["chern", "--manifold", "T2"],
        ["chern", "--manifold", "CP2"],
        ["index", "--manifold", "S2", "--flux", "-2"],
        ["index", "--manifold", "T2", "--flux", "2"],
    ]


def _audit(scratch):
    """Codes (file, first line, name) called by the suites and workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import numpy as np

    from gerbedex import cech, cli, manifest
    from tracer import Tracer
    from workloads import WORKLOADS

    runs = _cli_runs(scratch)
    manifest.write_nerve(scratch / "lens3.nerve", cech.lens_complex(3))
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for argv in runs:
            cli.run(argv + ["--out", str(scratch / "report.json")])
        for workload in WORKLOADS.values():
            wl, tr = workload(), Tracer()
            ctx = wl.setup(tr, scratch)
            # the worker's warm-up op, then one round of counted ops
            ops = [([SEED, 0], wl.smoke_round[0])]
            ops += [([SEED, 1, index], cls) for index, cls in enumerate(wl.round)]
            for key, cls in ops:
                inp = wl.make_input(ctx, np.random.default_rng(key), cls)
                out = wl.run(tr, ctx, inp)
                if not wl.check(ctx, inp, out):
                    raise AssertionError(f"{wl.name} op {key} failed its check")
                wl.counts(ctx, inp)
    finally:
        sys.setprofile(None)
    src = str(SRC)
    return sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in codes
                   if c.co_filename.startswith(src)})


class _Functions(ast.NodeVisitor):
    """Every def in a module: qualified name, first line (decorators
    included, as in co_firstlineno), def line and line count."""

    def __init__(self, module):
        self.stack = [module]
        self.found = []

    def _scope(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_ClassDef(self, node):
        self._scope(node)

    def visit_FunctionDef(self, node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.found.append((".".join(self.stack + [node.name]), node.name,
                           first, node.lineno, node.end_lineno - node.lineno + 1))
        self._scope(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def src_functions():
    out = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Functions(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        out += [(path, *entry) for entry in visitor.found]
    return out


def reached_codes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as scratch:
        done = subprocess.run([sys.executable, __file__, scratch], env=env,
                              capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"reach audit failed:\n{done.stderr}")
    return {tuple(code) for code in json.loads(done.stdout)}


def test_every_src_function_is_reached_or_waits_for_an_open_item():
    reached = reached_codes()
    functions = src_functions()
    offences, unreached_lines = [], []
    for path, qualname, name, first, def_line, lines in functions:
        hit = (str(path), first, name) in reached
        if not hit:
            unreached_lines.append(lines)
        if hit == (qualname in ALLOWLIST):
            rule = ("on the allowlist but reached" if hit
                    else "unreached and not on the allowlist")
            offences.append(f"  {path.relative_to(ROOT)}:{def_line} {qualname} "
                            f"({lines} lines): {rule}")
    defined = {qualname for _, qualname, *_ in functions}
    offences += [f"  {qualname}: on the allowlist but not defined in src"
                 for qualname in sorted(set(ALLOWLIST) - defined)]
    if offences:
        summary = (f"{len(unreached_lines)} of {len(functions)} src functions "
                   f"unreached ({sum(unreached_lines)} lines)")
        pytest.fail(summary + "\n" + "\n".join(offences), pytrace=False)


def test_each_allowlist_entry_names_an_open_item_or_a_fixed_reason():
    for qualname, reason in ALLOWLIST.items():
        assert (reason in FIXED_REASONS
                or re.fullmatch(r"ROADMAP items? \d+( and \d+)?", reason)), (
            f"{qualname}: {reason!r}")


if __name__ == "__main__":
    print(json.dumps(_audit(Path(sys.argv[1]))))
