"""Disk formats: line-text nerve files and JSON manifests of frame transitions.

A manifest carries exactly what run_tasks reads: a nerve, the sampled SO(n)
transitions over its overlaps, and a `tasks` list naming the checks to run,
each from MANIFEST_TASKS.  It is one JSON document (UTF-8, sorted keys on
write), so check suites run from diff-able artifacts; it decodes to one
SampleCover and the TransitionData on it, and each integer field must hold
a JSON integer.  Transition samples serialize as row-major nested lists of
real numbers; nerve files are plain text with one simplex per line.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cech
from .gerbe import (
    EdgeSampleGraph,
    SampleCover,
    TransitionData,
    lift_transitions,
    spin_module,
    verify_module,
)
from .registry import sphere_frame_transitions

MANIFEST_FORMAT = 2


# ------------------------------------------------------------- simplex keys


def _encode_simplex(simplex):
    return "-".join(str(int(v)) for v in simplex)


def _decode_simplex(key):
    try:
        return tuple(int(tok) for tok in key.split("-"))
    except ValueError:
        raise ValueError(f"malformed simplex key {key!r}") from None


# ----------------------------------------------------------- nerve text files


def nerve_to_text(nerve):
    """One simplex per line, lowest degree first; vertex count up front."""
    lines = ["# nerve", f"vertices {nerve.vertex_count}"]
    for level in nerve.simplices:
        for simplex in level:
            lines.append("simplex " + " ".join(str(v) for v in simplex))
    return "\n".join(lines) + "\n"


def nerve_from_text(text):
    vertex_count = None
    simplices = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertices" and len(tokens) == 2:
            if vertex_count is not None:
                raise ValueError(f"second vertices line {raw!r}")
            vertex_count = _integers(tokens[1:], raw)[0]
            if vertex_count < 0:
                raise ValueError(f"negative vertex count in nerve line {raw!r}")
        elif tokens[0] == "simplex" and len(tokens) > 1:
            simplices.append(_integers(tokens[1:], raw))
        else:
            raise ValueError(f"unrecognized nerve line {raw!r}")
    if vertex_count is None and not simplices:
        raise ValueError("nerve file declares no simplices")
    return cech.Nerve.from_simplices(simplices, vertex_count=vertex_count)


def _integers(tokens, raw):
    try:
        return tuple(map(int, tokens))
    except ValueError as exc:
        raise ValueError(f"{exc} in nerve line {raw!r}") from None


def write_nerve(path, nerve):
    Path(path).write_text(nerve_to_text(nerve), encoding="utf-8")


def read_nerve(path):
    return nerve_from_text(Path(path).read_text(encoding="utf-8"))


# ------------------------------------------------------------- manifest blocks


def nerve_to_block(nerve):
    return {
        "vertex_count": nerve.vertex_count,
        "simplices": [list(s) for level in nerve.simplices for s in level],
    }


def _checked_block(block, name, keys):
    """The block, once it is a JSON object holding every key in `keys`."""
    if not isinstance(block, dict):
        raise ValueError(f"manifest {name} must be a JSON object")
    missing = set(keys) - set(block)
    if missing:
        raise ValueError(f"manifest {name} lacks keys {sorted(missing)}")
    return block


def _checked_ints(value, where, depth=0):
    """`value` once it is an integer, or at `depth` > 0 nested lists of them
    (as tuples); a bool, float or string is refused, naming `where`."""
    if depth:
        return tuple(_checked_ints(v, where, depth - 1) for v in value)
    if type(value) is not int:
        raise ValueError(f"manifest {where} must be an integer, not {value!r}")
    return value


def nerve_from_block(block):
    _checked_block(block, "nerve block", ("vertex_count", "simplices"))
    return cech.Nerve.from_simplices(
        _checked_ints(block["simplices"], "nerve block simplices", 2),
        vertex_count=_checked_ints(block["vertex_count"], "nerve block vertex_count"))


def transitions_to_block(data):
    edges = {}
    for edge, graph in sorted(data.edges.items()):
        edges[_encode_simplex(edge)] = {
            "basepoint": int(graph.basepoint),
            "adjacency": [list(pair) for pair in graph.adjacency],
            "matrices": data.matrices[edge].tolist(),
        }
    triples = {_encode_simplex(s): [list(t) for t in entries]
               for s, entries in sorted(data.triples.items())}
    return {"dimension": data.dimension, "edges": edges, "triples": triples}


def transitions_from_block(block, nerve):
    """Decode a transitions block onto a SampleCover of `nerve`."""
    _checked_block(block, "transitions block", ("dimension", "edges", "triples"))
    graphs, matrices = {}, {}
    for key, entry in _checked_block(block["edges"], "transitions edges", ()).items():
        where = f"transitions edge {key!r}"
        _checked_block(entry, where, ("basepoint", "adjacency", "matrices"))
        edge = _decode_simplex(key)
        matrices[edge] = np.array(entry["matrices"], dtype=float)
        if matrices[edge].ndim != 3:
            raise ValueError(f"manifest {where} matrices must have shape (count, n, n)")
        adjacency = _checked_ints(entry["adjacency"], f"{where} adjacency", 2)
        basepoint = _checked_ints(entry["basepoint"], f"{where} basepoint")
        graphs[edge] = EdgeSampleGraph(len(matrices[edge]), adjacency, basepoint)
    triples = {_decode_simplex(key): _checked_ints(entries, f"transitions triple {key!r}", 2)
               for key, entries in _checked_block(block["triples"], "transitions triples",
                                                  ()).items()}
    dimension = _checked_ints(block["dimension"], "transitions block dimension")
    return TransitionData(SampleCover(nerve, graphs, triples), dimension, matrices)


# ---------------------------------------------------------- whole manifests


@dataclass(frozen=True)
class ParsedManifest:
    """Decoded manifest: live transition data, on its cover, plus the task list."""

    name: str
    transitions: TransitionData
    tasks: tuple


def _checked_tasks(tasks):
    """Task names as a tuple of strings, each one a key of MANIFEST_TASKS."""
    tasks = tuple(str(t) for t in tasks)
    unknown = [t for t in tasks if t not in MANIFEST_TASKS]
    if unknown:
        raise ValueError(f"unknown manifest task {unknown[0]!r}; "
                         f"known tasks are {sorted(MANIFEST_TASKS)}")
    return tasks


def build_manifest(name, transitions, tasks):
    """Assemble a JSON-ready manifest document from live transition data."""
    return {
        "format": MANIFEST_FORMAT,
        "name": str(name),
        "nerve": nerve_to_block(transitions.nerve),
        "transitions": transitions_to_block(transitions),
        "tasks": list(_checked_tasks(tasks)),
    }


def parse_manifest(doc):
    """Validate a manifest document and decode it into live objects."""
    if _checked_block(doc, "document", ()).get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported manifest format {doc.get('format')!r}")
    _checked_block(doc, "document", ("name", "nerve", "transitions", "tasks"))
    transitions = transitions_from_block(doc["transitions"], nerve_from_block(doc["nerve"]))
    if not isinstance(doc["tasks"], list):
        raise ValueError(f"manifest tasks must be a JSON list, not {doc['tasks']!r}")
    return ParsedManifest(name=doc["name"], transitions=transitions,
                          tasks=_checked_tasks(doc["tasks"]))


# ------------------------------------------------------------ manifest tasks
# Each task reads the lifted transitions and returns its report fields and
# whether it passed.

RANDOMIZED_TRIALS = 10


def _task_lift(data, lifted, cocycle, seed):
    """Cocycle values, and their class under randomized relifts."""
    rng = np.random.default_rng(seed)
    edges = list(data.edges)
    invariant = True
    for _ in range(RANDOMIZED_TRIALS):
        flips = [e for e in edges if rng.random() < 0.5]
        basepoints = {e: int(rng.integers(0, data.edges[e].count))
                      for e in edges}
        _, other = lift_transitions(data, sign_flips=flips,
                                    basepoints=basepoints)
        diff = cech.Cochain(2, 2, tuple(
            a + b for a, b in zip(cocycle.cochain.values,
                                  other.cochain.values)))
        if not (cech.is_cocycle(diff, data.nerve)
                and cech.solve_coboundary(diff, data.nerve) is not None):
            invariant = False
    return {"cocycle_values": [int(v) for v in cocycle.cochain.values],
            "randomized_trials": RANDOMIZED_TRIALS,
            "class_invariant": invariant}, invariant


def _task_cocycle_closed(data, lifted, cocycle, seed):
    closed = cech.is_cocycle(cocycle.cochain, cocycle.nerve)
    return {"cocycle_closed": closed}, closed


def _task_class_trivial(data, lifted, cocycle, seed):
    trivial = cocycle.trivial
    return {"class_trivial": trivial}, trivial


def _task_spin_module(data, lifted, cocycle, seed):
    check = verify_module(spin_module(lifted), cocycle)
    return ({"spin_module_residual": check.max_residual},
            check.ok and check.max_residual < 1e-9)


MANIFEST_TASKS = {
    "lift": _task_lift,
    "cocycle-closed": _task_cocycle_closed,
    "class-trivial": _task_class_trivial,
    "spin-module": _task_spin_module,
}


def run_tasks(parsed, seed=0):
    """Lift the manifest's transitions and run exactly the tasks it names.

    Returns the report (the manifest name, each task's fields, and "pass")
    and whether every task passed.
    """
    data = parsed.transitions
    lifted, cocycle = lift_transitions(data)
    report, ok = {"manifest": parsed.name}, True
    for name in parsed.tasks:
        fields, passed = MANIFEST_TASKS[name](data, lifted, cocycle, seed)
        report.update(fields)
        ok = ok and passed
    report["pass"] = ok
    return report, ok


def write_manifest(path, doc):
    parse_manifest(doc)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_manifest(path):
    """Read and parse a manifest file into a ParsedManifest."""
    return parse_manifest(json.loads(Path(path).read_text(encoding="utf-8")))


def sphere_frame_manifest():
    """The shipped frame-bundle manifest of the sphere benchmark.

    Carries the three-chart frame cover with its sampled rotation
    transitions; the lifting tasks compute the obstruction cocycle, check
    that it closes and its class vanishes, and verify the induced spinor
    module against the computed cocycle.
    """
    return build_manifest(
        "sphere-frame-bundle",
        transitions=sphere_frame_transitions(),
        tasks=("lift", "cocycle-closed", "class-trivial", "spin-module"),
    )
