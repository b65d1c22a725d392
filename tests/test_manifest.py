"""Round-trip and validation tests for nerve files and JSON manifests."""

import json

import numpy as np
import pytest

from gerbedex import cech
from gerbedex.gerbe import lift_transitions, spin_module, verify_module
from gerbedex.manifest import (
    MANIFEST_FORMAT,
    ParsedManifest,
    build_manifest,
    nerve_from_text,
    nerve_to_text,
    parse_manifest,
    read_manifest,
    read_nerve,
    run_tasks,
    sphere_frame_manifest,
    transitions_from_block,
    transitions_to_block,
    write_manifest,
    write_nerve,
)
from gerbedex.registry import sphere_frame_transitions


def test_decode_matrices_validation():
    data = sphere_frame_transitions()
    block = json.loads(json.dumps(transitions_to_block(data)))
    entry = next(iter(block["edges"].values()))
    assert all(isinstance(x, float) for x in entry["matrices"][0][0])
    back = transitions_from_block(block, data.nerve)
    assert all(g.matrices.dtype.kind == "f" for g in back.edges.values())
    entry["matrices"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match=r"shape \(count, n, n\)"):
        transitions_from_block(block, data.nerve)


def test_nerve_text_round_trip():
    nerve = cech.tetrahedron_sphere()
    text = nerve_to_text(nerve)
    assert nerve_from_text(text) == nerve
    # canonical form is stable under re-serialization
    assert nerve_to_text(nerve_from_text(text)) == text


def test_nerve_text_preserves_isolated_vertices():
    nerve = cech.Nerve.from_simplices([(0, 1)], vertex_count=4)
    assert nerve_from_text(nerve_to_text(nerve)) == nerve


def test_nerve_text_rejects_garbage():
    with pytest.raises(ValueError):
        nerve_from_text("simplex 0 1\nwhat 3\n")
    with pytest.raises(ValueError):
        nerve_from_text("# comment only\n")


def test_nerve_text_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="negative vertex count in nerve line 'vertices -2'"):
        nerve_from_text("vertices -2\nsimplex 0 1\n")
    with pytest.raises(ValueError, match="'vertices -1'"):
        nerve_from_text("vertices -1\n")


def test_nerve_text_rejects_second_vertices_line():
    with pytest.raises(ValueError, match="second vertices line 'vertices 5'"):
        nerve_from_text("vertices 4\nsimplex 0 1\nvertices 5\n")
    with pytest.raises(ValueError, match="second vertices line"):
        nerve_from_text("vertices 3\nvertices 3\n")


def test_nerve_file_io(tmp_path):
    nerve = cech.lens_complex(3)
    path = tmp_path / "lens.nerve"
    write_nerve(path, nerve)
    assert read_nerve(path) == nerve


def test_transition_block_round_trip():
    data = sphere_frame_transitions()
    block = json.loads(json.dumps(transitions_to_block(data)))
    back = transitions_from_block(block, data.nerve)
    back.validate()
    assert back.dimension == data.dimension
    for edge, graph in data.edges.items():
        mate = back.edges[edge]
        assert np.array_equal(graph.matrices, mate.matrices)
        assert graph.adjacency == mate.adjacency
        assert graph.basepoint == mate.basepoint
    assert back.triples == data.triples


def test_sphere_frame_manifest_runs_its_tasks(tmp_path):
    doc = sphere_frame_manifest()
    path = tmp_path / "sphere.json"
    write_manifest(path, doc)
    parsed = read_manifest(path)
    assert isinstance(parsed, ParsedManifest)
    assert parsed.name == "sphere-frame-bundle"
    assert "lift" in parsed.tasks
    lifted, cocycle = lift_transitions(parsed.transitions.validate())
    assert cech.is_cocycle(cocycle.cochain, cocycle.nerve)
    assert cocycle.trivial
    check = verify_module(spin_module(lifted), cocycle)
    assert check.ok and check.max_residual < 1e-9


def test_manifest_write_is_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(first, sphere_frame_manifest())
    write_manifest(second, sphere_frame_manifest())
    assert first.read_bytes() == second.read_bytes()


def test_manifest_validation_rejections():
    doc = sphere_frame_manifest()
    assert doc["format"] == MANIFEST_FORMAT == 2
    wrong_format = dict(doc)
    wrong_format["format"] = 1
    with pytest.raises(ValueError, match="unsupported manifest format 1"):
        parse_manifest(wrong_format)
    with pytest.raises(ValueError):
        parse_manifest({k: v for k, v in doc.items() if k != "nerve"})


def test_manifest_document_carries_only_what_run_tasks_reads():
    doc = sphere_frame_manifest()
    assert set(doc) == {"format", "name", "nerve", "transitions", "tasks"}


def _shipped_json():
    """The shipped manifest after a real JSON round trip."""
    return json.loads(json.dumps(sphere_frame_manifest()))


def _first_edge(doc):
    return next(iter(doc["transitions"]["edges"].values()))


def test_null_transitions_block_is_rejected():
    doc = _shipped_json()
    doc["transitions"] = None
    with pytest.raises(ValueError, match="transitions block"):
        parse_manifest(doc)


@pytest.mark.parametrize("block, value, message", [
    ("nerve", None, "nerve block must be a JSON object"),
    ("nerve", [], "nerve block must be a JSON object"),
    ("nerve", {"simplices": [[0]]}, r"nerve block lacks keys \['vertex_count'\]"),
    ("transitions", {}, r"transitions block lacks keys "
                        r"\['dimension', 'edges', 'triples'\]"),
    ("transitions", [], "transitions block must be a JSON object"),
])
def test_malformed_blocks_are_rejected(block, value, message):
    doc = _shipped_json()
    doc[block] = value
    with pytest.raises(ValueError, match=message):
        parse_manifest(doc)


@pytest.mark.parametrize("field", ["edges", "triples"])
def test_transition_tables_must_be_objects(field):
    doc = _shipped_json()
    doc["transitions"][field] = list(doc["transitions"][field].values())
    with pytest.raises(ValueError,
                       match=f"transitions {field} must be a JSON object"):
        parse_manifest(doc)


@pytest.mark.parametrize("key", ["basepoint", "adjacency", "matrices"])
def test_edge_entries_must_carry_every_key(key):
    doc = _shipped_json()
    name, entry = next(iter(doc["transitions"]["edges"].items()))
    del entry[key]
    with pytest.raises(ValueError, match=f"transitions edge '{name}' lacks "
                                         rf"keys \['{key}'\]"):
        parse_manifest(doc)


def test_edge_entries_must_be_objects():
    doc = _shipped_json()
    name = next(iter(doc["transitions"]["edges"]))
    doc["transitions"]["edges"][name] = None
    with pytest.raises(ValueError, match=f"transitions edge '{name}' must be "
                                         "a JSON object"):
        parse_manifest(doc)


def test_read_manifest_rejects_what_parse_manifest_rejects(tmp_path):
    doc = _shipped_json()
    doc["transitions"] = {}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="transitions block lacks keys"):
        read_manifest(path)


def test_ragged_matrices_are_rejected():
    doc = _shipped_json()
    _first_edge(doc)["matrices"][0][1].pop()
    with pytest.raises(ValueError):
        parse_manifest(doc)


def test_real_imaginary_pair_entries_are_rejected():
    doc = _shipped_json()
    entry = _first_edge(doc)
    entry["matrices"] = [[[[x, 0.0] for x in row] for row in mat]
                         for mat in entry["matrices"]]
    with pytest.raises(ValueError, match=r"shape \(count, n, n\)"):
        parse_manifest(doc)


def test_matrix_size_must_match_the_declared_dimension():
    doc = _shipped_json()
    doc["transitions"]["dimension"] += 1
    with pytest.raises(ValueError, match="wrong matrix size"):
        parse_manifest(doc)


def test_build_manifest_rejects_unknown_task():
    with pytest.raises(ValueError, match="unknown manifest task 'lfit'"):
        build_manifest("typo", sphere_frame_transitions(),
                       tasks=("lift", "lfit"))


def test_unknown_task_name_is_rejected():
    doc = json.loads(json.dumps(sphere_frame_manifest()))
    doc["tasks"].append("class-nontrivial")
    with pytest.raises(ValueError, match="unknown manifest task 'class-nontrivial'"):
        parse_manifest(doc)


def test_run_tasks_runs_exactly_the_named_tasks():
    doc = json.loads(json.dumps(sphere_frame_manifest()))
    full, ok = run_tasks(parse_manifest(doc), seed=7)
    assert ok and set(full) == {
        "manifest", "cocycle_values", "randomized_trials", "class_invariant",
        "cocycle_closed", "class_trivial", "spin_module_residual", "pass"}
    doc["tasks"].remove("class-trivial")
    report, ok = run_tasks(parse_manifest(doc), seed=7)
    assert ok and "class_trivial" not in report
    assert report == {k: v for k, v in full.items() if k != "class_trivial"}
    doc["tasks"] = ["spin-module"]
    report, ok = run_tasks(parse_manifest(doc), seed=7)
    assert ok and set(report) == {"manifest", "spin_module_residual", "pass"}


def test_run_tasks_validates_the_transitions_once(monkeypatch):
    from gerbedex import gerbe

    checked = []
    original = gerbe.TransitionData._check

    def counting_check(self, tol):
        checked.append(tol)
        original(self, tol)

    monkeypatch.setattr(gerbe.TransitionData, "_check", counting_check)
    report, ok = run_tasks(parse_manifest(sphere_frame_manifest()), seed=7)
    assert ok and report["randomized_trials"] > 0
    assert len(checked) == 1
