"""End-to-end checks of the command-line harness and its report contract."""

import json

import pytest

from gerbedex import cech
from gerbedex.cli import run
from gerbedex.manifest import write_nerve


def run_to_report(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["chern", "--manifold", "K3"],
    ["index", "--flux", "two"],
])
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2


def test_failing_suite_exits_one(tmp_path):
    # no lattice discretization ships for this benchmark
    code, payload = run_to_report(
        ["index", "--manifold", "CP2", "--flux", "1"], tmp_path)
    assert code == 1
    assert payload["pass"] is False
    assert "error" in payload
    assert payload["error_type"] == "ValueError"


# ---------------------------------------------------------------------------
# individual suites

def test_clifford_suite_report(tmp_path):
    code, payload = run_to_report(["clifford-check"], tmp_path)
    assert code == 0
    assert payload["pass"] is True
    report = payload["report"]
    for n, rank in ((2, 4), (4, 16), (6, 64)):
        entry = report[f"n{n}"]
        assert entry["pass"] is True
        assert entry["span_rank"] == rank
        assert entry["anticommutation_residual"] < 1e-12
        assert entry["adjoint_residual"] < 1e-10
    assert sum(report[f"n{n}"]["random_pairs"] for n in (2, 4, 6)) == 100


def test_cech_shipped_suite(tmp_path):
    code, payload = run_to_report(["cech"], tmp_path)
    assert code == 0
    report = payload["report"]
    assert report["tetrahedron"]["h2_integer_orders"] == [0]
    assert report["projective_plane"]["h2_mod2_orders"] == [2]
    assert report["projective_plane"]["generator_lifts"] is False
    assert report["lens_3"]["bockstein_nontrivial"] is True


def test_cech_reads_nerve_file(tmp_path):
    path = tmp_path / "lens.nerve"
    write_nerve(path, cech.lens_complex(3))
    code, payload = run_to_report(["cech", "--in", str(path)], tmp_path)
    assert code == 0
    report = payload["report"]
    assert report["h2_mod3_orders"] == [3]
    assert report["h2_mod2_orders"] == []
    assert report["bockstein"]["3"]["nontrivial"] is True


def test_gerbe_suite_report(tmp_path):
    code, payload = run_to_report(["gerbe"], tmp_path)
    assert code == 0
    report = payload["report"]
    assert report["cocycle_closed"] is True
    assert report["class_trivial"] is True
    assert report["class_invariant"] is True
    assert report["randomized_trials"] == 10
    assert report["spin_module_residual"] < 1e-9


def test_chern_defaults_to_sphere(tmp_path):
    code, payload = run_to_report(["chern"], tmp_path)
    assert code == 0
    rows = payload["report"]["rows"]
    assert sorted(int(k) for k in rows) == list(range(-3, 4))
    for key, row in rows.items():
        assert row["residual"] < 1e-6
        assert row["target"] == int(key)


def test_index_torus_matches(tmp_path):
    code, payload = run_to_report(
        ["index", "--manifold", "T2", "--flux", "2"], tmp_path)
    assert code == 0
    report = payload["report"]
    assert report["manifold"] == "T2"
    assert report["flux"] == 2
    assert report["N"] == 12
    assert report["index_spectral"] == 2
    assert report["index_topological"] == 2
    assert report["match"] is True


# ---------------------------------------------------------------------------
# report plumbing

def test_report_written_to_stdout_without_out_flag(capsys):
    code = run(["cech"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "cech"
    assert payload["pass"] is True


def test_grid_order_flag_applies(tmp_path):
    code, payload = run_to_report(
        ["chern", "--manifold", "T2", "--grid-order", "16"], tmp_path)
    assert code == 0
    assert payload["report"]["grid_order"] == 16


def test_full_run_is_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run(["all", "--seed", "7", "--out", str(first)]) == 0
    assert run(["all", "--seed", "7", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    assert payload["pass"] is True
    assert sorted(payload["report"]) == [
        "cech", "chern", "clifford", "gerbe", "index"]
    for manifold, fluxes in (("T2", ["-2", "0", "1", "3"]),
                             ("S2", ["-3", "1"])):
        rows = payload["report"]["index"][manifold]
        assert sorted(rows) == sorted(fluxes)
        for flux, row in rows.items():
            assert row["match"] is True
            assert row["index_spectral"] == int(flux)
