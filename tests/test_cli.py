"""End-to-end checks of the command-line harness and its report contract."""

import json
from fractions import Fraction
from math import comb

import pytest

from gerbedex import cech, cli
from gerbedex.cli import index_row, run
from gerbedex.manifest import write_nerve
from gerbedex.registry import benchmark_registry


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
    # flux 9 is beyond what the default N = 12 lattice resolves
    code, payload = run_to_report(
        ["index", "--manifold", "T2", "--flux", "9"], tmp_path)
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


ROW_KEYS = ["index_analytic", "index_topological", "pass", "residual", "value"]


def test_chern_defaults_to_sphere(tmp_path):
    code, payload = run_to_report(["chern"], tmp_path)
    assert code == 0
    report = payload["report"]
    assert report["manifold"] == "S2"
    assert report["tolerance"] == 1e-6
    rows = report["rows"]
    assert sorted(int(k) for k in rows) == list(range(-3, 4))
    for key, row in rows.items():
        assert sorted(row) == ROW_KEYS
        assert row["residual"] < 1e-6
        assert row["residual"] == abs(row["value"] - row["index_analytic"])
        assert row["index_analytic"] == row["index_topological"] == int(key)
        assert row["pass"] is True


def test_index_torus_matches(tmp_path):
    code, payload = run_to_report(
        ["index", "--manifold", "T2", "--flux", "2"], tmp_path)
    assert code == 0
    report = payload["report"]
    assert report["manifold"] == "T2"
    assert report["lattice_size"] == 12
    assert report["tolerance"] == 1e-10
    assert list(report["rows"]) == ["2"]
    row = report["rows"]["2"]
    assert row["index_analytic"] == 2
    assert row["index_topological"] == 2
    assert row["residual"] < 1e-10
    assert row["pass"] is True
    assert report["pass"] is True


def test_projective_plane_rows_report_exact_values(tmp_path):
    code, payload = run_to_report(
        ["index", "--manifold", "CP2", "--flux", "3"], tmp_path)
    assert code == 0
    row = payload["report"]["rows"]["3"]
    assert row == {"value": "10", "index_topological": 10,
                   "index_analytic": 10, "residual": "0", "pass": True}


# ---------------------------------------------------------------------------
# the index row

@pytest.fixture(scope="module")
def benches():
    return {name: benchmark_registry(name) for name in ("S2", "T2", "CP2")}


def test_index_row_torus(benches):
    row = index_row(benches["T2"], 2, lattice_size=12)
    assert sorted(row) == ROW_KEYS
    assert row["index_analytic"] == row["index_topological"] == 2
    assert row["residual"] == abs(row["value"] - 2) < 1e-10
    assert row["pass"] is True


def test_index_row_sphere(benches):
    row = index_row(benches["S2"], -3)
    assert row["index_analytic"] == row["index_topological"] == -3
    assert row["residual"] < 1e-6
    assert row["pass"] is True


@pytest.mark.parametrize("k", range(5))
def test_index_row_projective_plane(benches, k):
    row = index_row(benches["CP2"], k)
    assert row == {"value": Fraction(comb(k + 2, 2)),
                   "index_topological": comb(k + 2, 2),
                   "index_analytic": comb(k + 2, 2),
                   "residual": 0, "pass": True}


@pytest.mark.parametrize("k", range(-6, 5))
def test_index_row_projective_plane_at_every_label(benches, k):
    # the holomorphic Euler characteristic: monomials for k >= -2, h^2 below
    euler = (k + 1) * (k + 2) // 2
    assert euler == (comb(k + 2, 2) if k >= -2 else comb(-k - 1, 2))
    row = index_row(benches["CP2"], k)
    assert row == {"value": Fraction(euler), "index_topological": euler,
                   "index_analytic": euler, "residual": 0, "pass": True}


def test_projective_plane_negative_label_succeeds(tmp_path):
    code, payload = run_to_report(
        ["index", "--manifold", "CP2", "--flux", "-3"], tmp_path)
    assert code == 0
    assert payload["report"]["rows"]["-3"] == {
        "value": "1", "index_topological": 1, "index_analytic": 1,
        "residual": "0", "pass": True}


def test_index_row_fails_when_the_analytic_side_disagrees(benches, monkeypatch):
    # the label enters no pass rule: only the two computed sides are compared
    real = cli.monopole_kernel
    monkeypatch.setattr(cli, "monopole_kernel", lambda m: real(m + 1))
    row = index_row(benches["S2"], 2)
    assert row["index_topological"] == 2
    assert row["index_analytic"] == 3
    assert row["residual"] == pytest.approx(1.0)
    assert row["pass"] is False


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
    assert sorted(payload["report"]) == ["cech", "clifford", "gerbe", "index"]
    index = payload["report"]["index"]
    assert sorted(index) == ["CP2", "S2", "T2"]
    for manifold, labels in (("S2", range(-3, 4)), ("T2", range(-3, 4)),
                             ("CP2", range(5))):
        section = index[manifold]
        assert section["pass"] is True
        assert sorted(int(k) for k in section["rows"]) == list(labels)
        for label, row in section["rows"].items():
            assert sorted(row) == ROW_KEYS
            assert row["pass"] is True
            expected = comb(int(label) + 2, 2) if manifold == "CP2" else int(label)
            assert row["index_analytic"] == row["index_topological"] == expected
