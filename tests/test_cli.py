"""End-to-end command-line tests.

Each command is driven through main(argv); outputs are parsed back and
checked against the frozen references.  Also pins the determinism contract
(byte-identical repeated runs) and the structured-error exit paths.
"""

import json
import os

import numpy as np
import pytest

from p3poly import quantum as qu
from p3poly.cli import main, svd_layout
from p3poly.strategies import vertex_rows, FULL_26, REDUCED_8

from reference_tables import FULL_TABLE, P_B, P_U, REDUCED_TABLE


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    return code, out


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_vertices_csv_full(tmp_path):
    code, out = run(tmp_path, "vertices", "--rep", "full", "--format", "csv")
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 65
    assert lines[0].split(",")[:6] == ["a0", "a1", "b0", "b1", "c0", "c1"]
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert rows == [tuple(r) for r in FULL_TABLE]


def test_vertices_json_reduced(tmp_path):
    code, out = run(tmp_path, "vertices", "--rep", "reduced")
    assert code == 0
    payload = read_json(out)
    assert payload["representation"] == REDUCED_8
    assert payload["vertices"] == [list(r) for r in REDUCED_TABLE]


def test_vertices_stdout(capsys):
    assert main(["vertices", "--rep", "reduced", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("a0,a1,c0,c1,")
    assert len(captured.out.strip().split("\n")) == 17


def test_graph_dot_full(tmp_path):
    code, out = run(tmp_path, "graph", "--rep", "full", "--format", "dot")
    assert code == 0
    text = out.read_text()
    edge_lines = [line for line in text.splitlines() if "--" in line]
    assert len(edge_lines) == 864
    node_lines = [line for line in text.splitlines() if line.strip().endswith(";") and "--" not in line]
    assert len(node_lines) == 64


def test_graph_json_with_layout(tmp_path):
    code, out = run(tmp_path, "graph", "--rep", "reduced", "--layout", "svd")
    assert code == 0
    payload = read_json(out)
    assert payload["node_count"] == 16
    assert payload["edge_count"] == 48
    assert len(payload["layout"]) == 16
    assert all(len(row) == 3 for row in payload["layout"])


def test_graph_layout_csv(tmp_path):
    code, out = run(tmp_path, "graph", "--rep", "reduced", "--layout", "svd", "--format", "csv")
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,z"
    assert len(lines) == 17


def test_graph_dot_with_layout_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "graph", "--layout", "svd", "--format", "dot")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_graph_layout_determinism(tmp_path):
    _, out1 = run(tmp_path, "graph", "--rep", "full", "--layout", "svd")
    first = out1.read_bytes()
    _, out2 = run(tmp_path, "graph", "--rep", "full", "--layout", "svd")
    assert out2.read_bytes() == first


def test_svd_layout_sign_convention():
    layout = svd_layout(vertex_rows(REDUCED_8))
    assert layout.shape == (16, 3)
    again = svd_layout(vertex_rows(REDUCED_8))
    assert np.array_equal(layout, again)
    # Centered: column means vanish.
    assert np.abs(layout.mean(axis=0)).max() < 1e-9


def test_analyze_full(tmp_path):
    code, out = run(tmp_path, "analyze", "--rep", "full")
    assert code == 0
    payload = read_json(out)
    assert payload["apsp_max"] == 2
    assert len(payload["min_generators"]["members"]) == 4
    assert payload["min_generators"]["complete"] is True
    assert payload["generator_constructions"]["diagonal"]["newly_covered"] == [28, 20, 12, 4]
    assert payload["generator_constructions"]["same_row"]["newly_covered"] == [28, 12, 12, 12]
    assert payload["cliques"]["count"] == 8
    assert payload["cliques"]["sizes"] == [16]
    assert payload["hamming_histogram"]["0"] == 1
    assert payload["hamming_histogram"]["26"] == 1
    classification = payload["classification"]
    assert classification["uniform"] is True
    assert classification["per_vertex"][0] == {"coincident": 1, "visible": 27, "hidden": 36}
    assert len(classification["per_vertex"]) == 64


def test_analyze_reduced(tmp_path):
    code, out = run(tmp_path, "analyze", "--rep", "reduced")
    assert code == 0
    payload = read_json(out)
    assert payload["apsp_max"] == 2
    assert payload["generator_constructions"]["diagonal"]["newly_covered"] == [7, 5, 3, 1]
    assert payload["cliques"]["sizes"] == [4]


def test_simulate_honest_exact(tmp_path):
    code, out = run(tmp_path, "simulate", "--kind", "honest")
    assert code == 0
    payload = read_json(out)
    assert payload["sampled_point"] is None
    assert payload["no_signalling_ok"] is True
    assert np.allclose(payload["exact_point"]["coords"], P_B)
    block = payload["distribution"]["table"]["0,0"]
    assert np.allclose(block, [0.5, 0.0, 0.0, 0.5])


def test_simulate_intercepted_exact(tmp_path):
    code, out = run(tmp_path, "simulate", "--kind", "intercepted")
    assert code == 0
    payload = read_json(out)
    assert np.allclose(payload["exact_point"]["coords"], P_U)


def test_simulate_with_shots_deterministic(tmp_path):
    code, out = run(tmp_path, "simulate", "--kind", "honest", "--shots", "5000", "--seed", "7")
    assert code == 0
    first = out.read_bytes()
    payload = json.loads(first)
    assert payload["sampled_point"] is not None
    assert len(payload["standard_errors"]) == 8
    code, out = run(tmp_path, "simulate", "--kind", "honest", "--shots", "5000", "--seed", "7")
    assert out.read_bytes() == first


def test_simulate_invalid_noise(tmp_path, capsys):
    code, _ = run(tmp_path, "simulate", "--kind", "honest", "--noise", "2.0")
    assert code == 1
    assert "noise" in capsys.readouterr().err


def test_project_command(tmp_path):
    point_file = tmp_path / "pb.json"
    point_file.write_text(json.dumps({
        "representation": REDUCED_8,
        "coords": list(P_B),
    }))
    out = tmp_path / "proj.json"
    assert main(["project", "--input", str(point_file), "--output", str(out)]) == 0
    payload = read_json(out)
    assert payload["converged"] is True
    assert np.allclose(payload["params"], 0.5640869491808969, atol=2e-3)
    assert payload["squared_distance"] == pytest.approx(0.09183619557541524, abs=1e-8)


def test_project_accepts_simulate_output(tmp_path):
    sim_out = tmp_path / "sim.json"
    assert main(["simulate", "--kind", "honest", "--output", str(sim_out)]) == 0
    out = tmp_path / "proj.json"
    assert main(["project", "--input", str(sim_out), "--output", str(out)]) == 0
    assert read_json(out)["distance"] == pytest.approx(0.3030448738642765, abs=1e-6)


def test_test_point_mode_same_file(tmp_path):
    point_file = tmp_path / "pb.json"
    point_file.write_text(json.dumps({"representation": REDUCED_8, "coords": list(P_B)}))
    out = tmp_path / "report.json"
    code = main([
        "test", "--expected", str(point_file), "--observed", str(point_file),
        "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["report"]["z"] == 0.0
    assert payload["report"]["reject"] is False
    assert payload["normalized_score"] == pytest.approx(1.0)


def test_test_point_mode_distinct_points(tmp_path):
    pb_file = tmp_path / "pb.json"
    pb_file.write_text(json.dumps({"representation": REDUCED_8, "coords": list(P_B)}))
    pu_file = tmp_path / "pu.json"
    pu_file.write_text(json.dumps({"representation": REDUCED_8, "coords": list(P_U)}))
    out = tmp_path / "report.json"
    code = main([
        "test", "--expected", str(pb_file), "--observed", str(pu_file),
        "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["report"]["reject"] is True
    assert payload["report"]["z"] == pytest.approx(5.547001962252291, abs=1e-6)
    assert payload["projection_distance_observed"] == pytest.approx(0.0, abs=1e-7)
    # P_U observed vs P_B expected: score ~ 0.
    assert payload["normalized_score"] == pytest.approx(0.0, abs=1e-6)


def test_test_point_mode_degenerate_reference(tmp_path):
    pu_file = tmp_path / "pu.json"
    pu_file.write_text(json.dumps({"representation": REDUCED_8, "coords": list(P_U)}))
    pb_file = tmp_path / "pb.json"
    pb_file.write_text(json.dumps({"representation": REDUCED_8, "coords": list(P_B)}))
    out = tmp_path / "report.json"
    code = main([
        "test", "--expected", str(pu_file), "--observed", str(pb_file),
        "--output", str(out),
    ])
    assert code == 0
    assert read_json(out)["normalized_score"] is None


def test_test_samples_mode(tmp_path):
    rng = np.random.default_rng(71)
    expected = tmp_path / "expected.csv"
    observed = tmp_path / "observed.csv"
    base = np.array(P_B)
    rows_e = np.clip(base + rng.normal(0, 0.05 * base, size=(80, 8)), 0, 1)
    rows_o = np.clip(base + rng.normal(0, 0.05 * base, size=(80, 8)), 0, 1)
    expected.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in rows_e) + "\n")
    observed.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in rows_o) + "\n")
    out = tmp_path / "report.json"
    code = main([
        "test", "--mode", "samples", "--expected", str(expected),
        "--observed", str(observed), "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["columns"] == 8
    assert len(payload["per_coordinate"]) == 8
    assert payload["distance_statistic"] is not None
    assert payload["reject_any"] is False  # same generating distribution


def test_test_samples_mode_single_column(tmp_path):
    rng = np.random.default_rng(73)
    expected = tmp_path / "expected.csv"
    observed = tmp_path / "observed.csv"
    expected.write_text("\n".join(f"{v:.9f}" for v in rng.normal(0, 1, 60)) + "\n")
    observed.write_text("\n".join(f"{v:.9f}" for v in rng.normal(3, 1, 60)) + "\n")
    out = tmp_path / "report.json"
    code = main([
        "test", "--mode", "samples", "--expected", str(expected),
        "--observed", str(observed), "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["columns"] == 1
    assert payload["distance_statistic"] is None
    assert payload["reject_any"] is True


def test_test_rejects_full_points(tmp_path, capsys):
    full_file = tmp_path / "full.json"
    full_file.write_text(json.dumps({"representation": FULL_26, "coords": [0.0] * 26}))
    out = tmp_path / "report.json"
    code = main([
        "test", "--expected", str(full_file), "--observed", str(full_file),
        "--output", str(out),
    ])
    assert code == 1
    assert "reduced-8" in capsys.readouterr().err
    assert not out.exists()


def test_bound_bell_vs_product(tmp_path):
    bell_file = tmp_path / "bell.json"
    bell_file.write_text(json.dumps(qu.bell_pair_state().to_json_dict()))
    product_file = tmp_path / "product.json"
    product = qu.DensityMatrix(np.eye(4, dtype=complex) / 4)
    product_file.write_text(json.dumps(product.to_json_dict()))
    out = tmp_path / "bound.json"
    code = main(["bound", "--rho", str(bell_file), "--sigma", str(product_file), "--output", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["behaviour"]["l1"] == pytest.approx(0.5)
    assert payload["behaviour"]["l2"] == pytest.approx(np.sqrt(0.125))
    assert payload["behaviour"]["holds"] is True
    assert payload["trace_distance"] == pytest.approx(0.75)
    assert payload["fidelity_bounds_hold"] is True


def test_bound_identical_states(tmp_path):
    bell_file = tmp_path / "bell.json"
    bell_file.write_text(json.dumps(qu.bell_pair_state().to_json_dict()))
    out = tmp_path / "bound.json"
    code = main(["bound", "--rho", str(bell_file), "--sigma", str(bell_file), "--output", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["behaviour"]["l1"] == pytest.approx(0.0, abs=1e-12)
    assert payload["fidelity"] == pytest.approx(1.0)


def test_bound_malformed_trace(tmp_path, capsys):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({
        "dim": 2,
        "re": [[0.45, 0.0], [0.0, 0.45]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }))
    out = tmp_path / "bound.json"
    code = main(["bound", "--rho", str(bad_file), "--sigma", str(bad_file), "--output", str(out)])
    assert code == 1
    assert "trace" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_json_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "x.json"
    code = main(["project", "--input", str(bad), "--output", str(out)])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, verb",
    [
        ("nan", "project"),
        ("nan", "test"),
        ("coords5", "project"),
        ("rep_list", "project"),
        ("rep_dict", "project"),
        ("coords_str", "project"),
        ("coords_bool", "project"),
        ("coords_bool", "test"),
    ],
)
def test_malformed_point_gives_one_error_line(tmp_path, capsys, name, verb):
    points = {
        "nan": {"representation": REDUCED_8, "coords": [float("nan")] * 8},
        "coords5": {"representation": REDUCED_8, "coords": 5},
        "coords_str": {"representation": REDUCED_8, "coords": "00000000"},
        "coords_bool": {"representation": REDUCED_8, "coords": [True, False] * 4},
        "rep_list": {"representation": [REDUCED_8], "coords": [0] * 8},
        "rep_dict": {"representation": {}, "coords": [0] * 8},
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(points[name]))
    good = tmp_path / "pb.json"
    good.write_text(json.dumps({"representation": REDUCED_8, "coords": list(P_B)}))
    out = tmp_path / "out.json"
    if verb == "project":
        argv = ["project", "--input", str(bad)]
    else:
        argv = ["test", "--expected", str(good), "--observed", str(bad)]
    assert main([*argv, "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


_ALPHA_MESSAGE = "alpha must lie strictly between 0 and 1"


@pytest.mark.parametrize(
    "mode, observed, flags, message",
    [
        pytest.param("samples", "0.1\nnan\n0.3\n", [], "finite samples", id="samples-nan-cell"),
        pytest.param("samples", "0.1\n1e308\n0.3\n", [], "overflows", id="samples-overflow"),
        pytest.param("point", None, ["--noise", "nan"], "finite and non-negative, got nan", id="noise-nan"),
        pytest.param("point", None, ["--noise", "inf"], "finite and non-negative, got inf", id="noise-inf"),
        *[
            pytest.param(mode, None, ["--alpha", alpha], _ALPHA_MESSAGE, id=f"{mode}-alpha-{alpha}")
            for mode in ("point", "samples")
            for alpha in ("0", "1", "5", "nan")
        ],
    ],
)
def test_bad_test_input_gives_one_error_line(tmp_path, capsys, recwarn, mode, observed, flags, message):
    if mode == "point":
        good = json.dumps({"representation": REDUCED_8, "coords": list(P_B)})
    else:
        good = "0.1\n0.2\n0.4\n"
    expected_file = tmp_path / "expected"
    expected_file.write_text(good)
    observed_file = tmp_path / "observed"
    observed_file.write_text(good if observed is None else observed)
    out = tmp_path / "out.json"
    argv = ["test", "--mode", mode, "--expected", str(expected_file), "--observed", str(observed_file)]
    assert main([*argv, *flags, "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    assert not out.exists()
    assert not recwarn.list  # a warning would reach stderr outside pytest


@pytest.mark.parametrize(
    "dim", [None, {}, "x", True, 4.0, 3], ids=["null", "object", "string", "true", "float", "wrong-size"]
)
def test_bad_state_dim_gives_one_error_line(tmp_path, capsys, dim):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**qu.bell_pair_state().to_json_dict(), "dim": dim}))
    out = tmp_path / "bound.json"
    assert main(["bound", "--rho", str(bad), "--sigma", str(bad), "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'dim'" in lines[0]
    assert not out.exists()


def test_missing_input_file(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["project", "--input", str(tmp_path / "absent.json"), "--output", str(out)])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output(tmp_path, capsys):
    code = main(["vertices", "--output", str(tmp_path / "nodir" / "out.csv")])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_output_write_keeps_neighbouring_tmp_file(tmp_path, capsys):
    out = tmp_path / "v.csv"
    neighbour = tmp_path / "v.csv.tmp"
    neighbour.write_bytes(b"user data\n")
    assert main(["vertices", "--format", "csv", "--output", str(out)]) == 0
    assert neighbour.read_bytes() == b"user data\n"
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.csv", "v.csv.tmp"]
    # A write that fails at the final rename (the target is a directory)
    # leaves no temporary file behind.
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    assert main(["vertices", "--output", str(blocked)]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "v.csv", "v.csv.tmp"]
    assert not any(blocked.iterdir())
