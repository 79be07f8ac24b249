"""End-to-end command-line tests.

Each command is driven through main(argv); outputs are parsed back and
checked against the frozen references.  Also pins the determinism contract
(byte-identical repeated runs, and recorded digests of the structural
outputs) and the structured-error exit paths.
"""

import hashlib
import json
import math
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


# SHA-256 of the standard output of each structural command.  These bytes are
# part of the output contract, so a change to them must be deliberate and
# re-record the digest.  The SVD layouts are left out: their floats depend on
# the BLAS.
STRUCTURAL_DIGESTS = {
    ("vertices", "full", "csv"): "e559cb81f86ab6a5ed785f805104e79eac5698fddc0bb40542178bd06cfcb37e",
    ("vertices", "full", "json"): "c8c0e2711218add96b864ecdf00743cb7d7168a7ec969f00517a3979fe05090d",
    ("graph", "full", "dot"): "815ff23bf93b51037fa9d753ceaf8be68537996dbe4340e12a6e17be8600149d",
    ("graph", "full", "json"): "6e182617017a6e6f26a88bc4971f3ff05a5106b2ed0ee710039e3d5ae218eed7",
    ("analyze", "full", None): "2ab78f28afb6823d599c7947685e1cc606d5bdaec617c0f25c9faf10b55c8d76",
    ("vertices", "reduced", "csv"): "149f3191a435ab907e57f205da5ecd17876e654c4eb0337ad504b17336cc414d",
    ("vertices", "reduced", "json"): "b57ed8831b1f8ba79f20d1911188f9a2c734edbaf9a609d1006f0f79faaa545f",
    ("graph", "reduced", "dot"): "22edb6ee2e519689e1eb43ad320df267749e2bd5b1e00ee301c46df4242fb005",
    ("graph", "reduced", "json"): "abadc6bc676aa38bcef825775a68354f4335323347f8e29f557bf0b95f195753",
    ("analyze", "reduced", None): "d817d0a28c833d67ee4ca8ff615a1d4a0fcf56fe403b76048142d2477b810c38",
}


@pytest.mark.parametrize(
    "verb, rep, fmt",
    list(STRUCTURAL_DIGESTS),
    ids=["-".join(filter(None, key)) for key in STRUCTURAL_DIGESTS],
)
def test_structural_stdout_is_byte_identical(capsys, verb, rep, fmt):
    argv = [verb, "--rep", rep, *(["--format", fmt] if fmt else [])]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STRUCTURAL_DIGESTS[verb, rep, fmt]


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


@pytest.mark.parametrize("name", ["re", "im"])
@pytest.mark.parametrize(
    "table",
    [[[True, False, False, False]] * 4, [["0.25", "0", "0", "0"]] * 4, [0.25] * 16, "0.25"],
    ids=["booleans", "numeric-strings", "flat", "string"],
)
def test_bad_state_table_gives_one_error_line(tmp_path, capsys, name, table):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**qu.bell_pair_state().to_json_dict(), name: table}))
    out = tmp_path / "bound.json"
    assert main(["bound", "--rho", str(bad), "--sigma", str(bad), "--output", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and f"'{name}'" in lines[0]
    assert not out.exists()


def test_samples_far_from_unit_scale_get_a_p_value(tmp_path, recwarn):
    # A sample near the top of the float range, whose variance is not a
    # float: the Welch t-test works on a common power-of-two scale.
    expected_file = tmp_path / "expected"
    expected_file.write_text("0.1\n0.2\n0.4\n")
    observed_file = tmp_path / "observed"
    observed_file.write_text("0.1\n1e308\n0.3\n")
    code, out = run(
        tmp_path, "test", "--mode", "samples",
        "--expected", str(expected_file), "--observed", str(observed_file),
    )
    assert code == 0
    (column,) = read_json(out)["per_coordinate"]
    # The small entries are negligible: t = 1 on 2 degrees of freedom.
    assert column["t_p_value"] == pytest.approx(1.0 - 1.0 / math.sqrt(3.0), rel=1e-12)
    assert not recwarn.list


# Every malformed file each file-reading verb can be given, by the kind of
# file it reads, with a fragment of the error it must give.  None stands for
# a path with no file behind it.
_BELL = qu.bell_pair_state().to_json_dict()


def _point(coords, representation=REDUCED_8):
    return json.dumps({"representation": representation, "coords": coords})


def _qubit_state(re):
    return json.dumps({"dim": 2, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]})


_MALFORMED_FILES = {
    "point": {
        "missing": (None, "cannot read"),
        "not-json": ("{not json", "not valid JSON"),
        "list": ("[]", "does not contain a behaviour point"),
        "no-point": (json.dumps({"exact": {}}), "does not contain a behaviour point"),
        "exact-point-number": (json.dumps({"exact_point": 5}), "needs 'representation'"),
        "no-representation": (json.dumps({"coords": [0] * 8}), "needs 'representation'"),
        "nan": (_point([float("nan")] * 8), "not finite"),
        "coords5": (_point(5), "'coords' must be a list"),
        "coords-str": (_point("00000000"), "'coords' must be a list"),
        "coords-bool": (_point([True, False] * 4), "'coords' must be a list"),
        "coords-short": (_point([0.5] * 7), "expected 8 coordinates"),
        "coords-above-one": (_point([2.0] * 8), "outside [0, 1]"),
        "rep-unknown": (_point([0] * 8, "bogus"), "unknown representation"),
        "rep-list": (_point([0] * 8, [REDUCED_8]), "unknown representation"),
        "rep-dict": (_point([0] * 8, {}), "unknown representation"),
    },
    "samples": {
        "missing": (None, "cannot read"),
        "empty": ("", "holds no samples"),
        "blank": ("\n \n", "holds no samples"),
        "header-only": ("x,y\n", "holds no numeric rows"),
        "not-numeric": ("0.1\nabc\n0.3\n", "line 2 is not numeric"),
        "ragged": ("0.1,0.2\n0.3\n0.4,0.5\n", "ragged rows"),
        "nan-cell": ("0.1\nnan\n0.3\n", "finite samples"),
        "inf-cell": ("0.1\ninf\n0.3\n", "finite samples"),
    },
    "state": {
        "missing": (None, "cannot read"),
        "not-json": ("{not json", "not valid JSON"),
        "list": ("[]", "does not contain a density matrix"),
        "no-im": (json.dumps({"dim": 4, "re": _BELL["re"]}), "needs 'dim' and the 're' and 'im'"),
        "dim-null": (json.dumps({**_BELL, "dim": None}), "'dim' must be an integer"),
        "dim-wrong": (json.dumps({**_BELL, "dim": 3}), "'dim' must be an integer"),
        "re-booleans": (json.dumps({**_BELL, "re": [[True] * 4] * 4}), "'re' must be a list"),
        "im-strings": (json.dumps({**_BELL, "im": [["0"] * 4] * 4}), "'im' must be a list"),
        "shapes-differ": (json.dumps({**_BELL, "im": [[0.0] * 2] * 2}), "differ in shape"),
        "trace": (_qubit_state([[0.45, 0.0], [0.0, 0.45]]), "trace is not 1"),
        "not-hermitian": (_qubit_state([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
        "negative": (_qubit_state([[1.5, 0.0], [0.0, -0.5]]), "negative eigenvalue"),
        "nan": (_qubit_state([[float("nan"), 0.0], [0.0, 0.5]]), "non-finite entries"),
    },
}
_GOOD_FILES = {
    "point": json.dumps({"representation": REDUCED_8, "coords": list(P_B)}),
    "samples": "0.1\n0.2\n0.4\n",
    "state": json.dumps(_BELL),
}
# The verbs that read files: (kind of file, argv before the two paths, flag of
# the file under test, flag of the other file or None).
_FILE_READERS = {
    "project": ("point", ["project"], "--input", None),
    "test-point-expected": ("point", ["test"], "--expected", "--observed"),
    "test-point-observed": ("point", ["test"], "--observed", "--expected"),
    "test-samples-expected": ("samples", ["test", "--mode", "samples"], "--expected", "--observed"),
    "test-samples-observed": ("samples", ["test", "--mode", "samples"], "--observed", "--expected"),
    "bound-rho": ("state", ["bound"], "--rho", "--sigma"),
    "bound-sigma": ("state", ["bound"], "--sigma", "--rho"),
}


@pytest.mark.parametrize(
    "reader, name",
    [
        pytest.param(reader, name, id=f"{reader}-{name}")
        for reader, (kind, *_) in _FILE_READERS.items()
        for name in _MALFORMED_FILES[kind]
    ],
)
def test_malformed_input_file_gives_one_error_line(tmp_path, capsys, recwarn, reader, name):
    kind, argv, flag, other_flag = _FILE_READERS[reader]
    bad = tmp_path / "bad"
    content, message = _MALFORMED_FILES[kind][name]
    if content is not None:
        bad.write_text(content)
    argv = [*argv, flag, str(bad)]
    if other_flag is not None:
        good = tmp_path / "good"
        good.write_text(_GOOD_FILES[kind])
        argv += [other_flag, str(good)]
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert message in lines[0]
    assert captured.out == ""
    assert not out.exists()
    assert not recwarn.list  # a warning would reach stderr outside pytest


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
