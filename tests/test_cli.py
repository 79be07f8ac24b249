"""End-to-end command-line tests.

Each command is driven through main(argv); outputs are parsed back and
checked against the frozen references.  Also pins the determinism contract
(byte-identical repeated runs, and recorded digests of the structural
outputs) and the structured-error exit paths.
"""

import hashlib
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from p3poly import linalg as la
from p3poly import quantum as qu
from p3poly import stats as sta
from p3poly.cli import main, svd_layout
from p3poly.strategies import BehaviourPoint, vertex_rows, FULL_26, REDUCED_8

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
    layout = np.asarray(svd_layout(vertex_rows(REDUCED_8)))
    assert layout.shape == (16, 3)
    again = np.asarray(svd_layout(vertex_rows(REDUCED_8)))
    assert np.array_equal(layout, again)
    # Centered: column means vanish.
    assert np.abs(layout.mean(axis=0)).max() < 1e-9


@pytest.mark.parametrize("representation", [REDUCED_8, FULL_26])
def test_svd_layout_is_the_leading_principal_components(representation):
    # numpy's SVD is the oracle here only.  The spectrum is degenerate (2.5243
    # twice in reduced-8, 6.3723 three times in full-26), so the directions
    # are checked as eigenvectors, not against numpy's choice of basis.
    rows = vertex_rows(representation)
    layout = svd_layout(rows)
    assert all(type(x) is float for row in layout for x in row)
    layout = np.asarray(layout)
    table = np.array(rows, dtype=float)
    table[~table.any(axis=1)] = 1e-6
    centered = table - table.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    norms = np.linalg.norm(layout, axis=0)
    assert norms == pytest.approx(singular[:3], rel=1e-12)
    gram = layout.T @ layout
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12 * singular[0] ** 2
    # The basis is recovered exactly: layout = centered @ basis.T, with
    # orthonormal rows, so basis = (centered^+ layout).T.
    basis = np.linalg.lstsq(centered, layout, rcond=None)[0].T
    assert basis @ basis.T == pytest.approx(np.eye(3), abs=1e-12)
    for direction, value in zip(basis, singular[:3] ** 2):
        residual = centered.T @ centered @ direction - value * direction
        assert np.abs(residual).max() < 1e-12 * singular[0] ** 2
        # Sign rule: the largest-magnitude entry is positive.  Entries can
        # tie in magnitude, and which of them comes first is then down to
        # rounding, so a positive one among those within 1e-12 suffices.
        assert direction.max() > np.abs(direction).max() - 1e-12


def test_analyze_full(tmp_path):
    code, out = run(tmp_path, "analyze", "--rep", "full")
    assert code == 0
    payload = read_json(out)
    assert payload["apsp_max"] == 2
    assert len(payload["min_generators"]["members"]) == 4
    assert payload["min_generators"]["complete"] is True
    assert payload["min_generators"]["covered_count"] == 64
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
# re-record the digest.  The SVD layouts are among them: they are computed
# with correctly rounded operations only, so they are the same bytes on every
# platform.
STRUCTURAL_DIGESTS = {
    ("vertices", "full", "csv", None): "e559cb81f86ab6a5ed785f805104e79eac5698fddc0bb40542178bd06cfcb37e",
    ("vertices", "full", "json", None): "c8c0e2711218add96b864ecdf00743cb7d7168a7ec969f00517a3979fe05090d",
    ("graph", "full", "dot", None): "815ff23bf93b51037fa9d753ceaf8be68537996dbe4340e12a6e17be8600149d",
    ("graph", "full", "json", None): "6e182617017a6e6f26a88bc4971f3ff05a5106b2ed0ee710039e3d5ae218eed7",
    ("graph", "full", "csv", "svd"): "ef53c73cf9b9a5f2dc450e3e5eb4aec5b0fba0fa0469474b6132ef3ff06a78a2",
    ("graph", "full", "json", "svd"): "e0f080a4566237bb7ba49443c61f9dc37af8d9ecb680de25d9050988b7d55dcb",
    ("analyze", "full", None, None): "60cc542fbace52503d58daf69c65b4d7fba1646868c0900f0e73e8921aba6ce5",
    ("vertices", "reduced", "csv", None): "149f3191a435ab907e57f205da5ecd17876e654c4eb0337ad504b17336cc414d",
    ("vertices", "reduced", "json", None): "b57ed8831b1f8ba79f20d1911188f9a2c734edbaf9a609d1006f0f79faaa545f",
    ("graph", "reduced", "dot", None): "22edb6ee2e519689e1eb43ad320df267749e2bd5b1e00ee301c46df4242fb005",
    ("graph", "reduced", "json", None): "abadc6bc676aa38bcef825775a68354f4335323347f8e29f557bf0b95f195753",
    ("graph", "reduced", "csv", "svd"): "59d6ab50047b1399136d0f12431dd828b7e1dc551b89fc8c361e1f7713228cf8",
    ("graph", "reduced", "json", "svd"): "0e64de0c0f194062769d0af8256c58be43289a1d392e029b462f66c4366fa464",
    ("analyze", "reduced", None, None): "e3f5fc47ccfe35f4952c749b5e21ca5dd50a3a41a945f307c99d7900c640bcac",
}


@pytest.mark.parametrize(
    "verb, rep, fmt, layout",
    list(STRUCTURAL_DIGESTS),
    ids=["-".join(filter(None, key)) for key in STRUCTURAL_DIGESTS],
)
def test_structural_stdout_is_byte_identical(capsys, verb, rep, fmt, layout):
    argv = [verb, "--rep", rep, *(["--format", fmt] if fmt else []), *(["--layout", layout] if layout else [])]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STRUCTURAL_DIGESTS[verb, rep, fmt, layout]


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


# Noise levels for the exact tables: the ends, the smallest subnormal, the
# largest float below 1 and a few in between.
_NOISES = [0.0, 5e-324, 1e-12, 0.03, 0.1, 0.5, 1.0 - 2.0**-53, 1.0]


@pytest.mark.parametrize("kind", ["honest", "intercepted"])
@pytest.mark.parametrize("noise", _NOISES)
def test_exact_simulate_is_the_born_rule_of_its_scenario(tmp_path, kind, noise):
    # The closed-form table against the Born rule on the scenario's state.
    code, out = run(tmp_path, "simulate", "--kind", kind, "--noise", repr(noise))
    assert code == 0
    payload = read_json(out)
    assert payload["noise"] == noise
    distribution = qu.behaviour_from_state(*qu.qkd_scenario(kind, noise))
    reference = distribution.to_json_dict()
    table = payload["distribution"].pop("table")
    assert payload["distribution"] == {key: reference[key] for key in reference if key != "table"}
    assert table.keys() == reference["table"].keys()
    for key, block in reference["table"].items():
        assert np.abs(np.subtract(table[key], block)).max() <= 1e-15
    exact = qu.collapse(distribution).to_json_dict()
    coords = payload["exact_point"].pop("coords")
    assert payload["exact_point"] == {key: exact[key] for key in exact if key != "coords"}
    assert np.abs(np.subtract(coords, exact["coords"])).max() <= 1e-15
    assert payload["no_signalling_ok"] is bool(qu.no_signalling_check(distribution))


def test_exact_simulate_is_exact(tmp_path):
    _, out = run(tmp_path, "simulate", "--kind", "honest")
    honest = read_json(out)
    for key, block in honest["distribution"]["table"].items():
        assert block == ([0.5, 0.0, 0.0, 0.5] if key in ("0,0", "1,1") else [0.25] * 4)
    assert honest["exact_point"]["coords"] == list(P_B)
    _, out = run(tmp_path, "simulate", "--kind", "intercepted", "--noise", "0.3")
    intercepted = read_json(out)
    assert all(block == [0.25] * 4 for block in intercepted["distribution"]["table"].values())
    assert intercepted["exact_point"]["coords"] == list(P_U)


@pytest.mark.parametrize("kind", ["honest", "intercepted"])
def test_simulate_shots_are_the_samplers(tmp_path, kind):
    code, out = run(tmp_path, "simulate", "--kind", kind, "--noise", "0.1", "--shots", "5000", "--seed", "7")
    assert code == 0
    payload = read_json(out)
    point, errors = qu.sample_behaviour(*qu.qkd_scenario(kind, 0.1), 5000, 7)
    assert payload["sampled_point"] == point.to_json_dict()
    assert payload["standard_errors"] == errors.tolist()


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


def test_test_point_mode_reports_a_tail_far_past_z_8(tmp_path):
    # The README's honest and intercepted simulate outputs at 3% noise: z ~ 9.2,
    # where 2 * (1 - Phi(z)) cancels to 0.0.
    honest, intercepted = tmp_path / "honest.json", tmp_path / "intercepted.json"
    assert main(["simulate", "--kind", "honest", "--output", str(honest)]) == 0
    assert main(["simulate", "--kind", "intercepted", "--noise", "0.1", "--output", str(intercepted)]) == 0
    code, out = run(
        tmp_path, "test", "--expected", str(honest), "--observed", str(intercepted), "--noise", "0.03"
    )
    assert code == 0
    report = read_json(out)["report"]
    assert report["p_value"] == pytest.approx(2.35e-20, rel=1e-3, abs=0.0)
    assert report["p_value"] == pytest.approx(2.0 * scipy.special.ndtr(-report["z"]), rel=1e-13, abs=0.0)
    assert report["reject"] is True


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


def _numpy_welch_t(xs, ys):
    # Welch's t on numpy means and variances, with scipy's Student-t tail.
    sem_x, sem_y = xs.var(ddof=1) / xs.size, ys.var(ddof=1) / ys.size
    t = (xs.mean() - ys.mean()) / math.sqrt(sem_x + sem_y)
    df = (sem_x + sem_y) ** 2 / (sem_x**2 / (xs.size - 1) + sem_y**2 / (ys.size - 1))
    return 2.0 * scipy.special.stdtr(df, -abs(t))


def _numpy_ks(xs, ys):
    # The KS statistic from searchsorted CDF gaps at every pooled value.
    xs, ys = np.sort(xs), np.sort(ys)
    pooled = np.concatenate([xs, ys])
    gaps = np.searchsorted(xs, pooled, side="right") / xs.size - np.searchsorted(ys, pooled, side="right") / ys.size
    ne = math.sqrt(xs.size * ys.size / (xs.size + ys.size))
    return sta._kolmogorov_sf((ne + 0.12 + 0.11 / ne) * np.abs(gaps).max())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_samples_mode_p_values_match_a_numpy_formulation(tmp_path, seed):
    # Two 2000 x 8 sample files with a header line, as a long experiment
    # would give; every cell round-trips through its 17 digits.
    rng = np.random.default_rng(seed)
    samples = []
    for name in ("expected.csv", "observed.csv"):
        samples.append(rng.normal(0.5, 0.1, size=(2000, 8)))
        lines = [",".join(f"x{k}" for k in range(8))]
        lines += [",".join(f"{v:.17g}" for v in row) for row in samples[-1]]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    code, out = run(
        tmp_path, "test", "--mode", "samples",
        "--expected", str(tmp_path / "expected.csv"), "--observed", str(tmp_path / "observed.csv"),
    )
    assert code == 0
    payload = read_json(out)
    expected, observed = samples
    center = expected.mean(axis=0)
    pairs = [(expected[:, k], observed[:, k]) for k in range(8)]
    pairs.append((np.linalg.norm(expected - center, axis=1), np.linalg.norm(observed - center, axis=1)))
    for (xs, ys), block in zip(pairs, [*payload["per_coordinate"], payload["distance_statistic"]], strict=True):
        assert block["ks_p_value"] == pytest.approx(_numpy_ks(xs, ys), abs=1e-12)
        assert block["t_p_value"] == pytest.approx(_numpy_welch_t(xs, ys), abs=1e-12)


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


def test_bound_computes_each_quantity_once(tmp_path, monkeypatch):
    # Each state file is read and checked once, with one eigen-solve; then
    # one fidelity on the two checked states, whose singular values take one
    # more eigen-solve, and one trace norm for each of the two marginals and
    # the joint state, all taken on rho - sigma.
    names = ("_read_state", "_symmetric_eigen", "_singular_values", "_fidelity", "_qubit_trace_norm", "_trace_norm")
    calls = {name: [] for name in names}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(la, name)):
            result = _inner(*args)
            calls[_name].append((args, result))
            return result

        monkeypatch.setattr(la, name, counted)
    bell, mixed = qu.bell_pair_state().matrix, np.eye(4, dtype=complex) / 4
    files = []
    for name, matrix in (("bell.json", bell), ("mixed.json", mixed)):
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(qu.DensityMatrix(matrix).to_json_dict()))
    code, _ = run(tmp_path, "bound", "--rho", str(files[0]), "--sigma", str(files[1]))
    assert code == 0
    counts = {name: len(made) for name, made in calls.items()}
    assert counts == dict(zip(names, (2, 4, 1, 1, 2, 1)))
    states = [state for _, state in calls["_read_state"]]
    assert all(a is b for a, b in zip(calls["_fidelity"][0][0], states))
    # The two states and rho - sigma are embedded 8 x 8; the fidelity's 8 x 8
    # core C is solved as [[0, C], [C^T, 0]].
    assert [len(matrix) for (matrix,), _ in calls["_symmetric_eigen"]] == [8, 8, 8, 16]
    ((core,), _), = calls["_singular_values"]
    assert len(core) == 8 and all(len(row) == 8 for row in core)
    delta = bell - mixed
    ((re, im), _), = calls["_trace_norm"]
    assert np.array_equal(np.array(re) + 1j * np.array(im), delta)
    for (args, _), keep in zip(calls["_qubit_trace_norm"], ("A", "B")):
        (a, _), (b, d) = qu._partial(delta, (2, 2), keep).tolist()
        assert args == (a.real, d.real, abs(b))


def test_bound_refuses_a_large_state_before_solving(tmp_path, monkeypatch):
    # A state on more than 4 dimensions is refused after the trace check,
    # before the eigen-solve, whose cost grows as the cube of the side.
    solves = []
    solve = la._symmetric_eigen
    monkeypatch.setattr(la, "_symmetric_eigen", lambda matrix: solves.append(len(matrix)) or solve(matrix))
    bell = tmp_path / "bell.json"
    bell.write_text(json.dumps(qu.bell_pair_state().to_json_dict()))
    for n in (5, 16, 64):
        large = tmp_path / f"large-{n}.json"
        large.write_text(json.dumps(qu.random_density_matrix(n, np.random.default_rng(n)).to_json_dict()))
        for flags, solved in ((("--rho", large, "--sigma", bell), []), (("--rho", bell, "--sigma", large), [8])):
            solves.clear()
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["bound", *map(str, flags), "--output", str(tmp_path / "out.json")])
            assert code == 1
            assert err.getvalue().splitlines() == [f"error: state dimension {n} does not match measurement space 4"]
            assert solves == solved


def test_bound_prints_the_numbers_its_verdict_compares(tmp_path):
    # The verdict checks D**2 <= 1 - F.  For nearly identical pure states D
    # can sit above the printed sqrt(1 - F), never above the printed squares.
    rng = np.random.default_rng(12)
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for _ in range(500):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b = a + 1e-8 * (rng.normal(size=4) + 1j * rng.normal(size=4)) / np.sqrt(8)
        b /= np.linalg.norm(b)
        for path, ket in zip(files, (a, b)):
            path.write_text(json.dumps(qu.DensityMatrix(np.outer(ket, ket.conj())).to_json_dict()))
        code, out = run(tmp_path, "bound", "--rho", str(files[0]), "--sigma", str(files[1]))
        assert code == 0
        payload = read_json(out)
        assert payload["trace_distance_squared"] == payload["trace_distance"] ** 2
        assert payload["fidelity_upper_bound_squared"] == 1.0 - payload["fidelity"]
        if payload["fidelity_bounds_hold"]:
            assert payload["trace_distance_squared"] <= payload["fidelity_upper_bound_squared"] + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_bound_holds_for_two_pure_states(tmp_path, seed):
    # Pure states saturate trace distance <= sqrt(1 - F): the fidelity must
    # be exact to well inside the check's 1e-9 tolerance.
    rng = np.random.default_rng(seed)
    files = []
    for name in ("a.json", "b.json"):
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket /= np.linalg.norm(ket)
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(qu.DensityMatrix(np.outer(ket, ket.conj())).to_json_dict()))
    code, out = run(tmp_path, "bound", "--rho", str(files[0]), "--sigma", str(files[1]))
    assert code == 0
    payload = read_json(out)
    assert payload["fidelity_bounds_hold"] is True
    assert payload["trace_distance"] == pytest.approx(payload["fidelity_upper_bound"], abs=1e-9)


_ALPHA_MESSAGE = "alpha must be a finite real number in (0, 1), got {!r}"
# Relative noise 1e-320 on P_B gives a subnormal sigma_d, and the distance
# from P_B to the all-zero point over it overflows.
_TINY_SIGMA_D = sta.distance_sigma(BehaviourPoint.reduced(P_B), 1e-320)
_OVERFLOW_MESSAGE = (
    f"sigma_d {_TINY_SIGMA_D!r} is too small for the distance {math.dist(P_B, [0.0] * 8)!r}: z overflows"
)
_ZERO_SIGMA_MESSAGE = (
    "noise {!r} gives the expected point a zero distance sigma:"
    " use noise > 0, and --absolute when every expected coordinate is 0"
)


@pytest.mark.parametrize(
    "mode, observed, flags, message",
    [
        *[
            pytest.param(
                "point", None, ["--noise", noise], f"noise sigma must be a finite real number >= 0, got {noise}",
                id=f"noise-{noise}",
            )
            for noise in ("nan", "inf")
        ],
        pytest.param(
            "point", None, ["--noise", "1e308", "--absolute"],
            "noise sigma 1e+308 is too large: the distance sigma overflows", id="noise-overflow",
        ),
        *[
            pytest.param(
                mode, None, ["--alpha", alpha], _ALPHA_MESSAGE.format(float(alpha)), id=f"{mode}-alpha-{alpha}"
            )
            for mode in ("point", "samples")
            for alpha in ("0", "1", "5", "nan")
        ],
        pytest.param("point", None, ["--noise", "0"], _ZERO_SIGMA_MESSAGE.format(0.0), id="noise-0"),
        pytest.param(
            "point", json.dumps({"representation": REDUCED_8, "coords": [0.0] * 8}),
            ["--expected", "{observed}"], _ZERO_SIGMA_MESSAGE.format(0.05), id="relative-noise-zero-point",
        ),
        pytest.param(
            "point", json.dumps({"representation": REDUCED_8, "coords": [0.0] * 8}),
            ["--noise", "1e-320"], _OVERFLOW_MESSAGE, id="noise-overflows-z",
        ),
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
    flags = [flag.format(observed=observed_file) for flag in flags]
    assert main([*argv, *flags, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not recwarn.list  # a warning would reach stderr outside pytest


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["graph", "--format", "csv"], "csv format for graph requires --layout svd",
            id="graph-csv-without-layout",
        ),
        pytest.param(
            ["simulate", "--kind", "honest", "--shots", "-1"], "shots must be an int >= 0, got -1",
            id="simulate-negative-shots",
        ),
        pytest.param(
            ["simulate", "--kind", "honest", "--seed", "-1"], "seed must be an int >= 0, got -1",
            id="simulate-negative-seed",
        ),
        pytest.param(
            ["simulate", "--kind", "honest", "--shots", str(2**63)],
            "shots must be an int in 1..9223372036854775807, got 9223372036854775808",
            id="simulate-shots-above-int64",
        ),
        pytest.param(
            ["test", "--mode", "samples", "--expected", "one.csv", "--observed", "two.csv"],
            "sample files disagree on column count (1 vs 2)",
            id="samples-column-counts-differ",
        ),
    ],
)
def test_rejected_flags_give_one_error_line(tmp_path, monkeypatch, capsys, recwarn, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.csv").write_text("0.1\n0.2\n0.4\n")
    (tmp_path / "two.csv").write_text("0.1,0.2\n0.3,0.5\n0.4,0.1\n")
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()
    assert not recwarn.list  # a warning would reach stderr outside pytest


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
# a path with no file behind it, _DIRECTORY for a directory, and bytes for a
# file holding them; for these three the fragment is the reason, and the test
# checks the whole line.
_BELL = qu.bell_pair_state().to_json_dict()
_DIRECTORY = object()
_UNREADABLE = {
    "missing": (None, "No such file or directory"),
    "directory": (_DIRECTORY, "Is a directory"),
    "binary": (b"\xff\xfe\x00", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
}


def _point(coords, representation=REDUCED_8):
    return json.dumps({"representation": representation, "coords": coords})


def _qubit_state(re):
    return json.dumps({"dim": 2, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]})


def _spiked(x):
    # Trace 1 and Hermitian, with eigenvalues 0.5 +/- x.  Past x ~ 1e154 the
    # sum of squared entries overflows unless the Jacobi solve scales first.
    re = [[0.5, x, 0.0, 0.0], [x, 0.5, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    return {"dim": 4, "re": re, "im": [[0.0] * 4] * 4}


# An integer of 5000 digits, past the interpreter's default limit for
# converting text to int, so json.loads itself raises ValueError; the error
# line still names the file (whose name ends in "bad").
_HUGE_DIGITS = "1" * 5000
_PAST_DIGIT_LIMIT = "bad' is not valid JSON: Exceeds the limit (4300 digits)"
# Arrays nested deeper than the interpreter's stack lets json.loads recurse.
_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_DEEP = "bad' is not valid JSON: maximum recursion depth exceeded"
# json.dumps writes NaN and the infinities as bare constants, which strict
# JSON has not; the readers refuse them while parsing.
_CONSTANT = "bad' is not valid JSON: {} is not a finite number"


_MALFORMED_FILES = {
    "point": {
        **_UNREADABLE,
        "not-json": ("{not json", "not valid JSON"),
        "list": ("[]", "does not contain a behaviour point"),
        "no-point": (json.dumps({"exact": {}}), "does not contain a behaviour point"),
        "exact-point-number": (json.dumps({"exact_point": 5}), "needs 'representation'"),
        "no-representation": (json.dumps({"coords": [0] * 8}), "needs 'representation'"),
        "nan": (_point([float("nan")] * 8), _CONSTANT.format("NaN")),
        "infinity": (_point([float("-inf")] + [0.0] * 7), _CONSTANT.format("-Infinity")),
        "huge-int": (_point([10**400] + [0] * 7), "outside [0, 1]: too large for a float"),
        "huge-digits": (_point([0] * 8).replace("[0,", f"[{_HUGE_DIGITS},", 1), _PAST_DIGIT_LIMIT),
        "deep-nesting": (_DEEP, _TOO_DEEP),
        "coords5": (_point(5), "'coords' must be a list"),
        "coords-str": (_point("00000000"), "'coords' must be a list"),
        "coords-bool": (_point([True, False] * 4), "coordinate True is not a real number"),
        "coords-strings": (_point(["0.5"] * 8), "coordinate '0.5' is not a real number"),
        "coords-short": (_point([0.5] * 7), "expected 8 coordinates"),
        "coords-above-one": (_point([2.0] * 8), "outside [0, 1]"),
        "rep-unknown": (_point([0] * 8, "bogus"), "unknown representation"),
        "rep-list": (_point([0] * 8, [REDUCED_8]), "unknown representation"),
        "rep-dict": (_point([0] * 8, {}), "unknown representation"),
    },
    "samples": {
        **_UNREADABLE,
        "empty": ("", "holds no samples"),
        "blank": ("\n \n", "holds no samples"),
        "header-only": ("x,y\n", "holds no numeric rows"),
        "bom-header-only": (b"\xef\xbb\xbfx,y\n", "holds no numeric rows"),
        "bom-first-row-kept": (b"\xef\xbb\xbf0.1,0.2\n0.3\n", "ragged rows (widths [1, 2])"),
        "mistyped-first-line": ("1.0,abc\n2.0,3.0\n", "line 1 is not numeric"),
        "not-numeric": ("0.1\nabc\n0.3\n", "line 2 is not numeric"),
        "blank-line-before-bad": ("0.1\n\nabc\n0.3\n", "line 3 is not numeric"),
        "ragged": ("0.1,0.2\n0.3\n0.4,0.5\n", "ragged rows"),
        "nan-cell": ("0.1\nnan\n0.3\n", "finite samples"),
        "inf-cell": ("0.1\ninf\n0.3\n", "finite samples"),
    },
    "state": {
        **_UNREADABLE,
        "not-json": ("{not json", "not valid JSON"),
        "list": ("[]", "does not contain a density matrix"),
        "no-im": (json.dumps({"dim": 4, "re": _BELL["re"]}), "needs 'dim' and the 're' and 'im'"),
        "dim-null": (json.dumps({**_BELL, "dim": None}), "'dim' must be an int >= 1, got None"),
        "dim-wrong": (json.dumps({**_BELL, "dim": 3}), "'dim' must equal the side of 're' (4, 4), got 3"),
        "dim-object": (json.dumps({**_BELL, "dim": {}}), "'dim' must be an int >= 1, got {}"),
        "dim-string": (json.dumps({**_BELL, "dim": "x"}), "'dim' must be an int >= 1, got 'x'"),
        "dim-true": (json.dumps({**_BELL, "dim": True}), "'dim' must be an int >= 1, got True"),
        "dim-float": (json.dumps({**_BELL, "dim": 4.0}), "'dim' must be an int >= 1, got 4.0"),
        "re-booleans": (json.dumps({**_BELL, "re": [[True] * 4] * 4}), "'re' must be a list"),
        "re-strings": (json.dumps({**_BELL, "re": [["0.25"] * 4] * 4}), "'re' must be a list"),
        "re-flat": (json.dumps({**_BELL, "re": [0.25] * 16}), "'re' must be a list"),
        "re-scalar-string": (json.dumps({**_BELL, "re": "0.25"}), "'re' must be a list"),
        "im-booleans": (json.dumps({**_BELL, "im": [[False] * 4] * 4}), "'im' must be a list"),
        "im-strings": (json.dumps({**_BELL, "im": [["0"] * 4] * 4}), "'im' must be a list"),
        "im-flat": (json.dumps({**_BELL, "im": [0.0] * 16}), "'im' must be a list"),
        "im-scalar-string": (json.dumps({**_BELL, "im": "0"}), "'im' must be a list"),
        "shapes-differ": (json.dumps({**_BELL, "im": [[0.0] * 2] * 2}), "differ in shape"),
        "trace": (_qubit_state([[0.45, 0.0], [0.0, 0.45]]), "trace is not 1 (got 0.9)"),
        "not-hermitian": (_qubit_state([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
        "qubit": (_qubit_state([[1.0, 0.0], [0.0, 0.0]]), "state dimension 2 does not match measurement space 4"),
        "negative": (_qubit_state([[1.5, 0.0], [0.0, -0.5]]), "negative eigenvalue"),
        "spike-1e154": (json.dumps(_spiked(1e154)), "negative eigenvalue (-1.000e+154)"),
        "spike-1e200": (json.dumps(_spiked(1e200)), "negative eigenvalue (-1.000e+200)"),
        "im-overflowing-literal": (
            '{"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [1e400, 0]]}', "has non-finite entries"
        ),
        "nan": (_qubit_state([[float("nan"), 0.0], [0.0, 0.5]]), _CONSTANT.format("NaN")),
        "infinity": (_qubit_state([[float("inf"), 0.0], [0.0, 0.5]]), _CONSTANT.format("Infinity")),
        "huge-int": (_qubit_state([[10**400, 0], [0, 0]]), "'re' holds an entry too large for a float"),
        "huge-digits": (_qubit_state([[0, 0], [0, 1]]).replace("[[0,", f"[[{_HUGE_DIGITS},", 1), _PAST_DIGIT_LIMIT),
        "deep-nesting": (_DEEP, _TOO_DEEP),
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
    if content is _DIRECTORY:
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
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
    if name in _UNREADABLE:
        assert lines[0] == f"error: cannot read {str(bad)!r}: {message}"
    else:
        assert message in lines[0]
    assert captured.out == ""
    assert not out.exists()
    assert not recwarn.list  # a warning would reach stderr outside pytest


@pytest.mark.parametrize("reader", ["project", "test-samples-expected", "bound-rho"])
def test_a_utf8_byte_order_mark_changes_no_output(tmp_path, reader):
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark; each
    # reader skips it, so the first sample row is not taken for a header.
    kind, argv, flag, other_flag = _FILE_READERS[reader]
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).write_bytes(prefix + _GOOD_FILES[kind].encode())
        other = [] if other_flag is None else [other_flag, str(tmp_path / "plain")]
        code, out = run(tmp_path, *argv, flag, str(tmp_path / name), *other)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Arbitrary JSON for the point and state readers: top-level documents, and
# documents whose fields the readers look up hold arbitrary values, some
# shaped like a point's coordinates or a 4 x 4 state table.  Integers run far
# beyond the float range, and floats include nan and +-inf.
_NUMBERS = hs.integers() | hs.integers(-(10**400), 10**400) | hs.floats()
_VALUES = hs.recursive(
    _NUMBERS | hs.none() | hs.booleans() | hs.text(max_size=6) | hs.sampled_from([REDUCED_8, FULL_26]),
    lambda inner: hs.lists(inner, max_size=8) | hs.dictionaries(hs.text(max_size=6), inner, max_size=3),
    max_leaves=16,
)
_TABLES = _VALUES | hs.lists(hs.lists(_NUMBERS, min_size=4, max_size=4), min_size=4, max_size=4)
_FIELDS = hs.builds(
    lambda base, fields: {**base, **fields},
    hs.sampled_from([{}, json.loads(_GOOD_FILES["point"]), _BELL]),
    hs.fixed_dictionaries(
        {},
        optional={
            "coords": _VALUES | hs.lists(_NUMBERS, min_size=8, max_size=8),
            "representation": _VALUES,
            "dim": _VALUES,
            "re": _TABLES,
            "im": _TABLES,
        },
    ),
)
_DOCUMENTS = _VALUES | _FIELDS | _FIELDS.map(lambda point: {"exact_point": point})


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(hs.sampled_from([r for r, (kind, *_) in _FILE_READERS.items() if kind != "samples"]), _DOCUMENTS)
@example("project", {"representation": REDUCED_8, "coords": [10**400] + [0] * 7})
@example("bound-sigma", {**_BELL, "im": [[0, 0, 0, -(10**400)]] + _BELL["im"][1:]})
@example("bound-rho", _spiked(1e200))
@example("bound-sigma", _spiked(1e154))
def test_arbitrary_json_input_never_gives_a_traceback(reader, document):
    kind, argv, flag, other_flag = _FILE_READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        bad, good, out = (os.path.join(tmp, name) for name in ("bad", "good", "out.json"))
        with open(bad, "w") as handle:
            json.dump(document, handle)
        argv = [*argv, flag, bad]
        if other_flag is not None:
            with open(good, "w") as handle:
                handle.write(_GOOD_FILES[kind])
            argv += [other_flag, good]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*argv, "--output", out])
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
            assert not os.path.exists(out)
        else:
            assert err.getvalue() == ""


def assert_write_error(argv, capsys):
    # The error names the user's path and the reason, never the temporary
    # file, so it is the same on every run.
    errors = []
    for _ in range(2):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: cannot write output file ")
    assert ".tmp" not in errors[0]
    return errors[0]


def test_unwritable_output(tmp_path, capsys):
    target = str(tmp_path / "nodir" / "out.csv")
    error = assert_write_error(["vertices", "--output", target], capsys)
    assert error == f"error: cannot write output file {target!r}: No such file or directory\n"


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
    assert_write_error(["vertices", "--output", str(blocked)], capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "v.csv", "v.csv.tmp"]
    assert not any(blocked.iterdir())
