"""Command-line front end.

Verbs: vertices, graph, analyze, simulate, project, test, bound.  Every
command is deterministic given its flags, writes a complete output file or
standard output ("-"), and exits nonzero with a structured message on any
validation failure without leaving partial files behind.

Start-up is most of a command's time, so only ``strategies``, which every
verb uses, is imported here; each verb imports the other layers it needs:
``graph`` and ``analyze`` geometry, ``simulate`` and ``bound`` quantum,
``project`` manifold, and ``test`` stats (plus manifold in point mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .strategies import (
    BehaviourPoint,
    FULL_26,
    REDUCED_8,
    enumerate_strategies,
    hamming_histogram,
    enumerate_reduced,
    vertex_from_strategy,
    vertex_rows,
    vertices_csv,
    vertices_json,
)

if TYPE_CHECKING:
    from .quantum import DensityMatrix

_REP_FLAGS = {"full": FULL_26, "reduced": REDUCED_8}

# Canonical generator constructions reported by `analyze`: the diagonal picks
# one vertex per first-wing/last-wing class pair, the same-row set fixes the
# first wing and varies the last.
_DIAGONAL_MEMBERS = {FULL_26: (0, 21, 42, 63), REDUCED_8: (0, 5, 10, 15)}
_SAME_ROW_MEMBERS = {FULL_26: (0, 1, 2, 3), REDUCED_8: (0, 1, 2, 3)}


class CliError(Exception):
    """Validation failure surfaced to the user with exit code 1."""


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_output(path_str: str, payload: str) -> None:
    if path_str == "-":
        sys.stdout.write(payload)
        return
    path = Path(path_str)
    tmp = None
    try:
        # A unique name in the target directory, so the final rename is
        # atomic and no other file, nor a concurrent writer, is clobbered.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        # mkstemp creates the file 0600; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        raise CliError(f"cannot write output file {path_str!r}: {exc}")


def _load_json(path_str: str) -> dict:
    try:
        with open(path_str) as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path_str!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path_str!r} is not valid JSON: {exc}")


def _load_behaviour_point(path_str: str) -> BehaviourPoint:
    data = _load_json(path_str)
    if isinstance(data, dict) and "coords" in data:
        return BehaviourPoint.from_json_dict(data)
    if isinstance(data, dict) and "exact_point" in data:
        return BehaviourPoint.from_json_dict(data["exact_point"])
    raise CliError(f"{path_str!r} does not contain a behaviour point")


def _load_density_matrix(path_str: str) -> DensityMatrix:
    from .quantum import DensityMatrix

    data = _load_json(path_str)
    if not isinstance(data, dict):
        raise CliError(f"{path_str!r} does not contain a density matrix")
    return DensityMatrix.from_json_dict(data)


def _read_samples(path_str: str) -> np.ndarray:
    """Sample CSV: one real per line, or rows of comma-separated coordinates."""
    try:
        with open(path_str) as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {path_str!r}: {exc}")
    if not lines:
        raise CliError(f"{path_str!r} holds no samples")
    rows = []
    for index, line in enumerate(lines):
        cells = [cell.strip() for cell in line.split(",")]
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            if index == 0:
                continue  # header row
            raise CliError(f"{path_str!r} line {index + 1} is not numeric")
    if not rows:
        raise CliError(f"{path_str!r} holds no numeric rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise CliError(f"{path_str!r} has ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=float)


def svd_layout(rows) -> np.ndarray:
    """3-D node layout from the vertex table.

    Columns are centered, the all-zero vertex is first replaced by a tiny
    uniform shift (1e-6) to keep it off the exact origin, and nodes are
    projected onto the three leading right-singular directions.  Each
    direction's sign is fixed by making its largest-magnitude entry positive,
    so the layout is fully deterministic.
    """
    matrix = np.array(rows, dtype=float)
    zero_rows = ~matrix.any(axis=1)
    matrix[zero_rows] = 1e-6
    centered = matrix - matrix.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:3].copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return centered @ basis.T


def _cmd_vertices(args) -> str:
    representation = _REP_FLAGS[args.rep]
    if args.format == "csv":
        return vertices_csv(representation)
    if args.format == "json":
        return vertices_json(representation)
    raise CliError(f"vertices does not support format {args.format!r}")


def _cmd_graph(args) -> str:
    from . import geometry

    representation = _REP_FLAGS[args.rep]
    graph = geometry.build_visibility_graph(representation)
    layout = None
    if args.layout == "svd":
        layout = svd_layout(vertex_rows(representation))
    if args.format == "dot":
        if layout is not None:
            raise CliError("svd layout output requires json or csv format")
        return geometry.graph_to_dot(graph)
    if args.format == "csv":
        if layout is None:
            raise CliError("csv format for graph requires --layout svd")
        lines = ["x,y,z"]
        lines.extend(",".join(f"{value:.12g}" for value in row) for row in layout)
        return "\n".join(lines) + "\n"
    payload = {
        "representation": representation,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "edges": graph.edges().tolist(),
    }
    if layout is not None:
        payload["layout"] = [[float(v) for v in row] for row in layout]
    return _json_text(payload)


def _cmd_analyze(args) -> str:
    from . import geometry

    representation = _REP_FLAGS[args.rep]
    graph = geometry.build_visibility_graph(representation)
    _, apsp_max = geometry.all_pairs_shortest_paths(graph)
    generators = geometry.minimum_generators(graph)
    cliques = geometry.maximal_convex_clusters(graph)
    if representation == FULL_26:
        strategies = enumerate_strategies()
        per_vertex = [
            geometry.classify_from(s, strategies) for s in strategies
        ]
        vertices = [vertex_from_strategy(s) for s in strategies]
    else:
        vertices = enumerate_reduced()
        per_vertex = None
    histogram = hamming_histogram(vertices)
    payload = {
        "representation": representation,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "apsp_max": apsp_max,
        "min_generators": generators.to_json_dict(),
        "generator_constructions": {
            "diagonal": geometry.verify_generator_set(
                graph, _DIAGONAL_MEMBERS[representation]
            ).to_json_dict(),
            "same_row": geometry.verify_generator_set(
                graph, _SAME_ROW_MEMBERS[representation]
            ).to_json_dict(),
        },
        "cliques": {
            "count": len(cliques),
            "sizes": sorted({len(c) for c in cliques}),
            "members": [list(c) for c in cliques],
        },
        "hamming_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    if per_vertex is not None:
        payload["classification"] = {
            "per_vertex": [
                {status.value: counts[status] for status in geometry.VisibilityStatus}
                for counts in per_vertex
            ],
            "uniform": len({tuple(sorted(c.items(), key=lambda kv: kv[0].value)) for c in per_vertex}) == 1,
        }
    return _json_text(payload)


def _cmd_simulate(args) -> str:
    from . import quantum

    if args.shots < 0:
        raise CliError("shots must be non-negative")
    rho, measurements, shape = quantum.qkd_scenario(args.kind, args.noise)
    distribution = quantum.behaviour_from_state(rho, measurements, shape)
    audit = quantum.no_signalling_check(distribution)
    exact = quantum.collapse(distribution)
    sampled = errors = None
    if args.shots > 0:
        point, ses = quantum.sample_behaviour(rho, measurements, shape, args.shots, args.seed)
        sampled = point.to_json_dict()
        errors = [float(v) for v in ses]
    payload = {
        "kind": args.kind,
        "noise": args.noise,
        "shots": args.shots,
        "seed": args.seed,
        "shape": {"n": shape.n, "m": shape.m, "d": shape.d},
        "exact_point": exact.to_json_dict(),
        "distribution": distribution.to_json_dict(),
        "sampled_point": sampled,
        "standard_errors": errors,
        "no_signalling_ok": bool(audit),
    }
    return _json_text(payload)


def _cmd_project(args) -> str:
    from . import manifold

    point = _load_behaviour_point(args.input)
    return _json_text(manifold.project(point).to_json_dict())


def _test_point_mode(args) -> dict:
    from . import manifold, stats

    expected = _load_behaviour_point(args.expected)
    observed = _load_behaviour_point(args.observed)
    for name, point in (("expected", expected), ("observed", observed)):
        if point.representation != REDUCED_8:
            raise CliError(f"{name} point must be reduced-8, got {point.representation}")
    sigma_d = stats.distance_sigma(expected, args.noise, absolute=args.absolute)
    report = stats.gaussian_separability(expected, observed, sigma_d, args.alpha)
    projection_observed = manifold.project(observed)
    projection_expected = manifold.project(expected)
    score = None  # reference already on the manifold
    if projection_expected.distance > manifold.DEGENERATE_TOL:
        score = projection_observed.distance / projection_expected.distance
    return {
        "mode": "point",
        "report": report.to_json_dict(),
        "projection_distance_observed": projection_observed.distance,
        "projection_distance_expected": projection_expected.distance,
        "normalized_score": score,
    }


def _test_samples_mode(args) -> dict:
    from . import stats

    expected = _read_samples(args.expected)
    observed = _read_samples(args.observed)
    if expected.shape[1] != observed.shape[1]:
        raise CliError(
            f"sample files disagree on column count ({expected.shape[1]} vs {observed.shape[1]})"
        )
    per_coordinate = [
        {
            "t_p_value": stats.two_sample_t(expected[:, k], observed[:, k]),
            "ks_p_value": stats.two_sample_ks(expected[:, k], observed[:, k]),
        }
        for k in range(expected.shape[1])
    ]
    distance_block = None
    if expected.shape[1] > 1:
        center = expected.mean(axis=0)
        dist_expected = np.linalg.norm(expected - center, axis=1)
        dist_observed = np.linalg.norm(observed - center, axis=1)
        distance_block = {
            "t_p_value": stats.two_sample_t(dist_expected, dist_observed),
            "ks_p_value": stats.two_sample_ks(dist_expected, dist_observed),
        }
    p_values = [p for block in per_coordinate for p in block.values()]
    if distance_block:
        p_values.extend(distance_block.values())
    return {
        "mode": "samples",
        "columns": int(expected.shape[1]),
        "per_coordinate": per_coordinate,
        "distance_statistic": distance_block,
        "alpha": args.alpha,
        "min_p_value": min(p_values),
        "reject_any": bool(min(p_values) < args.alpha),
    }


def _cmd_test(args) -> str:
    if not 0.0 < args.alpha < 1.0:
        raise CliError("alpha must lie strictly between 0 and 1")
    if args.mode == "point":
        return _json_text(_test_point_mode(args))
    return _json_text(_test_samples_mode(args))


def _cmd_bound(args) -> str:
    from . import quantum

    rho = _load_density_matrix(args.rho)
    sigma = _load_density_matrix(args.sigma)
    report = quantum.behaviour_bound_check(rho, sigma)
    f = quantum.fidelity(rho, sigma)
    bounds_hold = quantum.fidelity_bounds_check(rho, sigma)
    payload = {
        "behaviour": report.to_json_dict(),
        "fidelity": f,
        "fidelity_lower_bound": 1.0 - float(np.sqrt(f)),
        "fidelity_upper_bound": float(np.sqrt(max(1.0 - f, 0.0))),
        "trace_distance": report.delta_ab,
        "fidelity_bounds_hold": bounds_hold,
    }
    return _json_text(payload)


_DISPATCH = {
    "vertices": _cmd_vertices,
    "graph": _cmd_graph,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "project": _cmd_project,
    "test": _cmd_test,
    "bound": _cmd_bound,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3poly",
        description="Vertex tables, visibility graphs, simulation and tests for the three-party chain scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=None):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        if formats:
            p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("vertices", help="emit the canonical vertex table")
    p.add_argument("--rep", choices=("full", "reduced"), default="full")
    add_common(p, formats=("csv", "json"))

    p = sub.add_parser("graph", help="emit the visibility graph, optionally with a 3-D layout")
    p.add_argument("--rep", choices=("full", "reduced"), default="full")
    p.add_argument("--layout", choices=("none", "svd"), default="none")
    add_common(p, formats=("dot", "json", "csv"))

    p = sub.add_parser("analyze", help="full structural report for one representation")
    p.add_argument("--rep", choices=("full", "reduced"), default="full")
    add_common(p)

    p = sub.add_parser("simulate", help="run the two-user protocol scenario")
    p.add_argument("--kind", choices=("honest", "intercepted"), required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--shots", type=int, default=0, help="0 = exact point only")
    p.add_argument("--seed", type=int, default=42)
    add_common(p)

    p = sub.add_parser("project", help="project a behaviour point onto the uncorrelated manifold")
    p.add_argument("--input", required=True, help="behaviour point JSON (or simulate output)")
    add_common(p)

    p = sub.add_parser("test", help="statistical comparison of expected vs observed")
    p.add_argument("--expected", required=True)
    p.add_argument("--observed", required=True)
    p.add_argument("--mode", choices=("point", "samples"), default="point")
    p.add_argument("--noise", type=float, default=0.05, help="per-coordinate noise scale")
    p.add_argument("--absolute", action="store_true", help="treat noise as absolute, not relative")
    p.add_argument("--alpha", type=float, default=0.01)
    add_common(p)

    p = sub.add_parser("bound", help="norm chain and fidelity bounds for two states")
    p.add_argument("--rho", required=True, help="density matrix JSON")
    p.add_argument("--sigma", required=True, help="density matrix JSON")
    add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _DISPATCH[args.command](args)
        _write_output(args.output, payload)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
