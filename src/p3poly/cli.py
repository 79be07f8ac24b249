"""Command-line front end.

Verbs: vertices, graph, analyze, simulate, project, test, bound.  Every
command is deterministic given its flags, writes a complete output file or
standard output ("-"), and exits nonzero with a structured message on any
validation failure without leaving partial files behind.

Start-up is most of a command's time, so only ``strategies``, which every
verb uses, is imported here; each verb imports the other layers it needs:
``graph`` and ``analyze`` geometry, ``simulate`` and ``bound`` quantum,
``project`` manifold, and ``test`` stats (plus manifold in point mode);
``graph --format csv`` writes only the SVD layout and loads no layer.
``project`` and ``test`` read and check their input files before they import
a layer.  numpy is imported only by the layers and functions that compute
with arrays, so ``vertices``, ``graph`` without a layout, ``analyze``,
``project`` and point-mode ``test`` run without it, and so do a verb whose
point file is rejected and ``graph`` with a rejected format and layout pair.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .strategies import (
    BehaviourPoint,
    FULL_26,
    REDUCED_8,
    _check_int,
    _check_real,
    enumerate_strategies,
    hamming_histogram,
    vertex_rows,
    vertices_csv,
    vertices_json,
)

if TYPE_CHECKING:
    import numpy as np

    from .quantum import DensityMatrix

_REP_FLAGS = {"full": FULL_26, "reduced": REDUCED_8}

# Canonical generator constructions reported by `analyze`: the diagonal picks
# one vertex per first-wing/last-wing class pair, the same-row set fixes the
# first wing and varies the last.
_DIAGONAL_MEMBERS = {FULL_26: (0, 21, 42, 63), REDUCED_8: (0, 5, 10, 15)}
_SAME_ROW_MEMBERS = {FULL_26: (0, 1, 2, 3), REDUCED_8: (0, 1, 2, 3)}


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
        raise ValueError(f"cannot write output file {path_str!r}: {exc.strerror}")


def _read_text(path_str: str) -> str:
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        with open(path_str, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path_str!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path_str!r}: {exc}")


def _load_json(path_str: str) -> dict:
    text = _read_text(path_str)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or nesting past the stack.
        raise ValueError(f"{path_str!r} is not valid JSON: {exc}")


def _load_behaviour_point(path_str: str) -> BehaviourPoint:
    data = _load_json(path_str)
    if isinstance(data, dict) and "coords" in data:
        return BehaviourPoint.from_json_dict(data)
    if isinstance(data, dict) and "exact_point" in data:
        return BehaviourPoint.from_json_dict(data["exact_point"])
    raise ValueError(f"{path_str!r} does not contain a behaviour point")


def _load_density_matrix(path_str: str) -> DensityMatrix:
    from .quantum import DensityMatrix

    data = _load_json(path_str)
    if not isinstance(data, dict):
        raise ValueError(f"{path_str!r} does not contain a density matrix")
    return DensityMatrix.from_json_dict(data)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _read_samples(path_str: str) -> np.ndarray:
    """Sample CSV: one real per line, or rows of comma-separated coordinates."""
    import numpy as np

    lines = [line.strip() for line in _read_text(path_str).split("\n") if line.strip()]
    if not lines:
        raise ValueError(f"{path_str!r} holds no samples")
    rows = []
    for index, line in enumerate(lines):
        row = [_number(cell) for cell in line.split(",")]
        if None not in row:
            rows.append(row)
        elif index or row.count(None) < len(row):  # line 1 is a header only if it holds no number
            raise ValueError(f"{path_str!r} line {index + 1} is not numeric")
    if not rows:
        raise ValueError(f"{path_str!r} holds no numeric rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"{path_str!r} has ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=float)


def svd_layout(rows) -> np.ndarray:
    """3-D node layout from the vertex table.

    Columns are centered, the all-zero vertex is first replaced by a tiny
    uniform shift (1e-6) to keep it off the exact origin, and nodes are
    projected onto the three leading right-singular directions.  Each
    direction's sign is fixed by making its largest-magnitude entry positive,
    so the layout is fully deterministic.
    """
    import numpy as np

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
    export = vertices_csv if args.format == "csv" else vertices_json
    return export(_REP_FLAGS[args.rep])


def _cmd_graph(args) -> str:
    # The flag pair is checked first, so a rejected pair loads and computes nothing.
    if args.format == "dot" and args.layout == "svd":
        raise ValueError("svd layout output requires json or csv format")
    if args.format == "csv" and args.layout != "svd":
        raise ValueError("csv format for graph requires --layout svd")
    representation = _REP_FLAGS[args.rep]
    layout = svd_layout(vertex_rows(representation)) if args.layout == "svd" else None
    if args.format == "csv":  # the layout alone: no graph, so no geometry layer
        lines = ["x,y,z"]
        lines.extend(",".join(f"{value:.12g}" for value in row) for row in layout)
        return "\n".join(lines) + "\n"
    from . import geometry

    graph = geometry.build_visibility_graph(representation)
    if args.format == "dot":
        return geometry.graph_to_dot(graph)
    payload = {
        "representation": representation,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "edges": [list(edge) for edge in graph.edges()],
    }
    if layout is not None:
        payload["layout"] = [[float(v) for v in row] for row in layout]
    return _json_text(payload)


def _cmd_analyze(args) -> str:
    from . import geometry

    representation = _REP_FLAGS[args.rep]
    graph = geometry.build_visibility_graph(representation)
    generators = geometry.minimum_generators(graph)
    cliques = geometry.maximal_convex_clusters(graph)
    per_vertex = None
    if representation == FULL_26:
        strategies = enumerate_strategies()
        per_vertex = [geometry.classify_from(s, strategies) for s in strategies]
    histogram = hamming_histogram(vertex_rows(representation))
    payload = {
        "representation": representation,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "apsp_max": geometry.diameter(graph),
        "min_generators": generators.to_json_dict(),
        "generator_constructions": {
            name: geometry.verify_generator_set(graph, members[representation]).to_json_dict()
            for name, members in (("diagonal", _DIAGONAL_MEMBERS), ("same_row", _SAME_ROW_MEMBERS))
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
            "uniform": all(counts == per_vertex[0] for counts in per_vertex),
        }
    return _json_text(payload)


def _cmd_simulate(args) -> str:
    from . import quantum

    _check_int("shots", args.shots, 0)
    _check_int("seed", args.seed, 0)
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
        "shape": asdict(shape),
        "exact_point": exact.to_json_dict(),
        "distribution": distribution.to_json_dict(),
        "sampled_point": sampled,
        "standard_errors": errors,
        "no_signalling_ok": bool(audit),
    }
    return _json_text(payload)


def _cmd_project(args) -> str:
    point = _load_behaviour_point(args.input)
    from . import manifold

    return _json_text(manifold.project(point).to_json_dict())


def _test_point_mode(args) -> dict:
    expected = _load_behaviour_point(args.expected)
    observed = _load_behaviour_point(args.observed)
    for name, point in (("expected", expected), ("observed", observed)):
        if point.representation != REDUCED_8:
            raise ValueError(f"{name} point must be reduced-8, got {point.representation}")
    from . import manifold, stats

    sigma_d = stats.distance_sigma(expected, args.noise, absolute=args.absolute)
    if sigma_d == 0.0:
        raise ValueError(
            f"noise {args.noise} gives the expected point a zero distance sigma:"
            " use noise > 0, and --absolute when every expected coordinate is 0"
        )
    report = stats.gaussian_separability(expected, observed, sigma_d, args.alpha)
    projection_observed = manifold.project(observed)
    projection_expected = manifold.project(expected)
    return {
        "mode": "point",
        "report": report.to_json_dict(),
        "projection_distance_observed": projection_observed.distance,
        "projection_distance_expected": projection_expected.distance,
        # None when the reference already lies on the manifold.
        "normalized_score": manifold.distance_ratio(
            projection_observed.distance, projection_expected.distance
        ),
    }


def _test_samples_mode(args) -> dict:
    expected = _read_samples(args.expected)
    observed = _read_samples(args.observed)
    if expected.shape[1] != observed.shape[1]:
        raise ValueError(
            f"sample files disagree on column count ({expected.shape[1]} vs {observed.shape[1]})"
        )
    import numpy as np

    from . import stats

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
    _check_real("alpha", args.alpha, 0, 1, strict=True)
    if args.mode == "point":
        return _json_text(_test_point_mode(args))
    return _json_text(_test_samples_mode(args))


def _cmd_bound(args) -> str:
    from . import quantum

    rho = _load_density_matrix(args.rho)
    sigma = _load_density_matrix(args.sigma)
    report = quantum.behaviour_bound_check(rho, sigma)
    f = quantum.fidelity(rho, sigma)
    d = report.delta_ab
    # The verdict compares the upper bound squared, D**2 <= 1 - F; the two
    # "_squared" keys are the numbers it compares.
    payload = {
        "behaviour": report.to_json_dict(),
        "fidelity": f,
        "fidelity_lower_bound": 1.0 - math.sqrt(f),
        "fidelity_upper_bound": math.sqrt(max(1.0 - f, 0.0)),
        "fidelity_upper_bound_squared": 1.0 - f,
        "trace_distance": d,
        "trace_distance_squared": d * d,
        "fidelity_bounds_hold": quantum._fidelity_bounds_hold(f, d),
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
