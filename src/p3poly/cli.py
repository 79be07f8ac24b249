"""Command-line front end.

Verbs: vertices, graph, analyze, simulate, project, test, bound.  Every
command is deterministic given its flags, writes a complete output file or
standard output ("-"), and exits nonzero with a structured message on any
validation failure without leaving partial files behind.

Start-up is most of a command's time, so only ``strategies``, which every
verb uses, is imported here, and no layer imports ``dataclasses`` (~11 ms
with the modules it pulls in); each verb imports the other layers it needs:
``graph`` and ``analyze`` geometry, ``simulate`` and ``bound`` quantum,
``project`` manifold, and ``test`` stats (plus manifold in point mode);
``graph --format csv`` writes only the SVD layout and loads no layer.
``project`` and ``test`` read and check their input files before they import
a layer, and ``bound`` reads and parses both state files before it imports
quantum.  numpy is imported only where a quantum state is computed, by
``simulate`` and ``bound``: every other verb runs without it, the SVD layout
and both modes of ``test`` included, and so does a ``bound`` whose state file
is rejected while it is parsed.  Input JSON is parsed strictly: the constants
NaN, Infinity and -Infinity are refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import suppress
from pathlib import Path

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


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _load_json(path_str: str) -> dict:
    text = _read_text(path_str)
    try:
        # No accepted input holds NaN or an infinity, and strict JSON has neither.
        return json.loads(text, parse_constant=_refuse_constant)
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


def _load_state_document(path_str: str) -> dict:
    data = _load_json(path_str)
    if not isinstance(data, dict):
        raise ValueError(f"{path_str!r} does not contain a density matrix")
    return data


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _read_samples(path_str: str) -> list[list[float]]:
    """Sample CSV: one real per line, or rows of comma-separated coordinates."""
    lines = [
        (number, line.strip())
        for number, line in enumerate(_read_text(path_str).split("\n"), 1)
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"{path_str!r} holds no samples")
    rows = []
    for index, (number, line) in enumerate(lines):
        cells = line.split(",")
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            # The first line is a header only if it holds no number.
            if index or any(_number(cell) is not None for cell in cells):
                raise ValueError(f"{path_str!r} line {number} is not numeric") from None
    if not rows:
        raise ValueError(f"{path_str!r} holds no numeric rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"{path_str!r} has ragged rows (widths {sorted(widths)})")
    return rows


def _symmetric_eigen(matrix: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (the columns of the second result) of a
    real symmetric matrix, by the cyclic Jacobi method (Golub & Van Loan,
    *Matrix Computations*, section 8.5).

    Each rotation zeroes one off-diagonal pair.  Sweeps over all pairs run
    until the entries above the diagonal have at most 2**-52 of the
    matrix's Frobenius norm, which bounds each eigenvalue's error by about
    that fraction of the norm.
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    v = [[float(i == j) for j in range(size)] for i in range(size)]
    norm = math.fsum(x * x for row in a for x in row)
    for _ in range(64):
        off = math.fsum(a[p][q] * a[p][q] for p in range(size) for q in range(p + 1, size))
        if off <= 2.0**-104 * norm:
            return [a[k][k] for k in range(size)], v
        for p in range(size - 1):
            for q in range(p + 1, size):
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                if apq == 0.0:
                    continue
                # The rotation angle's tangent t, the smaller root of
                # t**2 + 2 theta t - 1 = 0; theta past ~1e154 gives t = 0.
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # Rows and columns p and q turn; the 2 x 2 block is set after.
                row_p, row_q = a[p], a[q]
                for k, row in enumerate(a):
                    akp, akq = row[p], row[q]
                    row[p] = row_p[k] = c * akp - s * akq
                    row[q] = row_q[k] = s * akp + c * akq
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for row in v:
                    vkp, vkq = row[p], row[q]
                    row[p] = c * vkp - s * vkq
                    row[q] = s * vkp + c * vkq
    raise ArithmeticError("Jacobi eigen-solve did not converge")


def svd_layout(rows) -> list[list[float]]:
    """3-D node layout from the vertex table, one [x, y, z] row per vertex.

    Columns are centered, the all-zero vertex is first replaced by a tiny
    uniform shift (1e-6) to keep it off the exact origin, and nodes are
    projected onto the three leading right-singular directions: the
    eigenvectors of the centered table's Gram matrix with the largest
    eigenvalues, taken in descending order by a stable sort.  Each
    direction's sign is fixed by making its first largest-magnitude entry
    positive.  The arithmetic is + - * / and sqrt, which IEEE 754 rounds
    correctly, and correctly rounded sums, so the layout is fully
    deterministic, to the byte on every platform.
    """
    table = [[float(x) for x in row] if any(row) else [1e-6] * len(row) for row in rows]
    means = [math.fsum(column) / len(table) for column in zip(*table)]
    centered = [[x - mean for x, mean in zip(row, means)] for row in table]
    columns = list(zip(*centered))
    gram = [[math.fsum(x * y for x, y in zip(u, w)) for w in columns] for u in columns]
    values, vectors = _symmetric_eigen(gram)
    basis = []
    for k in sorted(range(len(values)), key=values.__getitem__, reverse=True)[:3]:
        direction = [row[k] for row in vectors]
        if max(direction, key=abs) < 0.0:
            direction = [-x for x in direction]
        basis.append(direction)
    return [[math.fsum(x * y for x, y in zip(row, direction)) for direction in basis] for row in centered]


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
        payload["layout"] = layout
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
        "shape": shape._asdict(),
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
    width = len(expected[0])
    if width != len(observed[0]):
        raise ValueError(f"sample files disagree on column count ({width} vs {len(observed[0])})")
    from . import stats

    columns = list(zip(*expected))
    per_coordinate = [
        {"t_p_value": stats.two_sample_t(xs, ys), "ks_p_value": stats.two_sample_ks(xs, ys)}
        for xs, ys in zip(columns, zip(*observed))
    ]
    distance_block = None
    if width > 1:
        # Each term is divided first, so the sum of a finite column cannot overflow.
        center = [math.fsum([x / len(expected) for x in column]) for column in columns]
        dist_expected = [math.dist(row, center) for row in expected]
        dist_observed = [math.dist(row, center) for row in observed]
        distance_block = {
            "t_p_value": stats.two_sample_t(dist_expected, dist_observed),
            "ks_p_value": stats.two_sample_ks(dist_expected, dist_observed),
        }
    p_values = [p for block in per_coordinate for p in block.values()]
    if distance_block:
        p_values.extend(distance_block.values())
    return {
        "mode": "samples",
        "columns": width,
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
    documents = [_load_state_document(args.rho), _load_state_document(args.sigma)]
    from . import quantum

    rho, sigma = map(quantum.DensityMatrix.from_json_dict, documents)
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
