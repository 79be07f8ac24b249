"""Command-line front end.

Verbs: vertices, graph, analyze, simulate, project, test, bound.  Every
command is deterministic given its flags, writes a complete output file or
standard output ("-"), and exits nonzero with a structured message on any
validation failure without leaving partial files behind.

Start-up is most of a command's time, so only ``strategies``, which every
verb uses, is imported here, and no layer imports ``dataclasses`` (~11 ms
with the modules it pulls in); each verb imports the other layers it needs:
``graph`` and ``analyze`` geometry, ``project`` manifold, ``test`` stats
(plus manifold in point mode), and ``bound`` and the SVD layout linalg, the
plain-Python Jacobi solver; ``graph --format csv`` writes only the layout
and loads no other layer.  ``project`` and ``test`` read and check their
input files before they import a layer, and ``bound`` reads both state
files before it imports linalg.  numpy only draws shots: ``simulate --shots
N`` with N > 0 imports quantum for its seeded multinomial draw.  Exact
``simulate`` writes the protocol's Born table from its closed form, and
``bound`` checks and compares the two states on Python floats, so every
other verb runs without numpy.  Input JSON is parsed strictly: the constants
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
    REDUCED_SHAPE,
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
    from .linalg import _symmetric_eigen

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
    _check_int("shots", args.shots, 0)
    _check_int("seed", args.seed, 0)
    _check_real("noise", args.noise, 0, 1)
    # The Z/X protocol's Born table in closed form: p(a, c | x, z) =
    # (1 + (-1)**(a ^ c) * E_xz) / 4 with E_xz = v [x = z], where v = 1 - noise
    # for the depolarized pair and v = 0 for the intercepted line, whose end
    # users hold the product of the pair's I/2 marginals.
    visibility = 1.0 - args.noise if args.kind == "honest" else 0.0
    table = {}
    for x in (0, 1):
        for z in (0, 1):
            e = visibility if x == z else 0.0
            table[f"{x},{z}"] = [(1.0 + e) / 4, (1.0 - e) / 4, (1.0 - e) / 4, (1.0 + e) / 4]
    # Each single is 1/2; each pair a_x c_z is the (0, 0) entry of block (x, z).
    exact = BehaviourPoint((0.5,) * 4 + tuple(block[0] for block in table.values()), REDUCED_8)
    sampled = errors = None
    if args.shots > 0:
        from . import quantum

        scenario = quantum.qkd_scenario(args.kind, args.noise)
        point, ses = quantum.sample_behaviour(*scenario, args.shots, args.seed)
        sampled = point.to_json_dict()
        errors = [float(v) for v in ses]
    payload = {
        "kind": args.kind,
        "noise": args.noise,
        "shots": args.shots,
        "seed": args.seed,
        "shape": REDUCED_SHAPE._asdict(),
        "exact_point": exact.to_json_dict(),
        "distribution": {
            "shape": REDUCED_SHAPE._asdict(),
            "outcome_order": "row-major over outcome tuples",
            "table": table,
        },
        "sampled_point": sampled,
        "standard_errors": errors,
        # Every marginal of the table is 1/2 whatever the settings, so the
        # table cannot signal.
        "no_signalling_ok": True,
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
    from . import linalg

    rho, sigma = map(linalg._read_state, documents)
    report = linalg._bound_report(rho, sigma)
    f = linalg._fidelity(rho, sigma)
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
        "fidelity_bounds_hold": linalg._fidelity_bounds_hold(f, d),
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
