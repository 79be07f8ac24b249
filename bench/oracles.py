"""Independent oracles for the benchmark's output checks.

Nothing here imports p3poly: every expected value is recomputed from the
scenario's definition with numpy and the standard library, so a defect in
the package cannot vouch for itself.  Each ``check_*`` function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product

import numpy as np

PARTY_LETTERS = "abc"
SHOT_SIGMAS = 6.0  # sampled coordinates must lie within this many binomial SEs
EXACT_TOL = 1e-12
STATE_TOL = 1e-9
ROOT_TOL = 1e-7


def strict_json(text: str):
    """Parse JSON that a standards-following reader would accept (no NaN/Infinity)."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# --- Vertex tables, built from the strategy bits --------------------------------


def _subsets(n: int):
    """Coordinate order: singles, then pairs, then triples; settings lexicographic."""
    for size in range(1, n + 1):
        for parties in combinations(range(n), size):
            for settings in product((0, 1), repeat=size):
                yield parties, settings


def column_names(n: int) -> list[str]:
    letters = PARTY_LETTERS if n == 3 else "ac"
    return [
        "".join(f"{letters[p]}{s}" for p, s in zip(parties, settings))
        for parties, settings in _subsets(n)
    ]


def vertex_table(n: int) -> np.ndarray:
    """Rows are the 4**n strategies; each wing's two output bits count up in binary."""
    rows = []
    for index in range(4**n):
        bits = [(index >> (2 * n - 1 - k)) & 1 for k in range(2 * n)]
        rows.append(
            [
                int(all(bits[2 * p + s] for p, s in zip(parties, settings)))
                for parties, settings in _subsets(n)
            ]
        )
    return np.array(rows, dtype=int)


FULL_TABLE = vertex_table(3)
REDUCED_TABLE = vertex_table(2)


def wing_classes(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(node_count)
    return idx // (node_count // 4), idx % 4


def adjacency(node_count: int) -> np.ndarray:
    """Two vertices see each other when they share the first or the last wing."""
    first, last = wing_classes(node_count)
    adj = (first[:, None] == first[None, :]) | (last[:, None] == last[None, :])
    np.fill_diagonal(adj, False)
    return adj


def wing_cliques(node_count: int) -> list[tuple[int, ...]]:
    first, last = wing_classes(node_count)
    groups = [tuple(np.flatnonzero(first == k)) for k in range(4)]
    groups += [tuple(np.flatnonzero(last == k)) for k in range(4)]
    return sorted(tuple(int(v) for v in g) for g in groups)


def dominates(members, adj: np.ndarray) -> bool:
    covered = np.zeros(adj.shape[0], dtype=bool)
    for m in members:
        covered |= adj[m]
        covered[m] = True
    return bool(covered.all())


def hamming(rows) -> dict[int, int]:
    histogram: dict[int, int] = {}
    for row in rows:
        weight = int(sum(row))
        histogram[weight] = histogram.get(weight, 0) + 1
    return histogram


# --- Born rule and behaviour coordinates ----------------------------------------

_KETS = {
    (0, 0): np.array([1.0, 0.0]),
    (0, 1): np.array([0.0, 1.0]),
    (1, 0): np.array([1.0, 1.0]) / math.sqrt(2.0),
    (1, 1): np.array([1.0, -1.0]) / math.sqrt(2.0),
}
# PROJECTORS[setting, outcome]: setting 0 is Z, setting 1 is X; outcome 0 is +1.
PROJECTORS = np.array(
    [[np.outer(_KETS[s, o], _KETS[s, o]) for o in (0, 1)] for s in (0, 1)], dtype=complex
)


def _joint_projectors(n: int) -> np.ndarray:
    """J[settings..., outcomes...] = P[x_1, a_1] (x) ... (x) P[x_n, a_n]."""
    dim = 2**n
    joint = np.empty((2,) * (2 * n) + (dim, dim), dtype=complex)
    for settings in product((0, 1), repeat=n):
        for outcomes in product((0, 1), repeat=n):
            op = np.ones((1, 1), dtype=complex)
            for x, a in zip(settings, outcomes):
                op = np.kron(op, PROJECTORS[x, a])
            joint[settings + outcomes] = op
    return joint


JOINT = {2: _joint_projectors(2), 3: _joint_projectors(3)}


def born_table(rho: np.ndarray, n: int) -> np.ndarray:
    """p[settings..., outcomes...] = Tr(rho J) for Z/X qubit measurements."""
    return np.real(np.einsum("...ij,ji->...", JOINT[n], np.asarray(rho, dtype=complex)))


def behaviour_coords(table: np.ndarray, n: int) -> np.ndarray:
    """Outcome-0 marginals of every party subset, averaged over the other settings."""
    coords = []
    for parties, settings in _subsets(n):
        others = [k for k in range(n) if k not in parties]
        index = [slice(None)] * (2 * n)
        for p, s in zip(parties, settings):
            index[p] = s
            index[n + p] = 0
        block = table[tuple(index)]
        # Remaining axes: other parties' settings, then their outcomes.
        block = block.reshape((2,) * len(others) + (-1,)).sum(axis=-1)
        coords.append(float(block.mean()))
    return np.array(coords)


def state_point(rho: np.ndarray) -> np.ndarray:
    n = int(round(math.log2(rho.shape[0])))
    return behaviour_coords(born_table(rho, n), n)


def bell_state() -> np.ndarray:
    ket = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return np.outer(ket, ket).astype(complex)


def scenario_state(kind: str, noise: float) -> np.ndarray:
    """Depolarised Bell pair, or the product of its marginals (both maximally mixed)."""
    if kind == "honest":
        return (1.0 - noise) * bell_state() + noise * np.eye(4) / 4.0
    return np.eye(4, dtype=complex) / 4.0


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def reduced_state(rho: np.ndarray, keep: str) -> np.ndarray:
    blocks = rho.reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", blocks) if keep == "A" else np.einsum("ijil->jl", blocks)


def shot_tolerance(exact: np.ndarray, shots: int) -> np.ndarray:
    variance = np.maximum(exact * (1.0 - exact), 1.0 / shots)
    return SHOT_SIGMAS * np.sqrt(variance / shots) + EXACT_TOL


def check_sampled(sampled, exact: np.ndarray, shots: int, errors=None) -> list[str]:
    sampled = np.asarray(sampled, dtype=float)
    problems = []
    if sampled.shape != exact.shape or not np.all(np.isfinite(sampled)):
        return [f"sampled point has shape {sampled.shape} or non-finite entries"]
    worst = np.abs(sampled - exact) - shot_tolerance(exact, shots)
    if worst.max() > 0:
        problems.append(f"sampled coordinate {int(worst.argmax())} off the exact point")
    if errors is not None:
        errors = np.asarray(errors, dtype=float)
        expected = np.sqrt(sampled * (1.0 - sampled) / shots)
        if errors.shape != sampled.shape or np.abs(errors - expected).max() > EXACT_TOL:
            problems.append("standard errors are not sqrt(p(1-p)/shots)")
    return problems


# --- Projection onto the uncorrelated manifold ----------------------------------

GRID = 401


def grid_projection(target) -> float:
    """Best squared distance over a dense (a0, a1) grid with closed-form (c0, c1).

    For fixed first-wing marginals the objective is a separable convex
    quadratic in each c_j, so the clipped stationary point is exact.
    """
    t = np.asarray(target, dtype=float)
    a1 = np.linspace(0.0, 1.0, GRID)[None, :]
    best = math.inf
    for rows in np.array_split(np.linspace(0.0, 1.0, GRID), 8):
        a0 = rows[:, None]
        norm = 1.0 + a0 * a0 + a1 * a1
        c0 = np.clip((t[2] + a0 * t[4] + a1 * t[6]) / norm, 0.0, 1.0)
        c1 = np.clip((t[3] + a0 * t[5] + a1 * t[7]) / norm, 0.0, 1.0)
        value = (
            (a0 - t[0]) ** 2 + (a1 - t[1]) ** 2 + (c0 - t[2]) ** 2 + (c1 - t[3]) ** 2
            + (a0 * c0 - t[4]) ** 2 + (a0 * c1 - t[5]) ** 2
            + (a1 * c0 - t[6]) ** 2 + (a1 * c1 - t[7]) ** 2
        )
        best = min(best, float(value.min()))
    return best


def check_projection(target, params, point, squared_distance: float, distance: float) -> list[str]:
    """The result must lie on the manifold and be no worse than the grid's best."""
    t = np.asarray(target, dtype=float)
    a0, a1, c0, c1 = (float(v) for v in params)
    point = np.asarray(point, dtype=float)
    embedded = np.array([a0, a1, c0, c1, a0 * c0, a0 * c1, a1 * c0, a1 * c1])
    problems = []
    if not all(0.0 <= v <= 1.0 for v in (a0, a1, c0, c1)):
        problems.append("projection parameters outside [0, 1]")
    if point.shape != (8,) or np.abs(point - embedded).max() > EXACT_TOL:
        problems.append("projected point is not on the manifold")
        return problems
    actual = float(((point - t) ** 2).sum())
    if abs(actual - squared_distance) > EXACT_TOL:
        problems.append("reported squared distance disagrees with the returned point")
    if abs(math.sqrt(max(squared_distance, 0.0)) - distance) > EXACT_TOL:
        problems.append("distance is not the root of the squared distance")
    best = grid_projection(t)
    if squared_distance > best + EXACT_TOL:
        problems.append(f"projection {squared_distance:.12g} worse than grid {best:.12g}")
    return problems
