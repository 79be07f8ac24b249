"""Projection onto the uncorrelated-behaviour manifold.

In the reduced 8-coordinate representation the behaviours reachable without
any correlation between the two end wings form a 4-parameter surface: the
four marginals (a0, a1, c0, c1) are free in [0, 1] and every composite
coordinate is the product of its marginals.  This module embeds parameter
tuples, tests membership, projects arbitrary points onto the surface, and
turns projection distances into a normalized nonclassicality score.

Projection uses variable projection (Golub & Pereyra, SIAM J. Numer. Anal.
10, 1973): for fixed first-wing marginals a = (a0, a1) the objective is a
separable convex quadratic in each c_j, so the best c is a clipped closed
form and the 4-D problem reduces to a 2-D one over a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strategies import BehaviourPoint, REDUCED_8

# Reduced-objective grid over (a0, a1), one column per grid point in row-major
# order; every 8-neighbour local minimum of the grid seeds a polish run.
_GRID_SIZE = 65
_GRID_AXIS = np.linspace(0.0, 1.0, _GRID_SIZE)
_GRID_A = np.stack(np.meshgrid(_GRID_AXIS, _GRID_AXIS, indexing="ij")).reshape(2, -1)
_MAX_SWEEPS = 10_000
_STEP_TOL = 1e-12
# Norm bound on the box-projected gradient for a result to count as converged.
_KKT_TOL = 1e-9

# A reference point closer than this to the manifold has no meaningful scale
# for distance_ratio.
DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class ManifoldParams:
    """Marginal parameters (a0, a1, c0, c1) of an uncorrelated behaviour."""

    a0: float
    a1: float
    c0: float
    c1: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "c0", "c1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"parameter {name}={value} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.c0, self.c1])


def _embed_array(x: np.ndarray) -> np.ndarray:
    a0, a1, c0, c1 = x
    return np.array([a0, a1, c0, c1, a0 * c0, a0 * c1, a1 * c0, a1 * c1])


def embed(params: ManifoldParams) -> BehaviourPoint:
    """Uncorrelated behaviour point with the given marginals."""
    return BehaviourPoint.reduced(_embed_array(params.as_array()))


def on_manifold(point: BehaviourPoint) -> bool:
    """Whether every composite coordinate equals the product of its marginals, to 1e-9."""
    if point.representation != REDUCED_8:
        raise ValueError("manifold membership is defined for reduced-8 points")
    coords = point.as_array()
    return bool((np.abs(_embed_array(coords[:4]) - coords) <= 1e-9).all())


def projection_objective(x: np.ndarray, target: np.ndarray) -> float:
    """Squared Euclidean distance from the embedded parameters to the target."""
    r = _embed_array(x) - target
    return float(r @ r)


def projection_gradient(x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`projection_objective` in the parameters.

    Each composite coordinate a_i * c_j contributes through both of its
    factors, so the chain rule adds the co-factor-weighted residuals to the
    plain marginal residuals.
    """
    a0, a1, c0, c1 = x
    r = _embed_array(x) - target
    return 2.0 * np.array(
        [
            r[0] + r[4] * c0 + r[5] * c1,
            r[1] + r[6] * c0 + r[7] * c1,
            r[2] + r[4] * a0 + r[6] * a1,
            r[3] + r[5] * a0 + r[7] * a1,
        ]
    )


@dataclass(frozen=True)
class ProjectionResult:
    """Best point found on the manifold for a projection target."""

    params: ManifoldParams
    point: BehaviourPoint
    squared_distance: float
    distance: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "params": list(self.params.as_array()),
            "point": self.point.to_json_dict(),
            "squared_distance": self.squared_distance,
            "distance": self.distance,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _best_block(fixed: np.ndarray, t_block: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Exact minimizer over one wing's marginals with the other wing's fixed.

    ``t_block`` holds the targets of the free marginals and ``cross[i, j]``
    the target of fixed_i * free_j; ``fixed`` may hold one point per column.
    Each free marginal enters a convex quadratic with curvature
    1 + |fixed|^2, so clipping its stationary point to [0, 1] is exact.
    """
    norm = 1.0 + (fixed * fixed).sum(axis=0)
    return np.clip((t_block + cross.T @ fixed) / norm, 0.0, 1.0)


def _grid_starts(target: np.ndarray) -> np.ndarray:
    """Grid points a whose reduced objective min_c F(a, c) is no larger than
    at any of their 8 neighbours, one per row in row-major order."""
    c = _best_block(_GRID_A, target[2:4, None], target[4:].reshape(2, 2))
    r = _embed_array(np.concatenate([_GRID_A, c])) - target[:, None]
    values = (r * r).sum(axis=0).reshape(_GRID_SIZE, _GRID_SIZE)
    # 3x3 neighbourhood minimum, taken along rows and then along columns.
    m = np.pad(values, 1, constant_values=np.inf)
    m = np.minimum(np.minimum(m[:-2], m[1:-1]), m[2:])
    m = np.minimum(np.minimum(m[:, :-2], m[:, 1:-1]), m[:, 2:])
    return _GRID_A[:, np.flatnonzero(values <= m)].T


def _polish(a: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, int]:
    """Alternate exact block updates a | c and c | a, from a and the best c | a.

    The objective never rises above its starting grid value.  Returns the
    parameters and the number of sweeps taken to a step of ``_STEP_TOL``.
    """
    t_a, t_c, cross = target[:2], target[2:4], target[4:].reshape(2, 2)
    c = _best_block(a, t_c, cross)
    for sweep in range(1, _MAX_SWEEPS + 1):
        new_a = _best_block(c, t_a, cross.T)
        new_c = _best_block(new_a, t_c, cross)
        step = max(np.abs(new_a - a).max(), np.abs(new_c - c).max())
        a, c = new_a, new_c
        if step <= _STEP_TOL:
            break
    return np.concatenate([a, c]), sweep


def project(point: BehaviourPoint) -> ProjectionResult:
    """Closest uncorrelated behaviour to ``point`` in Euclidean distance.

    Evaluates the reduced objective min_c F(a, c) on a fixed 65x65 grid over
    the first-wing marginals, polishes from every grid local minimum with
    alternating closed-form block updates, and keeps the best result (ties
    go to the first minimum in row-major order, so results are
    deterministic).  ``iterations`` counts the polish sweeps of the winning
    start; ``converged`` is set only when the box-projected gradient (the
    KKT residual) has norm at most 1e-9.
    """
    if point.representation != REDUCED_8:
        raise ValueError("projection is defined for reduced-8 points")
    target = point.as_array()
    runs = [_polish(a, target) for a in _grid_starts(target)]
    x, sweeps = min(runs, key=lambda run: projection_objective(run[0], target))
    value = projection_objective(x, target)
    # KKT residual: only gradient components that point into the box count.
    grad = projection_gradient(x, target)
    grad[(x <= 0.0) & (grad > 0.0)] = 0.0
    grad[(x >= 1.0) & (grad < 0.0)] = 0.0
    params = ManifoldParams(*(float(v) for v in x))
    return ProjectionResult(
        params=params,
        point=embed(params),
        squared_distance=value,
        distance=float(np.sqrt(value)),
        iterations=sweeps,
        converged=bool(np.linalg.norm(grad) <= _KKT_TOL),
    )


def distance_ratio(observed_distance: float, reference_distance: float) -> float | None:
    """Projection distance of an observed point relative to a reference's.

    1.0 means "as far from uncorrelated as the reference".  None for a
    reference already on the manifold (distance at most ``DEGENERATE_TOL``),
    which has no meaningful scale.
    """
    if reference_distance <= DEGENERATE_TOL:
        return None
    return observed_distance / reference_distance


def normalized_score(observed: BehaviourPoint, reference: BehaviourPoint) -> float:
    """Projection distance of ``observed`` relative to a reference point.

    Both points are projected onto the uncorrelated manifold, and the score
    is their ``distance_ratio``.  A degenerate reference raises ValueError.
    """
    score = distance_ratio(project(observed).distance, project(reference).distance)
    if score is None:
        raise ValueError("degenerate reference: it already lies on the manifold")
    return score
