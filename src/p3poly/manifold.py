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
form and the 4-D problem reduces to a 2-D one over a.  The solver works on
the eight coordinates as plain floats, in pure Python, so projecting loads
no numpy; only ``as_array`` and ``projection_gradient`` return arrays.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

from .strategies import BehaviourPoint, REDUCED_8

if TYPE_CHECKING:
    import numpy as np

# Reduced-objective grid over (a0, a1), i/64 on each axis (np.linspace's
# values), in row-major order; every 8-neighbour local minimum of the grid
# seeds a polish run.
_GRID_SIZE = 65
_GRID_AXIS = tuple(i / (_GRID_SIZE - 1) for i in range(_GRID_SIZE))
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
        import numpy as np

        return np.array(astuple(self))


def _embed(x) -> tuple:
    a0, a1, c0, c1 = x
    return (a0, a1, c0, c1, a0 * c0, a0 * c1, a1 * c0, a1 * c1)


def embed(params: ManifoldParams) -> BehaviourPoint:
    """Uncorrelated behaviour point with the given marginals."""
    return BehaviourPoint.reduced(_embed(astuple(params)))


def on_manifold(point: BehaviourPoint) -> bool:
    """Whether every composite coordinate equals the product of its marginals, to 1e-9."""
    if point.representation != REDUCED_8:
        raise ValueError("manifold membership is defined for reduced-8 points")
    coords = point.coords
    return all(abs(e - v) <= 1e-9 for e, v in zip(_embed(coords[:4]), coords))


def _residual(x, target) -> tuple:
    return tuple(e - t for e, t in zip(_embed(x), target))


def _objective(x, target) -> float:
    return sum(r * r for r in _residual(x, target))


def _gradient(x, target) -> tuple:
    a0, a1, c0, c1 = x
    r = _residual(x, target)
    return (
        2.0 * (r[0] + r[4] * c0 + r[5] * c1),
        2.0 * (r[1] + r[6] * c0 + r[7] * c1),
        2.0 * (r[2] + r[4] * a0 + r[6] * a1),
        2.0 * (r[3] + r[5] * a0 + r[7] * a1),
    )


def projection_objective(x: np.ndarray, target: np.ndarray) -> float:
    """Squared Euclidean distance from the embedded parameters to the target."""
    return float(_objective(x, target))


def projection_gradient(x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`projection_objective` in the parameters.

    Each composite coordinate a_i * c_j contributes through both of its
    factors, so the chain rule adds the co-factor-weighted residuals to the
    plain marginal residuals.
    """
    import numpy as np

    return np.array(_gradient(x, target), dtype=float)


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
            "params": list(astuple(self.params)),
            "point": self.point.to_json_dict(),
            "squared_distance": self.squared_distance,
            "distance": self.distance,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _best_block(fixed, t_block, cross) -> tuple[float, float]:
    """Exact minimizer over one wing's marginals with the other wing's fixed.

    ``t_block`` holds the targets of the free marginals and ``cross[i][j]``
    the target of fixed_i * free_j.  Each free marginal enters a convex
    quadratic with curvature 1 + |fixed|^2, so clipping its stationary point
    to [0, 1] is exact.
    """
    f0, f1 = fixed
    norm = 1.0 + (f0 * f0 + f1 * f1)
    return tuple(
        min(max((t + (x0 * f0 + x1 * f1)) / norm, 0.0), 1.0)
        for t, x0, x1 in zip(t_block, *cross)
    )


def _wing_term(n: float, norm: float) -> float:
    # min over c in [0, 1] of norm * c^2 - 2 n c, for n >= 0.
    return norm - 2.0 * n if n > norm else -n * n / norm


def _grid_values(target) -> list[float]:
    """Reduced objective min_c F(a, c) at every grid point a, row-major.

    For fixed a, wing j adds norm * c_j^2 - 2 n_j c_j to a constant, with
    norm = 1 + |a|^2 and n_j = t_cj + a0 t_0j + a1 t_1j.  Targets lie in
    [0, 1], so n_j >= 0 and the best c_j is n_j / norm, worth
    -n_j^2 / norm, unless it clips to 1 (``_wing_term``).
    """
    t0, t1, t2, t3, t4, t5, t6, t7 = target
    const = t2 * t2 + t3 * t3 + t4 * t4 + t5 * t5 + t6 * t6 + t7 * t7
    # The parts of the constant, n_0, n_1 and norm that depend on a0 alone,
    # and those that depend on a1 alone.
    rows = [((a0 - t0) ** 2, t2 + t4 * a0, t3 + t5 * a0, 1.0 + a0 * a0) for a0 in _GRID_AXIS]
    cols = [((a1 - t1) ** 2 + const, t6 * a1, t7 * a1, a1 * a1) for a1 in _GRID_AXIS]
    values = []
    for k_row, n0_row, n1_row, norm_row in rows:
        for k_col, n0_col, n1_col, norm_col in cols:
            n0 = n0_row + n0_col
            n1 = n1_row + n1_col
            norm = norm_row + norm_col
            if n0 <= norm >= n1:  # both c_j unclipped
                values.append(k_row + k_col - (n0 * n0 + n1 * n1) / norm)
            else:
                values.append(k_row + k_col + _wing_term(n0, norm) + _wing_term(n1, norm))
    return values


def _grid_starts(target) -> list[tuple[float, float]]:
    """Grid points a whose reduced objective min_c F(a, c) is no larger than
    at any of their 8 neighbours, in row-major order."""
    values = _grid_values(target)
    # Flat copy of the grid inside a border of inf, one padded row per
    # ``width`` cells, so cell k's neighbours sit at k +- 1 and k +- width +- {0, 1}.
    width = _GRID_SIZE + 2
    padded = [math.inf] * (width + 1)
    for i in range(0, len(values), _GRID_SIZE):
        padded += values[i : i + _GRID_SIZE]
        padded += (math.inf, math.inf)
    padded += [math.inf] * (width - 1)
    lo, hi = width + 1, len(padded) - width - 1
    # Cells no larger than their left and right neighbours, then the rows around.
    candidates = [
        k
        for k, left, v, right in zip(
            range(lo, hi), padded[lo - 1 : hi - 1], padded[lo:hi], padded[lo + 1 : hi + 1]
        )
        if v <= left and v <= right
    ]
    starts = []
    for k in candidates:
        v = padded[k]
        if v <= min(padded[k - width - 1 : k - width + 2]) and v <= min(padded[k + width - 1 : k + width + 2]):
            i, j = divmod(k, width)
            starts.append((_GRID_AXIS[i - 1], _GRID_AXIS[j - 1]))
    return starts


def _polish(a, target) -> tuple[tuple[float, ...], int]:
    """Alternate exact block updates a | c and c | a, from a and the best c | a.

    The objective never rises above its starting grid value.  Returns the
    parameters and the number of sweeps taken to a step of ``_STEP_TOL``.
    """
    t_a, t_c = target[:2], target[2:4]
    cross = (target[4:6], target[6:8])  # cross[i][j]: target of a_i * c_j
    cross_t = tuple(zip(*cross))
    c = _best_block(a, t_c, cross)
    for sweep in range(1, _MAX_SWEEPS + 1):
        new_a = _best_block(c, t_a, cross_t)
        new_c = _best_block(new_a, t_c, cross)
        step = max(abs(u - v) for u, v in zip(new_a + new_c, a + c))
        a, c = new_a, new_c
        if step <= _STEP_TOL:
            break
    return a + c, sweep


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
    target = point.coords
    runs = [_polish(a, target) for a in _grid_starts(target)]
    x, sweeps = min(runs, key=lambda run: _objective(run[0], target))
    value = _objective(x, target)
    # KKT residual: only gradient components that point into the box count.
    grad = [
        0.0 if (v <= 0.0 and g > 0.0) or (v >= 1.0 and g < 0.0) else g
        for v, g in zip(x, _gradient(x, target))
    ]
    params = ManifoldParams(*x)
    return ProjectionResult(
        params=params,
        point=embed(params),
        squared_distance=value,
        distance=math.sqrt(value),
        iterations=sweeps,
        converged=math.hypot(*grad) <= _KKT_TOL,
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
