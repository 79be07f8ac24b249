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
form and the 4-D problem reduces to a 2-D one over a.  Alternating exact
block updates polish from the corners of the first-wing square, best start
value first, until a Lagrangian duality certificate proves a result global:
the objective is the distance from a 3x3 table to a rank-one table with one
fixed entry (Eckart & Young, Psychometrika 1, 211, 1936), so weak duality
bounds the global minimum from below.  The solver works on the eight
coordinates as plain floats, in pure Python, so projecting loads no numpy;
only ``as_array`` and ``projection_gradient`` return arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .strategies import BehaviourPoint, REDUCED_8, _Record, _check_real

if TYPE_CHECKING:
    import numpy as np

# Polish starts: the corners of the first-wing square, tried in order of
# their start value.
_STARTS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
_MAX_SWEEPS = 10_000
_STEP_TOL = 1e-12
# Norm bound on the box-projected gradient for a result to count as converged,
# and bound on the duality gap for a result to count as global.
_KKT_TOL = 1e-9

# A reference point closer than this to the manifold has no meaningful scale
# for distance_ratio.
DEGENERATE_TOL = 1e-8


class ManifoldParams(_Record):
    """Marginal parameters (a0, a1, c0, c1) of an uncorrelated behaviour."""

    a0: float
    a1: float
    c0: float
    c1: float

    def __init__(self, a0: float, a1: float, c0: float, c1: float) -> None:
        _check_real("parameter a0", a0, 0, 1)
        _check_real("parameter a1", a1, 0, 1)
        _check_real("parameter c0", c0, 0, 1)
        _check_real("parameter c1", c1, 0, 1)
        self._store(a0, a1, c0, c1)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self._astuple())


def _embed(x) -> tuple:
    a0, a1, c0, c1 = x
    return (a0, a1, c0, c1, a0 * c0, a0 * c1, a1 * c0, a1 * c1)


def embed(params: ManifoldParams) -> BehaviourPoint:
    """Uncorrelated behaviour point with the given marginals."""
    return BehaviourPoint.reduced(_embed(params._astuple()))


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


class ProjectionResult(_Record):
    """Best point found on the manifold for a projection target.

    ``converged`` is set when the KKT residual is at most 1e-9.
    ``global_gap`` is a duality gap: no point of the manifold lies closer
    than ``squared_distance - global_gap``, so a gap of at most 1e-9 proves
    the result globally optimal to that tolerance.
    """

    params: ManifoldParams
    point: BehaviourPoint
    squared_distance: float
    distance: float
    iterations: int
    converged: bool
    global_gap: float

    def __init__(
        self, params: ManifoldParams, point: BehaviourPoint, squared_distance: float, distance: float,
        iterations: int, converged: bool, global_gap: float,
    ) -> None:
        self._store(params, point, squared_distance, distance, iterations, converged, global_gap)

    def to_json_dict(self) -> dict:
        return {
            "params": list(self.params._astuple()),
            "point": self.point.to_json_dict(),
            "squared_distance": self.squared_distance,
            "distance": self.distance,
            "iterations": self.iterations,
            "converged": self.converged,
            "global_gap": self.global_gap,
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


def _polish(a, target) -> tuple[tuple[float, ...], int]:
    """Alternate exact block updates a | c and c | a, from a and the best c | a.

    The objective never rises above its starting value.  Returns the
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


def _certificate(x, target) -> tuple[float, float]:
    """KKT residual norm and duality gap of the parameters x.

    Write the target as T = [[1, t2, t3], [t0, t4, t5], [t1, t6, t7]], so
    that F(x) = ||T - M||^2 for M = u v^T, u = (1, a0, a1), v = (1, c0, c1).
    Lagrange multipliers Lambda on row 0 and column 0 of T - M (off the
    corner, minus half the gradient) leave R = T - Lambda - M with R v = 0
    and R^T u = 0, so M is a singular component of T - Lambda.  Weak duality
    then gives F(x') >= F(x) - gap for every x' in [0, 1]^4, with
    gap = ||kkt||_1 + max(0, sigma_max(R)^2 - |u|^2 |v|^2) and kkt the
    box-projected gradient.
    """
    a0, a1, c0, c1 = x
    # Only gradient components that point into the box count.
    kkt = [
        0.0 if (v <= 0.0 and g > 0.0) or (v >= 1.0 and g < 0.0) else g
        for v, g in zip(x, _gradient(x, target))
    ]
    # With B the lower-right 2x2 block of T - M, R = [[a^T B c, -a^T B], [-B c, B]].
    r = _residual(x, target)
    b = ((-r[4], -r[5]), (-r[6], -r[7]))
    bc = [row[0] * c0 + row[1] * c1 for row in b]
    ab = [a0 * p + a1 * q for p, q in zip(*b)]
    rr = ((a0 * bc[0] + a1 * bc[1], -ab[0], -ab[1]), (-bc[0], *b[0]), (-bc[1], *b[1]))
    # R has rank at most 2, so its two nonzero squared singular values have
    # sum ||R||_F^2 and product the sum of R's squared 2x2 minors.
    frob = sum(e * e for row in rr for e in row)
    pairs = ((0, 1), (0, 2), (1, 2))
    minors = sum((rr[i][j] * rr[k][l] - rr[i][l] * rr[k][j]) ** 2 for i, k in pairs for j, l in pairs)
    top = (frob + math.sqrt(max(frob * frob - 4.0 * minors, 0.0))) / 2.0
    scale = (1.0 + a0 * a0 + a1 * a1) * (1.0 + c0 * c0 + c1 * c1)
    return math.hypot(*kkt), sum(map(abs, kkt)) + max(0.0, top - scale)


def project(point: BehaviourPoint) -> ProjectionResult:
    """Closest uncorrelated behaviour to ``point`` in Euclidean distance.

    Polishes with alternating closed-form block updates from the four
    corners of the first-wing square, tried in order of their start value
    min_c F(a, c) (ties in the order (0, 0), (0, 1), (1, 0), (1, 1)), and
    stops at the first result whose duality gap ``global_gap`` is at most
    1e-9, which proves it within that of the global minimum.  If no corner
    certifies, the lowest result is returned.  ``iterations`` counts the
    polish sweeps of the returned start; ``converged`` is set only when the
    box-projected gradient (the KKT residual) has norm at most 1e-9.
    """
    if point.representation != REDUCED_8:
        raise ValueError("projection is defined for reduced-8 points")
    target = point.coords
    t_c, cross = target[2:4], (target[4:6], target[6:8])
    runs = []
    for a in sorted(_STARTS, key=lambda a: _objective(a + _best_block(a, t_c, cross), target)):
        x, sweeps = _polish(a, target)
        kkt, gap = _certificate(x, target)
        runs.append((_objective(x, target), x, sweeps, kkt, gap))
        if gap <= _KKT_TOL:
            break
    value, x, sweeps, kkt, gap = runs[-1] if gap <= _KKT_TOL else min(runs, key=lambda run: run[0])
    params = ManifoldParams(*x)
    return ProjectionResult(
        params=params,
        point=embed(params),
        squared_distance=value,
        distance=math.sqrt(value),
        iterations=sweeps,
        converged=kkt <= _KKT_TOL,
        global_gap=gap,
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
