"""Uncorrelated-manifold embedding and projection tests.

Core claims pinned here:
  * embed gives points on the manifold; every reduced vertex lies on it.
  * project(P_B) reproduces the frozen 1-D bisection oracle: symmetric
    parameters 0.564 +/- 0.002, squared distance within 1e-8 of 0.0918...
  * Projection of points already on the manifold returns distance ~ 0.
  * Projection is never worse than a dense 401x401 grid over (a0, a1) with
    closed-form (c0, c1), and every result carries a KKT certificate and a
    duality gap that proves it global.
  * The duality gap is a lower bound on every x: F(x) - gap never exceeds
    the dense grid's best.
  * The analytic gradient matches central finite differences.
  * The pure-Python solver agrees with the earlier numpy grid solver, kept
    below as a reference.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from p3poly import manifold as mf
from p3poly import quantum as qu
from p3poly import strategies as st

from reference_tables import (
    P_B,
    P_U,
    PROJECTION_DISTANCE,
    PROJECTION_SQUARED,
    PROJECTION_T,
    REDUCED_TABLE,
)


def test_embed_examples():
    params = mf.ManifoldParams(0.5, 0.5, 0.5, 0.5)
    assert mf.embed(params).coords == (0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)
    assert mf.embed(params).coords == P_U
    zero = mf.ManifoldParams(0.0, 0.0, 0.0, 0.0)
    assert mf.embed(zero).coords == (0.0,) * 8
    corner = mf.ManifoldParams(1.0, 0.0, 0.0, 1.0)
    assert mf.embed(corner).coords == (1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        mf.ManifoldParams(-0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        mf.ManifoldParams(0.5, 0.5, 0.5, 1.2)


def on_manifold(coords):
    # Each composite coordinate a_x c_z equals the product of its marginals.
    a0, a1, c0, c1 = coords[:4]
    products = (a0 * c0, a0 * c1, a1 * c0, a1 * c1)
    return all(abs(v - p) <= 1e-9 for v, p in zip(coords[4:], products))


def test_on_manifold():
    assert on_manifold(P_U)
    assert not on_manifold(P_B)
    for row in REDUCED_TABLE:
        assert on_manifold(row)


def test_project_expected_point():
    result = mf.project(st.BehaviourPoint.reduced(P_B))
    params = result.params.as_array()
    assert np.allclose(params, params[0])  # symmetric minimizer
    assert params[0] == pytest.approx(PROJECTION_T, abs=2e-3)
    assert result.squared_distance == pytest.approx(PROJECTION_SQUARED, abs=1e-8)
    assert result.distance == pytest.approx(PROJECTION_DISTANCE, abs=1e-8)
    assert result.converged
    assert on_manifold(result.point.coords)


def test_project_point_on_manifold_returns_zero():
    result = mf.project(st.BehaviourPoint.reduced(P_U))
    assert result.distance < 1e-9
    assert np.allclose(result.params.as_array(), [0.5, 0.5, 0.5, 0.5], atol=1e-7)


def test_project_requires_reduced_representation():
    with pytest.raises(ValueError):
        mf.project(st.BehaviourPoint.full([0.0] * 26))


def test_project_embedded_points_fuzz():
    rng = np.random.default_rng(101)
    for _ in range(100):
        params = mf.ManifoldParams(*(float(v) for v in rng.uniform(0, 1, size=4)))
        result = mf.project(mf.embed(params))
        assert result.distance <= 1e-8


def test_project_never_worse_than_any_start():
    lattice = (
        (0.25, 0.25, 0.25, 0.25),
        (0.50, 0.50, 0.50, 0.50),
        (0.75, 0.75, 0.75, 0.75),
        (0.25, 0.25, 0.75, 0.75),
        (0.75, 0.75, 0.25, 0.25),
        (0.25, 0.75, 0.25, 0.75),
        (0.75, 0.25, 0.75, 0.25),
        (0.25, 0.75, 0.75, 0.25),
        (0.75, 0.25, 0.25, 0.75),
    )
    rng = np.random.default_rng(103)
    for _ in range(20):
        target = st.BehaviourPoint.reduced(rng.uniform(0, 1, size=8))
        result = mf.project(target)
        arr = target.as_array()
        for start in lattice:
            start_value = mf.projection_objective(np.array(start), arr)
            assert result.squared_distance <= start_value + 1e-12


def _grid_oracle(t, n=401):
    """Best squared distance over an n x n grid of (a0, a1), closed-form c."""
    a0 = np.linspace(0.0, 1.0, n)[:, None]
    a1 = np.linspace(0.0, 1.0, n)[None, :]
    norm = 1.0 + a0 * a0 + a1 * a1
    c0 = np.clip((t[2] + a0 * t[4] + a1 * t[6]) / norm, 0.0, 1.0)
    c1 = np.clip((t[3] + a0 * t[5] + a1 * t[7]) / norm, 0.0, 1.0)
    values = (
        (a0 - t[0]) ** 2 + (a1 - t[1]) ** 2 + (c0 - t[2]) ** 2 + (c1 - t[3]) ** 2
        + (a0 * c0 - t[4]) ** 2 + (a0 * c1 - t[5]) ** 2
        + (a1 * c0 - t[6]) ** 2 + (a1 * c1 - t[7]) ** 2
    )
    return float(values.min())


def test_project_never_worse_than_dense_grid():
    rng = np.random.default_rng(109)
    for _ in range(100):
        target = rng.uniform(0, 1, size=8)
        result = mf.project(st.BehaviourPoint.reduced(target))
        assert result.squared_distance <= _grid_oracle(target) + 1e-12


def test_project_converges_with_kkt_certificate():
    rng = np.random.default_rng(113)
    for _ in range(1000):
        target = rng.uniform(0, 1, size=8)
        result = mf.project(st.BehaviourPoint.reduced(target))
        x = result.params.as_array()
        grad = mf.projection_gradient(x, target)
        # Only gradient components that point into the box [0, 1]^4 count.
        grad[(x <= 0.0) & (grad > 0.0)] = 0.0
        grad[(x >= 1.0) & (grad < 0.0)] = 0.0
        assert result.converged
        assert np.linalg.norm(grad) <= 1e-9
        assert result.global_gap <= 1e-9


_UNIT = hs.floats(0.0, 1.0)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    target=hs.tuples(*[_UNIT] * 8),
    x=hs.tuples(*[_UNIT] * 4),
    shift=hs.tuples(*[hs.floats(-1e-3, 1e-3)] * 4),
)
def test_global_gap_is_a_lower_bound_everywhere(target, x, shift):
    # Weak duality: F(x) - gap(x) <= min F, for any x in the box, and for
    # solver answers moved off the optimum by up to 1e-3.
    best = _grid_oracle(np.array(target))
    solved = mf.project(st.BehaviourPoint.reduced(target)).params._astuple()
    moved = tuple(min(max(v + d, 0.0), 1.0) for v, d in zip(solved, shift))
    for point in (x, solved, moved):
        gap = mf._certificate(point, target)[1]
        assert mf._objective(point, target) - gap <= best + 1e-12


def test_global_gap_rejects_a_kkt_saddle():
    # x = 0 is a KKT point of this target (F = 1.625) but not its global
    # minimum (F = 1.5625), so its gap must exceed the difference.
    target = (0.0, 0.0, 0.0, 0.0, 0.75, 0.5, 0.5, 0.75)
    x = (0.0, 0.0, 0.0, 0.0)
    kkt, gap = mf._certificate(x, target)
    assert kkt == 0.0
    assert mf._objective(x, target) == 1.625
    assert mf.project(st.BehaviourPoint.reduced(target)).squared_distance == pytest.approx(1.5625, abs=1e-12)
    assert gap > 0.0625


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(107)
    step = 1e-6
    for _ in range(100):
        x = rng.uniform(0.05, 0.95, size=4)
        target = rng.uniform(0, 1, size=8)
        analytic = mf.projection_gradient(x, target)
        numeric = np.zeros(4)
        for k in range(4):
            forward = x.copy()
            backward = x.copy()
            forward[k] += step
            backward[k] -= step
            numeric[k] = (
                mf.projection_objective(forward, target)
                - mf.projection_objective(backward, target)
            ) / (2 * step)
        scale = max(np.abs(analytic).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-5


def test_projection_result_json():
    data = mf.project(st.BehaviourPoint.reduced(P_B)).to_json_dict()
    assert set(data) == {
        "params", "point", "squared_distance", "distance", "iterations", "converged", "global_gap",
    }
    assert data["point"]["representation"] == st.REDUCED_8


def test_normalized_score():
    pb = st.BehaviourPoint.reduced(P_B)
    pu = st.BehaviourPoint.reduced(P_U)
    assert mf.normalized_score(pb, pb) == pytest.approx(1.0)
    assert mf.normalized_score(pu, pb) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError, match="degenerate"):
        mf.normalized_score(pb, pu)


def test_distance_ratio_is_none_for_a_reference_on_the_manifold():
    # The one definition of the score that `test` also reports.
    assert mf.distance_ratio(0.3, 0.6) == 0.5
    assert mf.distance_ratio(0.3, 2 * mf.DEGENERATE_TOL) == 0.15 / mf.DEGENERATE_TOL
    assert mf.distance_ratio(0.3, mf.DEGENERATE_TOL) is None
    assert mf.distance_ratio(0.0, 0.0) is None


def test_normalized_score_shrinks_with_depolarizing_noise():
    measurements = qu.zx_qubit_measurements(2)
    pb = st.BehaviourPoint.reduced(P_B)
    rho, _, shape = qu.qkd_scenario("honest", noise=0.5)
    noisy = qu.collapse(qu.behaviour_from_state(rho, measurements, shape))
    score = mf.normalized_score(noisy, pb)
    assert 0.0 < score < 1.0


# The earlier numpy solver, kept as a reference: block updates and KKT
# residual as in the module, polished from every 8-neighbour local minimum of
# the reduced objective on a 65x65 grid over (a0, a1).
_REF_AXIS = np.linspace(0.0, 1.0, 65)
_REF_GRID = np.stack(np.meshgrid(_REF_AXIS, _REF_AXIS, indexing="ij")).reshape(2, -1)


def _ref_embed(x):
    a0, a1, c0, c1 = x
    return np.array([a0, a1, c0, c1, a0 * c0, a0 * c1, a1 * c0, a1 * c1])


def _ref_best_block(fixed, t_block, cross):
    norm = 1.0 + (fixed * fixed).sum(axis=0)
    return np.clip((t_block + cross.T @ fixed) / norm, 0.0, 1.0)


def _ref_grid_values(target):
    c = _ref_best_block(_REF_GRID, target[2:4, None], target[4:].reshape(2, 2))
    r = _ref_embed(np.concatenate([_REF_GRID, c])) - target[:, None]
    return (r * r).sum(axis=0)


def _ref_grid_starts(target):
    values = _ref_grid_values(target).reshape(65, 65)
    m = np.pad(values, 1, constant_values=np.inf)
    m = np.minimum(np.minimum(m[:-2], m[1:-1]), m[2:])
    m = np.minimum(np.minimum(m[:, :-2], m[:, 1:-1]), m[:, 2:])
    return _REF_GRID[:, np.flatnonzero(values <= m)].T


def _ref_polish(a, target):
    t_a, t_c, cross = target[:2], target[2:4], target[4:].reshape(2, 2)
    c = _ref_best_block(a, t_c, cross)
    for sweep in range(1, mf._MAX_SWEEPS + 1):
        new_a = _ref_best_block(c, t_a, cross.T)
        new_c = _ref_best_block(new_a, t_c, cross)
        step = max(np.abs(new_a - a).max(), np.abs(new_c - c).max())
        a, c = new_a, new_c
        if step <= mf._STEP_TOL:
            break
    return np.concatenate([a, c]), sweep


def _ref_project(target):
    """(squared distance, converged) of the reference solver."""
    def objective(x):
        r = _ref_embed(x) - target
        return float(r @ r)

    x, _ = min((_ref_polish(a, target) for a in _ref_grid_starts(target)), key=lambda run: objective(run[0]))
    a0, a1, c0, c1 = x
    r = _ref_embed(x) - target
    grad = 2.0 * np.array([
        r[0] + r[4] * c0 + r[5] * c1,
        r[1] + r[6] * c0 + r[7] * c1,
        r[2] + r[4] * a0 + r[6] * a1,
        r[3] + r[5] * a0 + r[7] * a1,
    ])
    grad[(x <= 0.0) & (grad > 0.0)] = 0.0
    grad[(x >= 1.0) & (grad < 0.0)] = 0.0
    return objective(x), bool(np.linalg.norm(grad) <= mf._KKT_TOL)


def _binary_targets():
    return (np.array(t) for t in itertools.product((0.0, 1.0), repeat=8))


def _wing_symmetric_targets():
    # t0 = t1, t2 = t3, t4 = t7 and t5 = t6: the two wings mirror each other.
    for t0, t2, t4, t5 in np.random.default_rng(131).uniform(0, 1, size=(100, 4)):
        yield np.array([t0, t0, t2, t2, t4, t5, t5, t4])


def _oracle_targets():
    rng = np.random.default_rng(127)
    yield from (rng.uniform(0, 1, size=8) for _ in range(1000))
    yield from (np.array(row, dtype=float) for row in REDUCED_TABLE)
    yield np.array(P_B)
    yield np.array(P_U)
    for _ in range(100):
        yield mf.embed(mf.ManifoldParams(*rng.uniform(0, 1, size=4))).as_array()
    yield from _binary_targets()
    yield from _wing_symmetric_targets()


def test_project_matches_numpy_reference_solver():
    for target in _oracle_targets():
        result = mf.project(st.BehaviourPoint.reduced(target))
        squared, converged = _ref_project(target)
        assert abs(result.squared_distance - squared) <= 1e-12, target
        assert result.converged == converged, target


def test_project_certifies_binary_and_wing_symmetric_targets():
    for target in [*_binary_targets(), *_wing_symmetric_targets()]:
        assert mf.project(st.BehaviourPoint.reduced(target)).global_gap <= 1e-9, target


def test_project_never_worse_than_reference_at_zero_marginals():
    # Targets (0, 0, 0, 0, p, q, q, p) can have degenerate minima (near
    # p = 1, q = 0, which Beta(0.2, 0.2) draws reach), where the polish
    # converges sublinearly and the gap need not reach 1e-9.
    rng = np.random.default_rng(137)
    for p, q in rng.beta(0.2, 0.2, size=(100, 2)):
        target = np.array([0.0, 0.0, 0.0, 0.0, p, q, q, p])
        result = mf.project(st.BehaviourPoint.reduced(target))
        assert result.squared_distance <= _ref_project(target)[0] + 1e-12, target
