"""Acceptance gate: one test per shipped guarantee, each with a runtime budget.

Every test prints a single PASS line with its measured runtime; pytest -v
adds the matching PASSED/FAILED verdict per criterion.  Tolerances and
budgets are part of the contract and are asserted, not just documented.
"""

import itertools
import time

import numpy as np

from p3poly import geometry as ge
from p3poly import manifold as mf
from p3poly import quantum as qu
from p3poly import stats as st
from p3poly.strategies import (
    BehaviourPoint,
    FULL_26,
    FULL_SHAPE,
    REDUCED_8,
    REDUCED_SHAPE,
    behaviour_from_vertex,
    column_names,
    enumerate_strategies,
    vertex_from_strategy,
    vertex_rows,
)

from reference_tables import (
    FULL_TABLE,
    P_B,
    P_U,
    PROJECTION_SQUARED,
    REDUCED_TABLE,
)


def _finish(number: int, started: float, budget: float, label: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget ({elapsed:.2f}s)"
    print(f"criterion {number:2d} PASS in {elapsed:6.2f}s (budget {budget:g}s): {label}")


def _point(coords) -> BehaviourPoint:
    return BehaviourPoint(np.asarray(coords, dtype=float), REDUCED_8)


def test_c01_vertex_tables_bit_exact():
    t0 = time.perf_counter()
    assert np.array_equal(vertex_rows(FULL_26), np.asarray(FULL_TABLE))
    assert np.array_equal(vertex_rows(REDUCED_8), np.asarray(REDUCED_TABLE))
    expected_full = (
        ["a0", "a1", "b0", "b1", "c0", "c1"]
        + ["a0b0", "a0b1", "a1b0", "a1b1"]
        + ["a0c0", "a0c1", "a1c0", "a1c1"]
        + ["b0c0", "b0c1", "b1c0", "b1c1"]
        + ["a0b0c0", "a0b0c1", "a0b1c0", "a0b1c1",
           "a1b0c0", "a1b0c1", "a1b1c0", "a1b1c1"]
    )
    assert list(column_names(FULL_26)) == expected_full
    assert list(column_names(REDUCED_8)) == [
        "a0", "a1", "c0", "c1", "a0c0", "a0c1", "a1c0", "a1c1",
    ]
    _finish(1, t0, 1.0, "64x26 and 16x8 vertex tables, rows and columns in order")


def test_c02_visibility_classification_uniform():
    t0 = time.perf_counter()
    strategies = enumerate_strategies()
    for strategy in strategies:
        counts = ge.classify_from(strategy, strategies)
        assert counts[ge.VisibilityStatus.COINCIDENT] == 1
        assert counts[ge.VisibilityStatus.VISIBLE] == 27
        assert counts[ge.VisibilityStatus.HIDDEN] == 36
    _finish(2, t0, 1.0, "every vertex sees 1/27/36 coincident/visible/hidden")


def test_c03_shortest_paths_max_two():
    t0 = time.perf_counter()
    for representation in (FULL_26, REDUCED_8):
        graph = ge.build_visibility_graph(representation)
        _, longest = ge.all_pairs_shortest_paths(graph)
        assert longest == 2
    _finish(3, t0, 1.0, "visibility-graph diameter is 2 in both representations")


def test_c04_generator_sets_and_constructions():
    t0 = time.perf_counter()
    full = ge.build_visibility_graph(FULL_26)
    reduced = ge.build_visibility_graph(REDUCED_8)

    for graph in (full, reduced):
        best = ge.minimum_generators(graph)
        assert best.complete
        assert len(best.members) == 4
        # Exhaustive: no dominating triple exists.
        assert not ge.has_dominating_set(graph, 3)

    diagonal = ge.verify_generator_set(full, (0, 21, 42, 63))
    assert list(diagonal.newly_covered) == [28, 20, 12, 4]
    assert list(diagonal.running_totals) == [28, 48, 60, 64]
    assert diagonal.complete

    same_row = ge.verify_generator_set(full, (0, 1, 2, 3))
    assert list(same_row.newly_covered) == [28, 12, 12, 12]
    assert list(same_row.running_totals) == [28, 40, 52, 64]
    assert same_row.complete

    diagonal_r = ge.verify_generator_set(reduced, (0, 5, 10, 15))
    assert list(diagonal_r.newly_covered) == [7, 5, 3, 1]
    assert list(diagonal_r.running_totals) == [7, 12, 15, 16]
    assert diagonal_r.complete

    same_row_r = ge.verify_generator_set(reduced, (0, 1, 2, 3))
    assert list(same_row_r.newly_covered) == [7, 3, 3, 3]
    assert list(same_row_r.running_totals) == [7, 10, 13, 16]
    assert same_row_r.complete
    _finish(4, t0, 30.0, "minimum generators have size 4; both 4-set constructions cover")


def test_c05_projection_of_honest_point():
    t0 = time.perf_counter()
    target = _point(P_B)
    result = mf.project(target)
    assert result.converged

    params = result.params.as_array()
    assert np.ptp(params) < 1e-6, "projection of a symmetric target must be symmetric"
    assert abs(params[0] - 0.564) < 2e-3

    # Independent oracle: the optimum is on the symmetric slice, so a 1-D
    # golden-section search over embed(t,t,t,t) locates the same minimum.
    pb = target.as_array()

    def slice_objective(t: float) -> float:
        diff = mf.embed(mf.ManifoldParams(t, t, t, t)).as_array() - pb
        return float(diff @ diff)

    lo, hi = 0.0, 1.0
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = slice_objective(a), slice_objective(b)
    while hi - lo > 1e-12:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = slice_objective(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = slice_objective(b)
    oracle = slice_objective((lo + hi) / 2.0)

    assert abs(result.squared_distance - oracle) < 1e-8
    assert abs(result.squared_distance - PROJECTION_SQUARED) < 1e-8
    _finish(5, t0, 1.0, "honest-point projection: symmetric, 0.564 singles, oracle distance")


def test_c06_simulation_exact_and_sampled():
    t0 = time.perf_counter()
    expectations = {"honest": np.asarray(P_B), "intercepted": np.asarray(P_U)}
    shots = 100_000
    for kind, expected in expectations.items():
        rho, measurements, shape = qu.qkd_scenario(kind)
        exact = qu.collapse(qu.behaviour_from_state(rho, measurements, shape))
        assert np.allclose(exact.as_array(), expected, atol=1e-12)
        scale = np.sqrt(expected * (1.0 - expected) / shots)
        for seed in (7, 42, 2024):
            sampled, _ = qu.sample_behaviour(rho, measurements, shape, shots, seed=seed)
            deviation = np.abs(sampled.as_array() - expected)
            assert np.all(deviation <= 5.0 * scale), (kind, seed, deviation / scale)
    _finish(6, t0, 10.0, "exact simulator points and 3-seed sampling within 5 SE")


def test_c07_separability_rates():
    t0 = time.perf_counter()
    honest = _point(P_B)
    uncorrelated = _point(P_U)
    sigma_honest = st.distance_sigma(honest, 0.05)
    sigma_uncorrelated = st.distance_sigma(uncorrelated, 0.05)

    rejections = 0
    for trial in range(100):
        noisy = st.perturb(honest, st.NoiseSpec(0.05, seed=1000 + trial))
        if st.gaussian_separability(uncorrelated, noisy, sigma_honest, alpha=0.01).reject:
            rejections += 1
    assert rejections >= 99, f"only {rejections}/100 distinct-point rejections"

    non_rejections = 0
    for trial in range(100):
        noisy = st.perturb(uncorrelated, st.NoiseSpec(0.05, seed=2000 + trial))
        report = st.gaussian_separability(uncorrelated, noisy, sigma_uncorrelated, alpha=0.01)
        if not report.reject:
            non_rejections += 1
    assert non_rejections >= 90, f"only {non_rejections}/100 same-point non-rejections"
    _finish(7, t0, 10.0, "5% noise: >=99/100 rejections apart, >=90/100 non-rejections together")


def test_c08_norm_bound_chain():
    t0 = time.perf_counter()
    # The known pair has difference vector P_B - P_U; its norms are exact.
    exact_norms = st.norms(np.asarray(P_B) - np.asarray(P_U))
    assert exact_norms.l1 == 0.5
    assert exact_norms.l2 == np.sqrt(0.125)

    bell = qu.bell_pair_state()
    product = qu.DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    report = qu.behaviour_bound_check(bell, product)
    assert abs(report.l1 - 0.5) < 1e-12
    assert abs(report.l2 - np.sqrt(0.125)) < 1e-12
    assert abs(report.delta_ab - 0.75) < 1e-12
    assert report.holds

    rng = np.random.default_rng(8)
    for _ in range(1000):
        rho = qu.random_density_matrix(4, rng)
        sigma = qu.random_density_matrix(4, rng)
        assert qu.behaviour_bound_check(rho, sigma).holds
        assert qu.fidelity_bounds_check(rho, sigma)
    _finish(8, t0, 60.0, "l2 <= l1 <= 2(dA+dB+dAB) on 1000 pairs; exact on the known pair")


def test_c09_deterministic_models_reproduce_vertices():
    t0 = time.perf_counter()
    for strategy in enumerate_strategies():
        model = qu.model_from_strategy(strategy)
        collapsed = qu.collapse(qu.lhv_evaluate(model))
        vertex = behaviour_from_vertex(vertex_from_strategy(strategy))
        assert np.array_equal(collapsed.as_array(), vertex.as_array())
    _finish(9, t0, 1.0, "all 64 deterministic models collapse onto their vertices")


def test_c10_two_sample_test_calibration():
    t0 = time.perf_counter()
    t_rejections = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        if st.two_sample_t(rng.normal(size=40), rng.normal(size=40)) < 0.05:
            t_rejections += 1
    t_rate = t_rejections / 1000.0
    assert 0.03 <= t_rate <= 0.07, f"t-test type-I rate {t_rate}"

    ks_rejections = 0
    for trial in range(1000):
        rng = np.random.default_rng(100_000 + trial)
        if st.two_sample_ks(rng.normal(size=100), rng.normal(size=100)) < 0.05:
            ks_rejections += 1
    ks_rate = ks_rejections / 1000.0
    assert 0.03 <= ks_rate <= 0.07, f"KS type-I rate {ks_rate}"
    _finish(10, t0, 30.0, f"type-I error t={t_rate:.3f}, KS={ks_rate:.3f}, both in 0.05+-0.02")


def test_c11_gradient_and_distribution_hygiene():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=4)
        target = rng.uniform(0.0, 1.0, size=8)
        analytic = mf.projection_gradient(x, target)
        numeric = np.empty(4)
        for k in range(4):
            lo, hi = x.copy(), x.copy()
            lo[k] -= step
            hi[k] += step
            numeric[k] = (
                mf.projection_objective(hi, target)
                - mf.projection_objective(lo, target)
            ) / (2.0 * step)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    distributions = []
    for kind, noise in itertools.product(("honest", "intercepted"), (0.0, 0.1, 0.3)):
        rho, measurements, shape = qu.qkd_scenario(kind, noise)
        distributions.append(qu.behaviour_from_state(rho, measurements, shape))
    pair_measurements = qu.zx_qubit_measurements(2)
    for _ in range(20):
        rho = qu.random_density_matrix(4, rng)
        distributions.append(qu.behaviour_from_state(rho, pair_measurements, REDUCED_SHAPE))
    triple = qu.DensityMatrix(np.kron(qu.bell_pair_state().matrix, np.eye(2) / 2.0))
    distributions.append(
        qu.behaviour_from_state(triple, qu.zx_qubit_measurements(3), FULL_SHAPE)
    )
    for distribution in distributions:
        shape = distribution.shape
        outcome_axes = tuple(range(shape.n, 2 * shape.n))
        totals = distribution.table.sum(axis=outcome_axes)
        assert np.all(np.abs(totals - 1.0) <= 1e-10)
        assert qu.no_signalling_check(distribution).ok
    _finish(11, t0, 30.0, "gradient matches finite differences; distributions stay physical")
