"""Quantum state, measurement, distance and hidden-variable model tests.

Core claims pinned here:
  * DensityMatrix validation catches non-Hermitian, wrong-trace and negative
    inputs with messages naming the violated property.
  * Born-rule distributions for the maximally entangled pair: matched bases
    perfectly correlated, crossed bases uniform.
  * collapse produces the frozen expected points P_B / P_U and tracks the
    flagged outcome 0.
  * Trace distance and fidelity agree with a scipy-based oracle and satisfy
    the Fuchs-van-de-Graaf style bounds; fidelity is exact to 1e-12 on pure
    and rank-deficient states, which saturate or nearly saturate them.
  * collapse(lhv_evaluate(model)) reproduces every vertex bit-exactly.
  * The Born-rule map matches the kron/trace formula on complex
    projectors, and so does the direct contraction that runs where the map
    would be too large; collapse matches a per-coordinate loop oracle on
    signalling tables.
  * Every numeric constructor rejects non-finite input.
  * Random states survive a trip through their JSON text unchanged, and a
    'dim' that is not the side of the matrix, or entry tables that are not
    lists of rows of numbers, are rejected.
  * The records that hold arrays compare by identity and are hashable; their
    fields are frozen, and a pickle rebuilds them through the constructor.
  * MeasurementSet names each kind of malformed input and stores one
    read-only (settings, outcomes, dim, dim) array per party.
  * behaviour_from_state rejects a scenario that differs from its
    measurement set's shape in n, m or d with one message naming both.
  * no_signalling_check agrees with a per-setting loop oracle, also on
    tables whose deviation sits either side of its screen's half tolerance
    and of the tolerance, and Born-rule tables from random product
    measurements are normalized and pass it.
  * The closed-form half trace norm of a 2 x 2 Hermitian matrix agrees with
    its eigenvalues to 4 eps times its largest entry, out to |b| of 1e-300
    and 1e300.
  * behaviour_bound_check, computed once on rho - sigma, matches the chain
    built per state from the public functions to 1e-12; sample_behaviour is
    bit-identical to collapsing the validated empirical distribution, and
    takes only a positive int shot count.
"""

import json
import pickle
import re
from itertools import product

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hs

from p3poly import geometry as ge
from p3poly import quantum as qu
from p3poly import stats as sta
from p3poly import strategies as st

from reference_tables import DELTA_BELL_PRODUCT, P_B, P_U, V_L1, V_L2


_NAN_DIAG = np.diag([np.nan, 1.0])


def bell():
    return qu.bell_pair_state()


def maximally_mixed(dim):
    return qu.DensityMatrix(np.eye(dim, dtype=complex) / dim)


def test_density_matrix_validation_messages():
    with pytest.raises(ValueError, match="Hermitian"):
        qu.DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        qu.DensityMatrix(np.eye(2) * 0.45)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        qu.DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        qu.DensityMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^density matrix is empty$"):
        qu.DensityMatrix(np.zeros((0, 0)))


def test_density_matrix_json_roundtrip():
    state = bell()
    again = qu.DensityMatrix.from_json_dict(state.to_json_dict())
    assert np.allclose(again.matrix, state.matrix)
    with pytest.raises(ValueError):
        qu.DensityMatrix.from_json_dict({"re": [[1.0]]})
    # Integer entries are numbers; booleans, numeric strings and flat or
    # non-list tables are not, though np.array would read them.
    data = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    assert np.array_equal(qu.DensityMatrix.from_json_dict(data).matrix, np.diag([1.0, 0.0]))
    for name in ("re", "im"):
        for table in ([[True, False], [False, False]], [["1.0", "0"], ["0", "0"]], [1, 0, 0, 0], "1000"):
            with pytest.raises(ValueError, match=f"'{name}' must be a list of rows of numbers"):
                qu.DensityMatrix.from_json_dict({**data, name: table})


@settings(derandomize=True, database=None, deadline=None)
@given(hs.integers(1, 8), hs.integers(0, 2**32 - 1))
def test_density_matrix_json_text_roundtrip(dim, seed):
    state = qu.random_density_matrix(dim, np.random.default_rng(seed))
    data = json.loads(json.dumps(state.to_json_dict()))
    assert data["dim"] == dim
    again = qu.DensityMatrix.from_json_dict(data)
    assert np.array_equal(again.matrix, state.matrix)
    for wrong in (dim + 1, float(dim), True, None):
        with pytest.raises(ValueError, match="'dim'"):
            qu.DensityMatrix.from_json_dict({**data, "dim": wrong})


def test_measurement_set_validation():
    good = qu.zx_qubit_measurements(2)
    assert good.shape == st.REDUCED_SHAPE
    assert good.party_dims == (2, 2)
    assert good.total_dim == 4
    bad = ((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])),)
    with pytest.raises(ValueError, match="identity"):
        qu.MeasurementSet((bad,))
    skew = ((np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, -0.5], [-0.5, 0.5]])),)
    qu.MeasurementSet((skew,))  # X basis is fine
    not_proj = ((np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([[0.5, 0.0], [0.0, 0.5]])),)
    with pytest.raises(ValueError, match="not a projector"):
        qu.MeasurementSet((not_proj,))


_Z = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
_X = (np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]]))
_Z3 = tuple(np.diag(row) for row in np.eye(3))


@pytest.mark.parametrize(
    "parties, message",
    [
        pytest.param(((_Z, _X), (_Z,)), "same number of settings", id="ragged-settings"),
        pytest.param(((_Z, _X), (_Z, _X[:1])), "same number of outcomes", id="ragged-outcomes"),
        pytest.param(((_Z, _X), (_Z, _Z3[:2])), "party 1: projector dimensions disagree", id="dims"),
        pytest.param(
            ((_Z, _X), ((np.ones((2, 3)),) * 2,) * 2), r"party 1: .* square projectors", id="non-square"
        ),
        pytest.param(
            ((_Z, _X), (_Z, (_NAN_DIAG, np.eye(2) - _NAN_DIAG))),
            "party 1 setting 1 outcome 0 projector has non-finite entries",
            id="nan",
        ),
        pytest.param(
            ((_Z, _X), (_Z, (_X[0], _Z[1]))),
            "party 1 setting 1: projectors do not sum to identity",
            id="incomplete",
        ),
        pytest.param(
            ((_Z, (np.eye(2) / 2, np.eye(2) / 2)),),
            "party 0 setting 1 outcome 0: not a projector",
            id="not-idempotent",
        ),
        pytest.param(
            (((np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[0.0, -2.0], [0.0, 1.0]])),),),
            "party 0 setting 0 outcome 0: not a projector",
            id="oblique",
        ),
        pytest.param((np.zeros((0, 2, 2, 2)),), "^party 0 has no settings$", id="no-settings"),
        pytest.param(
            ((_Z, _X), np.zeros((2, 2, 0, 0))), "^party 1: projectors act on an empty space$", id="empty-space"
        ),
        pytest.param(
            (np.zeros((1, 1, 0, 0)),), "^party 0: projectors act on an empty space$", id="empty-space-alone"
        ),
        pytest.param((), "^measurement set has no parties$", id="no-parties"),
    ],
)
def test_measurement_set_rejects_malformed_input(parties, message):
    with pytest.raises(ValueError, match=message):
        qu.MeasurementSet(parties)


def test_measurement_set_stores_read_only_stacks():
    rng = np.random.default_rng(5)
    parties = tuple(
        (random_basis_projectors(dim, rng), random_basis_projectors(dim, rng)) for dim in (3, 2)
    )
    measurements = qu.MeasurementSet(parties)
    assert measurements.party_dims == (3, 2)
    for ops, party, dim in zip(measurements.projectors, parties, (3, 2)):
        assert isinstance(ops, np.ndarray) and ops.dtype == complex
        assert ops.shape == (2, 2, dim, dim)
        assert not ops.flags.writeable
        assert np.array_equal(ops, np.array(party))
        assert np.array_equal(ops[1][0], party[1][0])
    with pytest.raises(ValueError):
        measurements.projectors[0][0, 0, 0, 0] = 0.0


def test_bell_matched_bases_perfectly_correlated():
    measurements = qu.zx_qubit_measurements(2)
    dist = qu.behaviour_from_state(bell(), measurements, st.REDUCED_SHAPE)
    # Standard bases (settings 0,0): equal outcomes with probability 1/2 each.
    assert dist.probability((0, 0), (0, 0)) == pytest.approx(0.5)
    assert dist.probability((0, 0), (1, 1)) == pytest.approx(0.5)
    assert dist.probability((0, 0), (0, 1)) == pytest.approx(0.0, abs=1e-12)
    # Hadamard bases (settings 1,1): same structure.
    assert dist.probability((1, 1), (0, 0)) == pytest.approx(0.5)
    assert dist.probability((1, 1), (1, 0)) == pytest.approx(0.0, abs=1e-12)
    # Crossed bases: completely uncorrelated.
    for outcomes in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert dist.probability((0, 1), outcomes) == pytest.approx(0.25)


def test_maximally_mixed_uniform():
    measurements = qu.zx_qubit_measurements(2)
    dist = qu.behaviour_from_state(maximally_mixed(4), measurements, st.REDUCED_SHAPE)
    assert np.allclose(dist.table, 0.25)


def test_behaviour_from_state_dimension_checks():
    measurements = qu.zx_qubit_measurements(2)
    with pytest.raises(ValueError):
        qu.behaviour_from_state(maximally_mixed(2), measurements, st.REDUCED_SHAPE)
    with pytest.raises(ValueError):
        qu.behaviour_from_state(maximally_mixed(4), measurements, st.FULL_SHAPE)


def test_behaviour_from_state_refuses_a_table_whose_clipping_moves_a_slice_sum():
    # A 256-dimension state at the positivity tolerance reduces to an 8-dimension
    # one with eigenvalues -32 * 0.97e-10; measured in its eigenbasis, the
    # clipped table sums to 1 + 7 * 32 * 0.97e-10, past NORMALIZATION_TOL.
    delta = 32 * 0.97e-10
    rho = qu.DensityMatrix(np.kron(np.diag([1 + 7 * delta] + [-delta] * 7), np.eye(32) / 32))
    reduced = qu.partial_trace(rho, (8, 32), "A")
    measurements = qu.MeasurementSet(((tuple(np.diag(row) for row in np.eye(8)),),))
    message = "a setting slice sums to 1 +/- 2.173e-08, beyond tolerance"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        qu.behaviour_from_state(reduced, measurements, measurements.shape)


@pytest.mark.parametrize(
    "shape",
    [st.ScenarioShape(3, 2, 2), st.ScenarioShape(2, 3, 2), st.ScenarioShape(2, 2, 3)],
    ids=["n", "m", "d"],
)
def test_behaviour_from_state_rejects_a_scenario_other_than_the_measurements(shape):
    message = f"measurement set scenario {st.REDUCED_SHAPE} does not match {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        qu.behaviour_from_state(bell(), qu.zx_qubit_measurements(2), shape)


def test_full_distribution_validation():
    table = np.full((2, 2, 2, 2), 0.25)
    qu.FullDistribution(st.REDUCED_SHAPE, table)
    bad = table.copy()
    bad[0, 0] = 0.3
    with pytest.raises(ValueError, match="sums"):
        qu.FullDistribution(st.REDUCED_SHAPE, bad)
    with pytest.raises(ValueError, match="negative"):
        qu.FullDistribution(st.REDUCED_SHAPE, table - 0.5)


def test_collapse_expected_points():
    measurements = qu.zx_qubit_measurements(2)
    honest, _, shape = qu.qkd_scenario("honest")
    point = qu.collapse(qu.behaviour_from_state(honest, measurements, shape))
    assert point.isclose(st.BehaviourPoint.reduced(P_B), tol=1e-12)
    intercepted, _, _ = qu.qkd_scenario("intercepted")
    point_u = qu.collapse(qu.behaviour_from_state(intercepted, measurements, shape))
    assert point_u.isclose(st.BehaviourPoint.reduced(P_U), tol=1e-12)


def test_collapse_concentrated_on_flagged_outcome():
    table = np.zeros((2, 2, 2, 2))
    table[:, :, 0, 0] = 1.0
    point = qu.collapse(qu.FullDistribution(st.REDUCED_SHAPE, table))
    assert point.coords == (1.0,) * 8


def test_collapse_full_scenario_matches_vertex():
    # Deterministic model via the quantum-free route covers collapse on the
    # 26-coordinate representation too.
    for index in (0, 21, 42, 63):
        strategy = st.enumerate_strategies()[index]
        dist = qu.lhv_evaluate(qu.model_from_strategy(strategy))
        point = qu.collapse(dist)
        vertex = st.behaviour_from_vertex(st.vertex_from_strategy(strategy))
        assert point.isclose(vertex, tol=0.0)


def test_collapse_rejects_other_scenarios():
    shape = st.ScenarioShape(2, 3, 2)
    table = np.full((3, 3, 2, 2), 0.25)
    dist = qu.FullDistribution(shape, table)
    with pytest.raises(ValueError):
        qu.collapse(dist)


def test_lhv_vertex_equivalence_all_64():
    for strategy in st.enumerate_strategies():
        point = qu.collapse(qu.lhv_evaluate(qu.model_from_strategy(strategy)))
        vertex = st.behaviour_from_vertex(st.vertex_from_strategy(strategy))
        assert point.isclose(vertex, tol=0.0)


def test_lhv_mixture_lies_on_segment():
    # Mix two strategies sharing the first wing with weights (0.3, 0.7).
    s1, s2 = st.DeterministicStrategy(1, 1, 1), st.DeterministicStrategy(1, 1, 3)
    assert s1.first == s2.first
    a = np.zeros((2, 1, 2))
    b = np.zeros((2, 1, 2, 2))
    c = np.zeros((2, 2, 2))
    for setting in (0, 1):
        # A wing index's bit for setting s is (index >> (1 - s)) & 1.
        a[setting, 0, 1 - (s1.first >> (1 - setting) & 1)] = 1.0
        for lam, source in enumerate((s1, s2)):
            b[setting, 0, lam, 1 - (source.middle >> (1 - setting) & 1)] = 1.0
            c[setting, lam, 1 - (source.last >> (1 - setting) & 1)] = 1.0
    model = qu.LhvModel(np.array([1.0]), np.array([0.3, 0.7]), a, b, c)
    point = qu.collapse(qu.lhv_evaluate(model))
    p1 = st.behaviour_from_vertex(st.vertex_from_strategy(s1)).as_array()
    p2 = st.behaviour_from_vertex(st.vertex_from_strategy(s2)).as_array()
    assert np.allclose(point.as_array(), 0.3 * p1 + 0.7 * p2)


def test_lhv_model_validation():
    a = np.zeros((2, 1, 2))
    a[:, 0, 0] = 1.0
    b = np.zeros((2, 1, 1, 2))
    b[:, 0, 0, 0] = 1.0
    c = np.zeros((2, 1, 2))
    c[:, 0, 0] = 1.0
    with pytest.raises(ValueError, match="probability"):
        qu.LhvModel(np.array([0.7, 0.7]), np.array([1.0]), a, b, c)
    bad_rows = a.copy()
    bad_rows[0, 0] = (0.5, 0.3)
    with pytest.raises(ValueError, match="rows"):
        qu.LhvModel(np.array([1.0]), np.array([1.0]), bad_rows, b, c)


@pytest.mark.parametrize("wing", ["response_middle", "response_last"])
@pytest.mark.parametrize("axis, count", [(0, "setting"), (-1, "outcome")], ids=["settings", "outcomes"])
def test_lhv_model_rejects_wings_that_disagree(wing, axis, count):
    # Uniform responses, so each wing alone is valid; only one count differs
    # from the first wing's 2 settings and 2 outcomes.
    shapes = {"response_first": [2, 1, 2], "response_middle": [2, 1, 1, 2], "response_last": [2, 1, 2]}
    shapes[wing][axis] = 3
    responses = {name: np.full(shape, 1.0 / shape[-1]) for name, shape in shapes.items()}
    with pytest.raises(ValueError, match=f"wings disagree on {count} count"):
        qu.LhvModel(np.array([1.0]), np.array([1.0]), **responses)


def test_partial_trace():
    reduced = qu.partial_trace(bell(), (2, 2), "A")
    assert np.allclose(reduced.matrix, np.eye(2) / 2)
    reduced_b = qu.partial_trace(bell(), (2, 2), "B")
    assert np.allclose(reduced_b.matrix, np.eye(2) / 2)
    # Product state factors back out.
    left = np.diag([1.0, 0.0]).astype(complex)
    right = np.diag([0.25, 0.75]).astype(complex)
    product = qu.DensityMatrix(np.kron(left, right))
    assert np.allclose(qu.partial_trace(product, (2, 2), "A").matrix, left)
    assert np.allclose(qu.partial_trace(product, (2, 2), "B").matrix, right)
    with pytest.raises(ValueError):
        qu.partial_trace(bell(), (3, 2), "A")
    with pytest.raises(ValueError):
        qu.partial_trace(bell(), (2, 2), "C")
    with pytest.raises(ValueError, match=r"^dims must be a pair, got 4$"):
        qu.partial_trace(bell(), 4, "A")


_AT_TOLERANCE = {
    # Eigenvalues down to -0.9e-10; the "A" reduction sums two of them.
    "negative": np.diag([-0.9e-10, -0.9e-10, 1.0 + 1.8e-10, 0.0]),
    # Hermitian to 0.9e-10; the "A" reduction sums both residuals.
    "skew": np.eye(4) / 4 + 0.9e-10 * np.eye(4, k=2),
}


@pytest.mark.parametrize("keep", ["A", "B"])
@pytest.mark.parametrize("case", sorted(_AT_TOLERANCE))
def test_partial_trace_of_a_state_at_the_tolerances(case, keep):
    # An accepted state reduces to a state, even where the reduction's
    # residuals exceed the 1e-10 tolerances by up to the traced-out
    # dimension, 2 here: the "A" reductions used to raise.
    rho = qu.DensityMatrix(_AT_TOLERANCE[case])
    reduced = qu.partial_trace(rho, (2, 2), keep).matrix
    expected = np.einsum("ijkj->ik" if keep == "A" else "ijil->jl", rho.matrix.reshape(2, 2, 2, 2))
    assert reduced.tobytes() == expected.tobytes() and not reduced.flags.writeable
    assert not np.shares_memory(reduced, rho.matrix)
    assert np.abs(reduced - reduced.conj().T).max() <= 2 * qu.HERMITICITY_TOL
    assert abs(reduced.trace() - 1.0) <= qu.TRACE_TOL
    assert np.linalg.eigvalsh(reduced).min() >= -2 * qu.POSITIVITY_TOL


@pytest.mark.parametrize("dims", [(-2, -2), (2.0, 2.0), (True, 4), (0, 4)])
def test_partial_trace_rejects_dims_that_are_not_two_positive_ints(dims):
    # (-2, -2) multiplies out to 4 and reached numpy's reshape; (2.0, 2.0)
    # escaped as a TypeError; bool is not a dimension.
    with pytest.raises(ValueError, match=r"^dims entry must be an int >= 1, got"):
        qu.partial_trace(bell(), dims, "A")


def test_trace_distance_basic():
    assert qu.trace_distance(bell(), bell()) == pytest.approx(0.0, abs=1e-12)
    zero = qu.DensityMatrix(np.diag([1.0, 0.0]))
    one = qu.DensityMatrix(np.diag([0.0, 1.0]))
    assert qu.trace_distance(zero, one) == pytest.approx(1.0)
    assert qu.trace_distance(zero, maximally_mixed(2)) == pytest.approx(0.5)
    assert qu.trace_distance(bell(), maximally_mixed(4)) == pytest.approx(DELTA_BELL_PRODUCT)


def test_trace_distance_metric_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = qu.random_density_matrix(4, rng)
        b = qu.random_density_matrix(4, rng)
        c = qu.random_density_matrix(4, rng)
        dab = qu.trace_distance(a, b)
        assert dab == pytest.approx(qu.trace_distance(b, a), abs=1e-12)
        assert 0.0 <= dab <= 1.0 + 1e-12
        assert dab <= qu.trace_distance(a, c) + qu.trace_distance(c, b) + 1e-10


def _qubit_edges():
    ket = np.array([0.6, 0.8j])
    yield "zero", np.zeros((2, 2), dtype=complex)
    yield "rank-1", np.outer(ket, ket.conj())
    yield "rank-1, negative", -0.3 * np.outer(ket, ket.conj())
    yield "traceless", np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    yield "diagonal", np.diag([0.7, -0.2]).astype(complex)
    yield "diagonal, equal", np.diag([-0.25, -0.25]).astype(complex)
    for b in (1e-300, 1e300):
        for phase in (1.0, -1.0, 1j, np.exp(0.3j)):
            yield f"|b| = {b}", np.array([[0.0, b * np.conj(phase)], [b * phase, 0.0]])
            yield f"|b| = {b}, a, d = 0.5, -0.25", np.array([[0.5, b * np.conj(phase)], [b * phase, -0.25]])


def _random_hermitian_2x2(rng):
    scale = 10.0 ** rng.uniform(-8, 8)
    a, d = scale * rng.normal(size=2)
    b = scale * complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-6, 2)
    return np.array([[a, np.conj(b)], [b, d]])


def test_qubit_trace_norm_closed_form_matches_eigenvalues():
    # Half the trace norm of a 2 x 2 Hermitian matrix in closed form, within
    # 4 eps times its largest entry of the eigenvalue route.
    rng = np.random.default_rng(2024)
    cases = [("random", _random_hermitian_2x2(rng)) for _ in range(1000)] + list(_qubit_edges())
    for name, matrix in cases:
        value = qu._trace_norm(matrix)
        assert type(value) is float
        expected = 0.5 * np.abs(np.linalg.eigvalsh(matrix)).sum()
        assert abs(value - expected) <= 4 * np.finfo(float).eps * np.abs(matrix).max(), name
    assert qu._trace_norm(np.zeros((2, 2), dtype=complex)) == 0.0


@pytest.mark.parametrize("distance", [qu.trace_distance, qu.fidelity, qu.fidelity_bounds_check])
def test_states_of_different_dimension_have_no_distance(distance):
    with pytest.raises(ValueError, match="^states live on spaces of different dimension$"):
        distance(bell(), maximally_mixed(2))


def test_fidelity_basic():
    assert qu.fidelity(bell(), bell()) == pytest.approx(1.0)
    zero = qu.DensityMatrix(np.diag([1.0, 0.0]))
    one = qu.DensityMatrix(np.diag([0.0, 1.0]))
    assert qu.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    # Against a pure state, F = <psi| rho |psi>.
    assert qu.fidelity(bell(), maximally_mixed(4)) == pytest.approx(0.25)


def test_fidelity_against_scipy_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        rho = qu.random_density_matrix(4, rng)
        sigma = qu.random_density_matrix(4, rng)
        root = scipy.linalg.sqrtm(rho.matrix)
        inner = scipy.linalg.sqrtm(root @ sigma.matrix @ root)
        expected = float(np.real(np.trace(inner)) ** 2)
        assert qu.fidelity(rho, sigma) == pytest.approx(expected, abs=1e-8)


def test_fidelity_bounds_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        rho = qu.random_density_matrix(4, rng)
        sigma = qu.random_density_matrix(4, rng)
        assert qu.fidelity_bounds_check(rho, sigma)


def random_factor(rng, rank, dim=4):
    # A dim x rank factor with unit Frobenius norm: A A+ is a state of that rank.
    factor = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return factor / np.linalg.norm(factor)


def state_of(factor):
    return qu.DensityMatrix(factor @ factor.conj().T)


def test_fidelity_of_pure_states_is_the_squared_overlap():
    # Pure states saturate D <= sqrt(1 - F), so the bound check needs F to
    # about 1e-12; random, near-identical and orthogonal pairs.
    rng = np.random.default_rng(37)
    pairs = [(random_factor(rng, 1), random_factor(rng, 1)) for _ in range(200)]
    for a, _ in pairs[:50]:
        nudge = 1e-4 * random_factor(rng, 1)
        pairs.append((a, (a + nudge) / np.linalg.norm(a + nudge)))
    for a, b in pairs[50:100]:
        orthogonal = b - np.vdot(a, b) * a
        pairs.append((a, orthogonal / np.linalg.norm(orthogonal)))
    for a, b in pairs:
        rho, sigma = state_of(a), state_of(b)
        assert abs(qu.fidelity(rho, sigma) - abs(np.vdot(a, b)) ** 2) <= 1e-12
        assert qu.fidelity_bounds_check(rho, sigma)


@pytest.mark.parametrize("nudge", [1e-6, 1e-7, 1e-8])
def test_fidelity_bounds_hold_for_near_identical_pure_states(nudge):
    # Pure pairs saturate D <= sqrt(1 - F).  Near F = 1 a square root would
    # multiply F's ~1e-15 rounding by 1 / (2 sqrt(1 - F)), so the check
    # compares D**2 with 1 - F.
    rng = np.random.default_rng(12)
    for _ in range(500):
        a = random_factor(rng, 1)
        b = a + nudge * random_factor(rng, 1)
        assert qu.fidelity_bounds_check(state_of(a), state_of(b / np.linalg.norm(b)))


def test_fidelity_bounds_check_rejects_a_distance_outside_either_bound(monkeypatch):
    rng = np.random.default_rng(43)
    rho, sigma = qu.random_density_matrix(4, rng), qu.random_density_matrix(4, rng)
    f = qu.fidelity(rho, sigma)
    tol = 1e-9  # the check's slack on either side
    lower, upper = 1.0 - np.sqrt(f), np.sqrt(1.0 - f)
    for delta, holds in [
        (lower, True),
        (upper, True),
        (lower - 2.0 * tol, False),
        (np.sqrt(1.0 - f + 2.0 * tol), False),
    ]:
        monkeypatch.setattr(qu, "trace_distance", lambda rho, sigma: delta)
        assert qu.fidelity_bounds_check(rho, sigma) is holds


@pytest.mark.parametrize("rank_rho, rank_sigma", [(1, 2), (2, 2), (2, 3), (3, 1), (1, 4)])
def test_fidelity_of_rank_deficient_states_against_scipy(rank_rho, rank_sigma):
    # Uhlmann: for rho = A A+ and sigma = B B+, F = ||A+ B||_1^2, the squared
    # sum of the singular values of A+ B, here taken by scipy.
    rng = np.random.default_rng(41 + 10 * rank_rho + rank_sigma)
    for _ in range(40):
        a, b = random_factor(rng, rank_rho), random_factor(rng, rank_sigma)
        expected = scipy.linalg.svdvals(a.conj().T @ b).sum() ** 2
        rho, sigma = state_of(a), state_of(b)
        assert abs(qu.fidelity(rho, sigma) - expected) <= 1e-12
        assert qu.fidelity_bounds_check(rho, sigma)


def test_qkd_scenarios():
    honest, measurements, shape = qu.qkd_scenario("honest")
    assert shape == st.REDUCED_SHAPE
    assert np.allclose(honest.matrix, bell().matrix)
    intercepted, _, _ = qu.qkd_scenario("intercepted")
    assert np.allclose(intercepted.matrix, np.eye(4) / 4)
    # Fully depolarized honest state is the intercepted product state.
    noisy, _, _ = qu.qkd_scenario("honest", noise=1.0)
    assert np.allclose(noisy.matrix, np.eye(4) / 4)
    with pytest.raises(ValueError):
        qu.qkd_scenario("honest", noise=1.5)
    with pytest.raises(ValueError):
        qu.qkd_scenario("eavesdrop")


def test_depolarize_convexity():
    state = qu.depolarize(bell(), 0.3)
    expected = 0.7 * bell().matrix + 0.3 * np.eye(4) / 4
    assert np.allclose(state.matrix, expected)


def test_sample_behaviour_determinism_and_concentration():
    rho, measurements, shape = qu.qkd_scenario("honest")
    point1, errors1 = qu.sample_behaviour(rho, measurements, shape, 20000, seed=5)
    point2, errors2 = qu.sample_behaviour(rho, measurements, shape, 20000, seed=5)
    assert point1 == point2
    assert np.array_equal(errors1, errors2)
    point3, _ = qu.sample_behaviour(rho, measurements, shape, 20000, seed=6)
    assert point3 != point1
    exact = qu.collapse(qu.behaviour_from_state(rho, measurements, shape)).as_array()
    exact_errors = np.sqrt(exact * (1 - exact) / 20000)
    assert (np.abs(point1.as_array() - exact) <= 5 * exact_errors).all()
    with pytest.raises(ValueError):
        qu.sample_behaviour(rho, measurements, shape, 0)


@pytest.mark.parametrize("shots", [1.5, 2.0, True, "10", np.int64(10)])
def test_sample_behaviour_rejects_shots_that_are_not_ints(shots):
    # A fractional count would divide whole draws by it, so the coordinates
    # would not be probabilities.
    rho, measurements, shape = qu.qkd_scenario("honest")
    with pytest.raises(ValueError, match=f"^shots must be an int in 1\\.\\.{2**63 - 1}, got {re.escape(repr(shots))}$"):
        qu.sample_behaviour(rho, measurements, shape, shots)


def test_sample_behaviour_zero_error_for_deterministic_coordinate():
    # A pure product state diagonal in the standard basis has deterministic
    # standard-basis outcomes, so those coordinates carry zero standard error.
    state = qu.DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    point, errors = qu.sample_behaviour(
        state, qu.zx_qubit_measurements(2), st.REDUCED_SHAPE, 1000, seed=3
    )
    assert point.coords[0] == 1.0  # standard basis, outcome 0 certain
    assert errors[0] == 0.0


def test_no_signalling_quantum_and_lhv():
    rho, measurements, shape = qu.qkd_scenario("honest", noise=0.2)
    dist = qu.behaviour_from_state(rho, measurements, shape)
    assert qu.no_signalling_check(dist)
    model = qu.model_from_strategy(st.enumerate_strategies()[37])
    assert qu.no_signalling_check(qu.lhv_evaluate(model))


def test_no_signalling_detects_violation():
    # Second party's outcome copies the first party's setting: signalling.
    table = np.zeros((2, 2, 2, 2))
    table[0, :, :, 0] = 0.5
    table[1, :, :, 1] = 0.5
    dist = qu.FullDistribution(st.REDUCED_SHAPE, table)
    result = qu.no_signalling_check(dist)
    assert not result
    assert result.witness["party"] == 1
    assert result.witness["varies_with_party"] == 0
    assert result.witness["max_deviation"] == pytest.approx(1.0)


def test_own_setting_dependence_is_not_signalling():
    # A deterministic strategy whose output changes with its own setting must
    # still pass the audit.
    strategy = st.DeterministicStrategy(1, 0, 2)
    dist = qu.lhv_evaluate(qu.model_from_strategy(strategy))
    assert qu.no_signalling_check(dist)


def no_signalling_reference(table, n, m, tol):
    # Loop over (party, co-party, co-party setting), comparing each setting's
    # marginal with setting 0's; the first offending pair reports its worst.
    for party in range(n):
        marginal = table.sum(axis=tuple(n + i for i in range(n) if i != party))
        for other in range(n):
            if other == party:
                continue
            reference = np.take(marginal, 0, axis=other)
            deviations = []
            for setting in range(m):
                deviations.append(
                    float(np.abs(np.take(marginal, setting, axis=other) - reference).max())
                )
            worst = int(np.argmax(deviations))
            if deviations[worst] > tol:
                return {
                    "party": party,
                    "varies_with_party": other,
                    "settings_compared": (0, worst),
                    "max_deviation": deviations[worst],
                }
    return None


def random_unitary_measurements(dims, m, rng):
    # Each setting splits a random unitary basis into two outcome subspaces.
    parties = []
    for dim in dims:
        settings = []
        for _ in range(m):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            split = int(rng.integers(1, dim))
            low, high = q[:, :split], q[:, split:]
            settings.append((low @ low.conj().T, high @ high.conj().T))
        parties.append(tuple(settings))
    return qu.MeasurementSet(tuple(parties))


# Deviations planted in "threshold" tables, as multiples of the tolerance:
# either side of the screen's half tolerance and of the tolerance itself.
_THRESHOLD_FACTORS = (0.49, 0.51, 0.99, 1.01)


def oracle_table(kind, n, m, rng, trial=0):
    shape = st.ScenarioShape(n, m, 2)
    if kind == "uniform":
        raw = rng.uniform(size=(m**n, 2**n))
        return (raw / raw.sum(axis=1, keepdims=True)).reshape((m,) * n + (2,) * n)
    dims = tuple(int(dim) for dim in rng.integers(2, 4, size=n))
    rho = qu.random_density_matrix(int(np.prod(dims)), rng)
    table = qu.behaviour_from_state(rho, random_unitary_measurements(dims, m, rng), shape).table
    if kind == "born":
        return table
    if kind == "threshold":
        # Mixed with the uniform table, every entry is at least 2**-(n + 1);
        # then, at one joint setting where co-party q's setting is above 0,
        # the planted amount moves from party p's outcome 1 to its outcome 0,
        # which leaves every slice sum and every other party's marginal as
        # it was.
        table = (table + 2.0**-n) / 2.0
        p, q = rng.choice(n, size=2, replace=False)
        at = [int(x) for x in rng.integers(m, size=n)] + [int(a) for a in rng.integers(2, size=n)]
        at[q] = int(rng.integers(1, m))
        shift = _THRESHOLD_FACTORS[trial % 4] * qu.NO_SIGNALLING_TOL
        at[n + p] = 1
        table[tuple(at)] -= shift
        at[n + p] = 0
        table[tuple(at)] += shift
        return table
    # Planted signal: party p's outcome copies co-party q's setting parity.
    p, q = rng.choice(n, size=2, replace=False)
    index = np.indices(table.shape)
    planted = (index[n + p] == index[q] % 2) / 2.0 ** (n - 1)
    weight = rng.uniform(0.01, 0.5)
    return (1.0 - weight) * table + weight * planted


@pytest.mark.parametrize("kind", ["born", "planted", "uniform", "threshold"])
@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_no_signalling_matches_loop_oracle(kind, n, m):
    rng = np.random.default_rng([n, m, ord(kind[0])])
    for trial in range(12 if kind == "threshold" else 10):
        table = oracle_table(kind, n, m, rng, trial)
        distribution = qu.FullDistribution(st.ScenarioShape(n, m, 2), table)
        assert np.array_equal(distribution.table, table)
        result = qu.no_signalling_check(distribution)
        expected = no_signalling_reference(table, n, m, qu.NO_SIGNALLING_TOL)
        ok = kind == "born" or (kind == "threshold" and _THRESHOLD_FACTORS[trial % 4] < 1.0)
        assert result.ok == (expected is None) == ok
        assert result.witness == expected


def test_no_signalling_reports_worst_setting():
    # The second party's outcome-0 probability is 0.5, 0.6, 0.9 at the
    # first party's settings 0, 1, 2: setting 2 deviates most, not setting 1.
    table = np.zeros((3, 3, 2, 2))
    for x, q in enumerate((0.5, 0.6, 0.9)):
        table[x, :, :, 0] = q / 2
        table[x, :, :, 1] = (1 - q) / 2
    result = qu.no_signalling_check(qu.FullDistribution(st.ScenarioShape(2, 3, 2), table))
    assert not result
    assert result.witness["party"] == 1
    assert result.witness["varies_with_party"] == 0
    assert result.witness["settings_compared"] == (0, 2)
    assert result.witness["max_deviation"] == pytest.approx(0.4)


@settings(derandomize=True, database=None, deadline=None)
@given(
    hs.lists(hs.integers(2, 3), min_size=1, max_size=3), hs.integers(2, 3), hs.integers(0, 2**32 - 1)
)
def test_born_rule_tables_normalized_and_nonsignalling(dims, m, seed):
    rng = np.random.default_rng(seed)
    shape = st.ScenarioShape(len(dims), m, 2)
    rho = qu.random_density_matrix(int(np.prod(dims)), rng)
    dist = qu.behaviour_from_state(rho, random_unitary_measurements(dims, m, rng), shape)
    sums = dist.table.reshape(m ** len(dims), -1).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert qu.no_signalling_check(dist)


def test_behaviour_bound_bell_vs_product():
    report = qu.behaviour_bound_check(bell(), maximally_mixed(4))
    assert report.l1 == pytest.approx(V_L1)
    assert report.l2 == pytest.approx(V_L2)
    assert report.delta_ab == pytest.approx(DELTA_BELL_PRODUCT)
    assert report.delta_a == pytest.approx(0.0, abs=1e-12)
    assert report.delta_b == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.5)
    assert report.holds


def test_behaviour_bound_identical_states():
    report = qu.behaviour_bound_check(bell(), bell())
    assert report.l1 == pytest.approx(0.0, abs=1e-12)
    assert report.l2 == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)
    assert report.holds
    # rho - sigma is exactly zero, so is every quantity computed from it.
    assert (report.l2, report.l1, report.delta_a, report.delta_b, report.delta_ab) == (0.0,) * 5


def bound_reference(rho, sigma):
    # The chain from the public per-state functions: one behaviour point and
    # one pair of marginals per state.
    zx, shape = qu.zx_qubit_measurements(2), st.REDUCED_SHAPE
    diff = (
        qu.collapse(qu.behaviour_from_state(rho, zx, shape)).as_array()
        - qu.collapse(qu.behaviour_from_state(sigma, zx, shape)).as_array()
    )
    marginals = [
        qu.trace_distance(qu.partial_trace(rho, (2, 2), keep), qu.partial_trace(sigma, (2, 2), keep))
        for keep in ("A", "B")
    ]
    return (np.linalg.norm(diff), np.abs(diff).sum(), *marginals, qu.trace_distance(rho, sigma))


@pytest.mark.parametrize("kind", ["full-rank", "pure", "rank-2", "identical"])
def test_behaviour_bound_check_matches_per_state_reference(kind):
    # The report is computed once on rho - sigma; by linearity it equals the
    # per-state chain.  125 seeded pairs of each kind, 500 in all.
    rng = np.random.default_rng(["full-rank", "pure", "rank-2", "identical"].index(kind) + 61)
    for _ in range(125):
        if kind == "full-rank":
            rho, sigma = qu.random_density_matrix(4, rng), qu.random_density_matrix(4, rng)
        elif kind == "identical":
            rho = qu.random_density_matrix(4, rng)
            sigma = qu.DensityMatrix(rho.matrix.copy())
        else:
            rank = 1 if kind == "pure" else 2
            rho, sigma = state_of(random_factor(rng, rank)), state_of(random_factor(rng, rank))
        report = qu.behaviour_bound_check(rho, sigma)
        got = (report.l2, report.l1, report.delta_a, report.delta_b, report.delta_ab)
        assert np.abs(np.subtract(got, bound_reference(rho, sigma))).max() <= 1e-12
        assert report.holds


@pytest.mark.parametrize("position", [0, 1])
def test_behaviour_bound_check_rejects_a_state_of_the_wrong_dimension(position):
    states = [bell(), bell()]
    states[position] = maximally_mixed(2)
    with pytest.raises(ValueError, match="^state dimension 2 does not match measurement space 4$"):
        qu.behaviour_bound_check(*states)


def test_behaviour_bound_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho = qu.random_density_matrix(4, rng)
        sigma = qu.random_density_matrix(4, rng)
        report = qu.behaviour_bound_check(rho, sigma)
        assert report.holds


def test_data_processing_marginals():
    # Discarding a subsystem cannot increase trace distance.
    rng = np.random.default_rng(19)
    for _ in range(50):
        rho = qu.random_density_matrix(4, rng)
        sigma = qu.random_density_matrix(4, rng)
        joint = qu.trace_distance(rho, sigma)
        for keep in ("A", "B"):
            local = qu.trace_distance(
                qu.partial_trace(rho, (2, 2), keep), qu.partial_trace(sigma, (2, 2), keep)
            )
            assert local <= joint + 1e-10


def test_quantum_distributions_normalized_and_nonsignalling():
    rng = np.random.default_rng(29)
    measurements = qu.zx_qubit_measurements(2)
    for _ in range(20):
        rho = qu.random_density_matrix(4, rng)
        dist = qu.behaviour_from_state(rho, measurements, st.REDUCED_SHAPE)
        sums = dist.table.reshape(2, 2, 4).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-10
        assert qu.no_signalling_check(dist)


def kron_trace_table(rho, measurements, shape):
    # Reference Born rule: one kron product and one trace per (settings, outcomes).
    n, m, d = shape.n, shape.m, shape.d
    table = np.zeros((m,) * n + (d,) * n)
    for settings in product(range(m), repeat=n):
        for outcomes in product(range(d), repeat=n):
            joint = np.array([[1.0 + 0.0j]])
            for party, (x, a) in enumerate(zip(settings, outcomes)):
                joint = np.kron(joint, measurements.projectors[party][x][a])
            table[settings + outcomes] = max(float(np.real(np.trace(rho.matrix @ joint))), 0.0)
    return table


def random_basis_projectors(dim, rng):
    # Two outcomes from a random unitary basis: outcome 0 is the first basis
    # vector, outcome 1 the rest.  The entries are complex, not symmetric.
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    first = np.outer(q[:, 0], q[:, 0].conj())
    return (first, np.eye(dim) - first)


@pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (3, 2), (2, 3), (3, 2, 2)])
def test_born_rule_matches_kron_trace_reference(dims):
    rng = np.random.default_rng(sum(dims) * 10 + len(dims))
    shape = st.ScenarioShape(len(dims), 2, 2)
    y_basis = (
        qu._projector(np.array([1.0, 1.0j]) / np.sqrt(2.0)),
        qu._projector(np.array([1.0, -1.0j]) / np.sqrt(2.0)),
    )
    for trial in range(20):
        parties = []
        for dim in dims:
            first = y_basis if dim == 2 and trial % 2 == 0 else random_basis_projectors(dim, rng)
            parties.append((first, random_basis_projectors(dim, rng)))
        measurements = qu.MeasurementSet(tuple(parties))
        rho = qu.random_density_matrix(int(np.prod(dims)), rng)
        table = qu.behaviour_from_state(rho, measurements, shape).table
        assert np.abs(table - kron_trace_table(rho, measurements, shape)).max() <= 1e-12


def test_born_rule_and_no_signalling_without_their_precomputed_maps(monkeypatch):
    # A scenario whose map would exceed _MAP_ENTRIES takes the direct Born
    # contraction and the no-signalling loop alone; both agree with the maps.
    rng = np.random.default_rng(47)
    cases = []
    for dims in [(2,), (2, 3), (3, 2, 2)]:
        measurements = random_unitary_measurements(dims, 2, rng)
        rho = qu.random_density_matrix(int(np.prod(dims)), rng)
        cases.append((rho, measurements, qu.behaviour_from_state(rho, measurements, measurements.shape)))
    monkeypatch.setattr(qu, "_MAP_ENTRIES", 0)
    qu._signalling_screen.cache_clear()
    try:
        for rho, measurements, mapped in cases:
            direct = qu.MeasurementSet(measurements.projectors)
            assert direct._born_map is None
            table = qu.behaviour_from_state(rho, direct, direct.shape).table
            assert np.abs(table - mapped.table).max() <= 1e-15
            n, m = direct.shape.n, direct.shape.m
            if n == 1:
                continue  # one party has no co-party: an empty screen
            assert qu._signalling_screen(direct.shape) is None
            for kind in ("born", "planted", "threshold"):
                table = oracle_table(kind, n, m, rng, trial=3)
                result = qu.no_signalling_check(qu.FullDistribution(direct.shape, table))
                assert result.witness == no_signalling_reference(table, n, m, qu.NO_SIGNALLING_TOL)
                assert result.ok == (kind == "born")
    finally:
        qu._signalling_screen.cache_clear()


def collapse_oracle(table, shape, names, wings):
    # Per coordinate: outcome-0 probability of the named parties at their
    # named settings, averaged over every joint setting of the others.
    n = shape.n
    coords = []
    for name in names:
        fixed = {wings.index(name[i]): int(name[i + 1]) for i in range(0, len(name), 2)}
        total, count = 0.0, 0
        for settings in product(range(shape.m), repeat=n):
            if any(settings[p] != s for p, s in fixed.items()):
                continue
            count += 1
            for outcomes in product(range(shape.d), repeat=n):
                if all(outcomes[p] == 0 for p in fixed):
                    total += table[settings + outcomes]
        coords.append(total / count)
    return np.array(coords)


@pytest.mark.parametrize(
    "shape, names, wings",
    [
        (st.REDUCED_SHAPE, st.REDUCED_COLUMN_NAMES, "ac"),
        (st.FULL_SHAPE, st.FULL_COLUMN_NAMES, "abc"),
    ],
    ids=["reduced", "full"],
)
def test_collapse_matches_oracle_on_signalling_tables(shape, names, wings):
    rng = np.random.default_rng(shape.n)
    n, m, d = shape.n, shape.m, shape.d
    for _ in range(25):
        raw = rng.uniform(size=(m**n, d**n))
        table = (raw / raw.sum(axis=1, keepdims=True)).reshape((m,) * n + (d,) * n)
        dist = qu.FullDistribution(shape, table)
        assert not qu.no_signalling_check(dist)
        point = qu.collapse(dist).as_array()
        assert np.abs(point - collapse_oracle(table, shape, names, wings)).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_sample_behaviour_matches_per_setting_draws(n):
    # One multinomial call over all settings draws the same counts as one
    # call per joint setting in lexicographic order.
    rng = np.random.default_rng(n)
    measurements = qu.MeasurementSet(
        tuple((random_basis_projectors(2, rng), random_basis_projectors(2, rng)) for _ in range(n))
    )
    shape = st.ScenarioShape(n, 2, 2)
    rho = qu.random_density_matrix(2**n, rng)
    exact = qu.behaviour_from_state(rho, measurements, shape).table
    for seed in range(5):
        draws = np.random.default_rng(seed)
        empirical = np.zeros_like(exact)
        for settings in product(range(2), repeat=n):
            probs = exact[settings].reshape(-1)
            empirical[settings] = (draws.multinomial(1000, probs / probs.sum()) / 1000).reshape(
                (2,) * n
            )
        point, _ = qu.sample_behaviour(rho, measurements, shape, 1000, seed=seed)
        # Bit-identical to collapsing the validated empirical distribution.
        expected = qu.collapse(qu.FullDistribution(shape, empirical))
        assert np.array(point.coords).tobytes() == np.array(expected.coords).tobytes()


def _lhv_with(field, value):
    arrays = {
        "weights_left": np.array([1.0]),
        "weights_right": np.array([1.0]),
        "response_first": np.full((2, 1, 2), 0.5),
        "response_middle": np.full((2, 1, 1, 2), 0.5),
        "response_last": np.full((2, 1, 2), 0.5),
    }
    arrays[field] = arrays[field] * value
    return qu.LhvModel(**arrays)


@pytest.mark.parametrize(
    "build",
    [
        bell,
        lambda: qu.zx_qubit_measurements(2),
        lambda: qu.FullDistribution(st.REDUCED_SHAPE, np.full((2, 2, 2, 2), 0.25)),
        lambda: _lhv_with("weights_left", 1.0),
        # A new graph on the shared canonical graph's masks.
        lambda: ge.VisibilityGraph(ge.build_visibility_graph(st.REDUCED_8).row_masks),
    ],
    ids=["DensityMatrix", "MeasurementSet", "FullDistribution", "LhvModel", "VisibilityGraph"],
)
def test_array_holding_dataclasses_compare_by_identity(build):
    # Field-wise == would ask an array comparison for one truth value.
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, first, second}) == 2
    for name in first._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(first, name, getattr(first, name))
    clone = pickle.loads(pickle.dumps(first))
    assert type(clone) is type(first) and clone != first and repr(clone) == repr(first)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: qu.DensityMatrix(np.diag([np.nan, 1.0])), "density matrix"),
        (lambda: qu.MeasurementSet((((_NAN_DIAG, np.eye(2) - _NAN_DIAG),),)), "projector"),
        (
            lambda: qu.FullDistribution(st.REDUCED_SHAPE, np.full((2, 2, 2, 2), np.nan)),
            "distribution table",
        ),
        (lambda: _lhv_with("weights_right", np.nan), "weights_right"),
        (lambda: _lhv_with("response_middle", np.nan), "response_middle"),
        (lambda: sta.NoiseSpec(float("nan")), "sigma"),
        (lambda: sta.NoiseSpec(float("inf")), "sigma"),
    ],
    ids=[
        "DensityMatrix", "MeasurementSet", "FullDistribution", "LhvModel-weights",
        "LhvModel-response", "NoiseSpec-nan", "NoiseSpec-inf",
    ],
)
def test_constructors_reject_non_finite(build, field):
    with pytest.raises(ValueError, match=field):
        build()
