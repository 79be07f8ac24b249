"""The plain-Python numerics behind ``bound`` and the SVD layout, against
numpy and the ``quantum`` layer as reference.

Core claims pinned here:
  * The bound report, the fidelity and the trace distance from checked
    JSON documents match ``quantum.behaviour_bound_check``, ``fidelity`` and
    ``trace_distance`` to 1e-13 on seeded mixed, pure and rank-2 pairs and on
    the degenerate Bell, I/4 and |00><00| states.
  * The Jacobi eigen-solve scales by a power of two first, so a state whose
    entries are past ~1e154 gets its true eigenvalues, not a premature stop
    or an overflow.
  * The eigen-solve of [[0, M], [M^T, 0]] gives numpy's singular values,
    rank-deficient matrices included.
  * A state file is checked as ``DensityMatrix`` checks it, with its
    messages, and neither reader warns on an infinite entry.
"""

import numpy as np
import pytest

from p3poly import linalg as la
from p3poly import quantum as qu


def _pure(rng):
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def _rank2(rng):
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _mixed(rng):
    return qu.random_density_matrix(4, rng).matrix


_DEGENERATE = {
    "bell": qu.bell_pair_state().matrix,
    "mixed": np.eye(4, dtype=complex) / 4,
    "zero": np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
}


def _pairs():
    rng = np.random.default_rng(2033)
    makers = (_mixed, _pure, _rank2)
    pairs = [(first(rng), second(rng)) for first in makers for second in makers for _ in range(12)]
    return pairs + [(a, b) for a in _DEGENERATE.values() for b in _DEGENERATE.values()]


def test_plain_bound_matches_the_numpy_reference():
    for a, b in _pairs():
        rho, sigma = qu.DensityMatrix(a), qu.DensityMatrix(b)
        plain = [la._read_state(state.to_json_dict()) for state in (rho, sigma)]
        report = la._bound_report(*plain)
        reference = qu.behaviour_bound_check(rho, sigma)
        assert np.abs(np.subtract(report._astuple(), reference._astuple())).max() <= 1e-13
        assert report.holds == reference.holds
        assert abs(report.delta_ab - qu.trace_distance(rho, sigma)) <= 1e-13
        assert abs(la._fidelity(*plain) - qu.fidelity(rho, sigma)) <= 1e-13


def test_bell_against_the_maximally_mixed_state():
    bell, mixed = (la._read_state(qu.DensityMatrix(_DEGENERATE[k]).to_json_dict()) for k in ("bell", "mixed"))
    assert la._fidelity(bell, mixed) == pytest.approx(0.25, abs=1e-15)
    assert la._bound_report(bell, mixed).delta_ab == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("spike", [1e154, 1e200, 1e300])
def test_eigen_solve_of_huge_entries(spike):
    # Unscaled, the squared Frobenius norm overflows: at 1e200 the stop test
    # would read inf <= inf and return the diagonal, and at 1e154 math.fsum
    # would raise OverflowError.
    matrix = [[0.5, spike, 0.0], [spike, 0.5, 0.0], [0.0, 0.0, 0.0]]
    values, vectors = la._symmetric_eigen(matrix)
    assert sorted(values) == pytest.approx([-spike, 0.0, spike], rel=1e-15, abs=1.0)
    v = np.array(vectors)
    assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-15


def test_eigen_solve_is_unchanged_by_a_power_of_two():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(6, 6))
    matrix = (g + g.T).tolist()
    values, vectors = la._symmetric_eigen(matrix)
    for exponent in (-600, -3, 5, 600):
        scaled = [[x * 2.0**exponent for x in row] for row in matrix]
        again, again_vectors = la._symmetric_eigen(scaled)
        assert again == [x * 2.0**exponent for x in values]
        assert again_vectors == vectors


@pytest.mark.parametrize("rank", [8, 5, 2, 1, 0])
def test_singular_values_match_numpy(rank):
    rng = np.random.default_rng(rank)
    for _ in range(20):
        m = rng.normal(size=(8, rank)) @ rng.normal(size=(rank, 8))
        values = sorted(la._singular_values(m.tolist()), reverse=True)
        expected = np.linalg.svd(m, compute_uv=False)
        assert np.abs(np.subtract(values, expected)).max() <= 1e-14 * max(expected.max(), 1.0)


@pytest.mark.parametrize(
    "re, im, message",
    [
        ([[0.5, 0.5], [0.0, 0.5]], [[0.0] * 2] * 2, "density matrix is not Hermitian (residual 5.000e-01)"),
        ([[0.5, 0.0], [0.0, 0.5]], [[1e-9, 0.0], [0.0, 0.0]], "density matrix is not Hermitian (residual 2.000e-09)"),
        ([[0.45, 0.0], [0.0, 0.45]], [[0.0] * 2] * 2, "density matrix trace is not 1 (got 0.9)"),
        ([[1.5, 0.0], [0.0, -0.5]], [[0.0] * 2] * 2, "density matrix has a negative eigenvalue (-5.000e-01)"),
        ([[1e400, 0.0], [0.0, 0.5]], [[0.0] * 2] * 2, "density matrix has non-finite entries"),
        ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e400, 0.0]], "density matrix has non-finite entries"),
    ],
)
def test_a_state_is_checked_as_density_matrix_checks_it(re, im, message):
    # No numpy warning either: 1j * inf would have one, at 0 * inf.
    data = {"dim": 2, "re": re, "im": im}
    with pytest.raises(ValueError) as plain:
        la._read_state(data)
    with pytest.raises(ValueError) as reference:
        qu.DensityMatrix.from_json_dict(data)
    assert str(plain.value) == str(reference.value) == message


def test_ragged_tables_are_named():
    data = {"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    for read in (la._read_state, qu.DensityMatrix.from_json_dict):
        with pytest.raises(ValueError, match=r"^density matrix 're' has rows of different lengths$"):
            read(data)
