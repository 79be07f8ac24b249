"""Quantum and hidden-variable generators of behaviour points.

Provides density matrices with validation, projective measurement sets,
Born-rule evaluation of full setting-conditional distributions, multinomial
sampling with binomial standard errors, partial trace, trace distance and
Uhlmann fidelity, two-source hidden-variable models, the two scenarios of the
key-distribution protocol (honest source vs intercepted line), and the report
chaining the l2 / l1 norms of a behaviour difference against the trace
distances of the underlying states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .strategies import (
    COLUMN_EVENTS,
    BehaviourPoint,
    DeterministicStrategy,
    FULL_26,
    REDUCED_8,
    FULL_SHAPE,
    REDUCED_SHAPE,
    ScenarioShape,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
NORMALIZATION_TOL = 1e-8
NO_SIGNALLING_TOL = 1e-10


def _check_finite(name: str, array: np.ndarray) -> None:
    # NaN fails every tolerance comparison silently, so test for it first.
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state.

    Construction checks Hermiticity, unit trace and positivity (eigenvalues
    above -1e-10); each violation raises ValueError naming the failed
    property.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        _check_finite("density matrix", m)
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian (residual {herm:.3e})")
        trace = m.trace()
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is not 1 (got {trace:.12g})")
        smallest = float(np.linalg.eigvalsh(m).min())
        if smallest < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has a negative eigenvalue ({smallest:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        try:
            dim = data["dim"]
            re = np.array(data["re"], dtype=float)
            im = np.array(data["im"], dtype=float)
        except (KeyError, TypeError):
            raise ValueError("density matrix JSON needs 'dim' and the 're' and 'im' entry tables")
        if re.shape != im.shape:
            raise ValueError("real and imaginary parts differ in shape")
        if isinstance(dim, bool) or not isinstance(dim, int) or re.shape != (dim, dim):
            raise ValueError(
                f"density matrix 'dim' must be an integer equal to the side of 're' "
                f"(shape {re.shape}), got {dim!r}"
            )
        return cls(re + 1j * im)


def _first_failure(failing: np.ndarray, message: str, **names) -> None:
    # Name the first failing (setting, outcome) index in row-major order.
    if failing.any():
        raise ValueError(message.format(*np.argwhere(failing)[0], **names))


@dataclass(frozen=True)
class MeasurementSet:
    """Projective measurements, one stacked projector array per party.

    ``projectors[party]`` is a read-only complex ``(settings, outcomes, dim,
    dim)`` array, so ``projectors[party][setting][outcome]`` is a projector on
    that party's local space.  Every setting must be a complete orthogonal
    projective measurement; all parties must share the same setting and
    outcome counts, but each party may have its own ``dim``.
    """

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        parties = tuple(self.projectors)
        if not parties:
            raise ValueError("measurement set has no parties")
        if any(len(party) != len(parties[0]) for party in parties):
            raise ValueError("all parties must have the same number of settings")
        if len({len(setting) for party in parties for setting in party}) > 1:
            raise ValueError("all settings must have the same number of outcomes")
        stacked = []
        for p, party in enumerate(parties):
            try:
                ops = np.array(party, dtype=complex)
            except ValueError:
                raise ValueError(f"party {p}: projector dimensions disagree") from None
            if ops.ndim != 4 or ops.shape[2] != ops.shape[3]:
                raise ValueError(f"party {p}: expected square projectors, got shape {ops.shape}")
            # NaN fails every tolerance comparison silently, so test for it first.
            _first_failure(
                ~np.isfinite(ops).all(axis=(2, 3)),
                "party {p} setting {0} outcome {1} projector has non-finite entries", p=p,
            )
            _first_failure(
                np.abs(ops.sum(axis=1) - np.eye(ops.shape[2])).max(axis=(1, 2)) > COMPLETENESS_TOL,
                "party {p} setting {0}: projectors do not sum to identity", p=p,
            )
            _first_failure(
                np.abs(ops @ ops - ops).max(axis=(2, 3)) > COMPLETENESS_TOL,
                "party {p} setting {0} outcome {1}: not a projector", p=p,
            )
            ops.flags.writeable = False
            stacked.append(ops)
        object.__setattr__(self, "projectors", tuple(stacked))

    @property
    def n_parties(self) -> int:
        return len(self.projectors)

    @property
    def settings_per_party(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcomes_per_setting(self) -> int:
        return self.projectors[0].shape[1]

    @property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(ops.shape[2] for ops in self.projectors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.party_dims))


_ZX_KETS = np.array([np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)], dtype=complex)


def _projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


_ZX = np.array([[_projector(ket) for ket in basis] for basis in _ZX_KETS])


def zx_qubit_measurements(parties: int) -> MeasurementSet:
    """Standard/Hadamard qubit measurement pair for each of ``parties`` parties.

    Setting 0 measures in the computational (Z) basis, setting 1 in the
    Hadamard (X) basis; outcome 0 is the +1 eigenvector in both cases.
    """
    if parties < 1:
        raise ValueError("need at least one party")
    return MeasurementSet((_ZX,) * parties)


_ZX_PAIR = zx_qubit_measurements(2)


@dataclass(frozen=True)
class FullDistribution:
    """Setting-conditional outcome distribution of an (n, m, d) scenario.

    ``table`` has n setting axes followed by n outcome axes; every
    setting-conditional slice must be a probability distribution.
    """

    shape: ScenarioShape
    table: np.ndarray

    def __post_init__(self) -> None:
        n, m, d = self.shape.n, self.shape.m, self.shape.d
        t = np.asarray(self.table, dtype=float)
        if t.shape != (m,) * n + (d,) * n:
            raise ValueError(
                f"table shape {t.shape} does not match scenario {(m,) * n + (d,) * n}"
            )
        _check_finite("distribution table", t)
        if t.min() < -NORMALIZATION_TOL:
            raise ValueError(f"negative probability {t.min():.3e} in distribution")
        t = np.clip(t, 0.0, None)
        sums = t.reshape((m,) * n + (d**n,)).sum(axis=-1)
        worst = np.abs(sums - 1.0).max()
        if worst > NORMALIZATION_TOL:
            raise ValueError(f"a setting slice sums to 1 +/- {worst:.3e}, beyond tolerance")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def probability(self, settings: tuple[int, ...], outcomes: tuple[int, ...]) -> float:
        return float(self.table[tuple(settings) + tuple(outcomes)])

    def to_json_dict(self) -> dict:
        n, m, d = self.shape.n, self.shape.m, self.shape.d
        entries = {}
        for settings in product(range(m), repeat=n):
            block = self.table[settings].reshape(d**n)
            entries[",".join(map(str, settings))] = block.tolist()
        return {
            "shape": {"n": n, "m": m, "d": d},
            "outcome_order": "row-major over outcome tuples",
            "table": entries,
        }


def behaviour_from_state(
    rho: DensityMatrix, measurements: MeasurementSet, shape: ScenarioShape
) -> FullDistribution:
    """Born-rule distribution p(outcomes | settings) = Tr(rho * joint projector)."""
    if measurements.n_parties != shape.n:
        raise ValueError("measurement set and scenario disagree on party count")
    if measurements.settings_per_party != shape.m:
        raise ValueError("measurement set and scenario disagree on setting count")
    if measurements.outcomes_per_setting != shape.d:
        raise ValueError("measurement set and scenario disagree on outcome count")
    if rho.dim != measurements.total_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match measurement space {measurements.total_dim}"
        )
    # p(x, a) = sum_{i,j} rho[i_1..i_n, j_1..j_n] * prod_k P_k[x_k, a_k, j_k, i_k].
    # Subscripts: i_k is k, j_k is n + k, x_k is 2n + k and a_k is 3n + k.
    n = shape.n
    operands = [rho.matrix.reshape(measurements.party_dims * 2), list(range(2 * n))]
    for k, ops in enumerate(measurements.projectors):
        operands += [ops, [2 * n + k, 3 * n + k, n + k, k]]
    table = np.einsum(*operands, list(range(2 * n, 4 * n)))
    return FullDistribution(shape, np.clip(table.real, 0.0, None))


def _collapse_matrix(shape: ScenarioShape, representation: str) -> np.ndarray:
    # Row c averages, over the settings of the parties column c leaves out,
    # the probability that every party it names, at its named setting,
    # produces outcome 0.  Columns follow table.ravel().
    n, m, d = shape.n, shape.m, shape.d
    index = np.indices((m,) * n + (d,) * n).reshape(2 * n, -1)
    matrix = []
    for events in COLUMN_EVENTS[representation]:
        hit = np.ones(index.shape[1], dtype=bool)
        for party, setting in events:
            hit &= (index[party] == setting) & (index[n + party] == 0)
        matrix.append(hit / m ** (n - len(events)))
    return np.array(matrix)


_COLLAPSE = {
    shape: (_collapse_matrix(shape, representation), representation)
    for shape, representation in ((FULL_SHAPE, FULL_26), (REDUCED_SHAPE, REDUCED_8))
}


def collapse(distribution: FullDistribution) -> BehaviourPoint:
    """Compress a full distribution to the canonical behaviour coordinates.

    Each coordinate is the probability that every party its column name
    lists, at the listed setting, produces outcome 0, averaged over the other
    parties' settings (single-wing marginals are identical across those
    settings by no-signalling when it holds).  Supports the two canonical
    scenarios: (3, 2, 2) -> 26 coordinates and (2, 2, 2) -> 8 coordinates.
    """
    shape = distribution.shape
    if shape not in _COLLAPSE:
        raise ValueError(f"no canonical behaviour representation for scenario {shape}")
    matrix, representation = _COLLAPSE[shape]
    return BehaviourPoint(tuple(matrix @ distribution.table.ravel()), shape, representation)


def sample_behaviour(
    rho: DensityMatrix,
    measurements: MeasurementSet,
    shape: ScenarioShape,
    shots: int,
    seed: int = 42,
) -> tuple[BehaviourPoint, np.ndarray]:
    """Finite-shot estimate of the behaviour point plus binomial standard errors.

    Draws ``shots`` multinomial samples per joint setting (settings in
    lexicographic order, one draw from a single seeded generator, so results
    are reproducible), collapses the empirical distribution, and reports
    sqrt(p * (1 - p) / shots) per behaviour coordinate.
    """
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    table = behaviour_from_state(rho, measurements, shape).table
    probs = table.reshape(shape.m**shape.n, shape.d**shape.n)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / probs.sum(axis=1, keepdims=True))
    point = collapse(FullDistribution(shape, (counts / shots).reshape(table.shape)))
    estimates = point.as_array()
    errors = np.sqrt(estimates * (1.0 - estimates) / shots)
    return point, errors


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Trace out one half of a bipartite state.

    ``dims`` gives the (left, right) factor dimensions; ``keep`` selects the
    surviving factor, "A" for the left and "B" for the right.
    """
    da, db = dims
    if da * db != rho.dim:
        raise ValueError(f"dims {dims} do not factor dimension {rho.dim}")
    blocks = rho.matrix.reshape(da, db, da, db)
    if keep == "A":
        return DensityMatrix(np.einsum("ijkj->ik", blocks))
    if keep == "B":
        return DensityMatrix(np.einsum("ijil->jl", blocks))
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace distance 0.5 * ||rho - sigma||_1 between two states.

    Equals half the sum of absolute eigenvalues of the (Hermitian)
    difference.  Ranges from 0 for identical states to 1 for states with
    orthogonal support.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states live on spaces of different dimension")
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(eigs).sum())


def _sqrtm_psd(matrix: np.ndarray) -> np.ndarray:
    # Hermitian square root via eigendecomposition; negative dust is clipped.
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Lies in [0, 1]; equals 1 iff the states coincide and 0 iff their
    supports are orthogonal.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states live on spaces of different dimension")
    root = _sqrtm_psd(rho.matrix)
    inner = root @ sigma.matrix @ root
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    value = float(np.sqrt(vals).sum() ** 2)
    return min(max(value, 0.0), 1.0)


def fidelity_bounds_check(rho: DensityMatrix, sigma: DensityMatrix, tol: float = 1e-9) -> bool:
    """Verify 1 - sqrt(F) <= trace distance <= sqrt(1 - F) for a state pair."""
    f = fidelity(rho, sigma)
    delta = trace_distance(rho, sigma)
    lower = 1.0 - np.sqrt(f)
    upper = np.sqrt(max(1.0 - f, 0.0))
    return bool(lower <= delta + tol and delta <= upper + tol)


@dataclass(frozen=True)
class LhvModel:
    """Two-source local hidden-variable model on the three-party chain.

    The first wing reads the left source, the last wing the right source, and
    the middle wing reads both.  ``response_first`` has shape (m, L, d),
    ``response_middle`` (m, L, R, d), ``response_last`` (m, R, d); the weight
    vectors are the source distributions of length L and R.
    """

    weights_left: np.ndarray
    weights_right: np.ndarray
    response_first: np.ndarray
    response_middle: np.ndarray
    response_last: np.ndarray

    def __post_init__(self) -> None:
        wl = np.asarray(self.weights_left, dtype=float)
        wr = np.asarray(self.weights_right, dtype=float)
        for name, w in (("weights_left", wl), ("weights_right", wr)):
            _check_finite(name, w)
            if w.ndim != 1 or w.size == 0:
                raise ValueError(f"{name} must be a non-empty vector")
            if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} is not a probability distribution")
        a = np.asarray(self.response_first, dtype=float)
        b = np.asarray(self.response_middle, dtype=float)
        c = np.asarray(self.response_last, dtype=float)
        left, right = wl.size, wr.size
        if a.ndim != 3 or a.shape[1] != left:
            raise ValueError("response_first must have shape (settings, left states, outcomes)")
        if c.ndim != 3 or c.shape[1] != right:
            raise ValueError("response_last must have shape (settings, right states, outcomes)")
        if b.ndim != 4 or b.shape[1] != left or b.shape[2] != right:
            raise ValueError(
                "response_middle must have shape (settings, left states, right states, outcomes)"
            )
        for name, table in (("response_first", a), ("response_middle", b), ("response_last", c)):
            _check_finite(name, table)
            if table.min() < 0 or np.abs(table.sum(axis=-1) - 1.0).max() > 1e-9:
                raise ValueError(f"{name} rows are not probability distributions")
        for name, array in (
            ("weights_left", wl), ("weights_right", wr),
            ("response_first", a), ("response_middle", b), ("response_last", c),
        ):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def settings(self) -> int:
        return self.response_first.shape[0]

    @property
    def outcomes(self) -> int:
        return self.response_first.shape[-1]


def lhv_evaluate(model: LhvModel) -> FullDistribution:
    """Full distribution generated by a two-source hidden-variable model.

    p(x, y, z | s, t, u) is the product of the three wing responses averaged
    over both sources independently.
    """
    if model.response_middle.shape[0] != model.settings or model.response_last.shape[0] != model.settings:
        raise ValueError("wings disagree on setting count")
    if model.response_middle.shape[-1] != model.outcomes or model.response_last.shape[-1] != model.outcomes:
        raise ValueError("wings disagree on outcome count")
    table = np.einsum(
        "slx,tlry,urz,l,r->stuxyz",
        model.response_first,
        model.response_middle,
        model.response_last,
        model.weights_left,
        model.weights_right,
    )
    shape = ScenarioShape(3, model.settings, model.outcomes)
    return FullDistribution(shape, table)


def model_from_strategy(strategy: DeterministicStrategy) -> LhvModel:
    """Deterministic one-state-per-source model reproducing a strategy.

    A strategy bit is the indicator of producing the flagged outcome
    (outcome 0), so bit 1 puts all response weight on outcome 0.
    """
    a = np.zeros((2, 1, 2))
    b = np.zeros((2, 1, 1, 2))
    c = np.zeros((2, 1, 2))
    for setting in (0, 1):
        a[setting, 0, 1 - strategy.first.output(setting)] = 1.0
        b[setting, 0, 0, 1 - strategy.middle.output(setting)] = 1.0
        c[setting, 0, 1 - strategy.last.output(setting)] = 1.0
    return LhvModel(np.array([1.0]), np.array([1.0]), a, b, c)


def bell_pair_state() -> DensityMatrix:
    """The two-qubit maximally entangled state (|00> + |11>) / sqrt(2)."""
    ket = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return DensityMatrix(np.outer(ket, ket.conj()))


def depolarize(rho: DensityMatrix, noise: float) -> DensityMatrix:
    """Mix a state with the maximally mixed state: (1 - noise) rho + noise I/dim."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    mixed = np.eye(rho.dim, dtype=complex) / rho.dim
    return DensityMatrix((1.0 - noise) * rho.matrix + noise * mixed)


def qkd_scenario(kind: str, noise: float = 0.0) -> tuple[DensityMatrix, MeasurementSet, ScenarioShape]:
    """State, measurements and shape for one run of the two-user protocol.

    ``kind`` selects the source seen by the two end users: "honest" is a
    (possibly depolarized) maximally entangled pair; "intercepted" models a
    measure-and-resend eavesdropper holding both line segments, which leaves
    the end users with the product of their local marginals.
    """
    if kind not in ("honest", "intercepted"):
        raise ValueError(f"kind must be 'honest' or 'intercepted', got {kind!r}")
    pair = depolarize(bell_pair_state(), noise)
    if kind == "honest":
        return pair, _ZX_PAIR, REDUCED_SHAPE
    left = partial_trace(pair, (2, 2), "A")
    right = partial_trace(pair, (2, 2), "B")
    intercepted = DensityMatrix(np.kron(left.matrix, right.matrix))
    return intercepted, _ZX_PAIR, REDUCED_SHAPE


@dataclass(frozen=True)
class NoSignallingResult:
    """Outcome of a no-signalling audit; truthy iff every marginal is stable."""

    ok: bool
    witness: Optional[dict]

    def __bool__(self) -> bool:
        return self.ok


def no_signalling_check(
    distribution: FullDistribution, tol: float = NO_SIGNALLING_TOL
) -> NoSignallingResult:
    """Check that each party's outcome marginals ignore the other parties' settings.

    Returns a truthy result when every marginal varies by at most ``tol``
    across the co-parties' setting choices, otherwise records the first
    offending (party, co-party) pair together with the co-party setting whose
    marginal deviates most from its setting 0, and that worst deviation.
    """
    n = distribution.shape.n
    for party in range(n):
        # Marginal of this party's outcome for every joint setting choice.
        other_outcomes = tuple(n + i for i in range(n) if i != party)
        marginal = distribution.table.sum(axis=other_outcomes)
        # The marginal may depend on the party's own setting axis, but must be
        # constant along every co-party's setting axis: compare each of that
        # co-party's settings with its setting 0 and keep the worst.
        for other in range(n):
            if other == party:
                continue
            axes = tuple(i for i in range(n + 1) if i != other)
            per_setting = abs(marginal - marginal.take([0], axis=other)).max(axis=axes)
            setting = per_setting.argmax()
            if per_setting[setting] > tol:
                return NoSignallingResult(
                    False,
                    {
                        "party": party,
                        "varies_with_party": other,
                        "settings_compared": (0, int(setting)),
                        "max_deviation": float(per_setting[setting]),
                    },
                )
    return NoSignallingResult(True, None)


@dataclass(frozen=True)
class BoundReport:
    """Norms of a behaviour difference against the trace-distance bound.

    The chain l2 <= l1 <= 2 * (delta_A + delta_B + delta_AB) must hold for
    behaviour points generated from two states by the same measurements.
    """

    l2: float
    l1: float
    delta_a: float
    delta_b: float
    delta_ab: float

    @property
    def rhs(self) -> float:
        return 2.0 * (self.delta_a + self.delta_b + self.delta_ab)

    @property
    def holds(self) -> bool:
        return self.l2 <= self.l1 + 1e-9 and self.l1 <= self.rhs + 1e-9

    def to_json_dict(self) -> dict:
        return {
            "l2": self.l2,
            "l1": self.l1,
            "delta_a": self.delta_a,
            "delta_b": self.delta_b,
            "delta_ab": self.delta_ab,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def behaviour_bound_check(rho: DensityMatrix, sigma: DensityMatrix) -> BoundReport:
    """Compare two two-qubit states through their behaviour points.

    Generates both behaviour points with the fixed standard/Hadamard pair of
    measurements and reports the l2 and l1 norms of the difference next to
    twice the sum of the marginal and joint trace distances.
    """
    p = collapse(behaviour_from_state(rho, _ZX_PAIR, REDUCED_SHAPE))
    q = collapse(behaviour_from_state(sigma, _ZX_PAIR, REDUCED_SHAPE))
    diff = p.as_array() - q.as_array()
    delta_a = trace_distance(partial_trace(rho, (2, 2), "A"), partial_trace(sigma, (2, 2), "A"))
    delta_b = trace_distance(partial_trace(rho, (2, 2), "B"), partial_trace(sigma, (2, 2), "B"))
    delta_ab = trace_distance(rho, sigma)
    return BoundReport(
        l2=float(np.linalg.norm(diff)),
        l1=float(np.abs(diff).sum()),
        delta_a=delta_a,
        delta_b=delta_b,
        delta_ab=delta_ab,
    )


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-ish random full-rank state: normalized G G+ with Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())
