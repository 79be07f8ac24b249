"""Quantum and hidden-variable generators of behaviour points.

Provides density matrices with validation, projective measurement sets,
Born-rule evaluation of full setting-conditional distributions, multinomial
sampling with binomial standard errors, partial trace, trace distance and
Uhlmann fidelity, two-source hidden-variable models, the two scenarios of the
key-distribution protocol (honest source vs intercepted line), and the report
chaining the l2 / l1 norms of a behaviour difference against the trace
distances of the underlying states.

The density-matrix tolerances, the JSON table parser behind
``DensityMatrix.from_json_dict``, the exact Z/X effects, the closed form of
the two one-qubit marginal trace norms, ``BoundReport`` and the fidelity
bounds check are defined once, in ``linalg``, and imported here.  ``linalg``
computes the bound report and the fidelity on Python floats for the
``bound`` verb; the numpy kernels here are the tests' reference for it.

The Born rule, the partial trace and the trace norm are private array
kernels (``_born``, ``_partial``, ``_trace_norm``); each public function
validates its inputs and calls one of them.  The bound report is linear in
the states, so it is evaluated once on the difference rho - sigma.

The fixed linear maps are built once, on first use, never at import.  Each
``MeasurementSet`` holds its Born map, one real matrix from the real and
imaginary parts of a state to its table, so the Born rule is one matrix
product, and the bound report one product with the eight Z/X effects.
``no_signalling_check``'s loop iterates ``_marginal_differences``; its
screen, that generator applied once to an identity basis of tables, is one
+/-1 matrix per scenario, and accepts when each difference is at most half
the tolerance; otherwise the loop alone decides and names the witness.  A
map that would hold more than ``_MAP_ENTRIES`` floats is not built, and the
direct contraction or the loop runs instead.  Import builds only the Z/X
``MeasurementSet`` and the four wing responses, each checked once.

``FullDistribution`` and ``LhvModel`` run their checks in one fixed order
and raise on the first failure.  Every public constructor stores read-only
private copies, so the caller's arrays are never frozen; a model's copies
are C-ordered, so its row sums do not depend on the caller's layout.
The array holders are ``strategies._Record`` classes with ``eq=False``: each
runs its checks in its own ``__init__`` and compares by identity.

Every public constructor keeps every check.  For arrays that the package
built and that are valid by construction, an array holder has the private
constructor every record inherits, ``_Record._unchecked``; it and the
public constructors end in the base's one store step, ``_Record._store``,
which sets the fields and freezes the arrays among them.  Five producers
use it and skip checks their construction makes redundant:
``model_from_strategy`` stores copies of rows of two tables that pass the
public checks at import; ``lhv_evaluate`` stores sums of products of a
valid model's nonnegative entries, whose slices sum to 1 within ~5e-9;
``random_density_matrix`` stores G G+ / tr, Hermitian, of unit trace and
positive to ~dim * eps, checking only that the trace is positive and finite;
``partial_trace`` stores the reduction of an accepted state as it is (see
there); and ``behaviour_from_state``, and through it ``sample_behaviour``,
stores the clipped Born table, checking only its slice sums.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import product
from typing import Optional

import numpy as np

from .linalg import (
    BoundReport,
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    _ZX_EFFECTS,
    _ZX_OUTCOME_0,
    _dimension_error,
    _fidelity_bounds_hold,
    _marginal_trace_norms,
    _parse_state,
)
from .strategies import (
    BehaviourPoint,
    DeterministicStrategy,
    REDUCED_SHAPE,
    ScenarioShape,
    _REPRESENTATIONS,
    _Record,
    _check_int,
    _check_real,
    _event_cells,
    _point_from_counts,
)

COMPLETENESS_TOL = 1e-10
NORMALIZATION_TOL = 1e-8
NO_SIGNALLING_TOL = 1e-10
_ROW_TOL = 1e-9
# The most floats a precomputed linear map may hold (2 MiB); a scenario whose
# map would be larger runs the direct contraction or loop instead.
_MAP_ENTRIES = 1 << 18


def _check_finite(name: str, array: np.ndarray) -> None:
    # NaN fails every tolerance comparison silently, so test for it first.
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")


class DensityMatrix(_Record, eq=False):
    """A validated quantum state.

    Construction checks Hermiticity, unit trace and positivity (eigenvalues
    above -1e-10); each violation raises ValueError naming the failed
    property.  A reduced state from ``partial_trace`` may lie past these
    tolerances (see there).

    Instances compare by identity: an array field has no single truth value.
    """

    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.array(matrix, dtype=complex)  # a private copy, frozen below
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        if not m.size:
            raise ValueError("density matrix is empty")
        _check_finite("density matrix", m)
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian (residual {herm:.3e})")
        trace = m.trace().real  # Hermitian, so the imaginary part is below 1e-10
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is not 1 (got {trace:.12g})")
        smallest = float(np.linalg.eigvalsh(m).min())
        if smallest < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has a negative eigenvalue ({smallest:.3e})")
        self._store(m)

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
        re, im = _parse_state(data)
        matrix = np.array(re, dtype=complex)
        matrix.imag = im  # re + 1j * im would warn at an infinite im: 1j * inf has 0 * inf
        return cls(matrix)


def _first_failure(failing: np.ndarray, message: str, **names) -> None:
    # Name the first failing (setting, outcome) index in row-major order.
    if failing.any():
        raise ValueError(message.format(*np.argwhere(failing)[0], **names))


class MeasurementSet(_Record, eq=False):
    """Projective measurements, one stacked projector array per party.

    ``projectors[party]`` is a read-only complex ``(settings, outcomes, dim,
    dim)`` array, so ``projectors[party][setting][outcome]`` is a projector on
    that party's local space.  Every setting must be a complete orthogonal
    projective measurement: its projectors sum to the identity and each P
    has P P+ = P, true exactly of the Hermitian idempotents, both to within
    1e-10 per entry.  All parties must share the same setting and
    outcome counts, which ``shape`` reports with the party count as a
    ``ScenarioShape``, but each party may have its own ``dim``.

    Instances compare by identity: an array field has no single truth value.
    """

    projectors: tuple[np.ndarray, ...]

    def __init__(self, projectors: tuple[np.ndarray, ...]) -> None:
        parties = tuple(projectors)
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
            if not ops.shape[0]:
                raise ValueError(f"party {p} has no settings")
            if not ops.shape[2]:
                raise ValueError(f"party {p}: projectors act on an empty space")
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
                np.abs(ops @ ops.conj().swapaxes(2, 3) - ops).max(axis=(2, 3)) > COMPLETENESS_TOL,
                "party {p} setting {0} outcome {1}: not a projector", p=p,
            )
            ops.flags.writeable = False
            stacked.append(ops)
        self._store(tuple(stacked))

    @cached_property
    def shape(self) -> ScenarioShape:
        return ScenarioShape(len(self.projectors), *self.projectors[0].shape[:2])

    @cached_property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(ops.shape[2] for ops in self.projectors)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.party_dims)

    @cached_property
    def _born_map(self) -> Optional[np.ndarray]:
        # The Born rule as one read-only real matrix, or None when it would
        # hold more than _MAP_ENTRIES floats.  Row (settings, outcomes) of
        # the table, row-major; column pair (2c, 2c + 1) reads the real and
        # imaginary parts of entry c of the raveled state, as a complex array
        # lies in memory, so that map @ rho.view(float) is Re Tr(rho * joint
        # projector) for any complex rho.
        n, m, d = self.shape.n, self.shape.m, self.shape.d
        rows, cols = (m * d) ** n, self.total_dim**2
        if rows * 2 * cols > _MAP_ENTRIES:
            return None
        # joint[x, a, i, j] = prod_k P_k[x_k, a_k, j_k, i_k], the transposed
        # joint projector, so that p(x, a) = sum_{i,j} rho[i, j] joint[x, a, i, j].
        # Subscripts: x_k is k, a_k is n + k, i_k is 2n + k and j_k is 3n + k.
        operands = []
        for k, ops in enumerate(self.projectors):
            operands += [ops, [k, n + k, 3 * n + k, 2 * n + k]]
        joint = np.einsum(*operands, list(range(4 * n))).reshape(rows, cols)
        born_map = np.stack((joint.real, -joint.imag), axis=-1).reshape(rows, 2 * cols)
        born_map.flags.writeable = False
        return born_map


# Outcome 0 of each basis is linalg's exact projector P, outcome 1 is I - P.
_ZX = np.array([[p, np.eye(2) - p] for p in _ZX_OUTCOME_0], dtype=complex)


def zx_qubit_measurements(parties: int) -> MeasurementSet:
    """Standard/Hadamard qubit measurement pair for each of ``parties`` parties.

    Setting 0 measures in the computational (Z) basis, setting 1 in the
    Hadamard (X) basis; outcome 0 is the +1 eigenvector in both cases.
    """
    _check_int("parties", parties, 1)
    return MeasurementSet((_ZX,) * parties)


_ZX_PAIR = zx_qubit_measurements(2)


def _check_slice_sums(shape: ScenarioShape, table: np.ndarray) -> None:
    # Over the few slices of a small scenario, a Python max takes half the
    # time of numpy's abs and max.
    worst = max(abs(s - 1.0) for s in table.reshape(shape.m**shape.n, -1).sum(axis=1).tolist())
    if worst > NORMALIZATION_TOL:
        raise ValueError(f"a setting slice sums to 1 +/- {worst:.3e}, beyond tolerance")


class FullDistribution(_Record, eq=False):
    """Setting-conditional outcome distribution of an (n, m, d) scenario.

    ``table`` has n setting axes followed by n outcome axes; every
    setting-conditional slice must be a probability distribution.

    Instances compare by identity: an array field has no single truth value.
    """

    shape: ScenarioShape
    table: np.ndarray

    def __init__(self, shape: ScenarioShape, table: np.ndarray) -> None:
        n, m, d = shape.n, shape.m, shape.d
        # Adding 0.0 makes a private copy and turns -0.0 into 0.0, as the
        # clip below would.
        t = np.asarray(table, dtype=float) + 0.0
        if t.shape != (m,) * n + (d,) * n:
            raise ValueError(
                f"table shape {t.shape} does not match scenario {(m,) * n + (d,) * n}"
            )
        _check_finite("distribution table", t)
        if t.min() < -NORMALIZATION_TOL:
            raise ValueError(f"negative probability {t.min():.3e} in distribution")
        # Entries within tolerance below 0 are clipped.
        np.clip(t, 0.0, None, out=t)
        _check_slice_sums(shape, t)
        self._store(shape, t)

    def probability(self, settings: tuple[int, ...], outcomes: tuple[int, ...]) -> float:
        return float(self.table[tuple(settings) + tuple(outcomes)])

    def to_json_dict(self) -> dict:
        n, m, d = self.shape.n, self.shape.m, self.shape.d
        entries = {}
        for settings in product(range(m), repeat=n):
            block = self.table[settings].reshape(d**n)
            entries[",".join(map(str, settings))] = block.tolist()
        return {
            "shape": self.shape._asdict(),
            "outcome_order": "row-major over outcome tuples",
            "table": entries,
        }


def behaviour_from_state(
    rho: DensityMatrix, measurements: MeasurementSet, shape: ScenarioShape
) -> FullDistribution:
    """Born-rule distribution p(outcomes | settings) = Tr(rho * joint projector).

    Negative entries are clipped to 0; a table whose setting slices then sum
    to 1 beyond ``NORMALIZATION_TOL`` raises ValueError.
    """
    if measurements.shape != shape:
        raise ValueError(f"measurement set scenario {measurements.shape} does not match {shape}")
    _check_state_dim(rho, measurements)
    # Adding 0.0 turns a -0.0 entry into 0.0, as the public constructor would.
    table = np.clip(_born(rho.matrix, measurements), 0.0, None) + 0.0
    # The table is finite and, clipped, nonnegative; clipping may move a slice sum.
    _check_slice_sums(shape, table)
    return FullDistribution._unchecked(shape, table)


def _check_state_dim(rho: DensityMatrix, measurements: MeasurementSet) -> None:
    if rho.dim != measurements.total_dim:
        raise _dimension_error(rho.dim, measurements.total_dim)


def _born(matrix: np.ndarray, measurements: MeasurementSet) -> np.ndarray:
    # p(x, a) = Re sum_{i,j} rho[i_1..i_n, j_1..j_n] * prod_k P_k[x_k, a_k, j_k, i_k],
    # linear in the complex matrix: one product with the measurement set's
    # Born map, or, when that map would be too large, the direct
    # contraction.  The real table has the settings axes first.
    n, m, d = measurements.shape.n, measurements.shape.m, measurements.shape.d
    born_map = measurements._born_map
    if born_map is not None:
        return (born_map @ matrix.reshape(-1).view(float)).reshape((m,) * n + (d,) * n)
    # Subscripts: i_k is k, j_k is n + k, x_k is 2n + k and a_k is 3n + k.
    operands = [matrix.reshape(measurements.party_dims * 2), list(range(2 * n))]
    for k, ops in enumerate(measurements.projectors):
        operands += [ops, [2 * n + k, 3 * n + k, n + k, k]]
    return np.einsum(*operands, list(range(2 * n, 4 * n))).real


_CANONICAL = {shape: representation for representation, (shape, _) in _REPRESENTATIONS.items()}


def _representation(shape: ScenarioShape) -> str:
    try:
        return _CANONICAL[shape]
    except KeyError:
        raise ValueError(f"no canonical behaviour representation for scenario {shape}") from None


@cache
def _collapse_matrix(representation: str) -> np.ndarray:
    # The read-only map from table.ravel(): row c is 1 / k at coordinate c's cells, else 0.
    shape = _REPRESENTATIONS[representation][0]
    size = (shape.m * shape.d) ** shape.n
    matrix = np.array([np.bincount(cells, minlength=size) / k for cells, k in _event_cells(representation)])
    matrix.flags.writeable = False
    return matrix


def collapse(distribution: FullDistribution) -> BehaviourPoint:
    """Compress a full distribution to the canonical behaviour coordinates.

    Each coordinate is the probability that every party its column name
    lists, at the listed setting, produces outcome 0, averaged over the other
    parties' settings (single-wing marginals are identical across those
    settings by no-signalling when it holds).  Supports the two canonical
    scenarios: (3, 2, 2) -> 26 coordinates and (2, 2, 2) -> 8 coordinates.
    """
    representation = _representation(distribution.shape)
    coords = _collapse_matrix(representation) @ distribution.table.ravel()
    return BehaviourPoint(tuple(coords.tolist()), representation)


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
    are reproducible); each coordinate is the correctly rounded ratio of its
    count sum to the shots it averages, with error sqrt(p * (1 - p) / shots).
    ``simulate --shots`` draws numpy's counts from its printed table with
    ``sampling.multinomial`` and gives the same bytes, unless the Born table
    and the printed one differ in the last bits and so do the counts.
    """
    _check_int("shots", shots, 1, 2**63 - 1)  # numpy's multinomial counts are int64
    _check_int("seed", seed, 0)
    probs = behaviour_from_state(rho, measurements, shape).table.reshape(shape.m**shape.n, -1)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum(axis=1, keepdims=True))
    # As Python ints: a coordinate's count sum can pass the int64 range.
    point, errors = _point_from_counts(counts.ravel().tolist(), shots, _representation(shape))
    return point, np.array(errors)


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Trace out one half of a bipartite state.

    ``dims`` gives the (left, right) factor dimensions; ``keep`` selects the
    surviving factor, "A" for the left and "B" for the right.  The reduced
    state keeps the trace and is returned unchecked: its Hermiticity residual
    and its most negative eigenvalue are at most the input's times the
    traced-out dimension, so a state at the 1e-10 tolerances of
    ``DensityMatrix`` may reduce to one past them.
    """
    if not isinstance(dims, (tuple, list)) or len(dims) != 2:
        raise ValueError(f"dims must be a pair, got {dims!r}")
    for d in dims:
        _check_int("dims entry", d, 1)
    if dims[0] * dims[1] != rho.dim:
        raise ValueError(f"dims {dims} do not factor dimension {rho.dim}")
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    # Each reduced entry is a sum of (traced-out dimension) input entries, so
    # the Hermiticity residual grows by at most that factor; and where
    # rho + p I >= 0, its reduction, the result plus p * dimension * I, is too.
    return DensityMatrix._unchecked(_partial(rho.matrix, dims, keep))


def _partial(matrix: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    # The partial trace of any square matrix of side da * db, a state or not.
    da, db = dims
    return np.einsum("ijkj->ik" if keep == "A" else "ijil->jl", matrix.reshape(da, db, da, db))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace distance 0.5 * ||rho - sigma||_1 between two states.

    Equals half the sum of absolute eigenvalues of the (Hermitian)
    difference.  Ranges from 0 for identical states to 1 for states with
    orthogonal support.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states live on spaces of different dimension")
    return _trace_norm(rho.matrix - sigma.matrix)


def _trace_norm(delta: np.ndarray) -> float:
    # Half the trace norm of a Hermitian matrix, read from its lower
    # triangle as eigvalsh reads it.
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Lies in [0, 1]; equals 1 iff the states coincide and 0 iff their
    supports are orthogonal.  Computed as ||sqrt(rho) sqrt(sigma)||_1^2, the
    squared sum of the singular values of the product of the two PSD roots,
    from one eigendecomposition of the stacked pair: with rho = U diag(r) U+
    and sigma = V diag(s) V+, that product has the singular values of
    diag(sqrt r) U+ V diag(sqrt s), so the roots are never formed.  The
    eigenvalues of sqrt(rho) sigma sqrt(rho) would not do: for a pure state
    their rounding noise of ~1e-17 becomes ~3e-9 under the square root, more
    than the 1e-9 slack of ``fidelity_bounds_check``, which pure states
    saturate.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states live on spaces of different dimension")
    vals, vecs = np.linalg.eigh(np.array([rho.matrix, sigma.matrix]))
    # An eigenvalue within the solver's rounding of zero is zero, with the
    # rank tolerance of numpy.linalg.matrix_rank (dim * eps of the largest):
    # its root would put ~3e-9 in a null direction, which adds to the trace
    # norm at first order when the two ranks differ.
    floor = rho.dim * np.finfo(float).eps * vals[:, -1:]
    sqrt_r, sqrt_s = np.sqrt(np.where(vals > floor, vals, 0.0))
    core = sqrt_r[:, None] * (vecs[0].conj().T @ vecs[1]) * sqrt_s
    value = float(np.linalg.svd(core, compute_uv=False).sum() ** 2)
    return min(max(value, 0.0), 1.0)


def fidelity_bounds_check(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    """Verify 1 - sqrt(F) <= trace distance <= sqrt(1 - F), each to within 1e-9.

    The upper bound is checked squared, as D**2 <= 1 - F.
    """
    return _fidelity_bounds_hold(fidelity(rho, sigma), trace_distance(rho, sigma))


def _check_weights(name: str, w: np.ndarray) -> None:
    _check_finite(name, w)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    if w.min() < 0 or abs(w.sum() - 1.0) > _ROW_TOL:
        raise ValueError(f"{name} is not a probability distribution")


def _check_responses(left: int, right: int, a, b, c) -> None:
    # Raise on the first failed check of the three C-ordered response tables.
    if a.ndim != 3 or a.shape[1] != left:
        raise ValueError("response_first must have shape (settings, left states, outcomes)")
    if c.ndim != 3 or c.shape[1] != right:
        raise ValueError("response_last must have shape (settings, right states, outcomes)")
    if b.ndim != 4 or b.shape[1] != left or b.shape[2] != right:
        raise ValueError(
            "response_middle must have shape (settings, left states, right states, outcomes)"
        )
    if b.shape[0] != a.shape[0] or c.shape[0] != a.shape[0]:
        raise ValueError("wings disagree on setting count")
    if b.shape[-1] != a.shape[-1] or c.shape[-1] != a.shape[-1]:
        raise ValueError("wings disagree on outcome count")
    if a.size == 0:
        raise ValueError(
            f"wings need at least one setting and one outcome, got {a.shape[0]} and {a.shape[-1]}"
        )
    names = ("response_first", "response_middle", "response_last")
    for name, table in zip(names, (a, b, c)):
        _check_finite(name, table)
        if table.min() < 0 or np.abs(table.sum(axis=-1) - 1.0).max() > _ROW_TOL:
            raise ValueError(f"{name} rows are not probability distributions")


class LhvModel(_Record, eq=False):
    """Two-source local hidden-variable model on the three-party chain.

    The first wing reads the left source, the last wing the right source, and
    the middle wing reads both.  ``response_first`` has shape (m, L, d),
    ``response_middle`` (m, L, R, d), ``response_last`` (m, R, d); the weight
    vectors are the source distributions of length L and R.  Construction
    rejects wings that disagree on the setting count m or the outcome count d;
    ``shape`` is the model's scenario, ``ScenarioShape(3, m, d)``.

    Instances compare by identity: an array field has no single truth value.
    """

    weights_left: np.ndarray
    weights_right: np.ndarray
    response_first: np.ndarray
    response_middle: np.ndarray
    response_last: np.ndarray

    def __init__(
        self,
        weights_left: np.ndarray,
        weights_right: np.ndarray,
        response_first: np.ndarray,
        response_middle: np.ndarray,
        response_last: np.ndarray,
    ) -> None:
        # Private C-ordered copies, frozen below: the row sums, and so the
        # decision, do not depend on the layout of the caller's arrays.
        wl = np.array(weights_left, dtype=float)
        wr = np.array(weights_right, dtype=float)
        _check_weights("weights_left", wl)
        _check_weights("weights_right", wr)
        a, b, c = (
            np.array(x, dtype=float, order="C")
            for x in (response_first, response_middle, response_last)
        )
        _check_responses(wl.size, wr.size, a, b, c)
        self._store(wl, wr, a, b, c)

    @cached_property
    def shape(self) -> ScenarioShape:
        return ScenarioShape(3, self.response_first.shape[0], self.response_first.shape[-1])


def lhv_evaluate(model: LhvModel) -> FullDistribution:
    """Full distribution generated by a two-source hidden-variable model.

    p(x, y, z | s, t, u) is the product of the three wing responses averaged
    over both sources independently.
    """
    # Every entry is a sum of products of the model's nonnegative entries,
    # and each setting slice sums to the product of five sums that are each
    # 1 +/- 1e-9 (a weight vector, or a response row summed over the other
    # wings' states), so to 1 within ~5e-9 < NORMALIZATION_TOL.  Adding 0.0
    # turns a -0.0 entry into 0.0, as the public constructor would.
    table = np.einsum(
        "slx,tlry,urz,l,r->stuxyz",
        model.response_first,
        model.response_middle,
        model.response_last,
        model.weights_left,
        model.weights_right,
    ) + 0.0
    return FullDistribution._unchecked(model.shape, table)


# Row w is the response table of wing index w: setting s puts all weight on
# outcome 0 when the index's bit for s, (w >> (1 - s)) & 1, is set.
_WING_RESPONSES = np.array([np.eye(2)[[1 - (w >> 1), 1 - (w & 1)]] for w in range(4)])
_WING_RESPONSES.flags.writeable = False
_ONE_STATE = np.ones(1)
_ONE_STATE.flags.writeable = False


def _strategy_arrays(first: int, middle: int, last: int) -> tuple[np.ndarray, ...]:
    # Fresh C-ordered copies of table rows, in LhvModel's argument order: the
    # model owns them, so nothing it is given reaches the shared tables.
    r = _WING_RESPONSES
    return (
        _ONE_STATE.copy(), _ONE_STATE.copy(),
        r[first, :, None].copy(), r[middle, :, None, None].copy(), r[last, :, None].copy(),
    )


# Every row of both tables passes the public checks once, here.
for _wing in range(4):
    LhvModel(*_strategy_arrays(_wing, _wing, _wing))
del _wing


def model_from_strategy(strategy: DeterministicStrategy) -> LhvModel:
    """Deterministic one-state-per-source model reproducing a strategy.

    A strategy bit is the indicator of producing the flagged outcome
    (outcome 0), so bit 1 puts all response weight on outcome 0.
    """
    # Copies of rows that passed the public checks at import.
    return LhvModel._unchecked(*_strategy_arrays(strategy.first, strategy.middle, strategy.last))


def bell_pair_state() -> DensityMatrix:
    """The two-qubit maximally entangled state (|00> + |11>) / sqrt(2)."""
    ket = np.array([1, 0, 0, 1])  # the state's entries, 0 and 1/2, are exact
    return DensityMatrix(np.outer(ket, ket) / 2)


def depolarize(rho: DensityMatrix, noise: float) -> DensityMatrix:
    """Mix a state with the maximally mixed state: (1 - noise) rho + noise I/dim."""
    _check_real("noise", noise, 0, 1)
    mixed = np.eye(rho.dim, dtype=complex) / rho.dim
    return DensityMatrix((1.0 - noise) * rho.matrix + noise * mixed)


def qkd_scenario(kind: str, noise: float = 0.0) -> tuple[DensityMatrix, MeasurementSet, ScenarioShape]:
    """State, measurements and shape for one run of the two-user protocol.

    ``kind`` selects the source seen by the two end users: "honest" is a
    (possibly depolarized) maximally entangled pair; "intercepted" models a
    measure-and-resend eavesdropper holding both line segments, which leaves
    the end users with the product of their local marginals, I/2 at every
    noise.  ``noise`` is checked for both kinds.
    """
    if kind not in ("honest", "intercepted"):
        raise ValueError(f"kind must be 'honest' or 'intercepted', got {kind!r}")
    if kind == "honest":
        state = depolarize(bell_pair_state(), noise)
    else:
        _check_real("noise", noise, 0, 1)
        state = DensityMatrix(np.eye(4) / 4)
    return state, _ZX_PAIR, REDUCED_SHAPE


class _Witness(dict):
    """A read-only dict, hashed by its items: a signalling witness, which
    compares equal to the plain dict of the same items."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _Witness, (dict(self),)

    def _refuse(self, *args, **kwargs):
        raise TypeError("a signalling witness is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


class NoSignallingResult(_Record):
    """Outcome of a no-signalling audit; ok and truthy iff it found no witness.

    A witness is stored as a read-only dict, so the result is hashable."""

    witness: Optional[dict]

    def __init__(self, witness: Optional[dict]) -> None:
        self._store(None if witness is None else _Witness(witness))

    @property
    def ok(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.ok


def no_signalling_check(distribution: FullDistribution) -> NoSignallingResult:
    """Check that each party's outcome marginals ignore the other parties' settings.

    Returns a truthy result when every marginal varies by at most 1e-10
    across the co-parties' setting choices, otherwise records the first
    offending (party, co-party) pair together with the co-party setting whose
    marginal deviates most from its setting 0, and that worst deviation.
    """
    # The screen: every marginal difference the loop below takes, as one
    # precomputed +/-1 map of the table.  Its sums differ from the loop's
    # only by rounding, below 1e-13, so a table it accepts at half the
    # tolerance passes the loop too; otherwise the loop alone decides and
    # names the witness.
    screen = _signalling_screen(distribution.shape)
    if screen is not None:
        if (abs(screen @ distribution.table.ravel()) <= NO_SIGNALLING_TOL / 2).all():
            return NoSignallingResult(None)
    n = distribution.shape.n
    for party, other, differences in _marginal_differences(distribution.table, n):
        # The marginal may depend on the party's own setting axis, but not on
        # a co-party's: keep the worst deviation at each of its settings.
        axes = tuple(i for i in range(n + 1) if i != other)
        per_setting = abs(differences).max(axis=axes)
        setting = per_setting.argmax()
        if per_setting[setting] > NO_SIGNALLING_TOL:
            return NoSignallingResult(
                {
                    "party": party,
                    "varies_with_party": other,
                    "settings_compared": (0, int(setting)),
                    "max_deviation": float(per_setting[setting]),
                }
            )
    return NoSignallingResult(None)


def _marginal_differences(table: np.ndarray, n: int):
    # (p, q, p's outcome marginal at every joint setting x minus that at x
    # with x_q set to 0) for each party p and co-party q.  Axes of ``table``
    # after its n setting and n outcome axes are carried through.
    for party in range(n):
        other_outcomes = tuple(n + i for i in range(n) if i != party)
        marginal = table.sum(axis=other_outcomes)
        for other in range(n):
            if other != party:
                yield party, other, marginal - marginal.take([0], axis=other)


@cache
def _signalling_screen(shape: ScenarioShape) -> Optional[np.ndarray]:
    # _marginal_differences applied to an identity basis of tables, without
    # the rows at x_q = 0, zero by construction: row (p, q, x with x_q > 0,
    # outcome a) is a read-only +/-1 map of table.ravel().  None when the
    # screen or the basis would hold more than _MAP_ENTRIES entries.
    n, m, d = shape.n, shape.m, shape.d
    size = (m * d) ** n
    rows = n * (n - 1) * (m - 1) * m ** (n - 1) * d
    if max(rows, size) * size > _MAP_ENTRIES:
        return None
    basis = np.eye(size, dtype=np.int8).reshape((m,) * n + (d,) * n + (size,))
    blocks = [np.delete(diff, 0, axis=q).reshape(-1, size) for _, q, diff in _marginal_differences(basis, n)]
    screen = np.reshape(blocks, (-1, size)).astype(float)
    screen.flags.writeable = False
    return screen


@cache
def _zx_behaviour_map() -> np.ndarray:
    # linalg's eight Z/X effects as one 8 x 16 map from the real part of a
    # Hermitian two-qubit matrix, all that a real symmetric effect reads.
    behaviour_map = np.array(_ZX_EFFECTS).reshape(8, 16)
    behaviour_map.flags.writeable = False
    return behaviour_map


def behaviour_bound_check(rho: DensityMatrix, sigma: DensityMatrix) -> BoundReport:
    """Compare two two-qubit states through their behaviour points.

    Measures both states with the fixed standard/Hadamard pair and reports
    the l2 and l1 norms of the difference of their behaviour points next to
    twice the sum of the marginal and joint trace distances.  Every quantity
    is linear in the state, so each is evaluated once on the difference
    rho - sigma: one product with the map of linalg's eight Z/X effects, one
    eigenvalue solve for the joint trace distance and linalg's closed forms
    for the two marginal ones.
    """
    for state in (rho, sigma):
        _check_state_dim(state, _ZX_PAIR)
    delta = rho.matrix - sigma.matrix
    diff = _zx_behaviour_map() @ delta.real.reshape(-1)
    return BoundReport(
        float(np.linalg.norm(diff)),
        float(np.abs(diff).sum()),
        *_marginal_trace_norms(delta.real.tolist(), delta.imag.tolist()),
        _trace_norm(delta),
    )


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-ish random full-rank state: normalized G G+ with Gaussian G."""
    _check_int("dim", dim, 1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    trace = m.trace()
    # G G+ is Hermitian and positive semidefinite, so divided by a positive
    # trace it is a state to within ~dim * eps, far inside the 1e-10
    # tolerances; only a zero or non-finite trace is left to rule out.
    if not 0.0 < trace.real < math.inf:
        raise ValueError(f"random state has trace {float(trace.real)}, not a positive finite number")
    return DensityMatrix._unchecked(m / trace)
