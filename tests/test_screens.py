"""Validation of behaviour points, distributions and hidden-variable models.

``BehaviourPoint`` accepts valid input on a constant number of whole-array
checks, and runs its per-item checks only when that screen fails, to name
the first failure; ``FullDistribution`` and ``LhvModel`` run one straight
check sequence.  The oracles below are the per-item check sequences as they
stood before any screen was added, copied verbatim.  Each constructor must
reach the oracle's accept or reject decision, raise its exact message, and
store bit-identical values.

Also pinned here: the constructors copy the caller's arrays and never freeze
them, ``model_from_strategy`` hands out read-only arrays that share nothing
with its import-time tables, a model with no settings or no outcomes is
rejected by name, and a model's verdict and stored arrays do not depend on
the memory layout of the caller's arrays.

Last, the producers that store through a private constructor and skip the
checks (``model_from_strategy``, ``lhv_evaluate``, ``random_density_matrix``,
``behaviour_from_state``) must store exactly what the public constructor
stores from the same arrays.
"""

import math
from itertools import product
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from p3poly import quantum as qu
from p3poly import strategies as st

_TOL = st._COORD_TOL


# --- oracles: the per-item check sequences, verbatim -----------------------------


def _oracle_point(coords, representation):
    st._check_representation(representation)
    width = len(st._REPRESENTATIONS[representation][1])
    if len(coords) != width:
        raise ValueError(f"expected {width} coordinates, got {len(coords)}")
    cleaned = []
    for x in coords:
        if not isinstance(x, float) and (isinstance(x, bool) or not isinstance(x, Real)):
            raise ValueError(f"coordinate {x!r} is not a real number")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError("coordinate outside [0, 1]: too large for a float")
        if not math.isfinite(x):
            raise ValueError(f"coordinate {x} is not finite")
        if x < -_TOL or x > 1.0 + _TOL:
            raise ValueError(f"coordinate {x} outside [0, 1]")
        cleaned.append(min(max(x, 0.0), 1.0))
    return tuple(cleaned)


def _oracle_table(shape, table):
    n, m, d = shape.n, shape.m, shape.d
    t = np.asarray(table, dtype=float)
    if t.shape != (m,) * n + (d,) * n:
        raise ValueError(
            f"table shape {t.shape} does not match scenario {(m,) * n + (d,) * n}"
        )
    qu._check_finite("distribution table", t)
    if t.min() < -qu.NORMALIZATION_TOL:
        raise ValueError(f"negative probability {t.min():.3e} in distribution")
    t = np.clip(t, 0.0, None)
    sums = t.reshape((m,) * n + (d**n,)).sum(axis=-1)
    worst = np.abs(sums - 1.0).max()
    if worst > qu.NORMALIZATION_TOL:
        raise ValueError(f"a setting slice sums to 1 +/- {worst:.3e}, beyond tolerance")
    return t


def _oracle_lhv(weights_left, weights_right, response_first, response_middle, response_last):
    wl = np.asarray(weights_left, dtype=float)
    wr = np.asarray(weights_right, dtype=float)
    for name, w in (("weights_left", wl), ("weights_right", wr)):
        qu._check_finite(name, w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"{name} must be a non-empty vector")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a probability distribution")
    a = np.asarray(response_first, dtype=float)
    b = np.asarray(response_middle, dtype=float)
    c = np.asarray(response_last, dtype=float)
    left, right = wl.size, wr.size
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
    for name, table in (("response_first", a), ("response_middle", b), ("response_last", c)):
        qu._check_finite(name, table)
        if table.min() < 0 or np.abs(table.sum(axis=-1) - 1.0).max() > 1e-9:
            raise ValueError(f"{name} rows are not probability distributions")
    return wl, wr, a, b, c


def _outcome(build):
    # ("ok", value) or the exception's type and message.
    try:
        return "ok", build()
    except Exception as error:  # the exact type and message are compared
        return type(error).__name__, str(error)


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


# --- BehaviourPoint --------------------------------------------------------------

_EDGES = [
    0.0, -0.0, 1.0, 0.5, -_TOL, 1.0 + _TOL,
    math.nextafter(-_TOL, -math.inf), math.nextafter(1.0 + _TOL, math.inf),
    -1e-10, 1.0 + 1e-10, -5e-324, 2.0, -0.5,
    math.nan, math.inf, -math.inf,
]
_NOT_FLOATS = [
    0, 1, 2, -1, True, False, "0.5", b"1", None, Fraction(1, 3), Fraction(-1, 10**12),
    10**400, np.float64(0.25), np.float64(-1e-10), np.float64(np.nan), np.int64(1),
    np.float32(0.5),
]
_IN_BAND = hs.floats(-2 * _TOL, 1.0 + 2 * _TOL)
_ANY_COORD = hs.one_of(
    _IN_BAND, hs.sampled_from(_EDGES), hs.sampled_from(_NOT_FLOATS), hs.floats()
)


def _coordinate_lists(element):
    return hs.sampled_from([(st.REDUCED_8, 8), (st.FULL_26, 26)]).flatmap(
        lambda tag: hs.tuples(
            hs.just(tag[0]),
            hs.lists(element, min_size=tag[1] - 1, max_size=tag[1] + 1)
            | hs.lists(element, min_size=tag[1], max_size=tag[1]),
        )
    )


@settings(max_examples=400, deadline=None)
@given(case=_coordinate_lists(_IN_BAND) | _coordinate_lists(_ANY_COORD), as_tuple=hs.booleans())
@example(case=(st.REDUCED_8, [-0.0] * 8), as_tuple=True)
@example(case=(st.REDUCED_8, [-_TOL, 1.0 + _TOL] * 4), as_tuple=False)
@example(case=(st.REDUCED_8, [2.0, math.nan] * 4), as_tuple=True)
@example(case=(st.REDUCED_8, [0.5] * 7 + [10**400]), as_tuple=True)
@example(case=(st.REDUCED_8, [0.5] * 7 + [True]), as_tuple=True)
@example(case=(st.REDUCED_8, [Fraction(1, 3)] * 8), as_tuple=True)
@example(case=(st.REDUCED_8, [np.float64(-1e-10)] * 8), as_tuple=True)
def test_behaviour_point_matches_the_per_coordinate_checks(case, as_tuple):
    representation, coords = case
    coords = tuple(coords) if as_tuple else coords
    got = _outcome(lambda: st.BehaviourPoint(coords, representation).coords)
    expected = _outcome(lambda: _oracle_point(coords, representation))
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok" and all(type(x) is float for x in got[1])
    # float.hex tells -0.0 from 0.0.
    assert [x.hex() for x in got[1]] == [x.hex() for x in expected[1]]


def test_behaviour_point_accepts_a_numpy_array():
    coords = np.linspace(0.0, 1.0, 8)
    assert st.BehaviourPoint(coords, st.REDUCED_8).coords == _oracle_point(coords, st.REDUCED_8)


# --- FullDistribution ------------------------------------------------------------

_SHAPES = [st.REDUCED_SHAPE, st.FULL_SHAPE, st.ScenarioShape(2, 3, 2), st.ScenarioShape(1, 2, 3)]
_SET_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1e-12, -1e-9, -1e-8,
    math.nextafter(-1e-8, 0.0), math.nextafter(-1e-8, -1.0), -0.5,
]
_ADD_DELTAS = [1e-8, -1e-8, 0.99999999e-8, 1.00000001e-8, 2e-8, -3e-9, 1e-9, 1e-13]


def _random_distribution(shape, seed, sparse):
    n, m, d = shape.n, shape.m, shape.d
    rng = np.random.default_rng(seed)
    table = rng.random((m**n, d**n))
    if sparse:  # deterministic-like slices, with exact zeros
        table = (table == table.max(axis=1, keepdims=True)).astype(float)
    table /= table.sum(axis=1, keepdims=True)
    return table.reshape((m,) * n + (d,) * n)


_EDITS = hs.lists(
    hs.tuples(
        hs.integers(0, 10**6),
        hs.sampled_from(["set", "add", "move"]),
        hs.sampled_from(_SET_VALUES),
        hs.sampled_from(_ADD_DELTAS),
    ),
    max_size=3,
)


def _apply_edits(array, edits):
    # "set" overwrites an entry, "add" shifts it, and "move" shifts mass to
    # the next entry of its row, so that every sum stays put while an entry
    # that was 0 turns negative.
    flat = array.reshape(-1)
    width = array.shape[-1]
    for position, kind, value, delta in edits:
        i = position % flat.size
        if kind == "set":
            flat[i] = value
        else:
            flat[i] += delta
        if kind == "move":
            flat[i - i % width + (i + 1) % width] -= delta


@settings(max_examples=400, deadline=None)
@given(
    shape=hs.sampled_from(_SHAPES),
    seed=hs.integers(0, 2**32 - 1),
    sparse=hs.booleans(),
    edits=_EDITS,
    wrong_shape=hs.booleans(),
)
def test_full_distribution_matches_the_seed_checks(shape, seed, sparse, edits, wrong_shape):
    table = _random_distribution(shape, seed, sparse)
    _apply_edits(table, edits)
    if wrong_shape:
        table = table.reshape(-1)
    got = _outcome(lambda: qu.FullDistribution(shape, table).table)
    expected = _outcome(lambda: _oracle_table(shape, table))
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok" and _bits(got[1]) == _bits(expected[1])
    assert not got[1].flags.writeable


# --- LhvModel --------------------------------------------------------------------

_LHV_FIELDS = ("weights_left", "weights_right", "response_first", "response_middle", "response_last")


def _random_model(m, d, left, right, seed, sparse):
    rng = np.random.default_rng(seed)

    def stochastic(shape):
        rows = rng.random(shape)
        if sparse:
            rows = (rows == rows.max(axis=-1, keepdims=True)).astype(float)
        return rows / rows.sum(axis=-1, keepdims=True)

    return [
        stochastic(left), stochastic(right),
        stochastic((m, left, d)), stochastic((m, left, right, d)), stochastic((m, right, d)),
    ]


def _reshape(array, how):
    if how == "extra-setting":
        return np.concatenate([array, array[:1]])
    if how == "flat":
        return array.reshape(-1)
    if how == "new-axis":
        return array[None]
    return array


@settings(max_examples=500, deadline=None)
@given(
    dims=hs.tuples(*(hs.integers(1, 3) for _ in range(4))),
    seed=hs.integers(0, 2**32 - 1),
    sparse=hs.booleans(),
    edits=hs.lists(hs.tuples(hs.integers(0, 4), _EDITS), max_size=2),
    reshape=hs.tuples(
        hs.integers(0, 4), hs.sampled_from([None, None, None, "extra-setting", "flat", "new-axis"])
    ),
)
def test_lhv_model_matches_the_seed_checks(dims, seed, sparse, edits, reshape):
    arrays = _random_model(*dims, seed, sparse)
    for index, changes in edits:
        _apply_edits(arrays[index], changes)
    arrays[reshape[0]] = _reshape(arrays[reshape[0]], reshape[1])
    got = _outcome(
        lambda: [getattr(qu.LhvModel(*arrays), name) for name in _LHV_FIELDS]
    )
    expected = _outcome(lambda: _oracle_lhv(*arrays))
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok"
    assert [_bits(x) for x in got[1]] == [_bits(x) for x in expected[1]]
    assert not any(x.flags.writeable for x in got[1])


@pytest.mark.parametrize("mass", [1e-12, 1e-9, 2e-8])
@pytest.mark.parametrize("field", ("table",) + _LHV_FIELDS)
def test_a_negative_entry_in_a_row_that_sums_to_one(field, mass):
    # Move mass from the 1 to the 0 of a one-hot row: the sums hold, so only
    # the minimum tells.  Within tolerance a table is clipped and accepted;
    # a model takes no negative entry.
    arrays = _random_model(2, 2, 2, 2, 0, True)
    table = _random_distribution(st.REDUCED_SHAPE, 0, True)
    array = table if field == "table" else arrays[_LHV_FIELDS.index(field)]
    row = array.reshape(-1, 2)[0]
    one = int(row.argmax())
    row[one] += mass
    row[1 - one] -= mass
    if field == "table":
        got = _outcome(lambda: _bits(qu.FullDistribution(st.REDUCED_SHAPE, table).table))
        expected = _outcome(lambda: _bits(_oracle_table(st.REDUCED_SHAPE, table)))
    else:
        got = _outcome(lambda: [_bits(getattr(qu.LhvModel(*arrays), f)) for f in _LHV_FIELDS])
        expected = _outcome(lambda: [_bits(x) for x in _oracle_lhv(*arrays)])
    assert got == expected


@pytest.mark.parametrize("settings_, outcomes", [(0, 2), (2, 0), (0, 0)])
def test_lhv_model_needs_a_setting_and_an_outcome(settings_, outcomes):
    one = np.ones(1)
    with pytest.raises(ValueError) as error:
        qu.LhvModel(
            one, one,
            np.zeros((settings_, 1, outcomes)),
            np.zeros((settings_, 1, 1, outcomes)),
            np.zeros((settings_, 1, outcomes)),
        )
    assert str(error.value) == (
        f"wings need at least one setting and one outcome, got {settings_} and {outcomes}"
    )


# --- private copies ---------------------------------------------------------------


def test_constructors_copy_and_never_freeze_the_callers_arrays():
    matrix = np.eye(2, dtype=complex) / 2
    table = np.full((2, 2, 2, 2), 0.25)
    arrays = _random_model(2, 2, 2, 1, 0, False)
    built = [
        (matrix, qu.DensityMatrix(matrix).matrix),
        (table, qu.FullDistribution(st.REDUCED_SHAPE, table).table),
        *zip(arrays, (getattr(qu.LhvModel(*arrays), name) for name in _LHV_FIELDS)),
    ]
    for caller, stored in built:
        assert caller.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(caller, stored)


def test_model_from_strategy_shares_no_memory_with_its_tables():
    strategy = st.DeterministicStrategy(2, 1, 3)
    vertex = st.behaviour_from_vertex(st.vertex_from_strategy(strategy))
    model = qu.model_from_strategy(strategy)
    for name in _LHV_FIELDS:
        array = getattr(model, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.5
        # The model owns its copy, so it may be made writeable; writing to it
        # must not reach the next model of the same strategy.
        array.flags.writeable = True
        array[...] = 0.5
    again = qu.collapse(qu.lhv_evaluate(qu.model_from_strategy(strategy)))
    assert again.isclose(vertex, tol=0.0)


def _layouts(array):
    # The same values as a C copy, a Fortran copy and a strided view.
    spaced = np.zeros(array.shape[:-1] + (2 * array.shape[-1],))
    spaced[..., ::2] = array
    return np.array(array, order="C"), np.array(array, order="F"), spaced[..., ::2]


def test_lhv_model_decides_the_same_for_every_memory_layout():
    # One row of 8 or more outcomes scaled to sum to 1 + 1e-9, where the
    # rounding of its sum decides: numpy sums a row in an order that depends
    # on the memory layout, so the model must sum C-ordered copies.
    decisions = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d, left, right = int(rng.integers(8, 40)), *map(int, rng.integers(1, 3, size=2))
        arrays = _random_model(2, d, left, right, seed, False)
        rows = arrays[int(rng.integers(2, 5))].reshape(-1, d)
        rows[int(rng.integers(len(rows)))] *= 1.0 + 1e-9
        outcomes = [
            _outcome(lambda: [getattr(qu.LhvModel(*copies), name) for name in _LHV_FIELDS])
            for copies in zip(*map(_layouts, arrays))
        ]
        kinds = {kind for kind, _ in outcomes}
        assert len(kinds) == 1, seed
        decisions |= kinds
        if kinds == {"ok"}:
            stored = [[_bits(x) for x in fields] for _, fields in outcomes]
            assert stored[1] == stored[2] == stored[0], seed
            assert all(x.flags.c_contiguous for _, fields in outcomes for x in fields)
        else:
            assert outcomes[1] == outcomes[2] == outcomes[0], seed
    assert decisions == {"ok", "ValueError"}


# --- producers that store arrays unchecked ----------------------------------------


def _assert_stored_as_public(made, public, sources):
    # ``made`` came through a private constructor, ``public`` through the
    # public one from the same arrays: every field is bit-identical, and each
    # stored array is read-only and shares memory with no source and no other
    # field.
    arrays = [getattr(made, name) for name in type(made)._fields]
    for name, got in zip(type(made)._fields, arrays):
        expected = getattr(public, name)
        if not isinstance(got, np.ndarray):
            assert got == expected
            continue
        assert _bits(got) == _bits(expected), name
        assert not got.flags.writeable
        others = [x for x in arrays if x is not got and isinstance(x, np.ndarray)]
        assert not any(np.shares_memory(got, x) for x in [*sources, *others]), name


def _assert_evaluated_as_public(model):
    distribution = qu.lhv_evaluate(model)
    public = qu.FullDistribution(model.shape, distribution.table)
    _assert_stored_as_public(distribution, public, [getattr(model, f) for f in _LHV_FIELDS])
    assert distribution.shape == model.shape
    assert not np.signbit(distribution.table).any()


def test_strategy_models_and_their_tables_match_the_public_constructors():
    r, one = qu._WING_RESPONSES, qu._ONE_STATE
    for strategy in st.enumerate_strategies():
        first, middle, last = strategy.first, strategy.middle, strategy.last
        model = qu.model_from_strategy(strategy)
        # The public constructor on views of the two tables.
        public = qu.LhvModel(one, one, r[first, :, None], r[middle, :, None, None], r[last, :, None])
        _assert_stored_as_public(model, public, (r, one))
        _assert_evaluated_as_public(model)


def test_lhv_evaluate_matches_the_public_constructor_on_random_models():
    # Sparse models hold -0.0 where a one-hot row has its zeros, and every
    # row and weight vector is scaled to sum to 1 - 1e-9, 1 or 1 + 1e-9, each
    # edge pulled in by 1e-15 so that rounding cannot take it past the model's
    # row tolerance.
    edge = 1e-9 - 1e-15
    at_edge = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        arrays = _random_model(*map(int, rng.integers(1, 4, size=4)), seed, seed % 2 == 0)
        for array in arrays:
            array[array == 0.0] = -0.0
            rows = array.reshape(-1, array.shape[-1])
            rows *= 1.0 + rng.choice([-edge, 0.0, edge], size=(len(rows), 1))
        model = qu.LhvModel(*arrays)
        _assert_evaluated_as_public(model)
        sums = [np.abs(x.sum(axis=-1) - 1.0).max() for x in arrays]
        at_edge += max(sums) > 0.9e-9
    assert at_edge == 200


@pytest.mark.parametrize("dim", range(1, 17))
def test_random_density_matrix_matches_the_public_constructor(dim):
    for seed in range(8):
        made = qu.random_density_matrix(dim, np.random.default_rng([seed, dim]))
        # The same state through the public constructor.
        rng = np.random.default_rng([seed, dim])
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        _assert_stored_as_public(made, qu.DensityMatrix(m / m.trace()), ())


@pytest.mark.parametrize("value, trace", [(0.0, "0.0"), (math.nan, "nan")])
def test_random_density_matrix_needs_a_positive_finite_trace(value, trace):
    class Constant:
        def normal(self, size):
            return np.full(size, value)

    with pytest.raises(ValueError) as error:
        qu.random_density_matrix(2, Constant())
    assert str(error.value) == f"random state has trace {trace}, not a positive finite number"


def _projective_measurements(dims, rng):
    # Two settings per party, each splitting a random unitary basis into two
    # outcome subspaces; a split may leave one of them empty.
    parties = []
    for dim in dims:
        settings_ = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            split = int(rng.integers(0, dim + 1))
            low, high = q[:, :split], q[:, split:]
            settings_.append((low @ low.conj().T, high @ high.conj().T))
        parties.append(tuple(settings_))
    return qu.MeasurementSet(tuple(parties))


_FACTORS = {1: [(1,)], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)],
            6: [(6,), (2, 3), (3, 2)], 7: [(7,)], 8: [(8,), (2, 4), (2, 2, 2)]}


def _assert_born_table_stored_as_public(rho, measurements):
    shape = measurements.shape
    made = qu.behaviour_from_state(rho, measurements, shape)
    public = qu.FullDistribution(shape, qu._born(rho.matrix, measurements))
    _assert_stored_as_public(made, public, [rho.matrix, *measurements.projectors])
    assert not np.signbit(made.table).any()


@pytest.mark.parametrize("dim", range(1, 9))
def test_behaviour_from_state_matches_the_public_constructor(dim):
    # Random states and their partial traces under random projective
    # measurements; and under the Z/X pair on qubits, a random state, the
    # products of |0>, |+> and I/2, the Bell pair, and a state whose
    # eigenvalues sit at -0.9e-10, so that the Z outcomes that miss its
    # first basis vector come out negative and are clipped.
    for seed in range(6):
        rng = np.random.default_rng([seed, dim])
        rho = qu.random_density_matrix(dim, rng)
        for dims in _FACTORS[dim]:
            _assert_born_table_stored_as_public(rho, _projective_measurements(dims, rng))
        for left in (2, 3):
            whole = qu.random_density_matrix(left * dim, rng)
            for keep, reduced_dims in (("A", (left,)), ("B", (dim,))):
                reduced = qu.partial_trace(whole, (left, dim), keep)
                _assert_born_table_stored_as_public(
                    reduced, _projective_measurements(reduced_dims, rng)
                )
    if dim in (2, 4, 8):
        parties = dim.bit_length() - 1
        zx = qu.zx_qubit_measurements(parties)
        plus = np.full((2, 2), 0.5)
        zero = np.diag([1.0, 0.0])
        states = [qu.random_density_matrix(dim, np.random.default_rng(dim))]
        for factors in product((zero, plus, np.eye(2) / 2), repeat=parties):
            matrix = np.ones((1, 1))
            for factor in factors:
                matrix = np.kron(matrix, factor)
            states.append(qu.DensityMatrix(matrix))
        if parties == 2:
            states.append(qu.bell_pair_state())
        states.append(qu.DensityMatrix(np.diag([1.0 + (dim - 1) * 0.9e-10] + [-0.9e-10] * (dim - 1))))
        assert (qu._born(states[-1].matrix, zx) < 0).any()
        for rho in states:
            _assert_born_table_stored_as_public(rho, zx)


def test_behaviour_from_state_checks_tables_past_dimension_32(monkeypatch):
    # The bound on a slice sum grows with the dimension, so above 32 the
    # public constructor runs.
    checked = []

    def init(self, shape, table, _inner=qu.FullDistribution.__init__):
        checked.append(shape)
        _inner(self, shape, table)

    monkeypatch.setattr(qu.FullDistribution, "__init__", init)
    rng = np.random.default_rng(33)
    for dims in ((4, 8), (3, 11), (6, 6)):
        measurements = _projective_measurements(dims, rng)
        rho = qu.random_density_matrix(math.prod(dims), rng)
        made = qu.behaviour_from_state(rho, measurements, measurements.shape)
        assert len(checked) == (math.prod(dims) > 32)
        checked.clear()
        assert not made.table.flags.writeable
