"""Deterministic strategies and vertex tables for the three-party chain scenario.

Three parties sit on a line (first, middle, last wing); each wing receives a
binary setting and produces a binary output.  A deterministic strategy fixes
the output for both settings of every wing, so there are 4**3 = 64 strategies.
Each strategy maps to an extreme point of the locally realisable behaviour
set, written as a 26-entry 0/1 vector: 6 single-output events, 12 two-wing
pair events and 8 first/last triple events.  Discarding the middle wing
collapses the table to 16 distinct vertices in 8 coordinates.  Each
coordinate's event is one bit mask over the singles block, read from its
column name; the vertex tables, linalg's Z/X effects and the cell table that
takes any table or count table to the coordinates are built from these masks.

The package's immutable records (scenario shapes, strategies, points and
the reports of every layer) share one small base here, ``_Record``, rather
than ``dataclasses``, whose import costs every command-line verb ~11 ms of
start-up: each record is an ordinary class with an explicit ``__init__``.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import product
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Representation tags for behaviour points and graphs.
FULL_26 = "full-26"
REDUCED_8 = "reduced-8"

_COORD_TOL = 1e-9

SINGLE_NAMES = ("a0", "a1", "b0", "b1", "c0", "c1")
PAIR_NAMES = (
    "a0b0", "a0b1", "a1b0", "a1b1",
    "a0c0", "a0c1", "a1c0", "a1c1",
    "b0c0", "b0c1", "b1c0", "b1c1",
)
TRI_NAMES = (
    "a0b0c0", "a0b0c1", "a0b1c0", "a0b1c1",
    "a1b0c0", "a1b0c1", "a1b1c0", "a1b1c1",
)
FULL_COLUMN_NAMES = SINGLE_NAMES + PAIR_NAMES + TRI_NAMES
REDUCED_COLUMN_NAMES = ("a0", "a1", "c0", "c1", "a0c0", "a0c1", "a1c0", "a1c1")

# The event each behaviour coordinate records, as a bit mask over the singles
# block: every party the column names, at its named setting, produces the
# flagged outcome.  A column name holds one (party, setting) pair per wing
# letter, parties numbered in wing order, and the bit of party p at setting s
# sits at index 2 * p + s, so "a0b1c0" is the mask of bits 0, 3 and 4.
# Vertex products, the cell table below and linalg's Z/X effects are derived
# from this map.
_EVENT_MASKS = {
    representation: tuple(
        sum(1 << (2 * wings.index(name[i]) + int(name[i + 1])) for i in range(0, len(name), 2))
        for name in names
    )
    for representation, names, wings in (
        (FULL_26, FULL_COLUMN_NAMES, "abc"),
        (REDUCED_8, REDUCED_COLUMN_NAMES, "ac"),
    )
}


@cache
def _event_cells(representation: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Per coordinate: the cells (positions in the raveled table, setting axes
    # first) whose singles word, bit 2 * p + s set when party p at setting s
    # gives outcome 0, holds its mask, and k, the setting tuples it averages.
    # Built on first use: every command-line verb imports this module.
    n, m, d = _REPRESENTATIONS[representation][0]._astuple()
    grid = product(product(range(m), repeat=n), product(range(d), repeat=n))
    words = [sum([(a == 0) << (2 * p + s) for p, (s, a) in enumerate(zip(x, o))]) for x, o in grid]
    return tuple(
        (tuple([i for i, word in enumerate(words) if word & mask == mask]), m ** (n - mask.bit_count()))
        for mask in _EVENT_MASKS[representation]
    )


def _point_from_counts(counts, shots: int, representation: str) -> tuple[BehaviourPoint, list[float]]:
    # The point and errors of ``shots`` draws per setting tuple from their int counts, raveled
    # as a table: each coordinate sum(counts[cells]) / (shots * k) is in [0, 1], as rows sum to shots.
    coords = tuple([sum([counts[i] for i in cells]) / (shots * k) for cells, k in _event_cells(representation)])
    return BehaviourPoint._unchecked(coords, representation), [math.sqrt(p * (1.0 - p) / shots) for p in coords]


def _check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int in low..high (no upper bound
    when ``high`` is None)."""
    # type() rather than isinstance: bool is a subclass of int.
    if type(value) is not int or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an int {bounds}, got {value!r}")


def _is_real(value) -> bool:
    # An int, a float or another numbers.Real, never a bool (numpy's bool is not a Real).
    if type(value) is int or isinstance(value, float):
        return True
    from numbers import Real  # here, like numpy elsewhere: a float never loads it

    return isinstance(value, Real) and not isinstance(value, bool)


def _check_real(name: str, value, low, high=None, *, strict: bool = False) -> None:
    """Raise ValueError unless ``value`` is a finite real number in [low, high],
    or in (low, high) when ``strict`` (no upper bound when ``high`` is None)."""
    top = math.inf if high is None else high
    try:
        finite = _is_real(value) and math.isfinite(value)
    except OverflowError:  # an int or a fraction beyond the float range
        finite = False
    if finite and (low < value < top if strict else low <= value <= top):
        return
    if high is None:
        bounds = f"> {low}" if strict else f">= {low}"
    else:
        bounds = f"in ({low}, {high})" if strict else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be a finite real number {bounds}, got {value!r}")


class _Record:
    """Base of an immutable record whose fields are its annotated names.

    A subclass declares its fields as class annotations, in order, and its
    ``__init__`` runs the checks and ends in ``_store``, the one step that
    sets the fields; ``_unchecked`` is the private constructor that stores
    values the package built valid and skips the checks.  The base gives
    the ``Name(field=value, ...)`` repr; equality and hash over the field
    values, or identity with ``eq=False`` for a record holding arrays,
    whose arrays it freezes; frozen fields; a pickle that rebuilds through
    the constructor, so its checks run again; and the field values as a
    dict or a tuple.
    """

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        # _astuple reads every field in one C call, which keeps equality and
        # hashing as fast as on a tuple; attrgetter gives a lone field bare.
        read = attrgetter(*fields)
        cls._astuple = (lambda self: read(self)) if len(fields) > 1 else (lambda self: (read(self),))
        # An array holder owns the arrays it stores and freezes them; a value
        # record stores what it is given and leaves a caller's array alone.
        cls._holds_arrays = not eq
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def _store(self, *values) -> None:
        # Set the fields in declaration order, with object.__setattr__ (not
        # through __dict__, which would slow every later attribute read),
        # and, in an array holder, freeze each array among them.  An array
        # is told by its setflags, so this module loads no numpy.
        freeze = self._holds_arrays
        for name, value in zip(self._fields, values, strict=True):
            if freeze and hasattr(value, "setflags"):
                value.setflags(write=False)  # cheaper than going through .flags
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *values):
        # Stores, unchecked and without copying, values that the caller knows
        # the public constructor would store unchanged.
        record = object.__new__(cls)
        record._store(*values)
        return record

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


def _event_products(singles: tuple[int, ...], representation: str) -> tuple[int, ...]:
    # Coordinates of a deterministic behaviour.  Its singles are bits, so a column's
    # product is 1 exactly when its mask is all set in word: (word & mask) // mask.
    word = sum([bit << i for i, bit in enumerate(singles)])
    return tuple([(word & mask) // mask for mask in _EVENT_MASKS[representation]])


class ScenarioShape(_Record):
    """Measurement scenario size: n parties, m settings each, d outcomes each."""

    n: int
    m: int
    d: int

    def __init__(self, n: int, m: int, d: int) -> None:
        _check_int("scenario shape field n", n, 1)
        _check_int("scenario shape field m", m, 1)
        _check_int("scenario shape field d", d, 1)
        self._store(n, m, d)


FULL_SHAPE = ScenarioShape(3, 2, 2)
REDUCED_SHAPE = ScenarioShape(2, 2, 2)

_REPRESENTATIONS = {
    FULL_26: (FULL_SHAPE, FULL_COLUMN_NAMES),
    REDUCED_8: (REDUCED_SHAPE, REDUCED_COLUMN_NAMES),
}


def _check_representation(representation: str) -> None:
    if not isinstance(representation, str) or representation not in _REPRESENTATIONS:
        raise ValueError(
            f"unknown representation {representation!r}; expected {FULL_26!r} or {REDUCED_8!r}"
        )


class DeterministicStrategy(_Record):
    """One deterministic response function per wing: (first, middle, last).

    Each wing is an index w in 0..3 whose bits (w >> 1, w & 1) are the wing's
    flagged-outcome indicators (the outcome behaviour coordinates track)
    under settings 0 and 1, i.e. exactly its vertex-table entries; so the
    four responses enumerate as (0, 0), (0, 1), (1, 0), (1, 1).
    """

    first: int
    middle: int
    last: int

    def __init__(self, first: int, middle: int, last: int) -> None:
        for wing in (first, middle, last):
            _check_int("wing index", wing, 0, 3)
        self._store(first, middle, last)

    @property
    def index(self) -> int:
        """Row index in the canonical 64-row table."""
        return 16 * self.first + 4 * self.middle + self.last

    @property
    def singles(self) -> tuple[int, ...]:
        """Outputs as the singles block (a0, a1, b0, b1, c0, c1)."""
        first, middle, last = self.first, self.middle, self.last
        return (first >> 1, first & 1, middle >> 1, middle & 1, last >> 1, last & 1)


def _checked_coords(coords) -> list[float]:
    # Check each coordinate in turn and raise on the first bad one; a
    # coordinate within _COORD_TOL of [0, 1] is clamped into it.
    cleaned = []
    for x in coords:
        if not _is_real(x):  # float() would also read a string or bytes
            raise ValueError(f"coordinate {x!r} is not a real number")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError("coordinate outside [0, 1]: too large for a float")
        if not math.isfinite(x):
            raise ValueError(f"coordinate {x} is not finite")
        if x < -_COORD_TOL or x > 1.0 + _COORD_TOL:
            raise ValueError(f"coordinate {x} outside [0, 1]")
        cleaned.append(min(max(x, 0.0), 1.0))
    return cleaned


class BehaviourPoint(_Record):
    """A point of the behaviour space: probabilities in one of the two
    canonical coordinate orders; the representation tag fixes ``shape``."""

    coords: tuple[float, ...]
    representation: str

    def __init__(self, coords: tuple[float, ...], representation: str) -> None:
        _check_representation(representation)
        width = len(_REPRESENTATIONS[representation][1])
        if len(coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(coords)}")
        # The screen: Python floats in [0, 1] are kept as they are (NaN fails
        # the comparison).  Anything else goes through the per-coordinate
        # checks, which clamp within the band or name the first bad coordinate.
        if not all(type(x) is float and 0.0 <= x <= 1.0 for x in coords):
            coords = _checked_coords(coords)
        self._store(tuple(coords), representation)

    @classmethod
    def full(cls, coords) -> "BehaviourPoint":
        return cls(tuple(coords), FULL_26)

    @classmethod
    def reduced(cls, coords) -> "BehaviourPoint":
        return cls(tuple(coords), REDUCED_8)

    @property
    def shape(self) -> ScenarioShape:
        return _REPRESENTATIONS[self.representation][0]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.coords, dtype=float)

    def isclose(self, other: "BehaviourPoint", tol: float = 1e-12) -> bool:
        """Component-wise agreement within ``tol`` (same representation required)."""
        if self.representation != other.representation:
            raise ValueError("cannot compare points in different representations")
        _check_real("tol", tol, 0)
        return all(abs(x - y) <= tol for x, y in zip(self.coords, other.coords))

    def to_json_dict(self) -> dict:
        return {
            "representation": self.representation,
            "shape": self.shape._asdict(),
            "coords": list(self.coords),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BehaviourPoint":
        try:
            representation = data["representation"]
            coords = data["coords"]
        except (KeyError, TypeError):
            raise ValueError("behaviour point JSON needs 'representation' and 'coords'")
        _check_representation(representation)
        # A string would iterate as digits.
        if not isinstance(coords, list):
            raise ValueError("behaviour point 'coords' must be a list of numbers")
        return cls(tuple(coords), representation)


def behaviour_from_vertex(row) -> BehaviourPoint:
    """Embed a vertex row as a behaviour point; its width, 26 or 8, picks the
    representation."""
    for representation, (_, names) in _REPRESENTATIONS.items():
        if len(row) == len(names):
            return BehaviourPoint(tuple(row), representation)
    raise ValueError(f"a vertex row has 26 or 8 entries, got {len(row)}")


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All 64 deterministic strategies in canonical row order.

    The order makes the singles block (a0, a1, b0, b1, c0, c1) count upward
    in binary, i.e. row n uses wing indices (n // 16, (n // 4) % 4, n % 4).
    The list is new on every call; the frozen strategies in it are shared.
    """
    return list(_STRATEGIES)


def vertex_from_strategy(strategy: DeterministicStrategy) -> tuple[int, ...]:
    """Map a deterministic strategy to its 26-coordinate extreme point, the
    row of ``vertex_rows(FULL_26)`` at the strategy's index."""
    return _VERTEX_ROWS[FULL_26][strategy.index]


def enumerate_reduced() -> list[tuple[int, ...]]:
    """The 16 distinct reduced vertex rows, ordered by their (a0, a1, c0, c1)
    bits; ``vertex_rows(REDUCED_8)``, a new list on every call."""
    return vertex_rows(REDUCED_8)


def hamming_histogram(rows) -> dict[int, int]:
    """Histogram of Hamming weights (number of 1-entries) over vertex rows."""
    rows = list(rows)
    if not rows:
        raise ValueError("no vertices to histogram")
    histogram: dict[int, int] = {}
    for row in rows:
        weight = sum(row)
        histogram[weight] = histogram.get(weight, 0) + 1
    return histogram


# The strategies and both vertex tables, built once; a vertex is a tuple of
# 0/1 ints.  A reduced vertex drops the middle wing, so the strategies with
# middle wing index 0 give each one once, already in order of its bits.
_STRATEGIES = tuple(DeterministicStrategy(n // 16, n // 4 % 4, n % 4) for n in range(64))
_VERTEX_ROWS = {
    FULL_26: tuple(_event_products(s.singles, FULL_26) for s in _STRATEGIES),
    REDUCED_8: tuple(
        _event_products(s.singles[:2] + s.singles[4:], REDUCED_8)
        for s in _STRATEGIES
        if s.middle == 0
    ),
}


def vertex_rows(representation: str) -> list[tuple[int, ...]]:
    """Canonical vertex table rows for a representation tag."""
    _check_representation(representation)
    return list(_VERTEX_ROWS[representation])


def column_names(representation: str) -> tuple[str, ...]:
    _check_representation(representation)
    return _REPRESENTATIONS[representation][1]


def vertices_csv(representation: str) -> str:
    """Vertex table as CSV text with a named header row."""
    _check_representation(representation)
    return _csv_text(representation)


def vertices_json(representation: str) -> str:
    """Vertex table as a JSON document carrying shape and representation tags."""
    _check_representation(representation)
    return _json_text(representation)


# The export texts depend on the tag alone, so each is built on first use and
# kept; callers check the tag first, since a cache lookup raises TypeError on
# an unhashable one.
@cache
def _csv_text(representation: str) -> str:
    lines = [",".join(column_names(representation))]
    lines.extend(",".join(str(bit) for bit in row) for row in _VERTEX_ROWS[representation])
    return "\n".join(lines) + "\n"


@cache
def _json_text(representation: str) -> str:
    payload = {
        "shape": _REPRESENTATIONS[representation][0]._asdict(),
        "representation": representation,
        "vertices": [list(row) for row in _VERTEX_ROWS[representation]],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
