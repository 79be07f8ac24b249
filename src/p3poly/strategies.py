"""Deterministic strategies and vertex tables for the three-party chain scenario.

Three parties sit on a line (first, middle, last wing); each wing receives a
binary setting and produces a binary output.  A deterministic strategy fixes
the output for both settings of every wing, so there are 4**3 = 64 strategies.
Each strategy maps to an extreme point of the locally realisable behaviour
set, written as a 26-entry 0/1 vector: 6 single-output events, 12 two-wing
pair events and 8 first/last triple events.  Discarding the middle wing
collapses the table to 16 distinct vertices in 8 coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
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

# The event each behaviour coordinate records: every listed party, at its
# listed setting, produces the flagged outcome.  A column name holds one
# (party, setting) pair per wing letter, parties numbered in wing order, so
# "a0b1c0" reads ((0, 0), (1, 1), (2, 0)).  Vertex products and the collapse
# of full distributions are both derived from this map.
COLUMN_EVENTS = {
    representation: tuple(
        tuple((wings.index(name[i]), int(name[i + 1])) for i in range(0, len(name), 2))
        for name in names
    )
    for representation, names, wings in (
        (FULL_26, FULL_COLUMN_NAMES, "abc"),
        (REDUCED_8, REDUCED_COLUMN_NAMES, "ac"),
    )
}

# The same events as bit masks over the singles block, where the bit of
# party p at setting s sits at index 2 * p + s.
_EVENT_MASKS = {
    representation: tuple(sum(1 << (2 * p + s) for p, s in column) for column in events)
    for representation, events in COLUMN_EVENTS.items()
}


def _event_products(singles: tuple[int, ...], representation: str) -> tuple[int, ...]:
    # Coordinates of a deterministic behaviour.  Its singles are bits, so a column's
    # product is 1 exactly when its mask is all set in word: (word & mask) // mask.
    word = sum([bit << i for i, bit in enumerate(singles)])
    return tuple([(word & mask) // mask for mask in _EVENT_MASKS[representation]])


@dataclass(frozen=True)
class ScenarioShape:
    """Measurement scenario size: n parties, m settings each, d outcomes each."""

    n: int
    m: int
    d: int

    def __post_init__(self) -> None:
        for name in ("n", "m", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"scenario shape field {name} must be a positive integer")


FULL_SHAPE = ScenarioShape(3, 2, 2)
REDUCED_SHAPE = ScenarioShape(2, 2, 2)

_REPRESENTATIONS = {FULL_26: (FULL_SHAPE, 26), REDUCED_8: (REDUCED_SHAPE, 8)}


def _check_representation(representation: str) -> None:
    if not isinstance(representation, str) or representation not in _REPRESENTATIONS:
        raise ValueError(
            f"unknown representation {representation!r}; expected {FULL_26!r} or {REDUCED_8!r}"
        )


@dataclass(frozen=True)
class DeterministicStrategy:
    """One deterministic response function per wing: (first, middle, last).

    Each wing is an index w in 0..3 whose bits (w >> 1, w & 1) are the wing's
    flagged-outcome indicators (the outcome behaviour coordinates track)
    under settings 0 and 1, i.e. exactly its vertex-table entries; so the
    four responses enumerate as (0, 0), (0, 1), (1, 0), (1, 1).
    """

    first: int
    middle: int
    last: int

    def __post_init__(self) -> None:
        for wing in (self.first, self.middle, self.last):
            # type() rather than isinstance: bool is a subclass of int.
            if type(wing) is not int or not 0 <= wing <= 3:
                raise ValueError(f"wing index must be an int in 0..3, got {wing!r}")

    @property
    def index(self) -> int:
        """Row index in the canonical 64-row table."""
        return 16 * self.first + 4 * self.middle + self.last

    @property
    def singles(self) -> tuple[int, ...]:
        """Outputs as the singles block (a0, a1, b0, b1, c0, c1)."""
        first, middle, last = self.first, self.middle, self.last
        return (first >> 1, first & 1, middle >> 1, middle & 1, last >> 1, last & 1)


def _validate_bits(name: str, values: tuple[int, ...], length: int) -> None:
    if len(values) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(values)}")
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"{name} entries must be bits")


@dataclass(frozen=True)
class VertexFull:
    """Extreme point of the local set in the 26-coordinate representation.

    Pair and triple entries are products of the corresponding single entries;
    construction rejects inconsistent blocks.
    """

    singles: tuple[int, ...]
    pairs: tuple[int, ...]
    tris: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_bits("singles", self.singles, 6)
        _validate_bits("pairs", self.pairs, 12)
        _validate_bits("tris", self.tris, 8)
        if self.coords != _event_products(self.singles, FULL_26):
            raise ValueError("pair or triple block is not the product of its single entries")

    @property
    def coords(self) -> tuple[int, ...]:
        return self.singles + self.pairs + self.tris


@dataclass(frozen=True)
class VertexReduced:
    """Extreme point after discarding the middle wing: 8 coordinates
    (a0, a1, c0, c1, a0c0, a0c1, a1c0, a1c1)."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_bits("coords", self.coords, 8)
        if self.coords != _event_products(self.singles, REDUCED_8):
            raise ValueError("pair block is not the product of its single entries")

    @property
    def singles(self) -> tuple[int, ...]:
        return self.coords[:4]


@dataclass(frozen=True)
class BehaviourPoint:
    """A point of the behaviour space: probabilities in one of the two
    canonical coordinate orders; the representation tag fixes ``shape``."""

    coords: tuple[float, ...]
    representation: str

    def __post_init__(self) -> None:
        _check_representation(self.representation)
        width = _REPRESENTATIONS[self.representation][1]
        if len(self.coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(self.coords)}")
        cleaned = []
        for x in self.coords:
            try:
                x = float(x)
            except OverflowError:
                raise ValueError("coordinate outside [0, 1]: too large for a float")
            if not math.isfinite(x):
                raise ValueError(f"coordinate {x} is not finite")
            if x < -_COORD_TOL or x > 1.0 + _COORD_TOL:
                raise ValueError(f"coordinate {x} outside [0, 1]")
            cleaned.append(min(max(x, 0.0), 1.0))
        object.__setattr__(self, "coords", tuple(cleaned))

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
        return all(abs(x - y) <= tol for x, y in zip(self.coords, other.coords))

    def to_json_dict(self) -> dict:
        return {
            "representation": self.representation,
            "shape": asdict(self.shape),
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
        # A string would iterate as digits, and bool is a subclass of int.
        if not isinstance(coords, list) or not all(type(x) in (int, float) for x in coords):
            raise ValueError("behaviour point 'coords' must be a list of numbers")
        return cls(tuple(coords), representation)


def behaviour_from_vertex(vertex) -> BehaviourPoint:
    """Embed a vertex (full or reduced) as a behaviour point."""
    if isinstance(vertex, VertexFull):
        return BehaviourPoint.full(vertex.coords)
    if isinstance(vertex, VertexReduced):
        return BehaviourPoint.reduced(vertex.coords)
    raise TypeError(f"expected a vertex, got {type(vertex).__name__}")


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All 64 deterministic strategies in canonical row order.

    The order makes the singles block (a0, a1, b0, b1, c0, c1) count upward
    in binary, i.e. row n uses wing indices (n // 16, (n // 4) % 4, n % 4).
    The list is new on every call; the frozen strategies in it are shared.
    """
    return list(_STRATEGIES)


def _full_vertex(strategy: DeterministicStrategy) -> VertexFull:
    coords = _event_products(strategy.singles, FULL_26)
    return VertexFull(coords[:6], coords[6:18], coords[18:])


def vertex_from_strategy(strategy: DeterministicStrategy) -> VertexFull:
    """Map a deterministic strategy to its 26-coordinate extreme point."""
    return _FULL_VERTICES[strategy.index]


def marginalize(vertex: VertexFull) -> VertexReduced:
    """Drop the middle wing: keep (a0, a1, c0, c1) and the first/last pairs."""
    s = vertex.singles
    return VertexReduced(_event_products(s[:2] + s[4:], REDUCED_8))


def enumerate_reduced() -> list[VertexReduced]:
    """The 16 distinct reduced vertices, ordered by their (a0, a1, c0, c1) bits.

    The list is new on every call; the frozen vertices in it are shared.
    """
    return list(_REDUCED_VERTICES)


def hamming_histogram(vertices) -> dict[int, int]:
    """Histogram of Hamming weights (number of 1-entries) over a vertex list."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("no vertices to histogram")
    histogram: dict[int, int] = {}
    for vertex in vertices:
        weight = int(sum(vertex.coords))
        histogram[weight] = histogram.get(weight, 0) + 1
    return histogram


def scenario_dimension(shape: ScenarioShape) -> int:
    """Dimension of the behaviour space for a uniform (n, m, d) scenario."""
    return ((shape.d - 1) * shape.m + 1) ** shape.n - 1


# The strategies and both vertex tables, built once; every entry is frozen.
_STRATEGIES = tuple(DeterministicStrategy(n // 16, n // 4 % 4, n % 4) for n in range(64))
_FULL_VERTICES = tuple(_full_vertex(s) for s in _STRATEGIES)
# Marginalizing drops the middle wing, so the strategies with middle wing
# index 0 give each reduced vertex once, already in order of its bits.
_REDUCED_VERTICES = tuple(
    marginalize(v) for s, v in zip(_STRATEGIES, _FULL_VERTICES) if s.middle == 0
)
_VERTEX_ROWS = {
    FULL_26: tuple(v.coords for v in _FULL_VERTICES),
    REDUCED_8: tuple(v.coords for v in _REDUCED_VERTICES),
}


def vertex_rows(representation: str) -> list[tuple[int, ...]]:
    """Canonical vertex table rows for a representation tag."""
    _check_representation(representation)
    return list(_VERTEX_ROWS[representation])


def column_names(representation: str) -> tuple[str, ...]:
    _check_representation(representation)
    return FULL_COLUMN_NAMES if representation == FULL_26 else REDUCED_COLUMN_NAMES


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
        "shape": asdict(_REPRESENTATIONS[representation][0]),
        "representation": representation,
        "vertices": [list(row) for row in _VERTEX_ROWS[representation]],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
