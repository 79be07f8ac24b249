"""Strategy enumeration and vertex-table tests.

Core claims pinned here:
  * 64 deterministic strategies in canonical order; the singles block counts
    up in binary.
  * Full 64x26 and reduced 16x8 tables match the frozen reference tables
    bit-exactly, including row and column order; a vertex is a tuple of 0/1
    Python ints, so the JSON and CSV exports print the same bits.
  * Each reduced row is a full row's first/last-wing columns; these fibers
    have size exactly 4 and cover all 16 reduced vertices.
  * Hamming-weight histogram matches the frozen reference.
  * Behaviour-space dimension formula gives 26 and 8 for the two scenarios.
  * Behaviour points and vertex tables survive a trip through their JSON and
    CSV text unchanged, and both exports reject an unknown representation.
  * Each export returns the same text on every call.
  * The enumerations return fresh lists of shared frozen entries.
  * A strategy is its three wing indices: construction takes only ints in
    0..3, and equality, hash and repr go by those values.
"""

import json
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from p3poly import strategies as st

from reference_tables import FULL_TABLE, HAMMING_HISTOGRAM, REDUCED_TABLE


def test_enumeration_count_and_order():
    strategies = st.enumerate_strategies()
    assert len(strategies) == 64
    assert strategies[0].singles == (0, 0, 0, 0, 0, 0)
    assert strategies[-1].singles == (1, 1, 1, 1, 1, 1)
    # Singles block counts upward in binary.
    values = [int("".join(map(str, s.singles)), 2) for s in strategies]
    assert values == list(range(64))
    # Row index round-trips.
    assert [s.index for s in strategies] == list(range(64))


def test_wing_strategy_index_roundtrip():
    # Row n has wings (n // 16, n // 4 % 4, n % 4), and wing index w holds the
    # flagged-outcome bits (w >> 1, w & 1) under settings 0 and 1.
    for n, strategy in enumerate(st.enumerate_strategies()):
        wings = (n // 16, n // 4 % 4, n % 4)
        assert (strategy.first, strategy.middle, strategy.last) == wings
        assert st.DeterministicStrategy(*wings).index == n
        assert strategy.singles == tuple(bit for w in wings for bit in ((w >> 1) & 1, w & 1))


@pytest.mark.parametrize("wing", [4, -1, True, 1.0, "1"])
def test_strategy_rejects_a_wing_that_is_not_an_int_in_0_to_3(wing):
    for wings in ((wing, 0, 0), (0, wing, 0), (0, 0, wing)):
        with pytest.raises(ValueError, match=r"^wing index must be an int in 0\.\.3"):
            st.DeterministicStrategy(*wings)


def test_full_table_bit_exact():
    rows = st.vertex_rows(st.FULL_26)
    assert rows == [tuple(row) for row in FULL_TABLE]
    assert all(type(row) is tuple and all(type(b) is int for b in row) for row in rows)
    # Each call hands out a fresh list, so a caller's edit does not reach the table.
    rows.clear()
    assert st.vertex_rows(st.FULL_26) == [tuple(row) for row in FULL_TABLE]


def test_reduced_table_bit_exact():
    rows = st.vertex_rows(st.REDUCED_8)
    assert rows == [tuple(row) for row in REDUCED_TABLE]
    assert all(type(row) is tuple and all(type(b) is int for b in row) for row in rows)
    # Each call hands out a fresh list, so a caller's edit does not reach the table.
    rows.clear()
    assert st.vertex_rows(st.REDUCED_8) == [tuple(row) for row in REDUCED_TABLE]


def test_vertex_blocks_are_products():
    for strategy in st.enumerate_strategies():
        row = st.vertex_from_strategy(strategy)
        a0, a1, b0, b1, c0, c1 = row[:6]
        expected_pairs = (
            a0 * b0, a0 * b1, a1 * b0, a1 * b1,
            a0 * c0, a0 * c1, a1 * c0, a1 * c1,
            b0 * c0, b0 * c1, b1 * c0, b1 * c1,
        )
        assert row[6:18] == expected_pairs
        expected_tris = tuple(
            a * b * c for a in (a0, a1) for b in (b0, b1) for c in (c0, c1)
        )
        assert row[18:] == expected_tris


def test_vertex_validation_rejects_inconsistent_blocks():
    # Each table holds one row per assignment of its singles, and every other
    # entry of a row is the product of the singles its column name lists; so
    # a row with an inconsistent block is no vertex.
    for representation, width in ((st.FULL_26, 6), (st.REDUCED_8, 4)):
        rows = st.vertex_rows(representation)
        assert sorted(row[:width] for row in rows) == list(product((0, 1), repeat=width))
        for row in rows:
            bits = dict(zip(st.column_names(representation), row))
            for name, bit in bits.items():
                assert bit == min(bits[name[i : i + 2]] for i in range(0, len(name), 2))
    good = st.vertex_from_strategy(st.enumerate_strategies()[63])
    assert good[:6] + tuple(1 - b for b in good[6:18]) + good[18:] not in st.vertex_rows(st.FULL_26)
    assert (1, 0, 1, 0, 0, 0, 0, 0) not in st.vertex_rows(st.REDUCED_8)


def test_marginalization_fibers():
    # A reduced row is the full row's columns at the reduced column names.
    positions = [st.FULL_COLUMN_NAMES.index(name) for name in st.REDUCED_COLUMN_NAMES]
    fibers: dict[tuple[int, ...], int] = {}
    for row in st.vertex_rows(st.FULL_26):
        reduced = tuple(row[i] for i in positions)
        fibers[reduced] = fibers.get(reduced, 0) + 1
    assert len(fibers) == 16
    assert set(fibers.values()) == {4}
    assert sorted(fibers) == st.vertex_rows(st.REDUCED_8) == [tuple(row) for row in REDUCED_TABLE]


def test_marginalize_keeps_first_and_last_wing():
    strategy = st.DeterministicStrategy(2, 1, 1)  # singles (1,0,0,1,0,1)
    row = st.vertex_from_strategy(strategy)
    reduced = tuple(row[st.FULL_COLUMN_NAMES.index(name)] for name in st.REDUCED_COLUMN_NAMES)
    assert reduced == (1, 0, 0, 1, 0, 1, 0, 0)
    # The reduced table is ordered by the first and last wing indices.
    assert st.enumerate_reduced()[4 * strategy.first + strategy.last] == reduced


def test_enumerate_reduced_ordering():
    reduced = st.enumerate_reduced()
    assert reduced == st.vertex_rows(st.REDUCED_8)
    assert len(reduced) == 16
    singles = [row[:4] for row in reduced]
    assert singles == sorted(singles)
    assert reduced[0] == (0,) * 8
    assert reduced[-1] == (1,) * 8


def test_hamming_histogram():
    vertices = [st.vertex_from_strategy(s) for s in st.enumerate_strategies()]
    assert st.hamming_histogram(vertices) == HAMMING_HISTOGRAM
    with pytest.raises(ValueError):
        st.hamming_histogram([])


def test_scenario_shape_validation():
    with pytest.raises(ValueError):
        st.ScenarioShape(0, 2, 2)
    with pytest.raises(ValueError):
        st.ScenarioShape(2, 2, -1)


def test_behaviour_point_validation():
    point = st.BehaviourPoint.reduced([0.5] * 8)
    assert point.shape == st.REDUCED_SHAPE
    assert st.BehaviourPoint([0.5] * 26, st.FULL_26).shape == st.FULL_SHAPE
    with pytest.raises(ValueError):
        st.BehaviourPoint.reduced([0.5] * 7)
    with pytest.raises(ValueError):
        st.BehaviourPoint.reduced([0.5] * 7 + [1.5])
    # Float dust just outside [0, 1] is absorbed, not rejected.
    dusty = st.BehaviourPoint.reduced([1.0 + 5e-12] + [0.0] * 7)
    assert dusty.coords[0] == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_behaviour_point_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        st.BehaviourPoint.reduced([bad] + [0.5] * 7)
    with pytest.raises(ValueError, match="not finite"):
        st.BehaviourPoint.full([0.5] * 25 + [bad])


@pytest.mark.parametrize("bad", ["0.5", b"1", True, np.True_, None, 0.5j])
def test_behaviour_point_coordinates_are_real_numbers(bad):
    # float() would read a numeric string or bytes, and a bool, as a number.
    with pytest.raises(ValueError, match=f"^coordinate {re.escape(repr(bad))} is not a real number$"):
        st.BehaviourPoint.reduced([0.5] * 7 + [bad])
    point = st.BehaviourPoint.reduced([1, 0, np.int64(1), np.float32(0.5), np.float64(0.25), 0.5, 0, 1])
    assert point.coords == (1.0, 0.0, 1.0, 0.5, 0.25, 0.5, 0.0, 1.0)
    assert all(type(x) is float for x in point.coords)


def test_behaviour_point_isclose():
    p = st.BehaviourPoint.reduced([0.5] * 8)
    q = st.BehaviourPoint.reduced([0.5 + 5e-13] * 8)
    assert p.isclose(q)
    assert not p.isclose(st.BehaviourPoint.reduced([0.6] * 8))
    with pytest.raises(ValueError):
        p.isclose(st.BehaviourPoint.full([0.5] * 26))


def test_behaviour_point_json_roundtrip():
    point = st.BehaviourPoint.full([v / 26 for v in range(26)])
    again = st.BehaviourPoint.from_json_dict(point.to_json_dict())
    assert again == point
    with pytest.raises(ValueError):
        st.BehaviourPoint.from_json_dict({"coords": [0.5] * 8})
    for coords in (5, "00000000", (0.5,) * 8):
        with pytest.raises(ValueError, match="list of numbers"):
            st.BehaviourPoint.from_json_dict({"representation": st.REDUCED_8, "coords": coords})
    for coords in ([True, False] * 4, [0.5] * 7 + ["0.5"]):
        with pytest.raises(ValueError, match="is not a real number"):
            st.BehaviourPoint.from_json_dict({"representation": st.REDUCED_8, "coords": coords})
    again = st.BehaviourPoint.from_json_dict({"representation": st.REDUCED_8, "coords": [0, 1] * 4})
    assert again.coords == (0.0, 1.0) * 4


def test_csv_export_full():
    text = st.vertices_csv(st.FULL_26)
    lines = text.strip().split("\n")
    assert len(lines) == 65
    assert lines[0].split(",") == list(st.FULL_COLUMN_NAMES)
    assert lines[0].startswith("a0,a1,b0,b1,c0,c1,a0b0")
    parsed = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert parsed == [tuple(row) for row in FULL_TABLE]


@settings(derandomize=True, database=None, deadline=None)
@given(hs.sampled_from([(st.BehaviourPoint.full, 26), (st.BehaviourPoint.reduced, 8)]), hs.data())
def test_behaviour_point_json_text_roundtrip(made, data):
    build, width = made
    point = build(data.draw(hs.lists(hs.floats(-1e-9, 1.0 + 1e-9), min_size=width, max_size=width)))
    again = st.BehaviourPoint.from_json_dict(json.loads(json.dumps(point.to_json_dict())))
    assert again == point


def test_csv_export_reduced():
    lines = st.vertices_csv(st.REDUCED_8).strip().split("\n")
    assert len(lines) == 17
    assert lines[0] == "a0,a1,c0,c1,a0c0,a0c1,a1c0,a1c1"
    parsed = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert parsed == [tuple(row) for row in REDUCED_TABLE]


def test_json_export():
    payload = json.loads(st.vertices_json(st.FULL_26))
    assert payload["shape"] == {"n": 3, "m": 2, "d": 2}
    assert payload["representation"] == st.FULL_26
    assert len(payload["vertices"]) == 64
    assert all(len(row) == 26 for row in payload["vertices"])
    assert payload["vertices"] == [list(row) for row in FULL_TABLE]
    reduced = json.loads(st.vertices_json(st.REDUCED_8))
    assert len(reduced["vertices"]) == 16
    assert reduced["shape"] == {"n": 2, "m": 2, "d": 2}


@pytest.mark.parametrize("representation", [st.FULL_26, st.REDUCED_8])
def test_exports_are_the_same_text_on_every_call(representation):
    # The texts are built once and kept; the JSON one is the sorted, indented
    # dump of the tagged table, rebuilt here from its parts.
    shape = st.FULL_SHAPE if representation == st.FULL_26 else st.REDUCED_SHAPE
    payload = {
        "shape": {"n": shape.n, "m": shape.m, "d": shape.d},
        "representation": representation,
        "vertices": [list(row) for row in st.vertex_rows(representation)],
    }
    text = st.vertices_json(representation)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert st.vertices_json(representation) == text
    assert st.vertices_csv(representation) == st.vertices_csv(representation)


def test_unknown_representation_rejected():
    with pytest.raises(ValueError):
        st.vertex_rows("full")
    for export in (st.vertices_csv, st.vertices_json):
        # An unhashable tag must not reach the cache lookup, which would
        # raise TypeError.
        for tag in ("bogus", "8", None, [st.FULL_26]):
            with pytest.raises(ValueError, match="unknown representation"):
                export(tag)


def test_enumerations_return_fresh_lists():
    # The frozen entries are built once and shared; the lists are not.
    for enumerate_table, count in ((st.enumerate_strategies, 64), (st.enumerate_reduced, 16)):
        enumerate_table().clear()
        again = enumerate_table()
        assert len(again) == count and again is not enumerate_table()
        assert again == enumerate_table()


def test_strategy_equality_hash_and_repr_are_by_value():
    strategy = st.DeterministicStrategy(2, 1, 3)
    assert strategy.index == 39
    assert strategy.singles == (1, 0, 0, 1, 1, 1)
    assert repr(strategy) == "DeterministicStrategy(first=2, middle=1, last=3)"
    rebuilt = st.DeterministicStrategy(first=2, middle=1, last=3)
    assert rebuilt is not strategy
    assert rebuilt == strategy and hash(rebuilt) == hash(strategy)
    assert rebuilt == st.enumerate_strategies()[39]
    assert rebuilt != st.DeterministicStrategy(2, 0, 3)
    assert len({strategy, rebuilt, st.DeterministicStrategy(2, 0, 3)}) == 2
    with pytest.raises(AttributeError, match="^cannot assign to field 'first'$"):
        strategy.first = 0


def test_behaviour_from_vertex():
    row = st.vertex_from_strategy(st.enumerate_strategies()[21])
    point = st.behaviour_from_vertex(row)
    assert point.representation == st.FULL_26
    assert point.coords == tuple(float(b) for b in row)
    reduced = st.enumerate_reduced()[9]
    point = st.behaviour_from_vertex(reduced)
    assert point.representation == st.REDUCED_8
    assert point.coords == tuple(float(b) for b in reduced)
    with pytest.raises(ValueError, match="^a vertex row has 26 or 8 entries, got 2$"):
        st.behaviour_from_vertex((0, 1))


def test_fuzz_strategy_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(200):
        i, j, k = (int(w) for w in rng.integers(0, 4, size=3))
        strategy = st.DeterministicStrategy(i, j, k)
        assert strategy.index == 16 * i + 4 * j + k
        row = st.vertex_from_strategy(strategy)
        assert row[:6] == strategy.singles
        assert len(row) == 26
        assert row == st.vertex_rows(st.FULL_26)[strategy.index]
