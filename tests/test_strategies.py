"""Strategy enumeration and vertex-table tests.

Core claims pinned here:
  * 64 deterministic strategies in canonical order; the singles block counts
    up in binary.
  * Full 64x26 and reduced 16x8 tables match the frozen reference tables
    bit-exactly, including row and column order.
  * Marginalization fibers have size exactly 4 and cover all 16 reduced
    vertices.
  * Hamming-weight histogram matches the frozen reference.
  * Behaviour-space dimension formula gives 26 and 8 for the two scenarios.
  * Behaviour points and vertex tables survive a trip through their JSON and
    CSV text unchanged.
"""

import json

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
    for index in range(4):
        wing = st.WingStrategy.from_index(index)
        assert wing.index == index
        assert (wing.out0, wing.out1) == ((index >> 1) & 1, index & 1)
    with pytest.raises(ValueError):
        st.WingStrategy.from_index(4)
    with pytest.raises(ValueError):
        st.WingStrategy(0, 2)


def test_full_table_bit_exact():
    rows = st.vertex_rows(st.FULL_26)
    assert rows == [tuple(row) for row in FULL_TABLE]
    # Each call hands out a fresh list, so a caller's edit does not reach the table.
    rows.clear()
    assert st.vertex_rows(st.FULL_26) == [tuple(row) for row in FULL_TABLE]


def test_reduced_table_bit_exact():
    rows = st.vertex_rows(st.REDUCED_8)
    assert rows == [tuple(row) for row in REDUCED_TABLE]
    # Each call hands out a fresh list, so a caller's edit does not reach the table.
    rows.clear()
    assert st.vertex_rows(st.REDUCED_8) == [tuple(row) for row in REDUCED_TABLE]


def test_vertex_blocks_are_products():
    for strategy in st.enumerate_strategies():
        vertex = st.vertex_from_strategy(strategy)
        a0, a1, b0, b1, c0, c1 = vertex.singles
        expected_pairs = (
            a0 * b0, a0 * b1, a1 * b0, a1 * b1,
            a0 * c0, a0 * c1, a1 * c0, a1 * c1,
            b0 * c0, b0 * c1, b1 * c0, b1 * c1,
        )
        assert vertex.pairs == expected_pairs
        expected_tris = tuple(
            a * b * c for a in (a0, a1) for b in (b0, b1) for c in (c0, c1)
        )
        assert vertex.tris == expected_tris


def test_vertex_validation_rejects_inconsistent_blocks():
    good = st.vertex_from_strategy(st.enumerate_strategies()[63])
    with pytest.raises(ValueError):
        st.VertexFull(good.singles, tuple(1 - b for b in good.pairs), good.tris)
    with pytest.raises(ValueError):
        st.VertexReduced((1, 0, 1, 0, 0, 0, 0, 0))


def test_marginalization_fibers():
    fibers: dict[tuple[int, ...], int] = {}
    for strategy in st.enumerate_strategies():
        reduced = st.marginalize(st.vertex_from_strategy(strategy))
        fibers[reduced.coords] = fibers.get(reduced.coords, 0) + 1
    assert len(fibers) == 16
    assert set(fibers.values()) == {4}
    assert sorted(fibers) == [tuple(row) for row in REDUCED_TABLE]


def test_marginalize_keeps_first_and_last_wing():
    strategy = st.DeterministicStrategy.from_indices(2, 1, 1)  # singles (1,0,0,1,0,1)
    reduced = st.marginalize(st.vertex_from_strategy(strategy))
    assert reduced.coords == (1, 0, 0, 1, 0, 1, 0, 0)


def test_enumerate_reduced_ordering():
    reduced = st.enumerate_reduced()
    assert len(reduced) == 16
    singles = [v.singles for v in reduced]
    assert singles == sorted(singles)
    assert reduced[0].coords == (0,) * 8
    assert reduced[-1].coords == (1,) * 8


def test_hamming_histogram():
    vertices = [st.vertex_from_strategy(s) for s in st.enumerate_strategies()]
    assert st.hamming_histogram(vertices) == HAMMING_HISTOGRAM
    with pytest.raises(ValueError):
        st.hamming_histogram([])


def test_scenario_dimension():
    assert st.scenario_dimension(st.FULL_SHAPE) == 26
    assert st.scenario_dimension(st.REDUCED_SHAPE) == 8
    assert st.scenario_dimension(st.ScenarioShape(1, 1, 1)) == 0
    # 26 decomposes into the three block sizes.
    assert 26 == 6 + 12 + 8


def test_scenario_shape_validation():
    with pytest.raises(ValueError):
        st.ScenarioShape(0, 2, 2)
    with pytest.raises(ValueError):
        st.ScenarioShape(2, 2, -1)


def test_behaviour_point_validation():
    point = st.BehaviourPoint.reduced([0.5] * 8)
    assert point.shape == st.REDUCED_SHAPE
    with pytest.raises(ValueError):
        st.BehaviourPoint.reduced([0.5] * 7)
    with pytest.raises(ValueError):
        st.BehaviourPoint.reduced([0.5] * 7 + [1.5])
    with pytest.raises(ValueError):
        st.BehaviourPoint(tuple([0.5] * 8), st.FULL_SHAPE, st.REDUCED_8)
    # Float dust just outside [0, 1] is absorbed, not rejected.
    dusty = st.BehaviourPoint.reduced([1.0 + 5e-12] + [0.0] * 7)
    assert dusty.coords[0] == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_behaviour_point_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        st.BehaviourPoint.reduced([bad] + [0.5] * 7)
    with pytest.raises(ValueError, match="not finite"):
        st.BehaviourPoint.full([0.5] * 25 + [bad])


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
    for coords in (5, "00000000", [True, False] * 4, (0.5,) * 8, [0.5] * 7 + ["0.5"]):
        with pytest.raises(ValueError, match="list of numbers"):
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


def test_unknown_representation_rejected():
    with pytest.raises(ValueError):
        st.vertex_rows("full")
    with pytest.raises(ValueError):
        st.vertices_csv("8")


def test_behaviour_from_vertex():
    vertex = st.vertex_from_strategy(st.enumerate_strategies()[21])
    point = st.behaviour_from_vertex(vertex)
    assert point.representation == st.FULL_26
    assert point.coords == tuple(float(b) for b in vertex.coords)
    with pytest.raises(TypeError):
        st.behaviour_from_vertex((0, 1))


def test_fuzz_strategy_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(200):
        i, j, k = rng.integers(0, 4, size=3)
        strategy = st.DeterministicStrategy.from_indices(int(i), int(j), int(k))
        assert strategy.index == 16 * i + 4 * j + k
        vertex = st.vertex_from_strategy(strategy)
        assert vertex.singles == strategy.singles
        assert len(vertex.coords) == 26
