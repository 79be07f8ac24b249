"""One rule for every count, index and seed the package takes.

Each site checks its integer with ``strategies._check_int``: the value must
be a Python int (not a bool, not a numpy integer) within the site's bounds,
and a rejection is a ValueError whose message starts with the parameter's
name.  The real parameters that lie in [0, 1] reject a bool the same way,
with their range message.
"""

import numpy as np
import pytest

from p3poly import geometry as ge, manifold as mf, quantum as qu, stats as sta, strategies as st

_GRAPH = ge.build_visibility_graph(st.REDUCED_8)  # 16 nodes
_RHO, _MEASUREMENTS, _SHAPE = qu.qkd_scenario("honest")

# (site, parameter name, lowest valid value, highest valid value or None, call)
_SITES = [
    ("ScenarioShape", "scenario shape field n", 1, None, lambda v: st.ScenarioShape(v, 2, 2)),
    ("DeterministicStrategy", "wing index", 0, 3, lambda v: st.DeterministicStrategy(0, v, 0)),
    ("VisibilityGraph", "row mask", 0, 3, lambda v: ge.VisibilityGraph((v, 0))),
    ("has_dominating_set", "size", 0, None, lambda v: ge.has_dominating_set(_GRAPH, v)),
    ("verify_generator_set", "node index", 0, 15, lambda v: ge.verify_generator_set(_GRAPH, [v])),
    (
        "sample_behaviour-shots", "shots", 1, 2**63 - 1,
        lambda v: qu.sample_behaviour(_RHO, _MEASUREMENTS, _SHAPE, v),
    ),
    (
        "sample_behaviour-seed", "seed", 0, None,
        lambda v: qu.sample_behaviour(_RHO, _MEASUREMENTS, _SHAPE, 1, seed=v),
    ),
    ("NoiseSpec", "seed", 0, None, lambda v: sta.NoiseSpec(0.05, seed=v)),
    ("partial_trace", "dims entry", 1, None, lambda v: qu.partial_trace(_RHO, (v, 4), "A")),
    ("zx_qubit_measurements", "parties", 1, None, qu.zx_qubit_measurements),
    (
        "random_density_matrix", "dim", 1, None,
        lambda v: qu.random_density_matrix(v, np.random.default_rng(0)),
    ),
    (
        "DensityMatrix.from_json_dict", "density matrix 'dim'", 1, None,
        lambda v: qu.DensityMatrix.from_json_dict({"dim": v, "re": [[1.0]], "im": [[0.0]]}),
    ),
]


def _bad_values(low, high):
    return (1.5, True, "3", np.int64(low), low - 1) + (() if high is None else (high + 1,))


@pytest.mark.parametrize(
    "name, low, high, call, value",
    [
        pytest.param(name, low, high, call, value, id=f"{site}-{value!r}")
        for site, name, low, high, call in _SITES
        for value in _bad_values(low, high)
    ],
)
def test_int_rule_rejects(name, low, high, call, value):
    bounds = f">= {low}" if high is None else f"in {low}..{high}"
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == f"{name} must be an int {bounds}, got {value!r}"


@pytest.mark.parametrize(
    "low, call", [pytest.param(low, call, id=site) for site, _, low, _, call in _SITES]
)
def test_int_rule_accepts_the_lowest_value(low, call):
    call(low)


_POINT = st.BehaviourPoint((0.5,) * 8, st.REDUCED_8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: qu.depolarize(_RHO, v), "noise must lie in [0, 1], got {}"),
        (lambda v: ge.segment(_POINT, _POINT, v), "omega must lie in [0, 1], got {}"),
        (lambda v: mf.ManifoldParams(0.5, 0.5, v, 0.5), "parameter c0={} outside [0, 1]"),
    ],
    ids=["depolarize", "segment", "ManifoldParams"],
)
@pytest.mark.parametrize("value", [True, False])
def test_real_parameters_reject_bools(call, message, value):
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == message.format(value)
    call(float(value))
