"""One rule for every count, index and seed, and one for every real parameter.

Each site checks its integer with ``strategies._check_int``: the value must
be a Python int (not a bool, not a numpy integer) within the site's bounds,
and a rejection is a ValueError whose message starts with the parameter's
name.  Each real parameter goes through ``strategies._check_real``: the value
must be a finite real number (an int, any float, or another numbers.Real such
as a Fraction; never a bool, a numpy bool, a string, None or a Decimal) in
the site's closed or open bounds, and every rejection is the same ValueError,
never a TypeError or an OverflowError.  No module but ``strategies`` tests for
a bool by hand.
"""

import argparse
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from p3poly import cli, geometry as ge, manifold as mf, quantum as qu, stats as sta, strategies as st

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

# (site, parameter name, low, high or None, strict, call)
_REAL_SITES = [
    ("ManifoldParams", "parameter c0", 0, 1, False, lambda v: mf.ManifoldParams(0.5, 0.5, v, 0.5)),
    ("segment", "omega", 0, 1, False, lambda v: ge.segment(_POINT, _POINT, v)),
    ("depolarize", "noise", 0, 1, False, lambda v: qu.depolarize(_RHO, v)),
    ("NoiseSpec", "noise sigma", 0, None, False, sta.NoiseSpec),
    (
        "gaussian_separability-sigma_d", "sigma_d", 0, None, True,
        lambda v: sta.gaussian_separability(_POINT, _POINT, v),
    ),
    (
        "gaussian_separability-alpha", "alpha", 0, 1, True,
        lambda v: sta.gaussian_separability(_POINT, _POINT, 0.05, v),
    ),
    ("regularized_incomplete_beta-a", "a", 0, None, True, lambda v: sta.regularized_incomplete_beta(v, 1, 0.5)),
    ("regularized_incomplete_beta-b", "b", 0, None, True, lambda v: sta.regularized_incomplete_beta(1, v, 0.5)),
    ("regularized_incomplete_beta-x", "x", 0, 1, False, lambda v: sta.regularized_incomplete_beta(1, 1, v)),
    ("cli-test-alpha", "alpha", 0, 1, True, lambda v: cli._cmd_test(argparse.Namespace(alpha=v, mode="samples"))),
    ("BehaviourPoint.isclose", "tol", 0, None, False, lambda v: _POINT.isclose(_POINT, v)),
]

_HUGE = 10**400  # an int beyond the float range


def _real_message(name, low, high, strict, value):
    if high is None:
        bounds = f"> {low}" if strict else f">= {low}"
    else:
        bounds = f"in ({low}, {high})" if strict else f"in [{low}, {high}]"
    return f"{name} must be a finite real number {bounds}, got {value!r}"


def _bad_reals(low, high, strict):
    values = ["0.5", None, Decimal("0.5"), math.nan, math.inf, -math.inf, _HUGE]
    values.append(math.nextafter(low, -math.inf))
    if high is not None:
        values.append(math.nextafter(high, math.inf))
    if strict:
        values += [low] if high is None else [low, high]
    return values


def _good_reals(low, high, strict):
    # Each exact value in every accepted type, plus the nearest floats inside an open bound.
    exact = [2] if high is None else [Fraction(1, 2)]
    if strict:
        inner = [math.nextafter(low, math.inf)]
        if high is not None:
            inner.append(math.nextafter(high, -math.inf))
    else:
        exact += [low] if high is None else [low, high]
        inner = []
    kinds = (float, np.float64, np.float32, Fraction)
    return [kind(v) for v in exact for kind in kinds] + [v for v in exact if v == int(v)] + inner


def _real_id(site, value):
    return f"{site}-{'10**400' if value is _HUGE else repr(value)}"


@pytest.mark.parametrize(
    "name, low, high, strict, call, value",
    [
        pytest.param(name, low, high, strict, call, value, id=_real_id(site, value))
        for site, name, low, high, strict, call in _REAL_SITES
        for value in _bad_reals(low, high, strict)
    ],
)
def test_real_rule_rejects(name, low, high, strict, call, value):
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == _real_message(name, low, high, strict, value)


# A Python or numpy bool is neither a float nor an int to these checks.
@pytest.mark.parametrize(
    "name, low, high, strict, call, value",
    [
        pytest.param(name, low, high, strict, call, value, id=f"{value!r}-{site}")
        for value in (True, False, np.True_, np.False_)
        for site, name, low, high, strict, call in _REAL_SITES
    ],
)
def test_real_parameters_reject_bools(name, low, high, strict, call, value):
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == _real_message(name, low, high, strict, value)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{site}-{type(value).__name__}({value})")
        for site, _, low, high, strict, call in _REAL_SITES
        for value in _good_reals(low, high, strict)
    ],
)
def test_real_rule_accepts(monkeypatch, call, value):
    # The cli row checks alpha before it reads a sample; the samples are cli tests.
    monkeypatch.setattr(cli, "_test_samples_mode", lambda args: {})
    call(value)


def test_every_manifold_parameter_is_checked():
    for index, name in enumerate(("a0", "a1", "c0", "c1")):
        params = [0.5] * 4
        params[index] = np.True_
        with pytest.raises(ValueError) as error:
            mf.ManifoldParams(*params)
        assert str(error.value) == f"parameter {name} must be a finite real number in [0, 1], got np.True_"


def test_only_strategies_tests_for_a_bool():
    # A hand-rolled bool test beside a range test is the hole _check_real closes:
    # it misses numpy's bool.  Every real parameter goes through the helper.
    source = Path(st.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(source.glob("*.py"))
        if path.name != "strategies.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"isinstance\([^)]*\bbool\b", line)
    ]
    assert offenders == []
