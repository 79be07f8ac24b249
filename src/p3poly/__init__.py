"""Non-convex local polytope of the three-party chain scenario.

Deterministic-strategy vertex tables, visibility-graph structure, quantum
simulation of the two-user key-distribution protocol, projection onto the
uncorrelated manifold, and statistical distinguishability tests.

Importing the package loads no layer and not numpy: each public name below
is imported from its home layer on first use (PEP 562 module
``__getattr__``), so a caller, like each CLI verb, pays only for the layers
it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> home layer, grouped by layer.
_EXPORTS = {
    "strategies": (
        "FULL_26", "REDUCED_8", "FULL_SHAPE", "REDUCED_SHAPE", "BehaviourPoint",
        "DeterministicStrategy", "ScenarioShape", "behaviour_from_vertex",
        "enumerate_reduced", "enumerate_strategies", "hamming_histogram",
        "vertex_from_strategy", "vertices_csv", "vertices_json",
    ),
    "geometry": (
        "CoverageReport", "VisibilityGraph", "VisibilityStatus", "all_pairs_shortest_paths",
        "build_visibility_graph", "classify_from", "diameter", "graph_to_dot",
        "has_dominating_set", "maximal_convex_clusters", "minimum_generators", "segment",
        "verify_generator_set", "visibility_test",
    ),
    "quantum": (
        "BoundReport", "DensityMatrix", "FullDistribution", "LhvModel",
        "MeasurementSet", "NoSignallingResult", "behaviour_bound_check",
        "behaviour_from_state", "bell_pair_state", "collapse", "depolarize", "fidelity",
        "fidelity_bounds_check", "lhv_evaluate", "model_from_strategy",
        "no_signalling_check", "partial_trace", "qkd_scenario", "random_density_matrix",
        "sample_behaviour", "trace_distance", "zx_qubit_measurements",
    ),
    "manifold": (
        "ManifoldParams", "ProjectionResult", "embed", "normalized_score",
        "project", "projection_gradient", "projection_objective",
    ),
    "stats": (
        "NoiseSpec", "Norms", "TestReport", "distance_sigma", "gaussian_separability",
        "norms", "perturb", "regularized_incomplete_beta", "two_sample_ks",
        "two_sample_t",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a layer reached as an attribute, e.g. p3poly.geometry
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
