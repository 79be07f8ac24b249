"""What importing the package costs: numpy and nothing else outside the standard
library, no layer for a bare ``import p3poly``, and for each CLI verb only the
layers it uses, with numpy only to draw shots (``simulate --shots N`` with
N > 0): not for the vertex tables, the graph listings and SVD layouts, the
structural report, exact ``simulate``, the projection, either mode of
``test``, ``bound``, nor a point or state file or a flag that is rejected,
and dataclasses never: no module of the package imports it, and no verb that
runs without numpy loads it.  Also the lazily filled ``p3poly`` namespace
itself, that every module-level import of a layer is used and never
shadowed, and that every module-level private name is used."""

import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import p3poly
from p3poly import quantum as qu
from p3poly.strategies import FULL_26, REDUCED_8

from reference_tables import P_B, P_U

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(p3poly.__file__).resolve().parents[1])

_PROBE = """
import pkgutil, sys
before = set(sys.modules)
import p3poly
for module in pkgutil.iter_modules(p3poly.__path__):
    __import__(f"p3poly.{module.name}")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(",".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "p3poly"})))
"""

# Runs main(argv) and prints its exit code, the p3poly submodules loaded by
# then, whether numpy and dataclasses were loaded, and what it wrote to stderr.
_VERB_PROBE = """
import contextlib, io, json, sys
from p3poly.cli import main
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("p3poly."))
print(json.dumps([code, loaded, "numpy" in sys.modules, "dataclasses" in sys.modules, err.getvalue()]))
"""


def _python(code, *args, cwd=None):
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=SRC),
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_third_party_package_but_numpy():
    modules = {m.name for m in pkgutil.iter_modules(p3poly.__path__)}
    assert {"cli", "strategies", "geometry", "quantum", "manifold", "stats"} <= modules
    assert _python(_PROBE).strip() == ""


def test_bare_import_loads_no_layer_and_not_numpy():
    probe = (
        "import sys, p3poly\n"
        "print(sorted(m for m in sys.modules if m.startswith(('p3poly', 'numpy'))))\n"
        "p3poly.two_sample_t\n"
        "print(sorted(m for m in sys.modules if m.startswith('p3poly')))\n"
    )
    bare, after_name = _python(probe).splitlines()
    assert bare == "['p3poly']"
    # A name loads its home layer and what that layer imports, nothing more.
    assert after_name == "['p3poly', 'p3poly.stats', 'p3poly.strategies']"


# A point or state file holding a NaN constant, which the JSON reader refuses
# before a layer is imported.
_REJECTED = "error: 'nan.json' is not valid JSON: NaN is not a finite number\n"
_REJECTED_STATE = "error: 'nan_rho.json' is not valid JSON: NaN is not a finite number\n"
# A full-26 point, which the loader accepts and the projection rejects.
_NOT_REDUCED = "error: projection is defined for reduced-8 points\n"
# A flag pair that the graph verb rejects before it loads a layer.
_BAD_GRAPH_FLAGS = "error: svd layout output requires json or csv format\n"
# A noise level that simulate rejects before it loads a layer.
_BAD_NOISE = "error: noise must be a finite real number in [0, 1], got 2.0\n"


@pytest.mark.parametrize(
    "argv, layers, numpy, stderr",
    [
        (["vertices"], [], False, ""),
        (["vertices", "--rep", "reduced", "--format", "csv"], [], False, ""),
        (["graph", "--rep", "reduced"], ["geometry"], False, ""),
        (["graph", "--rep", "full", "--format", "dot"], ["geometry"], False, ""),
        (["graph", "--rep", "reduced", "--layout", "svd"], ["geometry", "linalg"], False, ""),
        (["graph", "--layout", "svd", "--format", "dot"], [], False, _BAD_GRAPH_FLAGS),
        (["graph", "--layout", "svd", "--format", "csv"], ["linalg"], False, ""),
        (["analyze", "--rep", "reduced"], ["geometry"], False, ""),
        (["analyze", "--rep", "full"], ["geometry"], False, ""),
        (["simulate", "--kind", "honest"], [], False, ""),
        (["simulate", "--kind", "intercepted", "--noise", "0.1"], [], False, ""),
        (["simulate", "--kind", "honest", "--shots", "10"], ["linalg", "quantum"], True, ""),
        (["simulate", "--kind", "honest", "--noise", "2"], [], False, _BAD_NOISE),
        (["project", "--input", "point.json"], ["manifold"], False, ""),
        (["project", "--input", "nan.json"], [], False, _REJECTED),
        (["project", "--input", "full.json"], ["manifold"], False, _NOT_REDUCED),
        (["test", "--expected", "point.json", "--observed", "point.json"], ["manifold", "stats"], False, ""),
        (["test", "--expected", "point.json", "--observed", "nan.json"], [], False, _REJECTED),
        (["test", "--expected", "nan.json", "--observed", "point.json"], [], False, _REJECTED),
        (["test", "--mode", "samples", "--expected", "a.csv", "--observed", "a.csv"], ["stats"], False, ""),
        (["bound", "--rho", "bell.json", "--sigma", "bell.json"], ["linalg"], False, ""),
        (["bound", "--rho", "nan_rho.json", "--sigma", "bell.json"], [], False, _REJECTED_STATE),
    ],
    ids=[
        "vertices", "vertices-csv", "graph", "graph-dot", "graph-svd", "graph-svd-dot", "graph-svd-csv",
        "analyze", "analyze-full", "simulate", "simulate-intercepted", "simulate-shots",
        "simulate-rejected-noise", "project", "project-rejected", "project-full26", "test-point",
        "test-point-rejected-observed", "test-point-rejected-expected", "test-samples", "bound",
        "bound-rejected",
    ],
)
def test_each_verb_loads_only_its_layers(tmp_path, argv, layers, numpy, stderr):
    (tmp_path / "point.json").write_text(
        json.dumps({"representation": REDUCED_8, "coords": list(P_B)})
    )
    (tmp_path / "nan.json").write_text(
        json.dumps({"representation": REDUCED_8, "coords": [float("nan")] * 8})
    )
    (tmp_path / "full.json").write_text(json.dumps({"representation": FULL_26, "coords": [0.0] * 26}))
    (tmp_path / "a.csv").write_text("0.1\n0.2\n0.4\n")
    (tmp_path / "bell.json").write_text(json.dumps(qu.bell_pair_state().to_json_dict()))
    (tmp_path / "nan_rho.json").write_text(
        json.dumps({"dim": 4, "re": [[float("nan")] * 4] * 4, "im": [[0.0] * 4] * 4})
    )
    out = _python(_VERB_PROBE, *argv, "--output", "out", cwd=tmp_path)
    code, loaded, numpy_loaded, dataclasses_loaded, err = json.loads(out)
    assert (code, err) == ((1, stderr) if stderr else (0, ""))
    assert loaded == sorted(f"p3poly.{m}" for m in ["cli", "strategies", *layers])
    assert numpy_loaded == numpy
    # numpy may import dataclasses itself; a verb without numpy must not.
    if not numpy:
        assert not dataclasses_loaded
    assert (tmp_path / "out").exists() == (not stderr)


def test_no_module_imports_dataclasses():
    # The records share strategies._Record instead; importing dataclasses
    # would cost every verb its ~11 ms again.
    for path in sorted(Path(p3poly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {name.partition(".")[0] for name in names}, path.name


def test_strategies_and_geometry_run_without_numpy():
    probe = (
        "import sys\n"
        "import p3poly.strategies, p3poly.geometry as ge\n"
        "for rep in ('full-26', 'reduced-8'):\n"
        "    g = ge.build_visibility_graph(rep)\n"
        "    ge.diameter(g), ge.minimum_generators(g), ge.maximal_convex_clusters(g)\n"
        "    ge.verify_generator_set(g, (0, 1)), ge.graph_to_dot(g), g.edges()\n"
        "    p3poly.strategies.vertices_json(rep), p3poly.strategies.vertices_csv(rep)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _python(probe).strip() == "False"


def test_manifold_and_point_stats_run_without_numpy():
    probe = (
        "import sys\n"
        "from p3poly import manifold as mf, stats, strategies as st\n"
        f"pb, pu = st.BehaviourPoint.reduced({P_B!r}), st.BehaviourPoint.reduced({P_U!r})\n"
        "result = mf.project(pb)\n"
        "a0, a1, c0, c1, *products = mf.embed(result.params).coords\n"
        "assert products == [a0 * c0, a0 * c1, a1 * c0, a1 * c1] and result.converged\n"
        "assert mf.normalized_score(pu, pb) < 1e-8\n"
        "sigma_d = stats.distance_sigma(pb, 0.05)\n"
        "stats.gaussian_separability(pb, pu, sigma_d), stats.regularized_incomplete_beta(2.0, 3.0, 0.4)\n"
        "stats.norms([p - u for p, u in zip(pb.coords, pu.coords)])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _python(probe).strip() == "False"


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(p3poly.__path__))
)
def test_every_module_level_import_is_used(module):
    # Imports in the module body and in its top-level ``if`` blocks (the
    # TYPE_CHECKING ones), each by the name it binds; a use is any name node,
    # annotations included.  An imported name may not also be assigned (a loop
    # or comprehension target included) or be a parameter: the shadowing
    # name's own uses would count as uses of the import.  The package
    # ``__init__`` is not in this list: it binds its public names lazily.
    tree = ast.parse(Path(import_module(f"p3poly.{module}").__file__).read_text())
    statements = [
        s for node in tree.body for s in [node, *(node.body if isinstance(node, ast.If) else [])]
    ]
    bound = {
        (alias.asname or alias.name).partition(".")[0]
        for s in statements
        if isinstance(s, (ast.Import, ast.ImportFrom)) and getattr(s, "module", None) != "__future__"
        for alias in s.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []
    rebound = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    } | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert sorted(bound & rebound) == []


def _binds(statement):
    # The module-level names a top-level def, class or assignment defines or
    # assigns into (``_X.flags.writeable = False`` assigns into ``_X``).
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    names = set()
    for target in statement.targets if isinstance(statement, ast.Assign) else []:
        while isinstance(target, ast.Attribute):
            target = target.value
        names |= {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}
    return names


def test_every_module_level_private_name_is_used():
    # A module-level ``_name`` must be referenced somewhere in the package (as
    # a name, an attribute or an imported name) outside the top-level
    # statements of its own module that bind it, so that a private helper a
    # refactor leaves behind shows.
    statements = []  # (module, names the statement binds, names it references)
    for path in sorted(Path(p3poly.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            referenced = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name)
            statements.append((path.stem, _binds(statement), referenced))
    dead = [
        f"{module}.{name}"
        for module, bound, _ in statements
        for name in sorted(bound)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in refs for m, b, refs in statements if not (m == module and name in b))
    ]
    assert dead == []


def test_public_names_resolve_to_their_home_layer():
    listed = [name for names in p3poly._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed)) == len(p3poly.__all__)  # no name in two layers
    for name in p3poly.__all__:
        home = import_module(f"p3poly.{p3poly._HOME[name]}")
        assert getattr(p3poly, name) is getattr(home, name), name
    for layer in p3poly._EXPORTS:
        assert getattr(p3poly, layer) is import_module(f"p3poly.{layer}")
    assert p3poly.__version__ == "0.1.0"


def test_star_import_and_dir_list_every_public_name():
    assert set(p3poly.__all__) <= set(dir(p3poly))
    namespace = {}
    exec("from p3poly import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(p3poly.__all__)
    assert all(namespace[name] is getattr(p3poly, name) for name in namespace)


def test_readme_import_block_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^from p3poly import \(.*?\)$", readme, re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(block.group(0), namespace)
    assert namespace["project"] is p3poly.project


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'p3poly' has no attribute 'no_such_name'$"):
        p3poly.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from p3poly import no_such_name", {})
