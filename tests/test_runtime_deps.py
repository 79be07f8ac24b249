"""What importing the package costs: numpy and nothing else outside the standard
library, no layer for a bare ``import p3poly``, and for each CLI verb only the
layers it uses.  Also the lazily filled ``p3poly`` namespace itself."""

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
from p3poly.strategies import REDUCED_8

from reference_tables import P_B

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

# Runs main(argv) and prints the p3poly submodules loaded by then.
_VERB_PROBE = """
import json, sys
from p3poly.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("p3poly."))]))
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


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["vertices"], []),
        (["graph", "--rep", "reduced"], ["geometry"]),
        (["analyze", "--rep", "reduced"], ["geometry"]),
        (["simulate", "--kind", "honest"], ["quantum"]),
        (["project", "--input", "point.json"], ["manifold"]),
        (["test", "--expected", "point.json", "--observed", "point.json"], ["manifold", "stats"]),
        (["test", "--mode", "samples", "--expected", "a.csv", "--observed", "a.csv"], ["stats"]),
        (["bound", "--rho", "bell.json", "--sigma", "bell.json"], ["quantum"]),
    ],
    ids=["vertices", "graph", "analyze", "simulate", "project", "test-point", "test-samples", "bound"],
)
def test_each_verb_loads_only_its_layers(tmp_path, argv, layers):
    (tmp_path / "point.json").write_text(
        json.dumps({"representation": REDUCED_8, "coords": list(P_B)})
    )
    (tmp_path / "a.csv").write_text("0.1\n0.2\n0.4\n")
    (tmp_path / "bell.json").write_text(json.dumps(qu.bell_pair_state().to_json_dict()))
    out = _python(_VERB_PROBE, *argv, "--output", "out", cwd=tmp_path)
    code, loaded = json.loads(out)
    assert code == 0
    assert loaded == sorted(f"p3poly.{m}" for m in ["cli", "strategies", *layers])
    assert (tmp_path / "out").exists()


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
