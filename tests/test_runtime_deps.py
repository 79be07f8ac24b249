"""The installed package needs numpy and nothing else outside the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import p3poly

_PROBE = """
import sys
before = set(sys.modules)
import p3poly, p3poly.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(",".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "p3poly"})))
"""


def test_import_loads_no_third_party_package_but_numpy():
    src = str(Path(p3poly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
