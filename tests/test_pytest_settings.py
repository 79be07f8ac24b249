"""The repository's pytest settings report a failing Hypothesis test as a plain failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
"""


def test_failing_hypothesis_example_does_not_abort_the_run(tmp_path):
    # On failure Hypothesis imports a module whose import warns; under
    # filterwarnings "error" that used to raise inside the plugin's report hook.
    (tmp_path / "test_tiny.py").write_text(_FAILING_THEN_PASSING)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert result.returncode == 1, output
