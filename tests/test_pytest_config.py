"""The pytest settings in ``pyproject.toml``: warnings are errors, yet a
failing hypothesis test is reported as one failure and the session goes on.

To report a falsifying example, hypothesis's pytest plugin imports libcst,
which raises a ``DeprecationWarning`` for ``mypy_extensions.TypedDict``;
as an error it would stop the whole session with INTERNALERROR (exit 3).
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
