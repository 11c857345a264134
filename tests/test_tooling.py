"""The test tooling itself: a failing property test stays readable."""

import os
import shutil
import subprocess
import sys

import nestnash

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(nestnash.__file__)))

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_five(x):
    assert x < 5
'''


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # The failing test runs under this suite's conftest.py and pytest
    # settings, warning filters included, in a directory of its own.
    shutil.copy(os.path.join(TESTS, "conftest.py"), tmp_path)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
    assert "1 failed" in output, output
