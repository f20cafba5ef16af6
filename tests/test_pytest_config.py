"""The repository's pytest configuration keeps Hypothesis reports intact.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  A
failing ``@given`` test must still end in an ordinary failure that shows
its falsifying example, not in a pytest INTERNALERROR raised while
Hypothesis writes the report.
"""

import os
import subprocess
import sys

PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


def test_failing_given_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "-c", PYPROJECT,
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            "-q",
            "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode != 0, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
