import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_studies_converge_smoke(tmp_path):
    # the script runs from a checkout, without PYTHONPATH or an install
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    script = ROOT / "scripts" / "run_studies.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--study", "converge", "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "converge.csv").read_text().splitlines()[0]
    assert header.endswith(",energy_ratio")


def test_failing_property_test_is_reported(tmp_path):
    # a failing @given test makes hypothesis import libcst, whose import
    # warns; under the suite's warning filters that must fail no more than
    # the test itself, and the tests after it must still run and report
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = str(ROOT / "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "-p", "no:cacheprovider", "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
