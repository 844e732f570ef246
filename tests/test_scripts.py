import importlib.util
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


def test_fingerprint_smoke():
    # two runs print the same hashes: a saddle, a Riesz and a forms line per
    # level, with and without the recorded rotation, then a Poisson line per level
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    script = ROOT / "scripts" / "fingerprint.py"
    runs = [subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert lines == runs[1].stdout.splitlines()
    assert len(lines) == 86
    levels = {"k1_n4": range(1, 6), "k1_n3": range(1, 6)}
    levels.update({name: range(1, 5) for name in ("k2_n4", "k2_noise", "k1_noise_norot", "k2_noise_norot")})
    solves = ("saddle", "riesz", "forms")
    want = [[name, f"level={level}", solve] for name in levels for level in levels[name] for solve in solves]
    want += [[f"poisson_k{k}", f"level={level}", "poisson"] for k in (1, 2) for level in range(1, 5)]
    assert [line.split()[:3] for line in lines] == want
    fields_of = {"forms": ("load=", "norms=", "s_ii=", "m_ii="), "poisson": ("matrix=", "rel_tol=", "u=", "norms=")}
    for line in lines:
        fields = fields_of.get(line.split()[2], ("matrix=", "rel_tol="))
        assert all(field in line for field in fields), line


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


def test_mutants_patch_one_place_each():
    # each mutant of scripts/mutation_check.py replaces a text that occurs
    # exactly once in the package, in the file it names, by another
    spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "scripts" / "mutation_check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src" / "ucfem").glob("*.py")}
    assert len(check.MUTANTS) >= 12
    for name, old, new, law in check.MUTANTS:
        assert old != new and law
        assert sum(text.count(old) for text in sources.values()) == 1, old
        assert sources[ROOT / name].count(old) == 1, old
