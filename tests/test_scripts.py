import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_studies_converge_smoke(tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
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
