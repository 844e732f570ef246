import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_convergence_onset_wide_smoke(capsys):
    # the thin --wide annuli invert under circle projection with too few sectors
    main = runpy.run_path(str(SCRIPTS / "convergence_onset.py"))["main"]
    assert main(["--wide", "--max-level", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["1", "2"]
