"""The scripts under scripts/ run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["key_lifecycle_demo.py", "--seed", "3"],
        ["gate_budget.py", "--nmax", "3"],
        ["run_sweep.py", "--points", "11", "--n", "1", "2", "--outdir", "{tmp}"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv, tmp_path):
    script, *args = argv
    args = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
