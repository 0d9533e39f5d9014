"""The scripts under scripts/ run to completion, and the benchmark's trace
targets still name functions of the package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qclone.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def test_run_sweep_writes_the_csv_of_the_sweep_command(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPTS / "run_sweep.py"), "--points", "11", "--n", "1",
         "--outdir", str(tmp_path)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "1", "--points", "11", "--out", str(out)]) == 0
    assert (tmp_path / "coherent_information_n1.csv").read_bytes() == out.read_bytes()


def test_every_trace_target_resolves(monkeypatch):
    """``perfbench/run.py --trace 1`` wraps each target by module and attribute;
    deleting or renaming one must fail here, not at trace time."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = []
    for target in tracing.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert tracing.TARGETS and not missing, missing


def _report_digests():
    spec = importlib.util.spec_from_file_location("_report_digests", SCRIPTS / "report_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def test_report_digests_hash_written_files_by_name_and_set_the_cap(monkeypatch):
    """``report_digests.py`` covers 85 distinct argvs; both digests change with the
    name of a written file, and a capped run is refused under its cap only."""
    digests = _report_digests()
    monkeypatch.delenv(digests.CAP, raising=False)
    runs = digests.RUNS
    assert len({(cap, tuple(argv)) for cap, argv in runs}) == len(runs) == 85
    demo = ["demo", "--n", "1", "--psi=0"]
    lines = [digests.digest_line(None, [*demo, "--out", name]) for name in ("a.json", "b.json")]
    assert [line.split()[0] for line in lines] == ["0", "0"]
    assert all(a != b for a, b in zip(lines[0].split()[1:3], lines[1].split()[1:3]))
    assert lines[0].endswith(" demo --n 1 --psi=0 --out a.json")
    capped = digests.digest_line(2, demo)
    assert capped.startswith("2 ") and capped.endswith(" QCLONE_MAX_QUBITS=2 demo --n 1 --psi=0")
    assert digests.CAP not in os.environ


def test_the_floored_digest_ignores_only_noise_level_floats_in_json():
    """Floats below 1e-14 read as 0, and keys in any order, in JSON outputs only."""
    floored = _report_digests()._floored
    assert floored(b'{"b": 9e-15, "a": [-1e-16, 1]}') == floored(b'{"a": [0.0, 1], "b": 0.0}')
    assert floored(b'{"a": 2e-14}') != floored(b'{"a": 0.0}')
    assert floored(b"t,I\n0,1e-16\n") == b"t,I\n0,1e-16\n"


def test_every_report_matches_its_checked_in_floored_digest(monkeypatch):
    """A fresh ``report_digests.py`` run, with its exact column cut, equals
    ``scripts/report_digests.txt``.  A change that moves a report regenerates the
    file, as the script's docstring says, and names the argvs that moved."""
    digests = _report_digests()
    monkeypatch.delenv(digests.CAP, raising=False)
    fresh = []
    for cap, argv in digests.RUNS:
        code, floored, _exact, rest = digests.digest_line(cap, argv).split(" ", 3)
        fresh.append(f"{code} {floored} {rest}")
    assert fresh == (SCRIPTS / "report_digests.txt").read_text().splitlines()
