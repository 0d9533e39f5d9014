#!/usr/bin/env python3
"""Print one digest per report of a fixed list of argvs, to compare two checkouts.

Each argv runs through ``qclone.cli.main`` in process, in a fresh temporary
working directory, so every ``--out`` is relative and a report that names its
files reads the same in any checkout.  Each line holds the exit code, one
sha256 over stdout, stderr and every written file (by name), and the argv;
an argv run with the register cap set is prefixed ``QCLONE_MAX_QUBITS=<cap>``.
Diff the outputs of two checkouts to find every argv whose output differs.
Takes no options; the list covers every command, both variants, refused
input and each benchmark argv at its cap and one qubit below it.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qclone.cli import main  # noqa: E402

CAP = "QCLONE_MAX_QUBITS"


_EDGES = [  # each benchmark argv and the smallest cap it runs at
    (["demo", "--n", "4", "--psi=+"], 10),
    (["audit", "--n", "5"], 12),
    (["iterate", "--k", "2", "--psi=+"], 11),
    (["compile", "--n", "7", "--what", "both", "--out", "."], 16),
]
# (cap or None, argv), in the order they are printed.
RUNS = [
    *((None, ["demo", "--n", str(n), psi, "--variant", variant])
      for n in range(1, 6)
      for psi in ("--psi=0", "--psi=+", "--psi=-i", "--seed=3")
      for variant in ("standard", "rotated")),
    *((None, argv) for argv in [
        ["demo", "--n", "4", "--target", "3"],
        ["demo", "--n", "5", "--target", "4", "--psi=-i"],
        ["demo", "--t", "0.6"],
        *(["demo", "--n", n, "--psi=+"] for n in ("6", "8", "9")),
        ["demo", "--n", "4", "--psi=0", "--out", "report.json"],
        *(["variants", "--seed", seed] for seed in ("0", "3", "4", "11")),
        *(["audit", "--n", n] for n in ("1", "2", "4", "5", "6")),
        *(["iterate", "--k", k] for k in ("1", "2", "3")),
        ["iterate", "--k", "2", "--seed", "5"],
        ["iterate", "--k", "6"],
        ["sweep", "--n", "2", "--points", "5"],
        ["compile", "--n", "4", "--out", "."],
        ["compile", "--n", "4", "--format", "openqasm2", "--variant", "rotated", "--out", "."],
        ["compile", "--n", "7", "--what", "both", "--out", "."],
        ["compile", "--n", "7", "--t", "0.3", "--what", "enc", "--out", "."],
        ["compile", "--n", "9", "--out", "."],
    ]),
    *((c, argv) for argv, cap in _EDGES for c in (cap, cap - 1)),
]


def digest_line(cap: int | None, argv: list[str]) -> str:
    """Run one argv in a fresh directory and return its digest line."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        if cap is not None:
            os.environ[CAP] = str(cap)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.environ.pop(CAP, None)
            os.chdir(home)
        parts = [("stdout", out.getvalue().encode()), ("stderr", err.getvalue().encode())]
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            parts.append((path.relative_to(tmp).as_posix(), path.read_bytes()))
    sha = hashlib.sha256()
    for name, data in parts:
        sha.update(f"{name}\0{len(data)}\0".encode())
        sha.update(data)
    prefix = "" if cap is None else f"{CAP}={cap} "
    return f"{code} {sha.hexdigest()} {prefix}{' '.join(argv)}"


if __name__ == "__main__":
    os.environ.pop(CAP, None)  # every run without a prefix takes the default cap
    for cap, argv in RUNS:
        print(digest_line(cap, argv), flush=True)
