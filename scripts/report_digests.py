#!/usr/bin/env python3
"""Print two digests per report of a fixed list of argvs, to compare two checkouts.

Each argv runs through ``qclone.cli.main`` in process, in a fresh temporary
working directory, so every ``--out`` is relative and a report that names its
files reads the same in any checkout.  Each line holds the exit code, two
sha256 digests over stdout, stderr and every written file (by name), and the
argv; an argv run with the register cap set is prefixed
``QCLONE_MAX_QUBITS=<cap>``.  The first, floored, digest reads each output that
parses as JSON with every float of magnitude below ``FLOOR`` set to 0 and its
keys sorted, so noise-level residuals that move with the BLAS kernel leave it
unchanged; the second is over the exact bytes.  Takes no options; the list
covers every command, both variants, refused input and each benchmark argv at
its cap and one qubit below it.

``report_digests.txt`` holds the floored lines (the exact column cut out),
and a tier-1 test compares a fresh run with it.  To regenerate it:

    python scripts/report_digests.py | cut -d' ' -f1,2,4- > scripts/report_digests.txt

To compare two checkouts on one host, diff their full outputs.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qclone.cli import main  # noqa: E402

CAP = "QCLONE_MAX_QUBITS"
FLOOR = 1e-14  # below every report threshold; the largest noise-level value seen is 1.4e-15


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
        ["demo", "--n", "2", "--psi=+", "--t", "2.356194490192345"],  # 3pi/4, accepted
        ["demo", "--n", "2", "--psi=+", "--t", "0.7853981634274483"],  # pi/4 + 3e-11, refused
        *(["demo", "--n", n, "--psi=+"] for n in ("6", "8", "9")),
        ["demo", "--n", "4", "--psi=0", "--out", "report.json"],
        ["demo", "--n", "3", "--psi", "0.6,0.8"],  # amplitudes: a real pair
        ["demo", "--n", "2", "--psi", "0.5,0.5,-0.5,0.5"],  # and re,im pairs
        ["demo", "--n", "2", "--psi", "1e308,1e308"],  # whose norm overflows unscaled
        *(["variants", "--seed", seed] for seed in ("0", "3", "4", "11")),
        *(["audit", "--n", n] for n in ("1", "2", "4", "5", "6", "8")),
        *(["iterate", "--k", k] for k in ("1", "2", "3")),
        ["iterate", "--k", "2", "--seed", "5"],
        ["iterate", "--k", "6"],
        ["sweep", "--n", "2", "--points", "5"],
        ["sweep", "--n", "5", "--points", "9"],  # 7-qubit joint blocks
        ["compile", "--n", "4", "--out", "."],
        ["compile", "--n", "4", "--format", "openqasm2", "--variant", "rotated", "--out", "."],
        ["compile", "--n", "7", "--what", "both", "--out", "."],
        ["compile", "--n", "7", "--t", "0.3", "--what", "enc", "--out", "."],
        ["compile", "--n", "9", "--out", "."],
        ["compile", "--n", "1", "--what", "both", "--out", "."],  # encoder written, decoder refused
        # pi/4 + 2e-12: c_0/c_mu sit up to 8e-12 off the unit circle, and are projected onto it
        *(["compile", "--n", n, "--t", "0.7853981633994482", "--what", "dec", "--out", "."]
          for n in ("3", "4")),
    ]),
    *((c, argv) for argv, cap in _EDGES for c in (cap, cap - 1)),
]


def _floor(obj):
    """``obj`` with every float of magnitude below ``FLOOR`` set to 0."""
    if isinstance(obj, float):
        return 0.0 if abs(obj) < FLOOR else obj
    if isinstance(obj, dict):
        return {key: _floor(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_floor(value) for value in obj]
    return obj


def _floored(data: bytes) -> bytes:
    """A JSON document floored and re-dumped with sorted keys; other bytes as they are."""
    try:
        doc = json.loads(data)
    except ValueError:
        return data
    return json.dumps(_floor(doc), sort_keys=True).encode()


def _sha256(parts) -> str:
    sha = hashlib.sha256()
    for name, data in parts:
        sha.update(f"{name}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest()


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
    floored = _sha256((name, _floored(data)) for name, data in parts)
    prefix = "" if cap is None else f"{CAP}={cap} "
    return f"{code} {floored} {_sha256(parts)} {prefix}{' '.join(argv)}"


if __name__ == "__main__":
    os.environ.pop(CAP, None)  # every run without a prefix takes the default cap
    for cap, argv in RUNS:
        print(digest_line(cap, argv), flush=True)
