"""Closed-loop client for the qclone CLI: workloads, report checks, timing.

One client sends one argv to ``qclone.cli.main`` in process, captures the
report from stdout, verifies it outside the timed region and only then sends
the next argv.  Every path here is relative to the checkout root, which is
the working directory of a benchmark run.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import jsonschema
import numpy as np

from qclone.circuits import export_circuit, parse_circuit_text
from qclone.compiler import compile_decoding, compile_encoding
from qclone.protocol import AlphaCoefficients, Variant

SCHEMA_PATH = Path("src/qclone/data/report.schema.json")
OUT_DIR = Path(".perfbench_out")
CIRCUIT_DIR = OUT_DIR / "circuits"

PROBES = ("0", "1", "+", "-", "+i", "-i")
VARIANTS = ("standard", "rotated")
FORMATS = ("text", "openqasm2")
COMPILE_N = 7

Argv = tuple[str, ...]


def _haar_seeds(rng: random.Random, count: int) -> list[str]:
    return [f"--seed={rng.randrange(1, 1 << 31)}" for _ in range(count)]


# Named probes go in as ``--psi=NAME``: argparse reads ``--psi -i`` as a
# second option and exits 2, although ``-i`` is a valid probe.


def keyed_decrypt_pool(rng: random.Random) -> list[Argv]:
    psis = [f"--psi={p}" for p in PROBES] + _haar_seeds(rng, 3)
    pool = [("demo", "--n", "4", psi, f"--variant={v}") for psi in psis for v in VARIANTS]
    rng.shuffle(pool)
    return pool


def encryption_audit_pool(rng: random.Random) -> list[Argv]:
    return [("audit", "--n", "5")]


def iterated_tree_pool(rng: random.Random) -> list[Argv]:
    psis = [f"--psi={p}" for p in PROBES] + _haar_seeds(rng, 2)
    pool = [("iterate", "--k", "2", psi) for psi in psis]
    rng.shuffle(pool)
    return pool


def circuit_compile_pool(rng: random.Random) -> list[Argv]:
    pool = [
        ("compile", "--n", str(COMPILE_N), "--what", "both", f"--format={f}",
         f"--variant={v}", f"--out={CIRCUIT_DIR}")
        for f in FORMATS
        for v in VARIANTS
    ]
    rng.shuffle(pool)
    return pool


def _compiled(kind: str, variant: str):
    """The circuit ``compile`` writes as ``{kind}_n7``, compiled in process."""
    v, t = Variant(variant), math.pi / 4
    if kind == "encoding":
        return compile_encoding(COMPILE_N, t, v)
    return compile_decoding(COMPILE_N, AlphaCoefficients.for_angle(COMPILE_N, t, v))


def _same_gates(a, b) -> bool:
    """Same width and gates, parameters and matrices compared as numbers:
    ``parse_circuit_text`` turns a written ``-0.0`` into ``0.0``."""
    return (
        a.num_qubits == b.num_qubits
        and len(a.gates) == len(b.gates)
        and all(
            ga.kind is gb.kind
            and ga.targets == gb.targets
            and ga.param == gb.param
            and (ga.matrix is None) == (gb.matrix is None)
            and (ga.matrix is None or np.array_equal(ga.matrix, gb.matrix))
            for ga, gb in zip(a.gates, b.gates)
        )
    )


def check_circuit_files(report: dict) -> str | None:
    """Each written circuit file holds the circuit compiled in process, and
    text ones round-trip through ``parse_circuit_text`` to that circuit, with
    4n / 15n+7 two-qubit gates.  The files are removed afterwards, so the
    next report must write its own.
    """
    expected = {"encoding": 4 * COMPILE_N, "decoding": 15 * COMPILE_N + 7}
    try:
        if len(report["files"]) != 2:
            return f"expected 2 circuit files, report lists {report['files']}"
        for name in report["files"]:
            path = Path(name)
            if not path.is_file():
                return f"circuit file {name} was not written"
            kind = path.name.split("_")[0]
            fmt = "TEXT" if path.suffix == ".txt" else "OPENQASM2"
            text = path.read_text()
            compiled = _compiled(kind, report["variant"])
            if text != export_circuit(compiled, fmt):
                return f"{name} differs from the circuit compiled in process"
            if fmt == "TEXT":
                parsed = parse_circuit_text(text)
                if parsed.two_qubit_count != expected[kind]:
                    return (f"{name} parses to {parsed.two_qubit_count} two-qubit"
                            f" gates, not {expected[kind]}")
                if not _same_gates(parsed, compiled):
                    return f"{name} does not parse back to the compiled circuit"
        return None
    finally:
        for path in CIRCUIT_DIR.iterdir():
            path.unlink()


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[[random.Random], list[Argv]]
    check: Callable[[dict], str | None] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("keyed-decrypt", keyed_decrypt_pool),
        Workload("encryption-audit", encryption_audit_pool),
        Workload("iterated-tree", iterated_tree_pool),
        Workload("circuit-compile", circuit_compile_pool, check_circuit_files),
    )
}


def prepare_output_dirs() -> None:
    """``compile --out`` into a missing directory exits 2, so create it first."""
    shutil.rmtree(CIRCUIT_DIR, ignore_errors=True)
    CIRCUIT_DIR.mkdir(parents=True)


@dataclass
class Outcome:
    seconds: float
    exit_code: int | None
    stdout: str
    error: str | None = None


def run_report(cli, argv: Argv) -> Outcome:
    """Time one ``cli.main(argv)`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            error = traceback.format_exc(limit=-3)
        finally:
            seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return Outcome(seconds, code, out.getvalue(), error)


@dataclass
class Client:
    """Sends one report at a time and verifies it before the next is sent."""

    cli: object
    check: Callable[[dict], str | None] | None = None
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    first: dict[Argv, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        schema = json.loads(SCHEMA_PATH.read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)

    def verify(self, argv: Argv, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return outcome.error
        try:
            report = json.loads(outcome.stdout)
        except ValueError:
            return "stdout is not a JSON report"
        error = next(iter(self.validator.iter_errors(report)), None)
        if error is not None:
            return f"schema: {error.message}"
        if report.get("passed") is not True:
            return "report says passed: false"
        if self.first.setdefault(argv, outcome.stdout) != outcome.stdout:
            return "bytes differ from the first report of this argv"
        return self.check(report) if self.check else None

    def send(self, argv: Argv) -> tuple[float, bool]:
        outcome = run_report(self.cli, argv)
        reason = self.verify(argv, outcome)
        self.attempted += 1
        if reason is not None:
            self.failures.append({"argv": " ".join(argv), "reason": reason})
        return outcome.seconds, reason is None

    def warm_up(self, pool: list[Argv]) -> None:
        """One untimed pass: the first report of an argv runs about 2x slower."""
        for argv in pool:
            self.send(argv)

    def timed(
        self, argvs: Iterator[Argv], seconds: float, min_reports: float, wall_cap: float
    ) -> list[tuple[float, bool]]:
        """Reports until ``seconds`` of report time and ``min_reports`` reports
        are reached, or ``wall_cap`` seconds of wall time pass."""
        samples: list[tuple[float, bool]] = []
        spent, start = 0.0, time.perf_counter()
        while (spent < seconds or len(samples) < min_reports) and (
            time.perf_counter() - start < wall_cap
        ):
            sample = self.send(next(argvs))
            samples.append(sample)
            spent += sample[0]
        return samples

    def digests(self) -> dict[str, str]:
        """sha256 of the first report of every distinct argv."""
        return {
            " ".join(argv): hashlib.sha256(text.encode()).hexdigest()
            for argv, text in sorted(self.first.items())
        }


def summarize(samples: list[tuple[float, bool]]) -> dict:
    times = sorted(t for t, _ in samples)
    verified = sum(ok for _, ok in samples)
    p90 = statistics.quantiles(times, n=10)[-1]
    return {
        "samples": len(times),
        "beyond_p90": sum(t > p90 for t in times),
        "verified": verified,
        "report_s": sum(times),
        "reports_per_s": verified / sum(times),
        "report_p50_s": statistics.median(times),
        "report_p90_s": p90,
    }
