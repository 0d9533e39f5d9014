"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import qclone.cli as cli  # noqa: E402
from qclone import protocol, states  # noqa: E402

DEMO = ("demo", "--n", "2", "--psi=+")


@pytest.fixture(autouse=True)
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


class ScriptedCli:
    """Stands in for qclone.cli: prints each scripted report or raises it."""

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def main(self, argv):
        out = next(self.outputs)
        if isinstance(out, BaseException):
            raise out
        sys.stdout.write(out)
        return 0


def demo_report() -> str:
    return harness.run_report(cli, DEMO).stdout


def test_failed_reports_are_counted_and_the_run_goes_on():
    client = harness.Client(cli)
    # demo --n 0 exits 2; --psi -i is read as an option and argparse exits 2.
    pool = [("demo", "--n", "0"), DEMO, ("demo", "--psi", "-i")]
    samples = client.timed(itertools.cycle(pool), seconds=0, min_reports=6, wall_cap=60)
    assert [ok for _, ok in samples] == [False, True, False] * 2
    assert client.attempted == 6
    assert [f["reason"][:11] for f in client.failures] == ["exit code 2"] * 4


def test_exceptions_and_changed_bytes_are_failures():
    report = demo_report()
    changed = json.loads(report)
    changed["data_marginal_deviation"] = 0.5
    changed = json.dumps(changed, indent=2, sort_keys=True) + "\n"
    scripted = ScriptedCli([report, RuntimeError("boom"), changed, "not json", report])
    client = harness.Client(scripted)
    oks = [client.send(DEMO)[1] for _ in range(5)]
    assert oks == [True, False, False, False, True]
    reasons = [f["reason"] for f in client.failures]
    assert "RuntimeError: boom" in reasons[0]
    assert reasons[1:] == [
        "bytes differ from the first report of this argv",
        "stdout is not a JSON report",
    ]


def test_pools_follow_the_seed():
    for workload in harness.WORKLOADS.values():
        assert workload.pool(random.Random(3)) == workload.pool(random.Random(3))
    assert harness.keyed_decrypt_pool(random.Random(3)) != harness.keyed_decrypt_pool(
        random.Random(4)
    )


def test_compile_files_are_checked():
    harness.prepare_output_dirs()
    pool = harness.circuit_compile_pool(random.Random(0))
    client = harness.Client(cli, harness.check_circuit_files)
    for argv in pool:
        assert client.send(argv)[1], client.failures
    assert list(harness.CIRCUIT_DIR.iterdir()) == []

    report = json.loads(harness.run_report(cli, pool[0]).stdout)
    Path(report["files"][1]).write_text("qubits=8\n")
    assert "differs" in harness.check_circuit_files(report)
    assert list(harness.CIRCUIT_DIR.iterdir()) == []


def test_tracer_wraps_every_binding_site_and_restores_it():
    originals = (protocol.partial_trace, cli.decrypt, states.DensityOperator.__init__)
    tracer = tracing.Tracer()
    client = harness.Client(cli)
    with tracer.installed():
        assert protocol.partial_trace is cli.partial_trace is not originals[0]
        assert client.send(DEMO)[1]
    assert (protocol.partial_trace, cli.decrypt, states.DensityOperator.__init__) == originals

    m = {name: entry["value"] for name, entry in tracer.metrics().items()}
    assert tracer.reports == 1
    assert m["protocol.decrypt.calls"] == 4  # 2 targets + 2 for key consumption
    assert m["states.partial_trace.calls"] == 3 + 2 * 4  # marginals + per decrypt
    assert m["registers.max_qubits"] == 5
    assert m["protocol.decrypt.residual_bytes"] == 4 * 16 * 16 * 16
    self_total = sum(v for name, v in m.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(m["cli.main.total_s"], rel=1e-9)
    assert all(span[4] is None or span[4] < span[0] for span in tracer.spans)


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: e["unit"] for name, e in tracing.Tracer().metrics().items()}
    emitted.update(run.TRACE_OVERHEAD_UNITS)
    assert per_layer == emitted
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_exits_non_zero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyed-decrypt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
