"""Command-line interface: exit codes, JSON reports, files on disk."""

import contextlib
import functools
import importlib
import io
import json
import math
import os
import pkgutil
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qclone
from qclone import cli, protocol, states
from qclone.claims import Check
from qclone.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    CliInputError,
    main,
    orthogonal_state,
    parse_psi,
    report_schema,
)
from qclone.registers import DEFAULT_MAX_QUBITS, max_register_qubits
from qclone.states import StateValidationError, StateVector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out_text: str) -> dict:
    report = json.loads(out_text)
    jsonschema.validate(report, report_schema())
    return report


def check_names(report: dict) -> set:
    return {c["name"] for c in report["checks"]}


# ---------------------------------------------------------------------------
# demo


def test_demo_default_passes(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == EXIT_OK
    report = load_report(out)
    assert report["command"] == "demo"
    assert report["passed"] is True
    assert check_names(report) == {
        "recovery-fidelity",
        "key-consumption-input-independent",
        "encryption-marginals-maximally-mixed",
    }
    assert set(report["signal_marginal_deviations"]) == {"S1", "S2"}
    assert len(report["decryptions"]) == 2
    for entry in report["decryptions"]:
        assert entry["fidelity"] == 1.0
    # complex amplitudes serialise as [re, im] pairs
    for amp in report["psi"]["amplitudes"]:
        assert isinstance(amp, list) and len(amp) == 2


def test_demo_single_pair_flags_the_leak(capsys):
    code, out, _ = run_cli(capsys, "demo", "--n", "1", "--psi", "0")
    assert code == EXIT_OK  # decryption still works; the flag is informational
    report = load_report(out)
    assert report["passed"] is True
    assert any("not fully encrypted" in f for f in report["flags"])
    assert "encryption-marginals-maximally-mixed" not in check_names(report)


def test_demo_named_and_numeric_psi_agree(capsys):
    code_a, out_a, _ = run_cli(capsys, "demo", "--psi", "+", "--n", "2")
    code_b, out_b, _ = run_cli(capsys, "demo", "--psi", "1,1", "--n", "2")
    assert code_a == code_b == EXIT_OK
    amps_a = load_report(out_a)["psi"]["amplitudes"]
    amps_b = load_report(out_b)["psi"]["amplitudes"]
    assert amps_a == amps_b  # 1,1 normalises to the plus state


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("psi", ["1e308,1e308", "1e-170,1e-170", "1e-160,1e-160"])
def test_tiny_or_huge_amplitudes_run_as_the_state_they_name(capsys, psi):
    """Their norm would overflow or underflow unless they are scaled first."""
    code, out, err = run_cli(capsys, "demo", "--psi", psi)
    assert code == EXIT_OK, err
    plus = load_report(run_cli(capsys, "demo", "--psi=+")[1])
    assert load_report(out)["psi"]["amplitudes"] == plus["psi"]["amplitudes"]


def test_demo_target_restricts_decryptions(capsys):
    code, out, _ = run_cli(capsys, "demo", "--n", "3", "--target", "2")
    assert code == EXIT_OK
    report = load_report(out)
    assert [d["target"] for d in report["decryptions"]] == [2]


def test_demo_report_is_deterministic(capsys, tmp_path):
    path = tmp_path / "report.json"
    for _ in range(2):
        code, _, _ = run_cli(capsys, "demo", "--seed", "7", "--out", str(path))
        assert code == EXIT_OK
    first = path.read_bytes()
    code, _, _ = run_cli(capsys, "demo", "--seed", "7", "--out", str(path))
    assert code == EXIT_OK
    assert path.read_bytes() == first
    load_report(path.read_text())


def test_demo_rotated_variant(capsys):
    code, out, _ = run_cli(capsys, "demo", "--variant", "rotated", "--n", "2")
    assert code == EXIT_OK
    assert load_report(out)["variant"] == "rotated_x2"


def test_demo_with_seven_clones_passes(capsys):
    """Fourteen qubits besides the carrier: no residual density matrix is built."""
    code, out, _ = run_cli(capsys, "demo", "--n", "7", "--psi=+")
    assert code == EXIT_OK
    report = load_report(out)
    assert report["passed"] is True
    assert report["key_consumption_trace_distance"] < 1e-14


def test_demo_bad_psi_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "demo", "--psi", "zebra")
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_demo_target_out_of_range(capsys, monkeypatch):
    """An out-of-range target is refused before anything is encoded."""
    encoded = []
    monkeypatch.setattr(cli, "encode", lambda *a: encoded.append(a))
    for target in ("0", "3", "5"):
        code, out, err = run_cli(capsys, "demo", "--n", "2", "--target", target, "--psi=+")
        assert (code, out, encoded) == (EXIT_INPUT_ERROR, "", [])
        assert err == f"error: target {target} outside 1..2\n"


def test_demo_refuses_an_undecryptable_angle_before_encoding(capsys, monkeypatch):
    """A t the decoder cannot undo is refused before anything is encoded."""
    encoded = []
    monkeypatch.setattr(cli, "encode", lambda *a: encoded.append(a))
    code, out, err = run_cli(capsys, "demo", "--n", "2", "--t", "0.6", "--psi=+")
    assert (code, out, encoded) == (EXIT_INPUT_ERROR, "", [])
    assert err == ("error: t=0.6 is not of the form pi/4 + m*pi/2; the phase decoder"
                   " cannot undo this encoding\n")


@pytest.mark.parametrize("t", ["0.7853981634274483", "157080.41807765304", "1e+308"])
def test_an_angle_outside_the_window_is_refused_as_an_angle(capsys, t):
    """pi/4 + 3e-11, pi/4 + 10^5 pi/2 as a float (1.8e-11 off) and a float near the
    largest are refused for their angle, not by a later check or an overflow."""
    code, out, err = run_cli(capsys, "demo", "--n", "2", "--psi=+", "--t", t)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == (f"error: t={t} is not of the form pi/4 + m*pi/2; the phase decoder"
                   " cannot undo this encoding\n")


def test_a_failed_rename_leaves_no_temporary_and_the_old_report(capsys, monkeypatch, tmp_path):
    """When the final rename fails, the temporary file is removed, the target
    keeps its bytes, and the run exits 2 on one line."""
    target = tmp_path / "report.json"
    target.write_bytes(b"old report")

    def refuse(src, dst):
        raise OSError(f"cannot rename {os.path.basename(src)}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = run_cli(capsys, "demo", "--n", "2", "--psi=+", "--out", str(target))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: cannot rename .qclone-") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_bytes() == b"old report"


def test_demo_out_into_missing_directory(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "demo", "--out", str(tmp_path / "missing" / "report.json")
    )
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


def test_compile_out_into_missing_directory(capsys, tmp_path):
    missing = tmp_path / "missing"
    code, out, err = run_cli(capsys, "compile", "--n", "2", "--out", str(missing))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert f"output directory {missing} does not exist" in err
    assert ".tmp" not in err


@pytest.mark.parametrize(
    "argv",
    [["demo", "--n", "2", "--psi=+"], ["audit"], ["iterate"], ["variants"],
     ["sweep", "--points", "3"], ["compile", "--n", "2", "--what", "both"]],
    ids=lambda argv: argv[0],
)
def test_a_missing_out_directory_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv):
    """compile's --out names a directory, every other command's a file in one; a
    missing directory is refused with the write's own line before anything is built."""
    calls = []
    for name in ("encode", "encryption_audit", "decrypt_clones_from_input",
                 "sweep_coherent_information", "compile_encoding"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
    missing = tmp_path / "missing"
    out = missing if argv[0] == "compile" else missing / "report.json"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout, calls) == (EXIT_INPUT_ERROR, "", [])
    assert err == f"error: output directory {missing} does not exist\n"
    assert list(tmp_path.iterdir()) == []


def test_demo_holds_few_copies_of_its_register(capsys):
    """demo keeps one decrypted register, the one its key-consumption check reads,
    and drops the encoded one once every clone is decrypted: at --n 7 the traced
    peak, 11.0 times the 2^15-amplitude register, stays within 12 times it."""
    main(["demo", "--n", "2", "--psi=+"])  # the parser and schema validator are built once
    tracemalloc.start()
    try:
        code = main(["demo", "--n", "7", "--psi=+"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak <= 12 * 2**15 * 16


# ---------------------------------------------------------------------------
# sweep


def test_sweep_three_point_values(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--points", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,I_formula,I_simulated,S_joint,S_marginal,n"
    assert len(lines) == 4
    for line, expected_i in zip(lines[1:], (-1.0, -1.0, -1.0)):
        fields = line.split(",")
        assert float(fields[1]) == expected_i
        assert float(fields[5]) == 1


def test_sweep_csv_file_is_deterministic(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--n", "2", "--points", "11", "--out", str(path))
    first = path.read_bytes()
    run_cli(capsys, "sweep", "--n", "2", "--points", "11", "--out", str(path))
    assert path.read_bytes() == first
    assert first.decode().splitlines()[0].startswith("t,")
    assert len(first.decode().strip().splitlines()) == 12


def test_sweep_writes_the_same_bytes_to_stdout_and_to_a_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    argv = ("sweep", "--n", "2", "--points", "7")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert run_cli(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
    assert path.read_bytes() == out.encode()
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_sweep_peak_at_quarter_pi(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--points", "5", "--tmax", str(math.pi))
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    by_t = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert by_t[min(by_t, key=lambda t: abs(t - math.pi / 4))] == 1.0


def test_sweep_off_its_closed_form_exits_1_and_writes_nothing(capsys, monkeypatch):
    formula = qclone.analysis.coherent_information_formula
    monkeypatch.setattr(qclone.analysis, "coherent_information_formula",
                        lambda t: formula(t) + 1e-6)
    code, out, err = run_cli(capsys, "sweep", "--n", "2", "--points", "5")
    assert (code, out) == (EXIT_CHECK_FAILED, "")
    assert err.startswith("sweep check failed: simulation disagrees with the closed form")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# compile


def test_compile_writes_circuit_files(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "compile", "--n", "2", "--out", str(tmp_path))
    assert code == EXIT_OK
    report = load_report(out)
    assert report["passed"] is True
    enc = tmp_path / "encoding_n2.txt"
    dec = tmp_path / "decoding_n2.txt"
    assert enc.exists() and dec.exists()
    assert enc.read_text().startswith("qubits=3\n")
    assert report["counts"]["within_budget"] is True
    assert report["enc_2q"] == 8
    assert report["dec_2q"] == 37
    assert check_names(report) == {
        "encoding-two-qubit-count",
        "encoding-circuit-equivalence",
        "decoding-two-qubit-count",
        "decoding-circuit-equivalence",
    }


def test_compile_qasm_format(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "compile",
        "--n",
        "2",
        "--format",
        "openqasm2",
        "--variant",
        "rotated",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_OK
    qasm = (tmp_path / "encoding_n2.qasm").read_text()
    assert qasm.splitlines()[0] == "OPENQASM 2.0;"
    assert (tmp_path / "decoding_n2.qasm").exists()


def test_compile_encoder_only_at_generic_angle(capsys, tmp_path):
    # the encoder exists at any angle; only the phase decoder is restricted
    code, out, _ = run_cli(
        capsys, "compile", "--what", "enc", "--t", "0.3", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    report = load_report(out)
    assert "dec_2q" not in report
    assert (tmp_path / "encoding_n2.txt").exists()


def test_compile_decoder_rejects_generic_angle(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compile", "--what", "dec", "--t", "0.3", "--out", str(tmp_path)
    )
    assert code == EXIT_INPUT_ERROR
    assert "pi/4" in err


def test_compile_decoder_at_shifted_accepted_angle(capsys, tmp_path):
    t = math.pi / 4 + math.pi / 2
    code, out, _ = run_cli(
        capsys, "compile", "--what", "dec", "--t", str(t), "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    assert load_report(out)["passed"] is True


# ---------------------------------------------------------------------------
# audit


def test_audit_passes_for_two_clones(capsys):
    code, out, _ = run_cli(capsys, "audit", "--n", "2")
    assert code == EXIT_OK
    report = load_report(out)
    assert report["passed"] is True
    assert report["command"] == "audit"


def test_audit_single_pair_fails_honestly(capsys):
    code, out, _ = run_cli(capsys, "audit", "--n", "1")
    assert code == EXIT_CHECK_FAILED
    report = load_report(out)
    assert report["passed"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed  # the leaking marginal is reported, not hidden


# ---------------------------------------------------------------------------
# iterate


def test_iterate_depth_one(capsys):
    code, out, _ = run_cli(capsys, "iterate", "--k", "1", "--psi", "+")
    assert code == EXIT_OK
    report = load_report(out)
    assert report["total_qubits"] == 5
    assert len(report["clones"]) == 3
    for entry in report["clones"]:
        assert len(entry["key_qubits"]) == 2
        assert entry["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert report["wrong_key_trace_distance"] < 1e-9


def test_iterate_depth_two(capsys):
    code, out, _ = run_cli(capsys, "iterate", "--k", "2")
    assert code == EXIT_OK
    report = load_report(out)
    assert report["total_qubits"] == 17
    assert len(report["clones"]) == 9
    assert all(len(e["key_qubits"]) == 4 for e in report["clones"])


def test_iterate_rejects_zero_depth(capsys):
    code, _, err = run_cli(capsys, "iterate", "--k", "0")
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


# ---------------------------------------------------------------------------
# variants


def test_variants_all_pass(capsys):
    code, out, _ = run_cli(capsys, "variants")
    assert code == EXIT_OK
    report = load_report(out)
    assert report["passed"] is True
    names = check_names(report)
    assert "substitution-n2-lost-N2" in names
    assert "substitution-n3-lost-N2N3" in names
    assert "data-side-decrypt-n2" in names
    assert "data-side-decrypt-n4" in names
    assert "data-side-decrypt-odd-n-rejected" in names
    assert "reverse-encoding-n3" in names
    assert "rotated-variant-n2" in names
    assert "iterated-k1-all-clones" in names


def test_variants_fails_when_odd_n_data_side_decryption_is_not_refused(capsys, monkeypatch):
    def unrefused(state, config, reference=None):  # decrypt_from_A without its parity check
        keys = [state.layout.noise(j) for j in range(1, config.n + 1)]
        return protocol._decrypt(state, config, 0, keys, reference)

    monkeypatch.setattr(cli, "decrypt_from_A", unrefused)
    code, out, _ = run_cli(capsys, "variants")
    assert code == EXIT_CHECK_FAILED
    report = load_report(out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"] is False and failed == ["data-side-decrypt-odd-n-rejected"]


# ---------------------------------------------------------------------------
# report schema

_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                 | st.sampled_from(["demo", "audit", "compile"]))
_JSON_LIKE = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["command", "passed", "checks", "flags", "name", "value", "detail", "x"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@functools.cache
def _sample_reports() -> tuple[str, ...]:
    """The report of one small run of each command."""
    reports = []
    with tempfile.TemporaryDirectory() as outdir:
        for argv in (
            ["demo", "--n", "1", "--psi=+"],
            ["audit", "--n", "2"],
            ["iterate", "--k", "1"],
            ["variants"],
            ["compile", "--n", "2", "--out", outdir],
        ):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == EXIT_OK, argv
            reports.append(out.getvalue())
    return tuple(reports)


@st.composite
def _mutated_reports(draw) -> dict:
    """A real report, left whole or given one of the edits a broken command could make."""
    report = json.loads(draw(st.sampled_from(_sample_reports())))
    how = draw(st.sampled_from(
        [None, "passed", "checks", "command", "flags", "key", "value", "text value"]))
    x = draw(_JSON_SCALARS | _JSON_LIKE)
    if how in ("passed", "checks"):
        del report[how]
    elif how in ("command", "flags"):
        report[how] = x
    elif how == "key":
        report["checks"][0]["unknown"] = x
    elif how is not None:
        report["checks"][0]["value"] = str(x) if how == "text value" else x
    return report


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(_JSON_LIKE, _mutated_reports()))
def test_schema_checker_agrees_with_jsonschema(value):
    schema = report_schema()
    valid = jsonschema.Draft7Validator(schema).is_valid(value)
    assert (cli._schema_error(value, schema) is None) == valid


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "minProperties": 1},
        {"type": "integer"},
        {"type": "array", "items": [{"type": "string"}]},
        {"type": "object", "additionalProperties": {"type": "string"}},
        {"properties": {"checks": {"items": {"pattern": "x"}}}},
    ],
)
def test_schema_checker_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="does not implement"):
        cli._schema_error({"checks": ["x"]}, schema)


@dataclass(frozen=True)
class _CheckWithAnUnknownField(Check):
    unknown: str = "not in the schema"


@pytest.mark.parametrize("breaks", ["report", "schema"])
def test_a_report_its_schema_refuses_is_an_internal_error(capsys, monkeypatch, breaks):
    """A broken report, or a schema the checker cannot read, is never printed."""
    if breaks == "report":
        monkeypatch.setattr(cli, "cmd_audit", lambda args: cli._finish(
            {"command": "audit", "checks": [_CheckWithAnUnknownField("x", True)]}, args.out))
    else:
        monkeypatch.setattr(cli, "report_schema", lambda: {**report_schema(), "minProperties": 1})
    code, out, err = run_cli(capsys, "audit")
    assert (code, out) == (EXIT_INTERNAL_ERROR, "")
    assert err.startswith("internal error: ValueError: ") and err.count("\n") == 1, err


def test_the_cli_runs_without_jsonschema(tmp_path):
    argvs = [
        ["demo", "--n", "2", "--psi=+"],
        ["audit", "--n", "2"],
        ["iterate", "--k", "1"],
        ["variants"],
        ["compile", "--n", "2", "--out", str(tmp_path)],
    ]
    script = (
        "import sys\nimport qclone.cli\n"
        "assert 'jsonschema' not in sys.modules, 'importing qclone.cli imported jsonschema'\n"
        "sys.modules['jsonschema'] = None  # any import of it now fails\n"
        f"for argv in {argvs!r}:\n    assert qclone.cli.main(argv) == 0, argv\n"
    )
    proc = _run_under_address_space_limit("-c", script)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# environment cap


def test_register_cap_env_blocks_large_runs(capsys, monkeypatch):
    monkeypatch.setenv("QCLONE_MAX_QUBITS", "4")
    code, _, err = run_cli(capsys, "demo", "--n", "2")  # needs 5 qubits
    assert code == EXIT_INPUT_ERROR
    assert "error:" in err


SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE_LIMIT = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def _run_under_address_space_limit(*args) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` at the default cap, within 2 GiB.

    A program that allocates before it checks then fails with MemoryError
    instead of exhausting the machine.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("QCLONE_MAX_QUBITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )


# Each argv with the width it is refused at: a tree's widest ancestry
# register (4k + 3), or a protocol register (2n + 1).
OVERSIZED_ARGVS = {
    ("iterate", "--k", "6"): 27,
    ("demo", "--n", "12", "--psi=+"): 25,
    ("iterate", "--k", "15"): 63,
    ("iterate", "--k", "1000000"): 4000003,
    ("demo", "--n", "10000000", "--psi=+"): 20000001,
    ("audit", "--n", "5000000"): 10000001,
    ("compile", "--n", "3000000"): 6000001,
}


@pytest.mark.parametrize("argv", list(OVERSIZED_ARGVS))
def test_oversized_register_exits_before_allocating(argv):
    """Every register the run would need is checked against the cap up front,
    before anything that it indexes is built."""
    proc = _run_under_address_space_limit("-m", "qclone.cli", *argv)
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert f"register of {OVERSIZED_ARGVS[argv]} qubits exceeds the cap" in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 200
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "build, refused",
    [
        # 16 kept qubits: a 2^32-entry residual
        (
            "config = ProtocolConfig(n=8)\n"
            "out = decrypt(encode(prepare_initial(config, named_state('0')), config), config)",
            "out.residual",
        ),
    ],
    ids=["residual-n8"],
)
def test_oversized_density_operator_is_refused_before_allocating(build, refused):
    """A dense w-qubit matrix counts 2w against the default cap of 24."""
    script = (
        f"import numpy as np\nfrom qclone import *\n{build}\n"
        f"try:\n    {refused}\nexcept RegisterOverflowError as exc:\n    print(exc)\n"
    )
    proc = _run_under_address_space_limit("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "exceeds the cap of 24" in proc.stdout


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("demo", "--seed", "-1"),
        ("iterate", "--seed", "-5"),
        ("variants", "--seed", "-1"),
        ("compile", "--n", "2", "--t", "inf"),
        ("compile", "--n", "2", "--t", "nan", "--what", "enc"),
        ("compile", "--n", "1", "--t", "1e308", "--what", "enc"),
        ("sweep", "--tmax", "inf"),
        ("sweep", "--n", "0"),
        ("demo", "--psi", "nan,0"),
    ],
)
def test_bad_numeric_input_is_one_error_line(capsys, tmp_path, argv):
    """Rejected up front: no uncaught ValueError, no failed check, no warning."""
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["demo", "audit", "sweep"])
def test_zero_pairs_is_refused_with_the_config_message(capsys, command):
    code, out, err = run_cli(capsys, command, "--n", "0")
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", "error: need n >= 1 signal/noise pairs, got 0\n")


def test_unexpected_exception_exits_3_on_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("something\nbroke")

    monkeypatch.setattr(cli, "cmd_demo", broken)
    code, out, err = run_cli(capsys, "demo")
    assert code == EXIT_INTERNAL_ERROR
    assert out == ""
    assert err == "internal error: RuntimeError: something broke\n"


_FUZZ_FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, math.pi / 4]
    ),
    st.floats(),
)
_FUZZ_SEEDS = st.integers(-(2**40), 2**40)


@st.composite
def _fuzz_argv(draw):
    """A command with some of its options, at widths far below the cap."""
    ints = st.integers
    psi = st.one_of(
        st.sampled_from(["0", "1", "+", "-", "+i", "-i", "zebra", "1,2,3"]),
        st.lists(_FUZZ_FLOATS, min_size=2, max_size=2).map(lambda v: ",".join(map(repr, v))),
        st.lists(_FUZZ_FLOATS, min_size=4, max_size=4).map(lambda v: ",".join(map(repr, v))),
    )
    variant = st.sampled_from(["standard", "rotated"])
    options = {
        "demo": {"n": ints(-1, 4), "t": _FUZZ_FLOATS, "psi": psi, "seed": _FUZZ_SEEDS,
                 "target": ints(-1, 5), "variant": variant},
        "compile": {"n": ints(-1, 5), "t": _FUZZ_FLOATS, "variant": variant,
                    "what": st.sampled_from(["enc", "dec", "both"]),
                    "format": st.sampled_from(["text", "openqasm2"])},
        "audit": {"n": ints(-1, 3)},
        "iterate": {"k": ints(-1, 1), "psi": psi, "seed": _FUZZ_SEEDS},
        "sweep": {"n": ints(-1, 2), "points": ints(-1, 5), "tmax": _FUZZ_FLOATS},
        "variants": {"seed": _FUZZ_SEEDS},
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = [command]
    for name, strategy in options[command].items():
        if draw(st.booleans()):
            value = draw(strategy)
            argv.append(f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}")
    return argv


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_fuzz_argv(), missing=st.booleans())
def test_fuzzed_argv_exits_with_a_documented_code(capsys, tmp_path, argv, missing):
    """--out lies in an existing or a missing directory; a missing one is refused."""
    outdir = tmp_path / "missing" if missing else tmp_path
    argv.append(f"--out={outdir if argv[0] == 'compile' else outdir / 'out.txt'}")
    code, _, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), err
    assert "Traceback" not in err
    if missing:
        assert code == EXIT_INPUT_ERROR and err.count("\n") == 1, err
        assert not outdir.exists()


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["demo", "--n", "4", "--psi=+"], 10),
        (["audit", "--n", "5"], 12),
        (["iterate", "--k", "2", "--psi=+"], 11),
        (["compile", "--n", "7", "--what", "both"], 16),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_each_benchmark_argv_runs_at_exactly_its_cap(capsys, monkeypatch, tmp_path, argv, cap):
    """The widest dense object a benchmark run holds is what its cap check counts."""
    if argv[0] == "compile":
        argv = [*argv, "--out", str(tmp_path)]
    monkeypatch.setenv("QCLONE_MAX_QUBITS", str(cap))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    for written in tmp_path.iterdir():
        written.unlink()
    monkeypatch.setenv("QCLONE_MAX_QUBITS", str(cap - 1))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"exceeds the cap of {cap - 1}" in err
    assert list(tmp_path.iterdir()) == []


def test_register_cap_env_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("QCLONE_MAX_QUBITS", "many")
    code, _, err = run_cli(capsys, "demo")
    assert code == EXIT_INPUT_ERROR
    assert "QCLONE_MAX_QUBITS" in err


def test_register_cap_env_holds_for_one_run_only(capsys, monkeypatch):
    monkeypatch.setenv("QCLONE_MAX_QUBITS", "4")
    assert run_cli(capsys, "demo", "--n", "1", "--psi", "0")[0] == EXIT_OK
    monkeypatch.delenv("QCLONE_MAX_QUBITS")
    assert max_register_qubits() == DEFAULT_MAX_QUBITS
    assert run_cli(capsys, "demo", "--n", "2", "--psi", "0")[0] == EXIT_OK  # 5 qubits


def test_two_runs_share_one_parser_and_each_restores_the_cap(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    monkeypatch.setenv("QCLONE_MAX_QUBITS", "4")
    assert run_cli(capsys, "demo", "--n", "1", "--psi", "0")[0] == EXIT_OK  # 3 qubits
    assert max_register_qubits() == DEFAULT_MAX_QUBITS
    code, _, err = run_cli(capsys, "demo", "--n", "2", "--psi", "0")  # 5 qubits
    assert code == EXIT_INPUT_ERROR and "exceeds the cap of 4" in err
    assert max_register_qubits() == DEFAULT_MAX_QUBITS
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_run_builds_each_protocol_operator_once(capsys, monkeypatch):
    """One encoder and one decoder serve a whole demo; one encoder a whole audit."""
    calls = Counter()
    for name in ("encoding_unitary", "decoding_unitary"):

        def counted(*args, _name=name, _build=getattr(protocol, name)):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(protocol, name, counted)
    assert run_cli(capsys, "demo", "--n", "4")[0] == EXIT_OK
    assert calls == {"encoding_unitary": 1, "decoding_unitary": 1}
    calls.clear()
    assert run_cli(capsys, "audit", "--n", "5")[0] == EXIT_OK
    assert calls == {"encoding_unitary": 1}


def test_each_protocol_operator_is_checked_once_where_it_is_built(capsys, monkeypatch):
    """The config (the tree's too) checks what it builds; applying it checks
    nothing, so the public checker in ``states`` is never reached."""
    tree = protocol.ProtocolConfig(n=2)
    monkeypatch.setattr(protocol, "_TREE_CONFIG", tree)
    checked = Counter()

    def spy(binding, check):
        def counted(u):
            checked[binding] += 1
            return check(u)

        return counted

    monkeypatch.setattr(protocol, "check_unitary", spy("owner", protocol.check_unitary))
    monkeypatch.setattr(states, "check_unitary", spy("apply", states.check_unitary))
    tree.encoder, tree.decoder()  # the tree's two operators; the adjoint is derived
    assert checked == Counter({"owner": 2})
    for argv, owner_checks in [
        (("demo", "--n", "4"), 2),  # the encoder and the one decoder
        (("audit", "--n", "5"), 1),  # the encoder
        (("iterate", "--k", "2"), 0),  # the tree's two operators exist already
    ]:
        checked.clear()
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert checked == Counter({"owner": owner_checks}), argv


@pytest.mark.parametrize(
    "argv, reductions",
    [
        # 4 signal and 1 data marginals, 4 recovered clones; the orthogonal
        # input's decrypted carrier is never read, so never reduced
        (("demo", "--n", "4", "--psi=+"), 9),
        (("iterate", "--k", "2"), 11),  # 9 clones and the 2 wrong-key probes
        (("variants",), 12),  # one recovered qubit per fidelity check
    ],
)
def test_each_report_reduces_only_what_it_reads(capsys, monkeypatch, argv, reductions):
    calls = Counter()
    for module in (cli, protocol):  # analysis reduces its own splits, so it has no partial_trace

        def counted(*args, _trace=module.partial_trace):
            calls["partial_trace"] += 1
            return _trace(*args)

        monkeypatch.setattr(module, "partial_trace", counted)
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert calls["partial_trace"] == reductions


@pytest.mark.parametrize(
    "builder, use",
    [("encoding_unitary", lambda c: c.encoder), ("decoding_unitary", lambda c: c.decoder())],
)
def test_a_non_unitary_protocol_operator_is_refused_on_first_use(capsys, monkeypatch, builder, use):
    monkeypatch.setattr(protocol, builder, lambda n, *_: 1.01 * np.eye(2 ** (n + 1)))
    config = protocol.ProtocolConfig(n=2)
    for _ in range(2):  # refused, and not kept
        with pytest.raises(StateValidationError, match="not unitary"):
            use(config)
    code, out, err = run_cli(capsys, "demo", "--n", "2", "--psi", "0")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "not unitary" in err


@pytest.mark.parametrize(
    "cap, n, expected", [(4, 7, EXIT_INPUT_ERROR), (8, 3, EXIT_OK), (8, 4, EXIT_INPUT_ERROR)]
)
def test_compile_rebuilds_circuits_of_up_to_half_the_cap(
    capsys, monkeypatch, tmp_path, cap, n, expected
):
    """A 2^w-square unitary holds as many amplitudes as a 2w-qubit register."""
    monkeypatch.setenv("QCLONE_MAX_QUBITS", str(cap))
    code, out, err = run_cli(capsys, "compile", "--n", str(n), "--out", str(tmp_path))
    assert code == expected, err
    if expected == EXIT_INPUT_ERROR:
        assert out == ""
        assert err.startswith("error: ") and f"exceeds the cap of {cap}" in err
        assert list(tmp_path.iterdir()) == []


def _qclone_error_classes() -> list[type]:
    """Every exception class that a qclone module defines."""
    found = []
    for info in pkgutil.iter_modules(qclone.__path__):
        module = importlib.import_module(f"qclone.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj.__module__ == module.__name__
        ]
    return found


def test_every_qclone_error_class_derives_from_one_base():
    classes = _qclone_error_classes()
    assert qclone.QcloneError in classes
    assert [c for c in classes if not issubclass(c, qclone.QcloneError)] == []


def test_every_qclone_error_class_exits_2_on_one_line(capsys, monkeypatch):
    classes = _qclone_error_classes()
    assert len(classes) >= 13
    for error in classes:

        def raise_it(args, error=error):
            raise error("bad input")

        monkeypatch.setattr(cli, "cmd_demo", raise_it)
        code, out, err = run_cli(capsys, "demo")
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", "error: bad input\n"), error


# ---------------------------------------------------------------------------
# psi parsing unit tests


def test_parse_psi_haar_is_seed_deterministic():
    a, desc_a = parse_psi(None, 42)
    b, _ = parse_psi(None, 42)
    c, _ = parse_psi(None, 43)
    assert desc_a == "haar(seed=42)"
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_parse_psi_two_floats_normalise():
    psi, desc = parse_psi("3,4", 0)
    assert desc == "amplitudes"
    assert np.allclose(psi.amplitudes, [0.6, 0.8])


def test_parse_psi_four_floats_are_complex_pairs():
    psi, _ = parse_psi("1,0,0,1", 0)
    assert np.allclose(psi.amplitudes, [1 / math.sqrt(2), 1j / math.sqrt(2)])


def test_parse_psi_rejects_wrong_arity():
    with pytest.raises(CliInputError):
        parse_psi("1,2,3", 0)
    with pytest.raises(CliInputError):
        parse_psi("foo,bar", 0)


def test_orthogonal_state_is_orthogonal():
    psi, _ = parse_psi("1,0,0,1", 0)
    perp = orthogonal_state(psi)
    assert isinstance(perp, StateVector)
    assert abs(np.vdot(psi.amplitudes, perp.amplitudes)) < 1e-15
