"""Command-line interface: exit codes, JSON reports, files on disk."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qclone import cli
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
from qclone.states import StateVector


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


def test_demo_target_out_of_range(capsys):
    code, _, err = run_cli(capsys, "demo", "--n", "2", "--target", "5")
    assert code == EXIT_INPUT_ERROR
    assert "target" in err


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


def test_sweep_peak_at_quarter_pi(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--points", "5", "--tmax", str(math.pi))
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    by_t = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert by_t[min(by_t, key=lambda t: abs(t - math.pi / 4))] == 1.0


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


@pytest.mark.parametrize(
    "argv", [("iterate", "--k", "3"), ("demo", "--n", "12", "--psi=+")]
)
def test_oversized_register_exits_before_allocating(argv):
    """53 and 25 qubits are refused up front, not after a failed allocation.

    The run is a subprocess with a 2 GiB address-space limit, so a program that
    allocates first fails with MemoryError instead of exhausting the machine.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("QCLONE_MAX_QUBITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qclone.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


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
        ("demo", "--psi", "nan,0"),
        ("demo", "--psi", "1e308,1e308"),
    ],
)
def test_bad_numeric_input_is_one_error_line(capsys, tmp_path, argv):
    """Rejected up front: no uncaught ValueError, no failed check, no warning."""
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


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
@given(argv=_fuzz_argv())
def test_fuzzed_argv_exits_with_a_documented_code(capsys, tmp_path, argv):
    if argv[0] == "compile":
        argv.append(f"--out={tmp_path}")
    code, _, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR), err
    assert "Traceback" not in err


def test_register_cap_env_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("QCLONE_MAX_QUBITS", "many")
    code, _, err = run_cli(capsys, "demo")
    assert code == EXIT_INPUT_ERROR
    assert "QCLONE_MAX_QUBITS" in err


@pytest.fixture(autouse=True)
def _restore_register_cap():
    from qclone.registers import DEFAULT_MAX_QUBITS, set_max_register_qubits

    yield
    set_max_register_qubits(DEFAULT_MAX_QUBITS)


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
