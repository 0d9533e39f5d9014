"""Compiled encoder/decoder circuits against their dense references."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed_operator, random_unitary
from qclone import cli, compiler
from qclone.circuits import (
    GateCircuit,
    circuit_to_unitary,
    equivalence_up_to_global_phase,
)
from qclone.compiler import (
    CompileError,
    basis_change_V_tilde,
    _v_tilde_inverse_gates,
    compile_ccu,
    compile_decoding,
    compile_encoding,
    principal_sqrt_2x2,
)
from qclone.protocol import (
    ANGLE_ATOL,
    AlphaCoefficients,
    ProtocolConfig,
    Variant,
    bell_pair_vector,
    decoding_unitary,
    encoding_unitary,
    prepare_initial,
)
from qclone.states import (
    StateValidationError,
    check_unitary,
    fidelity_pure,
    haar_random_qubit,
    partial_trace,
)
from qclone.circuits import apply_circuit

# Entrywise bound for a compiled doubly-controlled unit against its dense form.
CCU_EQUIV_ATOL = 1e-10


# ---------------------------------------------------------------------------
# square roots


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_principal_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2)
    v = principal_sqrt_2x2(u)
    assert np.allclose(v @ v, u, atol=1e-12)
    assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi, -math.pi / 2, 2.5])
def test_principal_sqrt_of_scalar_matrices(phase):
    # Scalar multiples of the identity have no Bloch axis; the closed form
    # needs none.  -I in particular shows up as a decoder block phase.
    u = np.exp(1j * phase) * np.eye(2)
    v = principal_sqrt_2x2(u)
    assert np.allclose(v @ v, u, atol=1e-12)


@pytest.mark.parametrize("modulus", [1 - 4e-11, 1 + 4e-11])
def test_principal_sqrt_of_a_scalar_within_the_unitarity_window(modulus):
    # check_unitary admits a scalar 4e-11 off the unit circle; its root is
    # the root of the unimodular projection, which is what it must square to.
    u = modulus * np.exp(2.5j) * np.eye(2)
    v = principal_sqrt_2x2(u)
    assert np.abs(v @ v - u / modulus).max() <= 1e-12


def test_principal_sqrt_input_validation():
    with pytest.raises(CompileError):
        principal_sqrt_2x2(np.eye(4))
    with pytest.raises(StateValidationError):
        principal_sqrt_2x2(np.array([[1.0, 0.0], [0.0, 2.0]]))
    # Unitary to 2e-11, within STATE_ATOL: the root squares to the nearest
    # unitary, which is 1e-11 away from u and is what the self-check compares.
    v = principal_sqrt_2x2(np.diag([1.0, 1j * (1 + 1e-11)]))
    assert np.abs(v @ v - np.diag([1.0, 1j])).max() <= 1e-12


# ---------------------------------------------------------------------------
# encoder


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ROTATED_X2])
@pytest.mark.parametrize("t", [0.0, math.pi / 8, math.pi / 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encoder_matches_dense_reference(n, t, variant):
    circuit = compile_encoding(n, t, variant)
    assert circuit.num_qubits == n + 1
    result = equivalence_up_to_global_phase(
        circuit_to_unitary(circuit), encoding_unitary(n, t, variant)
    )
    assert result.equivalent
    assert result.max_entry_deviation < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_encoder_gate_counts(n):
    standard = compile_encoding(n, 0.3)
    assert standard.two_qubit_count == 4 * n
    assert standard.one_qubit_count == 2 * n + 4
    rotated = compile_encoding(n, 0.3, Variant.ROTATED_X2)
    # the Y-axis rotation costs an extra S.H basis change on each wire
    assert rotated.two_qubit_count == 4 * n
    assert rotated.one_qubit_count == (2 * n + 4) + 4 * (n + 1)


def test_encoder_rejects_bad_n():
    with pytest.raises(CompileError):
        compile_encoding(0, 0.5)


# ---------------------------------------------------------------------------
# doubly-controlled units


def _dense_ccu(u, c1, c2, target, width):
    """Reference: apply u on target iff c1 and c2 both carry 1."""
    both = embed_operator(np.diag([0, 1]), [c1], width) @ embed_operator(
        np.diag([0, 1]), [c2], width
    )
    return np.eye(2**width) - both + both @ embed_operator(u, [target], width)


def test_ccu_matches_dense_reference(rng):
    u = random_unitary(rng, 2)
    circuit = compile_ccu(u, (0, 1), 2)
    dense = circuit_to_unitary(circuit)
    assert np.abs(dense - _dense_ccu(u, 0, 1, 2, 3)).max() < CCU_EQUIV_ATOL
    assert circuit.two_qubit_count == 5
    assert circuit.one_qubit_count == 0


def test_ccu_on_scattered_wires(rng):
    u = random_unitary(rng, 2)
    circuit = compile_ccu(u, (3, 0), 2)
    assert circuit.num_qubits == 4
    dense = circuit_to_unitary(circuit)
    assert np.abs(dense - _dense_ccu(u, 3, 0, 2, 4)).max() < CCU_EQUIV_ATOL


def test_toffoli_is_exact(rng):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dense = circuit_to_unitary(compile_ccu(x, (0, 1), 2))
    assert np.abs(dense - _dense_ccu(x, 0, 1, 2, 3)).max() < 1e-12


def test_ccu_input_validation(rng):
    u = random_unitary(rng, 2)
    with pytest.raises(CompileError):
        compile_ccu(u, (0, 1), 1)  # target collides with a control
    with pytest.raises(CompileError):
        compile_ccu(random_unitary(rng, 4), (0, 1), 2)


# ---------------------------------------------------------------------------
# Bell unscrambler


def test_v_tilde_maps_bell_states_to_computational_basis():
    v = circuit_to_unitary(basis_change_V_tilde())
    # mu -> little-endian index with the bits of mu swapped, phase exactly +1
    for mu, idx in enumerate((0, 2, 1, 3)):
        image = v @ bell_pair_vector(mu)
        expected = np.zeros(4)
        expected[idx] = 1.0
        assert np.allclose(image, expected, atol=1e-12)


def test_v_tilde_inverse_gates_are_the_exact_adjoint():
    v = circuit_to_unitary(basis_change_V_tilde())
    vinv = circuit_to_unitary(GateCircuit(_v_tilde_inverse_gates(), 2))
    assert np.abs(vinv - v.conj().T).max() < 1e-14


# ---------------------------------------------------------------------------
# decoder


@pytest.mark.parametrize(
    "n,variant",
    [
        (2, "standard"),
        (3, "standard"),
        (2, "rotated_x2"),
        (3, "rotated_x2"),  # alpha_3 = -1: a block phase of -I, whose root is iI
    ],
)
def test_decoder_matches_dense_reference(n, variant):
    alphas = AlphaCoefficients.for_angle(n, math.pi / 4, Variant(variant))
    circuit = compile_decoding(n, alphas)
    result = equivalence_up_to_global_phase(
        circuit_to_unitary(circuit), decoding_unitary(n, alphas, target=1)
    )
    assert result.equivalent
    assert result.max_entry_deviation < 1e-10
    assert result.global_phase == pytest.approx(1.0, abs=1e-9)


def test_decoder_takes_one_square_root_per_block(monkeypatch):
    """Each Pauli's five-gate block is built once and retargeted to every slot:
    a phase and a Pauli root for each of the three patterns, whatever n is."""
    roots = []

    def counted(u):
        roots.append(u)
        return principal_sqrt_2x2(u)

    monkeypatch.setattr(compiler, "principal_sqrt_2x2", counted)
    circuit = compile_decoding(7, AlphaCoefficients.standard(7))
    assert len(roots) == 6
    assert circuit.two_qubit_count == 15 * 7 + 7


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decoder_two_qubit_count_formula(n):
    circuit = compile_decoding(n, AlphaCoefficients.standard(n))
    assert circuit.two_qubit_count == 15 * n + 7
    # bookkeeping around the blocks: two Hadamards and four X flips
    assert circuit.one_qubit_count == 6
    assert circuit.num_qubits == n + 1


def test_decoder_rejects_single_pair():
    with pytest.raises(CompileError):
        compile_decoding(1, AlphaCoefficients.standard(1))


# ---------------------------------------------------------------------------
# accounting: the counts block of `compile --what both`


@pytest.mark.parametrize(
    "n,enc,dec,budget",
    [(2, 8, 37, 53), (3, 12, 52, 74), (5, 20, 82, 116)],
)
def test_gate_count_report_values(capsys, tmp_path, n, enc, dec, budget):
    code = cli.main(["compile", "--n", str(n), "--what", "both", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["counts"] == {
        "n": n,
        "enc_2q": enc,
        "dec_2q": dec,
        "total_2q": budget,
        "measured_total": 19 * n + 7,
        "enc_formula_4n": enc,
        "dec_formula_15n_plus_7": dec,
        "within_budget": True,
    }


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("variant", ["standard", "rotated"])
def test_compile_equivalence_residuals_stay_at_noise_level(capsys, tmp_path, n, variant):
    # Every report stays byte-identical except noise-level residuals, and
    # those only while they stay <= 1e-14.
    argv = ["compile", "--n", str(n), "--what", "both", "--variant", variant]
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    residuals = [c["value"] for c in checks if c["name"].endswith("-circuit-equivalence")]
    assert len(residuals) == 2
    assert max(residuals) <= 1e-14


def test_phases_just_inside_their_window_compile_to_a_unitary_decoder():
    # 9e-10 off the unit circle is accepted and projected onto it, so the dense
    # decoder passes its unitarity check and is the operator the circuit compiles.
    alphas = AlphaCoefficients((1, 1j, -1j * (1 + 9e-10), 1j))
    dense = check_unitary(decoding_unitary(2, alphas))
    result = equivalence_up_to_global_phase(circuit_to_unitary(compile_decoding(2, alphas)), dense)
    assert result.equivalent
    assert result.max_entry_deviation <= 1e-14


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("variant", ["standard", "rotated"])
def test_compile_decodes_at_every_angle_the_window_accepts(capsys, tmp_path, n, variant):
    # The phases c_0/c_mu sit up to about 4e-11 off the unit circle there; they
    # are projected onto it, so the circuit matches its dense decoder to noise.
    for m in (-1, 0, 1, 2):
        for offset in (0.5, -0.5, 0.99, -0.99):
            t = math.pi / 4 + m * math.pi / 2 + offset * ANGLE_ATOL
            argv = ["compile", "--n", str(n), "--t", repr(t), "--what", "dec",
                    "--variant", variant, "--out", str(tmp_path)]
            assert cli.main(argv) == cli.EXIT_OK, (m, offset, capsys.readouterr().err)
            checks = json.loads(capsys.readouterr().out)["checks"]
            (dev,) = [c["value"] for c in checks if c["name"] == "decoding-circuit-equivalence"]
            assert dev <= 1e-14, (m, offset)


def test_gate_count_report_rejects_small_n(capsys, tmp_path):
    code = cli.main(["compile", "--n", "1", "--what", "both", "--out", str(tmp_path)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "starts at n = 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# full compiled cycle


@pytest.mark.parametrize("n,target", [(2, 1), (2, 2), (3, 2)])
def test_compiled_cycle_recovers_the_input(rng, n, target):
    psi = haar_random_qubit(rng)
    cfg = ProtocolConfig(n=n, t=math.pi / 4)
    state = prepare_initial(cfg, psi)
    layout = state.layout

    enc_wires = [layout.data] + [layout.signal(i) for i in range(1, n + 1)]
    state = apply_circuit(state, compile_encoding(n, cfg.t), wire_map=enc_wires)

    # the compiled decoder pairs its carrier with wire 1, so the paired noise
    # qubit goes there and the remaining noise qubits fill the higher wires
    dec_wires = [layout.signal(target), layout.noise(target)] + [
        layout.noise(i) for i in range(1, n + 1) if i != target
    ]
    decoder = compile_decoding(n, AlphaCoefficients.standard(n))
    state = apply_circuit(state, decoder, wire_map=dec_wires)

    recovered = partial_trace(state, [layout.signal(target)])
    assert fidelity_pure(recovered, psi) >= 1.0 - 1e-8
