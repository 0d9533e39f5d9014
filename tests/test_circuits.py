"""Gate-list circuits: conventions, reconstruction, equivalence, export formats."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclone.circuits
from conftest import embed_operator, random_unitary
from oracles import basis_state, gate_unitary
from qclone.claims import CIRCUIT_EQUIV_ATOL
from qclone.circuits import (
    CircuitError,
    CircuitExportError,
    Gate,
    GateCircuit,
    GateKind,
    _fused_blocks,
    apply_circuit,
    circuit_to_unitary,
    equivalence_up_to_global_phase,
    export_circuit,
    gate_cnot,
    gate_cu,
    gate_h,
    gate_phase,
    gate_rz,
    gate_x,
    parse_circuit_text,
    zyz_angles,
)
from qclone.compiler import compile_decoding, compile_encoding
from qclone.protocol import AlphaCoefficients, Variant
from qclone.registers import RegisterLayout, RegisterOverflowError, max_register_qubits
from qclone.states import StateValidationError, StateVector, apply_unitary


def _rz(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)])


def _ry(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# single-gate conventions


def test_cnot_convention_control_is_first_wire():
    # Little-endian local matrix on (control, target) = (wire0, wire1):
    # flipping happens only when the control bit (bit 0 of the index) is set.
    u = gate_unitary(gate_cnot(0, 1))
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[2, 2] = 1.0  # control clear: untouched
    perm[3, 1] = perm[1, 3] = 1.0  # control set: target flips
    assert np.array_equal(u, perm)


def test_rz_and_phase_diagonals():
    theta = 0.7
    rz = gate_unitary(gate_rz(0, theta))
    assert np.allclose(rz, _rz(theta), atol=1e-15)
    ph = gate_unitary(gate_phase(0, theta))
    assert np.allclose(ph, np.diag([1.0, cmath.exp(1j * theta)]), atol=1e-15)


def test_controlled_u_convention():
    u = np.diag([1j, -1.0])
    cu = gate_unitary(gate_cu(0, 1, u))
    # control clear -> identity on the pair, control set -> u on wire 1
    assert np.allclose(cu, np.kron(np.eye(2), np.diag([1, 0])) + np.kron(u, np.diag([0, 1])))


def test_gate_validation_errors():
    with pytest.raises(CircuitError):
        Gate(GateKind.H, (0, 1))  # arity
    with pytest.raises(CircuitError):
        Gate(GateKind.CNOT, (2, 2))  # repeated wire
    with pytest.raises(CircuitError):
        Gate(GateKind.X, (-1,))  # negative wire
    with pytest.raises(CircuitError):
        Gate(GateKind.H, (0,), param=1.0)  # parameter on a fixed gate
    with pytest.raises(CircuitError):
        Gate(GateKind.RZ, (0,))  # missing parameter
    with pytest.raises(CircuitError):
        Gate(GateKind.CONTROLLED_U, (0, 1))  # missing matrix
    with pytest.raises(CircuitError, match="not finite"):
        gate_rz(0, math.inf)
    with pytest.raises(CircuitError):
        gate_cu(0, 1, np.eye(4))  # wrong matrix shape
    with pytest.raises(Exception):
        gate_cu(0, 1, np.array([[1.0, 0.0], [0.0, 2.0]]))  # not unitary
    with pytest.raises(StateValidationError, match="not unitary"):
        gate_cu(0, 1, np.diag([1.0, 1.0 + 4e-6]))  # |U^dagger U - I| = 8e-6 > STATE_ATOL


def test_circuit_rejects_out_of_range_wires():
    with pytest.raises(CircuitError):
        GateCircuit((gate_h(3),), 3)


def test_gate_matrix_is_defensively_frozen():
    u = np.diag([1.0, 1j])
    g = gate_cu(0, 1, u)
    u[0, 0] = -1.0  # caller mutates their copy afterwards
    assert g.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# dense reconstruction and application


def _random_circuit(rng: np.random.Generator, n: int, depth: int) -> GateCircuit:
    gates = []
    for _ in range(depth):
        choice = rng.integers(0, 6)
        q = int(rng.integers(0, n))
        q2 = int(rng.integers(0, n - 1))
        q2 = q2 if q2 != q else n - 1
        if choice == 0:
            gates.append(gate_h(q))
        elif choice == 1:
            gates.append(gate_x(q))
        elif choice == 2:
            gates.append(gate_rz(q, float(rng.uniform(-3, 3))))
        elif choice == 3:
            gates.append(gate_phase(q, float(rng.uniform(-3, 3))))
        elif choice == 4:
            gates.append(gate_cnot(q, q2))
        else:
            gates.append(gate_cu(q, q2, random_unitary(rng, 2)))
    return GateCircuit(tuple(gates), n)


def test_circuit_to_unitary_matches_embedded_product(rng):
    # From n = 6 on, 80 gates span many fused blocks, so block boundaries
    # are crossed; below that a 12-gate circuit is a single block.
    for n, depth in ((2, 12), (3, 12), (4, 12), (6, 80), (7, 80), (8, 80)):
        circuit = _random_circuit(rng, n, depth)
        if n > 5:
            assert len(list(_fused_blocks(circuit))) > 1
        dense = np.eye(2**n, dtype=np.complex128)
        for g in circuit.gates:
            dense = embed_operator(gate_unitary(g), g.targets, n) @ dense
        assert np.allclose(circuit_to_unitary(circuit), dense, rtol=0, atol=1e-12)


# Circuits for the slice-built block products: every gate kind, controlled
# unitaries with a diagonal, an anti-diagonal and a general matrix, controls
# above and below their targets, wires far apart, one wire, many blocks.
BLOCK_CASES = {
    "every-kind": lambda rng: GateCircuit(
        (gate_h(0), gate_x(1), gate_rz(2, 0.7), gate_phase(0, -1.3), gate_cnot(0, 2),
         gate_cu(1, 2, random_unitary(rng, 2))), 3),
    "cu-diagonal": lambda rng: GateCircuit((gate_h(1), gate_cu(0, 1, np.diag([1j, -1.0]))), 2),
    "cu-anti-diagonal": lambda rng: GateCircuit(
        (gate_h(0), gate_cu(1, 0, np.array([[0, 1j], [1j, 0]]))), 2),
    "cu-general": lambda rng: GateCircuit(
        (gate_cu(3, 1, random_unitary(rng, 2)), gate_cu(0, 2, random_unitary(rng, 2))), 4),
    "control-above-and-below": lambda rng: GateCircuit(
        (gate_h(0), gate_h(3), gate_cnot(0, 3), gate_cnot(3, 0), gate_cnot(2, 1)), 4),
    "non-adjacent-wires": lambda rng: GateCircuit(
        (gate_cnot(7, 0), gate_h(4), gate_cu(0, 7, random_unitary(rng, 2)), gate_rz(4, 1.1),
         gate_cnot(4, 7), gate_x(0)), 8),
    "one-wire": lambda rng: GateCircuit(
        (gate_h(0), gate_rz(0, 0.4), gate_x(0), gate_phase(0, 2.1)), 1),
    "many-blocks": lambda rng: _random_circuit(rng, 8, 80),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_fused_block_products_match_embedded_gate_products(rng, case):
    circuit = BLOCK_CASES[case](rng)
    gates = list(circuit.gates)
    for product, wires in _fused_blocks(circuit):
        # A block ends where the next gate brings a wire it lacks.
        k = len(wires)
        local = {w: m for m, w in enumerate(wires)}
        expect = np.eye(2**k, dtype=np.complex128)
        while gates and set(gates[0].targets) <= set(wires):
            g = gates.pop(0)
            expect = embed_operator(gate_unitary(g), [local[w] for w in g.targets], k) @ expect
        assert np.abs(product - expect).max() <= 1e-14
    assert not gates


def test_empty_circuit_is_the_identity(rng):
    empty = GateCircuit((), 3)
    assert np.array_equal(circuit_to_unitary(empty), np.eye(8))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(amps / np.linalg.norm(amps), RegisterLayout.generic(3))
    assert np.array_equal(apply_circuit(state, empty).amplitudes, state.amplitudes)


def test_reconstruction_cap():
    wide = GateCircuit((gate_h(0),), max_register_qubits() // 2 + 1)
    with pytest.raises(RegisterOverflowError, match="exceeds the cap of"):
        circuit_to_unitary(wide)


def test_apply_circuit_matches_dense_action(rng):
    n = 4
    circuit = _random_circuit(rng, n, 10)
    layout = RegisterLayout.generic(n)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, layout)
    stepped = apply_circuit(state, circuit)
    dense = circuit_to_unitary(circuit) @ amps
    assert np.allclose(stepped.amplitudes, dense, atol=1e-12)


def test_apply_circuit_with_wire_map(rng):
    # Routing a circuit onto some physical qubits of a wider register matches
    # applying each gate by hand on those qubits: a 2-wire circuit onto qubits
    # (3, 1) of 4, and an 8-wire one of many fused blocks onto 8 of 10.
    cases = ((2, 8, 4, [3, 1]), (8, 80, 10, [int(q) for q in rng.permutation(10)[:8]]))
    for wires, depth, n, wire_map in cases:
        circuit = _random_circuit(rng, wires, depth)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(amps / np.linalg.norm(amps), RegisterLayout.generic(n))
        routed = apply_circuit(state, circuit, wire_map=wire_map)
        expected = state
        for g in circuit.gates:
            expected = apply_unitary(expected, gate_unitary(g), [wire_map[w] for w in g.targets])
        assert np.allclose(routed.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)


def test_apply_circuit_checks_each_fused_block_once(rng, monkeypatch):
    """One unitarity check per fused block, then one sweep into one StateVector."""
    circuit = _random_circuit(rng, 8, 80)
    blocks = len(list(_fused_blocks(circuit)))
    calls = {"check_unitary": [], "_apply": []}

    def counted(name):
        fn = getattr(qclone.circuits, name)

        def wrapped(*args):
            calls[name].append(args)
            return fn(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(qclone.circuits, name, counted(name))
    apply_circuit(basis_state(RegisterLayout.generic(8)), circuit)
    assert blocks > 1 and len(calls["check_unitary"]) == blocks
    assert len(calls["_apply"]) == 1 and len(calls["_apply"][0][1]) == blocks


@pytest.mark.parametrize("depth", [2, 5, 50, 500])
def test_apply_circuit_runs_gates_each_admitted_near_unitary(depth):
    """Each gate is 9e-11 off unitary, inside check_unitary's window; fused, a block
    of them is further off, and is projected before its check rather than refused."""
    u = np.diag([1.0, 1j]) * (1 + 4.5e-11)
    circuit = GateCircuit(tuple(gate_cu(0, 1, u) for _ in range(depth)), 2)
    state = StateVector(np.full(4, 0.5), RegisterLayout.generic(2))
    for c in (circuit, parse_circuit_text(export_circuit(circuit, "TEXT"))):
        out = apply_circuit(state, c)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-15
        phase = 1j**depth
        assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, 0.5 * phase], rtol=0, atol=1e-7)


def test_apply_circuit_rejects_short_wire_map():
    circuit = GateCircuit((gate_cnot(0, 1),), 2)
    state = basis_state(RegisterLayout.generic(2))
    with pytest.raises(CircuitError):
        apply_circuit(state, circuit, wire_map=[0])


def test_apply_circuit_rejects_repeated_wire_map_qubit():
    # Two one-qubit gates share a fused block, so the repeat is refused up
    # front rather than depending on where block boundaries fall.
    circuit = GateCircuit((gate_h(0), gate_h(1)), 2)
    state = basis_state(RegisterLayout.generic(2))
    with pytest.raises(CircuitError, match="repeats"):
        apply_circuit(state, circuit, wire_map=[1, 1])


def test_then_concatenates(rng):
    a = _random_circuit(rng, 3, 5)
    b = _random_circuit(rng, 3, 5)
    ab = GateCircuit(a.gates + b.gates, 3)
    assert len(ab.gates) == len(a.gates) + len(b.gates)
    # b acts after a, so its matrix stands to the left
    assert np.allclose(
        circuit_to_unitary(ab),
        circuit_to_unitary(b) @ circuit_to_unitary(a),
        atol=1e-12,
    )


def test_gate_counts():
    circuit = GateCircuit(
        (gate_h(0), gate_cnot(0, 1), gate_rz(1, 0.3), gate_cu(1, 0, np.eye(2))), 2
    )
    assert circuit.two_qubit_count == 2
    assert circuit.one_qubit_count == 2


# ---------------------------------------------------------------------------
# unitary equivalence


def test_equivalence_detects_global_phase(rng):
    u = random_unitary(rng, 8)
    phase = cmath.exp(0.321j)
    result = equivalence_up_to_global_phase(phase * u, u)
    assert result.equivalent
    assert result.global_phase == pytest.approx(phase, abs=1e-12)
    assert result.max_entry_deviation < 1e-12


def test_equivalence_rejects_different_unitaries(rng):
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    result = equivalence_up_to_global_phase(u, v)
    assert not result.equivalent
    with pytest.raises(CircuitError):
        equivalence_up_to_global_phase(u, random_unitary(rng, 8))


def test_equivalence_default_tolerance_is_loose_enough(rng):
    u = random_unitary(rng, 4)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noise *= CIRCUIT_EQUIV_ATOL / (10 * np.abs(noise).max())
    result = equivalence_up_to_global_phase(cmath.exp(0.4j) * u + noise, u)
    assert result.equivalent
    assert result.max_entry_deviation < CIRCUIT_EQUIV_ATOL


# ---------------------------------------------------------------------------
# TEXT format round trip


def test_text_round_trip_every_gate_kind(rng):
    circuit = GateCircuit(
        (
            gate_h(0),
            gate_x(1),
            gate_rz(0, -1.2345678901234567),
            gate_phase(1, math.pi / 7),
            gate_cnot(2, 0),
            gate_cu(0, 1, random_unitary(rng, 2)),
            gate_cu(2, 1, np.array([[-1.0, -0.0], [-0.0, 1.0]])),  # signed zeros
        ),
        3,
    )
    text = export_circuit(circuit, "TEXT")
    # repr-based float formatting makes the round trip exact, not approximate
    assert export_circuit(parse_circuit_text(text), "TEXT") == text
    assert "-0.0" in text


def test_text_round_trip_is_stable(rng):
    circuit = _random_circuit(rng, 3, 15)
    text = export_circuit(circuit, "TEXT")
    assert export_circuit(parse_circuit_text(text), "TEXT") == text


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ROTATED_X2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_compiled_circuits_re_export_byte_for_byte(n, variant):
    alphas = AlphaCoefficients.for_angle(n, math.pi / 4, variant)
    for circuit in (compile_encoding(n, math.pi / 4, variant), compile_decoding(n, alphas)):
        text = export_circuit(circuit, "TEXT")
        assert export_circuit(parse_circuit_text(text), "TEXT") == text


def test_text_parser_rejects_garbage():
    with pytest.raises(CircuitError):
        parse_circuit_text("no header\nH 0\n")
    with pytest.raises(CircuitError):
        parse_circuit_text("qubits=2\nFROB 0\n")
    with pytest.raises(CircuitError):
        parse_circuit_text("qubits=2\nRZ 0;angle=1.0\n")  # unknown parameter key
    with pytest.raises(CircuitError):
        parse_circuit_text("qubits=2\nCONTROLLED_U 0,1;u=1.0,0.0\n")  # short matrix


@pytest.mark.parametrize(
    "text",
    [
        "qubits=x\n",
        "qubits=2\nH a\n",  # a wire that is not an integer
        "qubits=2\nCONTROLLED_U 0,1;u=1,0,0,0,0,0,one,0\n",
        # a ";" field other than the one the kind carries
        "qubits=2\nRZ 0;phi=0.5\n",
        "qubits=2\nPHASE 0;theta=0.5\n",
        "qubits=2\nH 0;junk\n",
        "qubits=2\nH 0;\n",
        "qubits=2\nCNOT 0,1;theta=3\n",
        "qubits=2\nCONTROLLED_U 0,1;theta=3\n",
        "qubits=2\nRZ 0\n",
    ],
)
def test_text_parser_names_the_malformed_line(text):
    bad = text.splitlines()[-1]
    with pytest.raises(CircuitError, match=f"line {bad!r}"):
        parse_circuit_text(text)


def test_negative_width_is_refused():
    with pytest.raises(CircuitError, match="negative"):
        parse_circuit_text("qubits=-1\n")
    with pytest.raises(CircuitError, match="negative"):
        GateCircuit((), -1)


def test_unknown_export_format():
    with pytest.raises(CircuitExportError):
        export_circuit(GateCircuit((gate_h(0),), 1), "qpic")


# ---------------------------------------------------------------------------
# OPENQASM2 export


def test_qasm_header_and_simple_gates():
    circuit = GateCircuit(
        (gate_h(0), gate_x(1), gate_rz(1, 0.25), gate_phase(0, 0.5), gate_cnot(0, 1)),
        2,
    )
    qasm = export_circuit(circuit, "OPENQASM2")
    lines = qasm.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert "h q[0];" in lines
    assert "x q[1];" in lines
    assert "rz(0.25) q[1];" in lines
    assert "u1(0.5) q[0];" in lines
    assert "cx q[0],q[1];" in lines


def test_qasm_lowers_controlled_u_to_qelib_gates(rng):
    circuit = GateCircuit((gate_cu(0, 1, random_unitary(rng, 2)),), 2)
    qasm = export_circuit(circuit, "OPENQASM2")
    body = qasm.splitlines()[3:]
    assert sum(1 for ln in body if ln.startswith("cx ")) == 2
    allowed = ("u1(", "rz(", "ry(", "cx ")
    assert all(ln.startswith(allowed) for ln in body)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_zyz_angles_reconstruct_the_unitary(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2)
    alpha, beta, gamma, delta = zyz_angles(u)
    rebuilt = cmath.exp(1j * alpha) * _rz(beta) @ _ry(gamma) @ _rz(delta)
    assert np.allclose(rebuilt, u, atol=1e-10)


@pytest.mark.parametrize(
    "u",
    [
        np.eye(2),
        np.diag([1.0, 1j]),
        np.diag([1j, 1.0]),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
    ],
    ids=["identity", "s", "anti-s", "x", "y"],
)
def test_zyz_angles_on_axis_aligned_gates(u):
    alpha, beta, gamma, delta = zyz_angles(u)
    rebuilt = cmath.exp(1j * alpha) * _rz(beta) @ _ry(gamma) @ _rz(delta)
    assert np.allclose(rebuilt, np.asarray(u, dtype=np.complex128), atol=1e-12)


def test_controlled_u_lowering_identities(rng):
    # The ABC sequence emitted for a controlled u must satisfy:
    #   control clear:  A B C = I
    #   control set:    A X B X C = u up to the u1(alpha) phase on the control
    u = random_unitary(rng, 2)
    alpha, beta, gamma, delta = zyz_angles(u)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    c_mat = _rz((delta - beta) / 2)
    b_mat = _ry(-gamma / 2) @ _rz(-(delta + beta) / 2)
    a_mat = _rz(beta) @ _ry(gamma / 2)
    assert np.allclose(a_mat @ b_mat @ c_mat, np.eye(2), atol=1e-10)
    assert np.allclose(
        cmath.exp(1j * alpha) * (a_mat @ x @ b_mat @ x @ c_mat), u, atol=1e-10
    )
