"""Dense reference objects that only the tests use."""
import cmath
import math

import numpy as np

from qclone.circuits import Gate, GateKind
from qclone.registers import RegisterLayout
from qclone.states import StateVector, _split

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def gate_unitary(gate: Gate) -> np.ndarray:
    """The gate's local little-endian matrix (2x2 or 4x4 over its target wires)."""
    k = gate.kind
    if k is GateKind.H:
        return _H.copy()
    if k is GateKind.X:
        return _X.copy()
    if k is GateKind.RZ:
        half = gate.param / 2.0
        return np.diag([cmath.exp(-1j * half), cmath.exp(1j * half)])
    if k is GateKind.PHASE:
        return np.diag([1.0, cmath.exp(1j * gate.param)])
    if k is GateKind.CNOT:
        # control is bit 0, target bit 1
        return np.kron(np.eye(2), _P0) + np.kron(_X, _P1)
    # CONTROLLED_U, with the same wire convention as CNOT
    return np.kron(np.eye(2), _P0) + np.kron(np.asarray(gate.matrix), _P1)


def basis_state(layout: RegisterLayout, index: int = 0) -> StateVector:
    """The computational basis state ``|index>`` on ``layout``."""
    amps = np.zeros(2**layout.num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, layout)


def input_dependence_bound(e0: StateVector, e1: StateVector, keep) -> float:
    """The audit's linearity bound sqrt(d) (||D||_F / 2 + ||C||_F), with D halved
    explicitly and both norms taken by ``np.linalg.norm``."""
    f0, f1 = _split(e0, keep), _split(e1, keep)
    mixed = (f0 + f1) @ (f0 - f1).conj().T
    diff = (mixed + mixed.conj().T) / 2
    cross = f0 @ f1.conj().T
    frobenius = np.linalg.norm(diff) / 2 + np.linalg.norm(cross)
    return float(math.sqrt(f0.shape[0]) * frobenius)
