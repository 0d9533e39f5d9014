"""Gate-level circuit model: small vocabulary, dense reconstruction, export.

Gates carry explicit wire indices.  Two-qubit matrices are little-endian over
``(targets[0], targets[1])``, i.e. ``targets[0]`` is bit 0 of the local index.
For counting purposes CNOT and CONTROLLED_U are each one two-qubit gate;
everything else is a one-qubit gate.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import StateVector, _contract, apply_unitary, check_unitary

CIRCUIT_EQUIV_ATOL = 1e-8
RECONSTRUCT_MAX_QUBITS = 12
# Most wires one fused block of consecutive gates may touch.  A pass over the
# 2^n batch costs about the same for any small block, because the time goes
# into moving axes, not arithmetic; 5 was the fastest width for the n = 7
# compile check (14 passes instead of 164).
_FUSE_QUBITS = 5

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


class CircuitError(ValueError):
    """Malformed gate, circuit, or reconstruction request."""


class CircuitExportError(CircuitError):
    """Export to a format the exporter does not know."""


class GateKind(Enum):
    H = "H"
    X = "X"
    RZ = "RZ"
    PHASE = "PHASE"
    CNOT = "CNOT"
    CONTROLLED_U = "CONTROLLED_U"


_TWO_QUBIT_KINDS = frozenset({GateKind.CNOT, GateKind.CONTROLLED_U})
_PARAM_KINDS = frozenset({GateKind.RZ, GateKind.PHASE})


@dataclass(frozen=True, eq=False)
class Gate:
    kind: GateKind
    targets: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        arity = 2 if self.kind in _TWO_QUBIT_KINDS else 1
        if len(self.targets) != arity:
            raise CircuitError(f"{self.kind.value} takes {arity} wires, got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"repeated wire in {self.targets}")
        if any(q < 0 for q in self.targets):
            raise CircuitError(f"negative wire index in {self.targets}")
        if (self.param is not None) != (self.kind in _PARAM_KINDS):
            raise CircuitError(f"{self.kind.value}: parameter mismatch")
        if (self.matrix is not None) != (self.kind is GateKind.CONTROLLED_U):
            raise CircuitError(f"{self.kind.value}: matrix mismatch")
        if self.matrix is not None:
            mat = np.asarray(self.matrix, dtype=np.complex128)
            if mat.shape != (2, 2):
                raise CircuitError(f"{self.kind.value}: matrix shape {mat.shape}")
            check_unitary(mat)
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        if self.param is not None:
            param = float(self.param)
            if not math.isfinite(param):
                raise CircuitError(f"{self.kind.value}: angle {param} is not finite")
            object.__setattr__(self, "param", param)

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in _TWO_QUBIT_KINDS

    def unitary(self) -> np.ndarray:
        """Local little-endian matrix (2x2 or 4x4 over the target wires)."""
        k = self.kind
        if k is GateKind.H:
            return _H.copy()
        if k is GateKind.X:
            return _X.copy()
        if k is GateKind.RZ:
            half = self.param / 2.0
            return np.diag([cmath.exp(-1j * half), cmath.exp(1j * half)])
        if k is GateKind.PHASE:
            return np.diag([1.0, cmath.exp(1j * self.param)])
        if k is GateKind.CNOT:
            # control is bit 0, target bit 1
            return np.kron(np.eye(2), _P0) + np.kron(_X, _P1)
        # CONTROLLED_U, with the same wire convention as CNOT
        return np.kron(np.eye(2), _P0) + np.kron(np.asarray(self.matrix), _P1)


def gate_h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def gate_x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def gate_rz(q: int, theta: float) -> Gate:
    return Gate(GateKind.RZ, (q,), param=theta)


def gate_phase(q: int, phi: float) -> Gate:
    return Gate(GateKind.PHASE, (q,), param=phi)


def gate_cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def gate_cu(control: int, target: int, u) -> Gate:
    return Gate(GateKind.CONTROLLED_U, (control, target), matrix=u)


@dataclass(frozen=True, eq=False)
class GateCircuit:
    gates: tuple[Gate, ...]
    num_qubits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.targets) >= self.num_qubits:
                raise CircuitError(
                    f"gate on wires {g.targets} exceeds {self.num_qubits} qubits"
                )

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)

    @property
    def one_qubit_count(self) -> int:
        return sum(1 for g in self.gates if not g.is_two_qubit)

    @property
    def counts(self) -> dict[str, int]:
        return {"two_qubit": self.two_qubit_count, "one_qubit": self.one_qubit_count}

    def __len__(self) -> int:
        return len(self.gates)


def _fused_blocks(circuit: GateCircuit):
    """Yield ``(wires, product)`` for each maximal run of consecutive gates
    that together touch at most ``_FUSE_QUBITS`` wires, in circuit order.

    Gates are only grouped, never reordered, so applying the blocks in turn
    applies the circuit.  Bit m of a product's index belongs to ``wires[m]``.
    """
    runs: list[tuple[list[int], list[Gate]]] = []
    for g in circuit.gates:
        if runs:
            wires, gates = runs[-1]
            new = [w for w in g.targets if w not in wires]
            if len(wires) + len(new) <= _FUSE_QUBITS:
                wires.extend(new)
                gates.append(g)
                continue
        runs.append((list(g.targets), [g]))
    for wires, gates in runs:
        k = len(wires)
        dim = 2**k
        local = {w: m for m, w in enumerate(wires)}
        u = np.eye(dim, dtype=np.complex128)
        for g in gates:
            targets = tuple(local[w] for w in g.targets)
            u = _contract(u.reshape([2] * k + [dim]), g.unitary(), targets, k).reshape(dim, dim)
        yield tuple(wires), u


def apply_circuit(state: StateVector, circuit: GateCircuit, wire_map=None) -> StateVector:
    """Run the circuit on a register; ``wire_map[w]`` is the physical qubit of wire w."""
    if wire_map is None:
        wire_map = list(range(circuit.num_qubits))
    wire_map = [int(q) for q in wire_map]
    if len(wire_map) != circuit.num_qubits:
        raise CircuitError("wire map length must match circuit width")
    if len(set(wire_map)) != len(wire_map):
        raise CircuitError(f"wire map {wire_map} repeats a qubit")
    for wires, u in _fused_blocks(circuit):
        state = apply_unitary(state, u, [wire_map[w] for w in wires])
    return state


def circuit_to_unitary(circuit: GateCircuit) -> np.ndarray:
    """Dense product of all gate embeddings, earliest gate rightmost."""
    n = circuit.num_qubits
    if n > RECONSTRUCT_MAX_QUBITS:
        raise CircuitError(
            f"{n}-qubit dense reconstruction exceeds the cap of {RECONSTRUCT_MAX_QUBITS}"
        )
    dim = 2**n
    # Columns of the accumulating unitary are a batch of statevectors.
    u = np.eye(dim, dtype=np.complex128)
    for wires, block in _fused_blocks(circuit):
        u = _contract(u.reshape([2] * n + [dim]), block, wires, n).reshape(dim, dim)
    return u


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    global_phase: complex
    max_entry_deviation: float


def equivalence_up_to_global_phase(u, v, atol: float = CIRCUIT_EQUIV_ATOL) -> EquivalenceResult:
    """Is u = phase * v?  The phase is read off the largest entry of v+u."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 2:
        raise CircuitError(f"shape mismatch: {u.shape} vs {v.shape}")
    w = v.conj().T @ u
    flat = np.argmax(np.abs(w))
    pivot = w.flat[flat]
    if abs(pivot) < 1e-14:
        return EquivalenceResult(False, 1.0 + 0j, float(np.abs(u - v).max()))
    phase = pivot / abs(pivot)
    dev = float(np.abs(u - phase * v).max())
    return EquivalenceResult(dev < atol, complex(phase), dev)


# ---------------------------------------------------------------------------
# export formats


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_matrix(mat: np.ndarray) -> str:
    parts: list[str] = []
    for entry in np.asarray(mat).ravel():
        parts.append(_fmt_float(entry.real))
        parts.append(_fmt_float(entry.imag))
    return ",".join(parts)


def _parse_matrix(text: str, dim: int) -> np.ndarray:
    vals = [float(tok) for tok in text.split(",")]
    if len(vals) != 2 * dim * dim:
        raise CircuitError(f"expected {2*dim*dim} matrix numbers, got {len(vals)}")
    # Reinterpreting (re, im) pairs keeps signed zeros that re + 1j*im would lose.
    return np.array(vals, dtype=np.float64).view(np.complex128).reshape(dim, dim)


def export_circuit(circuit: GateCircuit, format: str = "TEXT") -> str:
    fmt = format.upper()
    if fmt == "TEXT":
        return _export_text(circuit)
    if fmt == "OPENQASM2":
        return _export_qasm(circuit)
    raise CircuitExportError(f"unknown format {format!r}")


def _export_text(circuit: GateCircuit) -> str:
    lines = [f"qubits={circuit.num_qubits}"]
    for g in circuit.gates:
        wires = ",".join(str(q) for q in g.targets)
        if g.kind is GateKind.RZ:
            lines.append(f"RZ {wires};theta={_fmt_float(g.param)}")
        elif g.kind is GateKind.PHASE:
            lines.append(f"PHASE {wires};phi={_fmt_float(g.param)}")
        elif g.kind is GateKind.CONTROLLED_U:
            lines.append(f"{g.kind.value} {wires};u={_fmt_matrix(g.matrix)}")
        else:
            lines.append(f"{g.kind.value} {wires}")
    return "\n".join(lines) + "\n"


def parse_circuit_text(text: str) -> GateCircuit:
    """Inverse of the TEXT export."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits="):
        raise CircuitError("missing qubits= header")
    num_qubits = int(lines[0].split("=", 1)[1])
    gates: list[Gate] = []
    for ln in lines[1:]:
        head, _, tail = ln.partition(";")
        name, _, wire_text = head.partition(" ")
        try:
            kind = GateKind(name)
        except ValueError:
            raise CircuitError(f"unknown gate kind {name!r}") from None
        wires = tuple(int(w) for w in wire_text.split(","))
        param = None
        matrix = None
        if kind in _PARAM_KINDS:
            key, _, val = tail.partition("=")
            if key not in ("theta", "phi"):
                raise CircuitError(f"bad parameter field {tail!r}")
            param = float(val)
        elif kind is GateKind.CONTROLLED_U:
            key, _, val = tail.partition("=")
            if key != "u":
                raise CircuitError(f"bad matrix field {tail!r}")
            matrix = _parse_matrix(val, 2)
        gates.append(Gate(kind, wires, param=param, matrix=matrix))
    return GateCircuit(tuple(gates), num_qubits)


# -- OPENQASM2 --------------------------------------------------------------


def zyz_angles(u) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    u = np.asarray(u, dtype=np.complex128)
    det = np.linalg.det(u)
    alpha = cmath.phase(det) / 2.0
    su = u * cmath.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > 1e-12:
        sum_phase = -2.0 * cmath.phase(su[0, 0])  # beta + delta
    else:
        sum_phase = 0.0
    if abs(su[1, 0]) > 1e-12:
        diff_phase = 2.0 * cmath.phase(su[1, 0])  # beta - delta
    else:
        diff_phase = 0.0
    beta = (sum_phase + diff_phase) / 2.0
    delta = (sum_phase - diff_phase) / 2.0
    return alpha, beta, gamma, delta


def controlled_u_qasm_lines(control: int, target: int, u) -> list[str]:
    """Lower a controlled 2x2 unitary to qelib1 gates (ABC decomposition)."""
    alpha, beta, gamma, delta = zyz_angles(u)
    lines: list[str] = []
    if abs(alpha) > 1e-15:
        lines.append(f"u1({_fmt_float(alpha)}) q[{control}];")
    # C = Rz((delta-beta)/2), B = Ry(-gamma/2) Rz(-(delta+beta)/2), A = Rz(beta) Ry(gamma/2)
    lines.append(f"rz({_fmt_float((delta - beta) / 2)}) q[{target}];")
    lines.append(f"cx q[{control}],q[{target}];")
    lines.append(f"rz({_fmt_float(-(delta + beta) / 2)}) q[{target}];")
    lines.append(f"ry({_fmt_float(-gamma / 2)}) q[{target}];")
    lines.append(f"cx q[{control}],q[{target}];")
    lines.append(f"ry({_fmt_float(gamma / 2)}) q[{target}];")
    lines.append(f"rz({_fmt_float(beta)}) q[{target}];")
    return lines


def _export_qasm(circuit: GateCircuit) -> str:
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for g in circuit.gates:
        if g.kind is GateKind.H:
            lines.append(f"h q[{g.targets[0]}];")
        elif g.kind is GateKind.X:
            lines.append(f"x q[{g.targets[0]}];")
        elif g.kind is GateKind.RZ:
            lines.append(f"rz({_fmt_float(g.param)}) q[{g.targets[0]}];")
        elif g.kind is GateKind.PHASE:
            lines.append(f"u1({_fmt_float(g.param)}) q[{g.targets[0]}];")
        elif g.kind is GateKind.CNOT:
            lines.append(f"cx q[{g.targets[0]}],q[{g.targets[1]}];")
        else:
            lines.extend(controlled_u_qasm_lines(g.targets[0], g.targets[1], g.matrix))
    return "\n".join(lines) + "\n"
