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

from .claims import CIRCUIT_EQUIV_ATOL
from .registers import QcloneError, RegisterOverflowError, check_register_size
from .states import StateVector, apply_unitary, check_unitary

# Most wires one fused block of consecutive gates may touch.  A pass over the
# 2^n batch moves its axes once and does 2^k multiply-adds per entry, so
# wider blocks mean fewer passes but more arithmetic in each.  For the n = 7
# compile check, widths 4, 5 and 6 make 21, 14 and 12 passes and took 48, 42
# and 43 ms a report (one BLAS thread, interleaved runs); 5 was the fastest.
_FUSE_QUBITS = 5

_INV_SQRT2 = 1 / math.sqrt(2)


class CircuitError(QcloneError):
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
        if self.num_qubits < 0:
            raise CircuitError(f"circuit width {self.num_qubits} is negative")
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


def _fused_blocks(circuit: GateCircuit):
    """Yield ``(wires, product)`` for each maximal run of consecutive gates
    that together touch at most ``_FUSE_QUBITS`` wires, in circuit order.

    Gates are only grouped, never reordered, so applying the blocks in turn
    applies the circuit.  Bit m of a product's index belongs to ``wires[m]``.
    Products are built by applying the gates in place to the rows of the 2^k
    identity, so the per-gate matrices of the tests stay an independent oracle.
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
        local = {w: m for m, w in enumerate(wires)}
        u = np.eye(2**k, dtype=np.complex128)
        rows = u.reshape([2] * k + [-1])  # a view: bit m of the row index is axis k-1-m
        for g in gates:
            axes = [k - 1 - local[w] for w in g.targets]
            index = [slice(None)] * k
            if g.is_two_qubit:
                index[axes[0]] = 1  # the gate acts only where the control is set
            index[axes[-1]] = 0
            lo = rows[tuple(index)]
            index[axes[-1]] = 1
            _apply_to_halves(g, lo, rows[tuple(index)])
        yield tuple(wires), u


def _apply_to_halves(g: Gate, lo: np.ndarray, hi: np.ndarray) -> None:
    """Apply the gate's 2x2 action on its target, in place, to the rows where
    the target bit is 0 (``lo``) and 1 (``hi``)."""
    kind = g.kind
    if kind in (GateKind.X, GateKind.CNOT):
        lo[...], hi[...] = hi.copy(), lo.copy()
    elif kind is GateKind.H:
        lo[...], hi[...] = (lo + hi) * _INV_SQRT2, (lo - hi) * _INV_SQRT2
    elif kind is GateKind.RZ:
        half = g.param / 2.0
        lo *= cmath.exp(-1j * half)
        hi *= cmath.exp(1j * half)
    elif kind is GateKind.PHASE:
        hi *= cmath.exp(1j * g.param)
    else:
        (a, b), (c, d) = g.matrix
        lo[...], hi[...] = a * lo + b * hi, c * lo + d * hi


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
    try:
        check_register_size(n, matrix=True)
    except RegisterOverflowError as exc:
        raise CircuitError(str(exc)) from None
    dim = 2**n
    # Columns are a batch of statevectors.  Each block leaves its target axes in
    # front; the axes go back in order once, at the end.
    u = np.eye(dim, dtype=np.complex128).reshape([2] * n + [dim])
    axes = list(range(n + 1))  # axis i of u was axis axes[i] of the identity
    for wires, block in _fused_blocks(circuit):
        lead = [n - 1 - w for w in reversed(wires)]  # qubit q is axis n-1-q, msb first
        u = np.moveaxis(u, [axes.index(a) for a in lead], range(len(lead)))
        axes, shape = lead + [a for a in axes if a not in lead], u.shape
        u = u.reshape(len(block), -1)  # a copy unless the lead axes were in front
        u = (block @ u).reshape(shape)
    return u.transpose(np.argsort(axes)).reshape(dim, dim)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    global_phase: complex
    max_entry_deviation: float


def equivalence_up_to_global_phase(u, v) -> EquivalenceResult:
    """Is u = phase * v?  The phase is read off tr(v+ u), with no matrix product."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 2:
        raise CircuitError(f"shape mismatch: {u.shape} vs {v.shape}")
    pivot = np.vdot(v, u)
    if abs(pivot) < 1e-14:
        return EquivalenceResult(False, 1.0 + 0j, float(np.abs(u - v).max()))
    phase = pivot / abs(pivot)
    dev = float(np.abs(phase * v - u).max())  # subtracting into the product's buffer
    return EquivalenceResult(dev < CIRCUIT_EQUIV_ATOL, complex(phase), dev)


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
    """Inverse of the TEXT export.  A malformed line raises CircuitError naming it."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits="):
        raise CircuitError("missing qubits= header")
    num_qubits = _parse_line(lines[0], lambda ln: int(ln.split("=", 1)[1]))
    gates = tuple(_parse_line(ln, _parse_gate) for ln in lines[1:])
    return GateCircuit(gates, num_qubits)


def _parse_line(line: str, parse):
    try:
        return parse(line)
    except ValueError as exc:  # CircuitError included: every refusal names its line
        raise CircuitError(f"line {line!r}: {exc}") from None


def _parse_gate(line: str) -> Gate:
    head, _, tail = line.partition(";")
    name, _, wire_text = head.partition(" ")
    kind = GateKind(name)
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
    return Gate(kind, wires, param=param, matrix=matrix)


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
