"""Gate-level circuit model: small vocabulary, dense reconstruction, export.

Gates carry explicit wire indices.  Two-qubit matrices are little-endian over
``(targets[0], targets[1])``, i.e. ``targets[0]`` is bit 0 of the local index.
For counting purposes CNOT and CONTROLLED_U are each one two-qubit gate;
everything else is a one-qubit gate.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .claims import CIRCUIT_EQUIV_ATOL, PIVOT_ZERO, QASM_PHASE_ZERO, ZYZ_ZERO
from .registers import QcloneError, check_register_size
from .states import StateVector, _apply, _contract, _nearest_unitary, check_unitary

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


# Each kind's wire count, its TEXT field after ";" ("u" carries the matrix, any other
# the angle, None is no field) and its OPENQASM 2 gate (None: CONTROLLED_U is lowered
# by controlled_u_qasm_lines).  The gate check, both exporters and the parser read it.
_Form = namedtuple("_Form", "wires field qasm")
_FORMS = {
    GateKind.H: _Form(1, None, "h"),
    GateKind.X: _Form(1, None, "x"),
    GateKind.RZ: _Form(1, "theta", "rz"),
    GateKind.PHASE: _Form(1, "phi", "u1"),
    GateKind.CNOT: _Form(2, None, "cx"),
    GateKind.CONTROLLED_U: _Form(2, "u", None),
}


@dataclass(frozen=True, eq=False)
class Gate:
    kind: GateKind
    targets: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        arity, field, _ = _FORMS[self.kind]
        if len(self.targets) != arity:
            raise CircuitError(f"{self.kind.value} takes {arity} wires, got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"repeated wire in {self.targets}")
        if any(q < 0 for q in self.targets):
            raise CircuitError(f"negative wire index in {self.targets}")
        if (self.param is not None) != (field not in (None, "u")):
            raise CircuitError(f"{self.kind.value}: parameter mismatch")
        if (self.matrix is not None) != (field == "u"):
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
        return _FORMS[self.kind].wires == 2


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
    """Yield ``(product, wires)`` for each maximal run of consecutive gates
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
        yield u, tuple(wires)


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
    """Run the circuit on a register; ``wire_map[w]`` is the physical qubit of wire w.
    Each fused block takes one step toward the nearest unitary, so that the small errors
    its gates were admitted with do not add up, and is checked; then all are swept at once."""
    if wire_map is None:
        wire_map = list(range(circuit.num_qubits))
    wire_map = [int(q) for q in wire_map]
    if len(wire_map) != circuit.num_qubits:
        raise CircuitError("wire map length must match circuit width")
    if len(set(wire_map)) != len(wire_map):
        raise CircuitError(f"wire map {wire_map} repeats a qubit")
    return _apply(state, [(check_unitary(_nearest_unitary(u)), [wire_map[w] for w in wires])
                          for u, wires in _fused_blocks(circuit)])


def circuit_to_unitary(circuit: GateCircuit) -> np.ndarray:
    """Dense product of all gate embeddings, earliest gate rightmost: the fused
    blocks swept over the identity's columns as a batch of statevectors."""
    n = circuit.num_qubits
    check_register_size(n, matrix=True)
    dim = 2**n
    return _contract(  # the identity is passed unnamed, so the sweep can release it
        np.eye(dim, dtype=np.complex128).reshape([2] * n + [dim]), _fused_blocks(circuit), n
    ).reshape(dim, dim)


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
    if abs(pivot) < PIVOT_ZERO:
        return EquivalenceResult(False, 1.0 + 0j, float(np.abs(u - v).max()))
    phase = pivot / abs(pivot)
    dev = float(np.abs(phase * v - u).max())  # subtracting into the product's buffer
    return EquivalenceResult(dev < CIRCUIT_EQUIV_ATOL, complex(phase), dev)


# ---------------------------------------------------------------------------
# export formats


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_matrix(mat: np.ndarray) -> str:
    """Real and imaginary part of each entry, row by row: the view _parse_matrix undoes."""
    return ",".join(_fmt_float(x) for x in np.asarray(mat).view(np.float64).ravel())


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
        lines.append(f"{g.kind.value} {','.join(map(str, g.targets))}")
        field = _FORMS[g.kind].field
        if field:
            value = _fmt_matrix(g.matrix) if field == "u" else _fmt_float(g.param)
            lines[-1] += f";{field}={value}"
    return "\n".join(lines) + "\n"


def parse_circuit_text(text: str) -> GateCircuit:
    """Inverse of the TEXT export.  A malformed line raises CircuitError naming it,
    as does a ``;`` field other than the one its gate kind carries."""
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
    head, sep, tail = line.partition(";")
    name, _, wire_text = head.partition(" ")
    kind = GateKind(name)
    wires = tuple(int(w) for w in wire_text.split(","))
    field = _FORMS[kind].field
    key, _, val = tail.partition("=")
    if (key if sep else None) != field:  # a kind without a field takes no ";" at all
        want = f"{field}=" if field else "no"
        raise CircuitError(f"{name} carries {want} field, got {sep + tail!r}")
    if field == "u":
        return Gate(kind, wires, matrix=_parse_matrix(val, 2))
    return Gate(kind, wires, param=float(val) if field else None)


# -- OPENQASM2 --------------------------------------------------------------


def zyz_angles(u) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    u = np.asarray(u, dtype=np.complex128)
    det = np.linalg.det(u)
    alpha = cmath.phase(det) / 2.0
    su = u * cmath.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > ZYZ_ZERO:
        sum_phase = -2.0 * cmath.phase(su[0, 0])  # beta + delta
    else:
        sum_phase = 0.0
    if abs(su[1, 0]) > ZYZ_ZERO:
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
    if abs(alpha) > QASM_PHASE_ZERO:
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
        name = _FORMS[g.kind].qasm
        if name is None:
            lines.extend(controlled_u_qasm_lines(*g.targets, g.matrix))
            continue
        angle = "" if g.param is None else f"({_fmt_float(g.param)})"
        lines.append(f"{name}{angle} {','.join(f'q[{q}]' for q in g.targets)};")
    return "\n".join(lines) + "\n"
