"""Compilation of the protocol unitaries into one- and two-qubit gates.

The encoder becomes two parity ladders (CNOTs + one Rz each), the X half
conjugated by Hadamards: exactly ``4n`` two-qubit and ``2n + 4`` one-qubit
gates.  The decoder is conjugated into the computational basis by a Bell
unscrambler on (S1, N1); there it splits into three doubly-controlled blocks
(control patterns 01, 10, 11), each made of one doubly-controlled phase and
``n - 1`` doubly-controlled transposed Paulis, every one realised with five
two-qubit gates.  Together with the unscrambler pair that is ``15n + 7``
two-qubit gates, inside the overall budget of at most ``21n + 11`` for a
full encode/decode cycle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from .circuits import (
    Gate,
    GateCircuit,
    gate_cnot,
    gate_cu,
    gate_h,
    gate_phase,
    gate_rz,
    gate_x,
)
from .claims import SQRT_ATOL
from .paulis import SIGMA
from .protocol import AlphaCoefficients, Variant
from .registers import QcloneError
from .states import _nearest_unitary, check_unitary


class CompileError(QcloneError):
    """Request outside what the compiler supports."""


# ---------------------------------------------------------------------------
# encoder


def compile_encoding(
    n: int, t: float, variant: Variant = Variant.STANDARD
) -> GateCircuit:
    """Parity-ladder circuit for the encoder on wires [A=0, S_1..S_n = 1..n].

    Each Pauli-string exponential is a CNOT ladder accumulating the parity on
    the last signal wire, an Rz(2t) there, and the reversed ladder; the X
    string is the same ladder conjugated by Hadamards on every wire, the Y
    string of the rotated variant by S.H (which maps Z to Y).
    """
    if n < 1:
        raise CompileError(f"need n >= 1, got {n}")
    wires = list(range(n + 1))
    ladder = [gate_cnot(w, w + 1) for w in wires[:-1]]

    def parity_rotation() -> list[Gate]:
        return ladder + [gate_rz(n, 2.0 * t)] + list(reversed(ladder))

    gates: list[Gate] = []
    if variant is Variant.ROTATED_X2:
        for w in wires:
            gates.append(gate_phase(w, -math.pi / 2))
            gates.append(gate_h(w))
        gates.extend(parity_rotation())
        for w in wires:
            gates.append(gate_h(w))
            gates.append(gate_phase(w, math.pi / 2))
    else:
        gates.extend(parity_rotation())  # Z...Z exponential acts first
    gates.extend(gate_h(w) for w in wires)
    gates.extend(parity_rotation())
    gates.extend(gate_h(w) for w in wires)
    return GateCircuit(tuple(gates), n + 1)


# ---------------------------------------------------------------------------
# doubly-controlled unitaries


def principal_sqrt_2x2(u) -> np.ndarray:
    """Square root of a 2x2 unitary, one closed form for every input.  By Cayley-Hamilton,
    v = (u + sI)/sqrt(tr u + 2s) squares to u for either root s of det u; the s that makes
    |tr u + 2s| the larger of |tr u +- 2s| keeps it at least 2, so the division is safe."""
    u = check_unitary(u)
    if u.shape != (2, 2):
        raise CompileError(f"need a 2x2 unitary, got {u.shape}")
    u = _nearest_unitary(u)  # to ~1e-20 for an input within STATE_ATOL: v squares to it
    s = cmath.sqrt(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])
    tr = u[0, 0] + u[1, 1]
    if abs(tr - 2 * s) > abs(tr + 2 * s):
        s = -s
    v = (u + s * np.eye(2)) / cmath.sqrt(tr + 2 * s)
    if not np.abs(v @ v - u).max() <= SQRT_ATOL:
        raise CompileError("square-root construction failed to reproduce u")
    return v


def compile_ccu(u, controls, target: int) -> GateCircuit:
    """Doubly-controlled u via controlled square roots: five two-qubit gates.

    ``u`` acts on ``target`` when both ``controls`` hold 1.
    """
    c1, c2 = (int(c) for c in controls)
    target = int(target)
    if len({c1, c2, target}) != 3:
        raise CompileError(f"controls {controls} and target {target} must be distinct")
    v = principal_sqrt_2x2(u)
    gates = (
        gate_cu(c2, target, v),
        gate_cnot(c1, c2),
        gate_cu(c2, target, v.conj().T),
        gate_cnot(c1, c2),
        gate_cu(c1, target, v),
    )
    return GateCircuit(gates, max(c1, c2, target) + 1)


# ---------------------------------------------------------------------------
# decoder


def basis_change_V_tilde() -> GateCircuit:
    """Bell unscrambler on (S1=0, N1=1): |phi_mu> -> |mu1>|mu2>, phases exact.

    CNOT-H-CNOT alone permutes the Bell basis into computational states but
    leaves the mu=2 image as -i|10>; a controlled phase clears it.
    """
    gates = (
        gate_cnot(0, 1),
        gate_h(0),
        gate_cnot(0, 1),
        gate_cu(0, 1, np.diag([1j, 1.0])),
    )
    return GateCircuit(gates, 2)


def _v_tilde_inverse_gates() -> tuple[Gate, ...]:
    """Adjoint of the unscrambler with its phase correction split in two.

    The split keeps each emitted gate a plain controlled phase; the product
    diag(-1,1) . diag(i,1) = diag(-i,1) is exactly the adjoint correction.
    """
    return (
        gate_cu(0, 1, np.diag([-1.0, 1.0])),
        gate_cu(0, 1, np.diag([1j, 1.0])),
        gate_cnot(0, 1),
        gate_h(0),
        gate_cnot(0, 1),
    )


def compile_decoding(n: int, alphas: AlphaCoefficients) -> GateCircuit:
    """Decoder circuit on wires [S_1 = 0, N_1..N_n = 1..n]; 15n + 7 two-qubit gates.

    After the basis change, the mu-th block is selected by the computational
    pattern (mu1, mu2) on (S1, N1) — realised by X conjugation for the 01 and
    10 patterns — and applies the phase alpha_mu/alpha_0 together with
    transposed Paulis on N_2..N_n, one five-gate doubly-controlled unitary
    per factor.
    """
    if n < 2:
        raise CompileError(
            "the single-pair decoder is one two-qubit unitary; compile_decoding"
            " starts at n = 2"
        )
    gates: list[Gate] = list(basis_change_V_tilde().gates)
    for mu, flip_wire in ((1, 0), (2, 1), (3, None)):
        if flip_wire is not None:
            gates.append(gate_x(flip_wire))
        phase_u = (alphas[mu] / alphas[0]) * np.eye(2)
        gates.extend(compile_ccu(phase_u, (0, 1), 2).gates)
        block = compile_ccu(SIGMA[mu].T, (0, 1), 2).gates  # one square root per Pauli
        for wire in range(2, n + 1):
            for g in block:  # retargeted from wire 2; each copy checks its matrix again
                gates.append(replace(g, targets=[wire if q == 2 else q for q in g.targets]))
        if flip_wire is not None:
            gates.append(gate_x(flip_wire))
    gates.extend(_v_tilde_inverse_gates())
    return GateCircuit(tuple(gates), n + 1)
