"""Pauli matrices and Pauli strings in symplectic (mask) form.

Single-qubit Paulis are indexed 0..3 as (identity, X, Y, Z).  A
:class:`PauliString` is ``phase * X^x_mask Z^z_mask``: bit ``q`` of
``x_mask`` puts an X factor on qubit ``q``, bit ``q`` of ``z_mask`` a Z
factor, and a Y factor sets both bits, its ``Y = i X Z`` absorbed into
``phase`` (Aaronson & Gottesman, quant-ph/0406196).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registers import QcloneError, check_register_size

SIGMA = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# (x bit, z bit) of sigma_mu
_MASK_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))
_I_POWERS = (1, 1j, -1, -1j)


class PauliError(QcloneError):
    """Ill-formed Pauli string request."""


@dataclass(frozen=True)
class PauliString:
    """``phase * X^x_mask Z^z_mask`` on little-endian qubits."""

    x_mask: int = 0
    z_mask: int = 0
    phase: complex = 1.0 + 0j

    @classmethod
    def from_factors(cls, factors: dict[int, int], scalar: complex = 1.0) -> "PauliString":
        """``scalar * prod_q sigma_{factors[q]}^{(q)}``; index 0 is the identity."""
        x_mask = z_mask = ys = 0
        for qubit, mu in factors.items():
            if mu not in (0, 1, 2, 3):
                raise PauliError(f"factor index {mu} must be 0, 1, 2 or 3")
            if qubit < 0:
                raise PauliError(f"negative qubit {qubit} in Pauli string")
            x, z = _MASK_BITS[mu]
            x_mask |= x << qubit
            z_mask |= z << qubit
            ys += mu == 2
        return cls(x_mask, z_mask, complex(scalar) * _I_POWERS[ys % 4])

    @classmethod
    def uniform(cls, mu: int, qubits, scalar: complex = 1.0) -> "PauliString":
        """The same Pauli on every listed qubit, e.g. an X...X string."""
        return cls.from_factors(dict.fromkeys(qubits, mu), scalar)

    def to_matrix(self, num_qubits: int) -> np.ndarray:
        """Dense matrix on ``num_qubits`` little-endian qubits.

        Column ``j`` has its one non-zero entry, ``phase * (-1)^|j & z_mask|``,
        in row ``j ^ x_mask``.
        """
        if (self.x_mask | self.z_mask) >> num_qubits:
            raise PauliError(
                f"string touches qubit {(self.x_mask | self.z_mask).bit_length() - 1}"
                f" but register has {num_qubits} qubits"
            )
        check_register_size(num_qubits, matrix=True)
        cols = np.arange(2**num_qubits)
        parity = np.zeros_like(cols)
        for q in range(num_qubits):
            if self.z_mask >> q & 1:
                parity ^= cols >> q & 1
        mat = np.zeros((cols.size, cols.size), dtype=np.complex128)
        mat[cols ^ self.x_mask, cols] = self.phase * (1 - 2 * parity)
        return mat
