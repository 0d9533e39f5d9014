"""Qubit register bookkeeping.

A register is a row of qubits addressed by little-endian position (qubit 0 is
the least significant bit of a basis-state index).  Protocol code never talks
about raw positions directly; its layout is the tuple of *role* names, one
per position:

``A``            the data qubit carrying the state to be cloned
``REF``          an optional purifying reference entangled with ``A``
``S1 .. Sn``     signal qubits (the encrypted clones)
``N1 .. Nn``     noise qubits (the consumable key material)

Dense simulation is capped at :data:`DEFAULT_MAX_QUBITS` qubits; the cap can
be raised or lowered at runtime (the command line reads the
``QCLONE_MAX_QUBITS`` environment variable for the length of one run).
:func:`check_register_size` alone decides what counts against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_MAX_QUBITS = 24

_max_qubits = DEFAULT_MAX_QUBITS

ROLE_DATA = "A"
ROLE_REFERENCE = "REF"


class QcloneError(ValueError):
    """Input that qclone refuses; the command line exits 2 on any of these."""


class RegisterError(QcloneError):
    """Malformed layout or role lookup failure."""


class RegisterOverflowError(RegisterError):
    """Requested register exceeds the configured dense-simulation cap."""


def max_register_qubits() -> int:
    return _max_qubits


def set_max_register_qubits(limit: int) -> None:
    global _max_qubits
    if int(limit) < 1:
        raise RegisterError(f"register cap must be positive, got {limit}")
    _max_qubits = int(limit)


def _count(qubits: int) -> str:
    # Python refuses to print an integer of more than 4,300 digits.
    return str(qubits) if qubits < 10**18 else f"about 10^{math.log10(qubits):.0f}"


def check_register_size(num_qubits: int, matrix: bool = False) -> None:
    """Refuse a dense object that the cap does not allow, before it is allocated.

    A statevector on w qubits counts w.  A 2^w-square ``matrix`` holds as
    many amplitudes as a 2w-qubit register, so it counts 2w.
    """
    width = 2 * num_qubits if matrix else num_qubits
    if width <= _max_qubits:
        return
    what = f"register of {_count(width)} qubits"
    if matrix:
        what = f"a dense {_count(num_qubits)}-qubit matrix, as large as a {what},"
    raise RegisterOverflowError(
        f"{what} exceeds the cap of {_max_qubits}"
        " (see set_max_register_qubits / QCLONE_MAX_QUBITS)"
    )


def signal_role(i: int) -> str:
    return f"S{i}"


def noise_role(i: int) -> str:
    return f"N{i}"


@dataclass(frozen=True)
class RegisterLayout:
    """Role names of a register's qubits: ``names[q]`` is the role of qubit q.

    A layout is valid when its names are distinct; every lookup derives from them.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        index = {role: q for q, role in enumerate(self.names)}
        if len(index) != len(self.names):
            raise RegisterError("duplicate role name in layout")
        object.__setattr__(self, "_index", index)  # derived, so not a field

    # -- constructors ---------------------------------------------------

    @classmethod
    def standard(cls, n: int, with_reference: bool = False) -> "RegisterLayout":
        """Protocol layout: data qubit first, then interleaved (S_i, N_i) pairs.

        With a reference, ``REF`` sits at position 0 and everything shifts up
        by one.
        """
        if n < 1:
            raise RegisterError(f"need at least one signal/noise pair, got n={n}")
        head = (ROLE_REFERENCE, ROLE_DATA) if with_reference else (ROLE_DATA,)
        pairs = (role(i) for i in range(1, n + 1) for role in (signal_role, noise_role))
        return cls((*head, *pairs))

    @classmethod
    def generic(cls, num_qubits: int) -> "RegisterLayout":
        """Anonymous layout ``q0 .. q{m-1}`` for states outside the protocol."""
        return cls(tuple(f"q{i}" for i in range(num_qubits)))

    # -- lookups --------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.names)

    def index(self, role: str) -> int:
        try:
            return self._index[role]
        except KeyError:
            raise RegisterError(f"layout has no role {role!r}") from None

    @property
    def data(self) -> int:
        return self.index(ROLE_DATA)

    def signal(self, i: int) -> int:
        return self.index(signal_role(i))

    def noise(self, i: int) -> int:
        return self.index(noise_role(i))

    def indices(self, roles) -> tuple[int, ...]:
        return tuple(self.index(r) for r in roles)
