"""Dense statevector engine.

Unitaries act on statevectors, and reductions of statevectors are the only
density operators: :func:`partial_trace` returns one and the functionals below
read it, but nothing applies a unitary to it or reduces it further.

Everything is little-endian: qubit ``q`` is bit ``q`` of the basis-state
index, so ``|q1 q0> = |10>`` is index 2.  Unitaries handed to
:func:`apply_unitary` follow the same convention internally — bit ``m`` of the
operator's row/column index belongs to ``targets[m]``; every sequence of them, on
a statevector or on a batch of columns, runs through the one sweep :func:`_contract`.

States and operators are immutable; every operation returns a fresh object.
Amplitude arrays are marked read-only on construction so accidental in-place
edits fail loudly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import frexp, log2, prod

import numpy as np

from .claims import EIG_CLAMP, EIG_NEG_TOL, STATE_ATOL
from .registers import QcloneError, RegisterLayout, check_register_size


class StateValidationError(QcloneError):
    """Array fails the checks required of a state or density operator."""


def _frozen_complex(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of a qubit register."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self) -> None:
        arr = _frozen_complex(self.amplitudes)
        object.__setattr__(self, "amplitudes", arr)
        n = self.layout.num_qubits
        check_register_size(n)
        if arr.shape != (2**n,):
            raise StateValidationError(
                f"amplitude vector of shape {arr.shape} does not match a {n}-qubit layout"
            )
        norm = float(np.linalg.norm(arr))
        if not abs(norm * norm - 1.0) <= STATE_ATOL:  # <psi|psi> is the trace of every reduction
            raise StateValidationError(f"state norm {norm} deviates from 1")

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed state of a qubit register (Hermitian, unit trace, PSD), its 2^w-square matrix;
    ``spectrum``, its eigenvalues ascending and read-only, is the one solve that proves it PSD."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.matrix)  # read without a copy, so the cap refuses before one
        dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
        if dim < 1 or dim & (dim - 1):
            raise StateValidationError(f"matrix of shape {shape} is not 2^w-square")
        check_register_size(dim.bit_length() - 1, matrix=True)
        mat = _frozen_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if not np.abs(mat - mat.conj().T).max() <= STATE_ATOL:
            raise StateValidationError("density operator is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > STATE_ATOL:
            raise StateValidationError(f"density operator trace {tr} deviates from 1")
        spectrum = np.linalg.eigvalsh(mat)  # ascending; the one eigensolve of this operator
        if spectrum[0] < -EIG_NEG_TOL:
            raise StateValidationError(f"density operator has eigenvalue {float(spectrum[0])} < 0")
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)  # derived, so not a field

    @property
    def num_qubits(self) -> int:
        return len(self.matrix).bit_length() - 1


def _pure(state, what: str) -> StateVector:
    """Refuse anything but a statevector, naming what was passed instead."""
    if not isinstance(state, StateVector):
        raise StateValidationError(f"{what} takes a StateVector, not {type(state).__name__}")
    return state


# ---------------------------------------------------------------------------
# constructors


def single_qubit(amp0: complex, amp1: complex) -> StateVector:
    """One-qubit pure state from a pair of amplitudes (normalised here)."""
    vec = np.array([amp0, amp1], dtype=np.complex128)
    if not np.isfinite(vec).all():
        raise StateValidationError(f"amplitudes ({amp0}, {amp1}) are not finite")
    # Scale exactly, by the largest part's power of two: tiny or huge norms under- or overflow.
    parts = vec.view(np.float64)  # re0, im0, re1, im1
    vec = np.ldexp(parts, -frexp(np.abs(parts).max())[1]).view(np.complex128)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise StateValidationError("zero amplitude pair")
    return StateVector(vec / norm, RegisterLayout.generic(1))


def kron_states(groups, layout: RegisterLayout) -> StateVector:
    """Tensor ascending register groups together (``groups[0]`` on the low qubits).

    The register cap and the groups' total size are checked against the
    layout before anything is allocated.
    """
    groups = [np.asarray(g, dtype=np.complex128) for g in groups]
    n = layout.num_qubits
    check_register_size(n)
    size = prod(g.size for g in groups)
    if size != 2**n:
        raise StateValidationError(
            f"groups of {size} amplitudes do not match a {n}-qubit layout"
        )
    vec = np.array([1.0], dtype=np.complex128)
    for g in groups:
        vec = np.multiply.outer(g, vec).ravel()
    return StateVector(vec, layout)


def haar_random_qubit(rng: np.random.Generator) -> StateVector:
    """Haar-random single-qubit pure state."""
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return single_qubit(raw[0], raw[1])


# ---------------------------------------------------------------------------
# unitary application


def check_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise StateValidationError(f"operator of shape {u.shape} is not square")
    dim = u.shape[0]
    if dim & (dim - 1):
        raise StateValidationError(f"operator dimension {dim} is not a power of two")
    if not np.abs(u.conj().T @ u - np.eye(dim)).max() <= STATE_ATOL:
        raise StateValidationError("operator is not unitary")
    return u


def _nearest_unitary(u: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step, u(3I - u+u)/2, toward the nearest unitary: an input e off
    unitary lands about 1.5 e^2 off, so a product of many operators that
    :func:`check_unitary` admits passes it again.  If u+u is exactly I, u comes back."""
    return u @ (3 * np.eye(len(u)) - u.conj().T @ u) / 2


def _contract(tensor: np.ndarray, ops, n: int) -> np.ndarray:
    """Contract each ``(u, targets)`` of ``ops`` in turn into the first n qubit axes
    of ``tensor``, [qubit n-1, ..., qubit 0, *batch]; the batch axes stay last.

    Each product leaves its target axes in front, most significant first, so an op
    costs one transpose and, as every qubit axis has length 2, the shape holds; the
    axes go back in order once, at the end.
    """
    axes, shape = list(range(tensor.ndim)), tensor.shape  # axis i is input axis axes[i]
    for u, targets in ops:
        front = [axes.index(n - 1 - q) for q in reversed(targets)]  # where the targets are now
        order = front + [i for i in range(len(axes)) if i not in front]
        axes, tensor = [axes[i] for i in order], tensor.transpose(order).reshape(len(u), -1)
        tensor = (u @ tensor).reshape(shape)  # the old tensor is no longer held here
    return tensor.transpose(sorted(range(len(axes)), key=axes.__getitem__))


def apply_unitary(state: StateVector, u, targets) -> StateVector:
    """Apply a k-qubit unitary to ``targets`` (ordered, little-endian in u)."""
    return _apply(state, [(check_unitary(u), targets)])


def _apply(state: StateVector, ops) -> StateVector:
    """Sweep ``ops``, ``(u, targets)`` with u checked unitary by its owner, over the state in
    one :func:`_contract`; the state and every target and dimension are checked first."""
    n = _pure(state, "apply_unitary").num_qubits
    ops = [(u, tuple(map(int, targets))) for u, targets in ops]
    for u, targets in ops:
        if len(set(targets)) != len(targets):
            raise StateValidationError(f"repeated target in {targets}")
        if any(q < 0 or q >= n for q in targets):
            raise StateValidationError(f"targets {targets} out of range for {n} qubits")
        if u.shape[0] != 2 ** len(targets):
            raise StateValidationError(
                f"operator dimension {u.shape[0]} does not fit {len(targets)} targets"
            )
    out = _contract(state.amplitudes.reshape([2] * n), ops, n)
    return StateVector(out.reshape(-1), state.layout)


# ---------------------------------------------------------------------------
# reductions and functionals


def _qubit_set(qubits, n: int, what: str) -> tuple[int, ...]:
    qubits = tuple(sorted(int(q) for q in qubits))
    if len(set(qubits)) != len(qubits):
        raise StateValidationError(f"{what} set {qubits} must be distinct")
    if any(q < 0 or q >= n for q in qubits):
        raise StateValidationError(f"{what} set {qubits} out of range for {n} qubits")
    return qubits


def _split(state: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a matrix: rows index ``keep``, columns the other qubits."""
    n = state.num_qubits
    traced = [q for q in range(n) if q not in keep]
    psi = state.amplitudes.reshape([2] * n)
    keep_axes = [n - 1 - q for q in reversed(keep)]
    rest_axes = [n - 1 - q for q in reversed(traced)]
    return psi.transpose(keep_axes + rest_axes).reshape(2 ** len(keep), -1)


def partial_trace(state: StateVector, keep) -> DensityOperator:
    """Reduced density operator on ``keep`` (qubit positions, any order), its
    qubits re-indexed in ascending physical order."""
    keep = _qubit_set(keep, _pure(state, "partial_trace").num_qubits, "keep")
    if not keep:
        raise StateValidationError("keep set must be non-empty")
    check_register_size(len(keep), matrix=True)
    mat = _split(state, keep)
    return DensityOperator(mat @ mat.conj().T)


def reduced_trace_distance(a: StateVector, b: StateVector, traced) -> float:
    """Trace distance of the reductions of ``a`` and ``b`` with ``traced`` removed.

    Each reduction is F F^dagger for F the amplitudes as a (kept) x (traced)
    matrix.  The R factor of a QR of [F_a F_b] maps both into a space of at
    most 2^(|traced|+1) dimensions with the same spectrum of their difference,
    so no 2^kept x 2^kept matrix is built and nothing assumes a pure reduction.
    """
    n = _pure(a, "reduced_trace_distance").num_qubits
    if _pure(b, "reduced_trace_distance").num_qubits != n:
        raise StateValidationError("state sizes differ")
    traced = _qubit_set(traced, n, "traced")
    keep = tuple(q for q in range(n) if q not in traced)
    if not keep:
        raise StateValidationError(f"traced set {traced} leaves no qubit")
    r = np.linalg.qr(np.hstack([_split(a, keep), _split(b, keep)]), mode="r")
    width = 2 ** len(traced)
    ra, rb = r[:, :width], r[:, width:]
    eigs = np.linalg.eigvalsh(ra @ ra.conj().T - rb @ rb.conj().T)
    return float(0.5 * np.abs(eigs).sum())


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy in bits, off the kept spectrum; eigenvalues in the zero-clamp window add 0."""
    return shannon_entropy(rho.spectrum)


def shannon_entropy(probabilities) -> float:
    """-sum p log2 p in bits, summed in order; values in the zero-clamp window add 0."""
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p > EIG_CLAMP:
            total -= p * log2(p)
    return total


def fidelity_pure(rho: DensityOperator, psi: StateVector) -> float:
    """<psi| rho |psi> for a pure target state."""
    if rho.num_qubits != psi.num_qubits:
        raise StateValidationError("state sizes differ")
    val = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
    return float(val.real)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    if a.num_qubits != b.num_qubits:
        raise StateValidationError("state sizes differ")
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eigs).sum())


def purity(rho: DensityOperator) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def deviation_from_mixed(rho: DensityOperator) -> float:
    """Largest entry of |rho - I/d|: 0 exactly for the maximally mixed state."""
    dim = len(rho.matrix)
    return float(np.abs(rho.matrix - np.eye(dim) / dim).max())


def dominant_eigenvector(rho: DensityOperator) -> tuple[float, StateVector]:
    """Largest eigenvalue and its eigenvector (phase fixed on the largest entry)."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    vec = vecs[:, -1]
    pivot = vec[np.argmax(np.abs(vec))]
    if abs(pivot) > 0:
        vec = vec * (pivot.conjugate() / abs(pivot))
    return float(vals[-1]), StateVector(vec, RegisterLayout.generic(rho.num_qubits))
