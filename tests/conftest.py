import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def embed_operator(op, targets, num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n embedding of a k-qubit operator (need not be unitary).

    Independent oracle: bit m of the operator's row/column index belongs to
    ``targets[m]``, every other qubit is left alone.
    """
    targets = tuple(int(q) for q in targets)
    k = len(targets)
    op = np.asarray(op, dtype=np.complex128)
    assert op.shape == (2**k, 2**k), f"operator shape {op.shape} does not fit {k} targets"
    n = num_qubits
    rest = [q for q in range(n) if q not in targets]
    rest_idx = np.arange(2 ** len(rest))
    spread = np.zeros_like(rest_idx)
    for m, q in enumerate(rest):
        spread |= ((rest_idx >> m) & 1) << q
    full = np.zeros((2**n, 2**n), dtype=np.complex128)
    for r_sub in range(2**k):
        row_base = 0
        for m in range(k):
            row_base |= ((r_sub >> m) & 1) << targets[m]
        for c_sub in range(2**k):
            v = op[r_sub, c_sub]
            if v == 0:
                continue
            col_base = 0
            for m in range(k):
                col_base |= ((c_sub >> m) & 1) << targets[m]
            full[row_base + spread, col_base + spread] = v
    return full
