import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed_operator
from qclone.paulis import SIGMA, PauliError, PauliString
from qclone.registers import RegisterLayout


def kron_oracle(factors: dict[int, int], num_qubits: int) -> np.ndarray:
    """prod_q sigma_{factors[q]} built with np.kron, qubit 0 rightmost."""
    mat = np.eye(1, dtype=np.complex128)
    for q in range(num_qubits):
        mat = np.kron(SIGMA[factors.get(q, 0)], mat)
    return mat


def test_sigma_matrices_are_involutions_and_traceless():
    for mu, sigma in enumerate(SIGMA):
        assert np.allclose(sigma @ sigma, np.eye(2))
        if mu:
            assert np.trace(sigma) == pytest.approx(0.0)
    assert np.allclose(SIGMA[1] @ SIGMA[2], 1j * SIGMA[3])


@settings(max_examples=60, deadline=None)
@given(
    factors=st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=4),
    scalar=st.sampled_from([1.0, -1.0, 1j, -1j, 0.25 - 0.5j]),
)
def test_to_matrix_matches_kron_oracle(factors, scalar):
    """The mask form's phase bookkeeping (one i per Y) reproduces the Kronecker product."""
    string = PauliString.from_factors(factors, scalar)
    assert np.array_equal(string.to_matrix(4), scalar * kron_oracle(factors, 4))


@settings(max_examples=40, deadline=None)
@given(factors=st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=4))
def test_transpose_flips_sign_per_y_factor(factors):
    """The rule the dense decoder relies on: sigma^T = (-1)^(#Y) sigma."""
    dense = PauliString.from_factors(factors).to_matrix(4)
    y_count = sum(1 for mu in factors.values() if mu == 2)
    assert np.allclose(dense.T, (-1) ** y_count * dense, atol=1e-14)


def test_uniform_string_and_known_identity():
    """sigma_x^(x)m . sigma_z^(x)m = (-i)^m sigma_y^(x)m, checked densely."""
    for m in (1, 2, 3):
        qubits = range(m)
        xs = PauliString.uniform(1, qubits).to_matrix(m)
        zs = PauliString.uniform(3, qubits).to_matrix(m)
        ys = PauliString.uniform(2, qubits, scalar=(-1j) ** m).to_matrix(m)
        assert np.allclose(xs @ zs, ys, atol=1e-14)


def test_to_matrix_places_low_qubit_on_low_bit():
    string = PauliString.from_factors({0: 1})  # X on qubit 0 of two
    dense = string.to_matrix(2)
    assert np.allclose(dense, np.kron(np.eye(2), SIGMA[1]))
    string_high = PauliString.from_factors({1: 1})
    assert np.allclose(string_high.to_matrix(2), np.kron(SIGMA[1], np.eye(2)))


def test_scaled_and_support():
    string = PauliString.from_factors({2: 3, 0: 1, 1: 0}, scalar=2.0)
    assert (string.x_mask, string.z_mask) == (0b001, 0b100)
    assert string.phase == 2.0
    y = PauliString.from_factors({1: 2})
    assert (y.x_mask, y.z_mask, y.phase) == (0b10, 0b10, 1j)


def test_embed_pauli_and_layout_unitary_agree():
    layout = RegisterLayout.standard(1)  # A=0, S1=1, N1=2
    string = PauliString.from_factors({layout.index("S1"): 2})
    assert np.allclose(string.to_matrix(3), embed_operator(SIGMA[2], [1], 3))


def test_oversize_string_rejected():
    with pytest.raises(PauliError):
        PauliString.from_factors({2: 1}).to_matrix(2)
    with pytest.raises(PauliError):
        PauliString.uniform(3, range(4)).to_matrix(3)


def test_bad_axis_rejected():
    with pytest.raises(PauliError):
        PauliString.from_factors({0: 4})
    with pytest.raises(PauliError):
        PauliString.from_factors({-1: 1})
