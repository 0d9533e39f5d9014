from functools import partial

import numpy as np
import pytest

from oracles import basis_state
from qclone import states
from qclone.circuits import GateCircuit, circuit_to_unitary, gate_h
from qclone.paulis import PauliString
from qclone.protocol import AlphaCoefficients, decoding_unitary
from qclone.registers import (
    DEFAULT_MAX_QUBITS,
    RegisterError,
    RegisterLayout,
    RegisterOverflowError,
    check_register_size,
    max_register_qubits,
    set_max_register_qubits,
)
from qclone.states import DensityOperator, partial_trace


def test_standard_layout_interleaves_pairs():
    layout = RegisterLayout.standard(3)
    assert layout.num_qubits == 7
    assert layout.data == 0
    assert [layout.signal(i) for i in (1, 2, 3)] == [1, 3, 5]
    assert [layout.noise(i) for i in (1, 2, 3)] == [2, 4, 6]


@pytest.mark.parametrize(
    "n, with_reference, names",
    [
        (1, False, ("A", "S1", "N1")),
        (2, False, ("A", "S1", "N1", "S2", "N2")),
        (3, False, ("A", "S1", "N1", "S2", "N2", "S3", "N3")),
    ],
)
def test_standard_layout_names(n, with_reference, names):
    layout = RegisterLayout.standard(n)
    assert layout.names == names
    assert layout.num_qubits == len(names)
    with pytest.raises(TypeError):  # the layout takes only n; it has no reference qubit
        RegisterLayout.standard(n, with_reference)


def test_role_lookup_round_trip():
    layout = RegisterLayout.standard(2)
    for pos in range(layout.num_qubits):
        assert layout.index(layout.names[pos]) == pos
    with pytest.raises(RegisterError):
        layout.index("S3")


def test_indices_preserves_requested_order():
    layout = RegisterLayout.standard(2)
    assert layout.indices(["N2", "A", "S1"]) == (4, 0, 1)


def test_generic_layout_names_wires():
    layout = RegisterLayout.generic(3)
    assert layout.names == ("q0", "q1", "q2")


def test_duplicate_names_rejected():
    with pytest.raises(RegisterError, match="duplicate role name"):
        RegisterLayout(("A", "A"))


def test_register_cap_is_enforced_and_adjustable():
    assert max_register_qubits() == DEFAULT_MAX_QUBITS
    check_register_size(DEFAULT_MAX_QUBITS)
    with pytest.raises(RegisterOverflowError):
        check_register_size(DEFAULT_MAX_QUBITS + 1)
    try:
        set_max_register_qubits(5)
        with pytest.raises(RegisterOverflowError):
            basis_state(RegisterLayout.standard(3))
        basis_state(RegisterLayout.standard(2))  # 5 qubits: still allowed
    finally:
        set_max_register_qubits(DEFAULT_MAX_QUBITS)
    with pytest.raises(RegisterError, match="must be positive"):
        set_max_register_qubits(0)
    assert max_register_qubits() == DEFAULT_MAX_QUBITS


# Each builder of a dense 2^w-square matrix, as a call to make at width w, and
# the allocation it must not reach when refused with RegisterOverflowError.
DENSE_BUILDERS = {
    "DensityOperator": (
        lambda w: partial(DensityOperator, np.eye(2**w) / 2**w),
        (states, "_frozen_complex"),
    ),
    "partial_trace": (
        lambda w: partial(partial_trace, basis_state(RegisterLayout.generic(w)), range(w)),
        (states, "_split"),
    ),
    "PauliString.to_matrix": (
        lambda w: partial(PauliString(x_mask=1).to_matrix, w),
        (np, "arange"),
    ),
    "decoding_unitary": (
        lambda w: partial(decoding_unitary, w - 1, AlphaCoefficients.standard(w - 1)),
        (np, "zeros"),
    ),
    "circuit_to_unitary": (
        lambda w: partial(circuit_to_unitary, GateCircuit((gate_h(0),), w)),
        (np, "eye"),
    ),
}


@pytest.fixture
def cap_of_six():
    set_max_register_qubits(6)
    yield 6
    set_max_register_qubits(DEFAULT_MAX_QUBITS)


def _no_allocation(*args, **kwargs):
    raise AssertionError("allocated before the cap check")


@pytest.mark.parametrize("name", DENSE_BUILDERS)
def test_a_dense_matrix_on_w_qubits_counts_2w(name, cap_of_six, monkeypatch):
    build, (owner, allocator) = DENSE_BUILDERS[name]
    build(3)()  # 2w equals the cap
    refused = build(4)
    monkeypatch.setattr(owner, allocator, _no_allocation)
    with pytest.raises(RegisterOverflowError, match=f"exceeds the cap of {cap_of_six}"):
        refused()


def test_an_unprintable_width_is_refused_on_one_short_line():
    with pytest.raises(RegisterOverflowError, match=r"^register of about 10\^5000 qubits"):
        check_register_size(10**5000)
