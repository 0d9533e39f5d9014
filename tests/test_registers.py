from functools import partial

import numpy as np
import pytest

from oracles import basis_state
from qclone import states
from qclone.circuits import CircuitError, GateCircuit, circuit_to_unitary, gate_h
from qclone.paulis import PauliString
from qclone.protocol import AlphaCoefficients, decoding_unitary
from qclone.registers import (
    DEFAULT_MAX_QUBITS,
    ROLE_REFERENCE,
    RegisterError,
    RegisterLayout,
    RegisterOverflowError,
    check_register_size,
    max_register_qubits,
    noise_role,
    set_max_register_qubits,
    signal_role,
)
from qclone.states import DensityOperator, partial_trace


def test_standard_layout_interleaves_pairs():
    layout = RegisterLayout.standard(3)
    assert layout.num_qubits == 7
    assert layout.data == 0
    assert [layout.signal(i) for i in (1, 2, 3)] == [1, 3, 5]
    assert [layout.noise(i) for i in (1, 2, 3)] == [2, 4, 6]


def test_standard_layout_with_reference_prepends_one_qubit():
    layout = RegisterLayout.standard(2, with_reference=True)
    assert layout.num_qubits == 6
    assert layout.index(ROLE_REFERENCE) == 0
    assert layout.data == 1
    assert layout.signal(1) == 2
    assert layout.noise(2) == 5


def test_role_lookup_round_trip():
    layout = RegisterLayout.standard(2)
    for pos in range(layout.num_qubits):
        assert layout.index(layout.role_at(pos)) == pos
    with pytest.raises(RegisterError):
        layout.index("S3")


def test_indices_preserves_requested_order():
    layout = RegisterLayout.standard(2)
    assert layout.indices(["N2", "A", "S1"]) == (4, 0, 1)


def test_restricted_to_reindexes_but_keeps_roles():
    layout = RegisterLayout.standard(3)
    sub = layout.restricted_to((layout.signal(2), layout.noise(2)))
    assert sub.num_qubits == 2
    assert sub.index(signal_role(2)) == 0
    assert sub.index(noise_role(2)) == 1


def test_generic_layout_names_wires():
    layout = RegisterLayout.generic(3)
    assert [layout.role_at(i) for i in range(3)] == ["q0", "q1", "q2"]


def test_duplicate_positions_rejected():
    with pytest.raises(RegisterError):
        RegisterLayout.from_map({"A": 0, "S1": 0})


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


# Each builder of a dense 2^w-square matrix, as a call to make at width w; the
# allocation it must not reach when refused; and the error it refuses with.
DENSE_BUILDERS = {
    "DensityOperator": (
        lambda w: partial(DensityOperator, np.eye(2**w) / 2**w, RegisterLayout.generic(w)),
        (states, "_frozen_complex"),
        RegisterOverflowError,
    ),
    "partial_trace": (
        lambda w: partial(partial_trace, basis_state(RegisterLayout.generic(w)), range(w)),
        (states, "_split"),
        RegisterOverflowError,
    ),
    "PauliString.to_matrix": (
        lambda w: partial(PauliString(x_mask=1).to_matrix, w),
        (np, "arange"),
        RegisterOverflowError,
    ),
    "decoding_unitary": (
        lambda w: partial(decoding_unitary, w - 1, AlphaCoefficients.standard(w - 1)),
        (np, "zeros"),
        RegisterOverflowError,
    ),
    "circuit_to_unitary": (
        lambda w: partial(circuit_to_unitary, GateCircuit((gate_h(0),), w)),
        (np, "eye"),
        CircuitError,
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
    build, (owner, allocator), error = DENSE_BUILDERS[name]
    build(3)()  # 2w equals the cap
    refused = build(4)
    monkeypatch.setattr(owner, allocator, _no_allocation)
    with pytest.raises(error, match=f"exceeds the cap of {cap_of_six}"):
        refused()


def test_an_unprintable_width_is_refused_on_one_short_line():
    with pytest.raises(RegisterOverflowError, match=r"^register of about 10\^5000 qubits"):
        check_register_size(10**5000)
