import pytest

from qclone.registers import (
    DEFAULT_MAX_QUBITS,
    RegisterError,
    RegisterLayout,
    RegisterOverflowError,
    check_register_size,
    max_register_qubits,
    noise_role,
    set_max_register_qubits,
    signal_role,
)


def test_standard_layout_interleaves_pairs():
    layout = RegisterLayout.standard(3)
    assert layout.num_qubits == 7
    assert layout.data == 0
    assert [layout.signal(i) for i in (1, 2, 3)] == [1, 3, 5]
    assert [layout.noise(i) for i in (1, 2, 3)] == [2, 4, 6]


def test_standard_layout_with_reference_prepends_one_qubit():
    layout = RegisterLayout.standard(2, with_reference=True)
    assert layout.num_qubits == 6
    assert layout.reference == 0
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
    from qclone.states import basis_state

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
