import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclone
from qclone.registers import RegisterLayout
from qclone.states import (
    EIG_NEG_TOL,
    DensityOperator,
    StateValidationError,
    StateVector,
    _apply,
    _contract,
    apply_unitary,
    dominant_eigenvector,
    fidelity_pure,
    haar_random_qubit,
    kron_states,
    partial_trace,
    purity,
    reduced_trace_distance,
    single_qubit,
    trace_distance,
    von_neumann_entropy,
)

from conftest import embed_operator, random_unitary
from oracles import basis_state


def bell_vector() -> np.ndarray:
    return np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)


# ---------------------------------------------------------------------------
# construction and validation


def test_basis_state_is_normalized_and_typed():
    state = basis_state(RegisterLayout.generic(3), index=5)
    assert state.num_qubits == 3
    assert state.amplitudes[5] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_single_qubit_normalizes():
    state = single_qubit(3.0, 4.0j)
    assert np.allclose(np.abs(state.amplitudes), [0.6, 0.8])
    with pytest.raises(StateValidationError, match="zero amplitude pair"):
        single_qubit(0.0, 0.0)
    # pairs whose norm would underflow or overflow, or lose digits to subnormals
    for amp in (1e-155, 1e-160, 1e-170, 1e308):
        amplitudes = single_qubit(amp, amp).amplitudes
        assert abs(np.linalg.norm(amplitudes) - 1) < 1e-15, amp
        assert np.allclose(amplitudes, [np.sqrt(0.5)] * 2), amp


def test_statevector_rejects_bad_norm_and_shape():
    layout = RegisterLayout.generic(1)
    with pytest.raises(StateValidationError):
        StateVector(np.array([1.0, 1.0]), layout)
    with pytest.raises(StateValidationError):
        StateVector(np.array([1.0, 0.0, 0.0]), layout)


def test_every_accepted_state_has_reductions_of_unit_trace():
    """The norm check bounds <psi|psi>, the trace of every reduction, by the
    tolerance the density-operator check applies to that trace."""
    layout = RegisterLayout.generic(1)
    for bad in ([1 + 8e-11, 0], [np.nan, 0]):
        with pytest.raises(StateValidationError, match="state norm"):
            StateVector(np.array(bad), layout)
    rho = partial_trace(StateVector(np.array([1 + 4e-11, 0]), layout), [0])
    assert abs(np.trace(rho.matrix) - 1) < 1e-10


def test_statevector_amplitudes_are_read_only():
    state = basis_state(RegisterLayout.generic(1))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_density_operator_validation():
    with pytest.raises(StateValidationError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(StateValidationError, match="not Hermitian"):
        DensityOperator(np.array([[0.5, 0.3 + 1e-6], [0.3, 0.5]]))  # 1e-6 > STATE_ATOL
    with pytest.raises(StateValidationError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(StateValidationError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    for shape in [(2, 4), (4,), (3, 3), (0, 0), (2, 2, 2)]:  # not 2^w-square
        with pytest.raises(StateValidationError, match=r"is not 2\^w-square"):
            DensityOperator(np.zeros(shape))
    assert DensityOperator(np.eye(4) / 4).num_qubits == 2


@pytest.mark.parametrize("factor,accepted", [(0.99, True), (1.01, False)])
def test_density_operator_refuses_eigenvalues_below_the_negative_tolerance(rng, factor, accepted):
    lam = -factor * EIG_NEG_TOL
    u = random_unitary(rng, 2)
    rho = u @ np.diag([1.0 - lam, lam]) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(lam, abs=1e-15)
    if accepted:
        DensityOperator(rho)
    else:
        with pytest.raises(StateValidationError, match="has eigenvalue"):
            DensityOperator(rho)


def test_the_spectrum_is_solved_once_and_kept_read_only(rng, monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(mat):
        calls.append(len(mat))
        return real(mat)

    def refuse(*args):
        raise AssertionError("cholesky called")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    rho = partial_trace(haar_state(rng, 5), [0, 2, 4])
    assert calls == [8]
    von_neumann_entropy(rho)
    assert calls == [8]
    assert np.array_equal(rho.spectrum, real(rho.matrix))
    with pytest.raises(ValueError):
        rho.spectrum[0] = 0.0
    with pytest.raises(AttributeError):
        rho.spectrum = real(rho.matrix)


def test_kron_states_checks_the_width_before_allocating(monkeypatch):
    from qclone.registers import (
        DEFAULT_MAX_QUBITS,
        RegisterOverflowError,
        set_max_register_qubits,
    )

    class NoProducts:
        def outer(*_):
            raise AssertionError("np.multiply.outer called before the width check")

    monkeypatch.setattr(np, "multiply", NoProducts())
    with pytest.raises(StateValidationError, match="do not match"):
        kron_states([[1, 0], bell_vector()], RegisterLayout.generic(2))
    set_max_register_qubits(2)
    try:
        with pytest.raises(RegisterOverflowError):
            kron_states([[1, 0], bell_vector()], RegisterLayout.generic(3))
    finally:
        set_max_register_qubits(DEFAULT_MAX_QUBITS)


def test_kron_states_puts_first_group_on_low_qubits():
    layout = RegisterLayout.generic(3)
    state = kron_states([[0, 1], bell_vector()], layout)
    # qubit 0 is |1>, qubits 1-2 hold the Bell pair
    expect = np.kron(bell_vector(), [0, 1])
    assert np.allclose(state.amplitudes, expect)


# ---------------------------------------------------------------------------
# unitary application: the dense bit-arithmetic embedding is the oracle


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 5),
    data=st.data(),
)
def test_apply_unitary_matches_dense_embedding(seed, num_qubits, data):
    """Contracting a k-qubit gate equals multiplying by its dense embedding."""
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, min(3, num_qubits)))
    targets = data.draw(
        st.lists(
            st.integers(0, num_qubits - 1), min_size=k, max_size=k, unique=True
        )
    )
    u = random_unitary(rng, 2**k)
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    raw /= np.linalg.norm(raw)
    layout = RegisterLayout.generic(num_qubits)
    state = StateVector(raw, layout)

    fast = apply_unitary(state, u, targets)
    dense = embed_operator(u, targets, num_qubits) @ raw
    assert np.allclose(fast.amplitudes, dense, atol=1e-12)
    assert np.isclose(np.linalg.norm(fast.amplitudes), 1.0, atol=1e-12)


def random_purification(rng, n: int) -> tuple[StateVector, np.ndarray]:
    """A Haar-random 2n-qubit state and, by the tracing-out oracle, the
    full-rank mixed state it purifies on its low n qubits."""
    psi = haar_state(rng, 2 * n)
    return psi, trace_out(np.outer(psi.amplitudes, psi.amplitudes.conj()), 2 * n, range(n))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(1, 4) if k <= n])
def test_apply_unitary_conjugates_a_density_operator(rng, n, k):
    """Applied to a purification of rho, the contraction reduces to U rho U^dagger,
    for unsorted targets too."""
    for _ in range(3):
        psi, rho = random_purification(rng, n)
        targets = [int(q) for q in rng.permutation(n)[:k]]
        u = random_unitary(rng, 2**k)
        out = partial_trace(apply_unitary(psi, u, targets), range(n))
        full = embed_operator(u, targets, n)
        assert out.num_qubits == n
        assert np.abs(out.matrix - full @ rho @ full.conj().T).max() < 1e-14


def test_apply_unitary_rejects_bad_targets_and_operators(rng):
    pure = haar_state(rng, 3)
    bad = [
        (random_unitary(rng, 4), [1, 1], "repeated target"),
        (random_unitary(rng, 4), [0, 3], "out of range"),
        (random_unitary(rng, 4), [0], "does not fit"),
        (np.diag([1.0, 2.0]), [0], "not unitary"),
        (np.diag([1.0, 1.0 + 4e-6]), [0], "not unitary"),  # 8e-6 off, > STATE_ATOL
        (np.diag([1.0, np.nan]), [0], "not unitary"),
        (np.ones((2, 4)), [0], "not square"),
        (np.eye(3), [0], "not a power of two"),
    ]
    for u, targets, match in bad:
        with pytest.raises(StateValidationError, match=match):
            apply_unitary(pure, u, targets)


@pytest.mark.parametrize("bad", ["density", "array"])
def test_the_engine_refuses_anything_but_a_statevector(rng, bad):
    """A density operator or a bare amplitude array is refused with the type it is."""
    pure = haar_state(rng, 2)
    state = partial_trace(pure, [0, 1]) if bad == "density" else pure.amplitudes
    calls = {
        "apply_unitary": lambda s: apply_unitary(s, np.eye(2), [0]),
        "partial_trace": lambda s: partial_trace(s, [0]),
        "reduced_trace_distance": lambda s: reduced_trace_distance(s, pure, [0]),
    }
    for name, call in calls.items():
        with pytest.raises(StateValidationError) as err:
            call(state)
        assert str(err.value) == f"{name} takes a StateVector, not {type(state).__name__}"
    with pytest.raises(StateValidationError, match="reduced_trace_distance takes"):
        reduced_trace_distance(pure, state, [0])


def test_the_private_kernel_skips_only_the_unitarity_product(rng, monkeypatch):
    """``_apply`` is for operators their owner has checked: it never reaches
    ``check_unitary``, refuses bad targets and dimensions as the public
    ``apply_unitary`` does and matches it bitwise, while the public one still
    rejects a non-unitary.  A bad op anywhere in a sequence, the last one too,
    is refused before anything is swept."""
    pure = haar_state(rng, 3)
    u = random_unitary(rng, 4)
    public = apply_unitary(pure, u, [2, 0])
    with pytest.raises(StateValidationError, match="not unitary"):
        apply_unitary(pure, np.diag([1.0, 1.0 + 4e-6]), [1])
    monkeypatch.setattr(qclone.states, "check_unitary", None)
    assert np.array_equal(_apply(pure, [(u, [2, 0])]).amplitudes, public.amplitudes)
    monkeypatch.setattr(qclone.states, "_contract", None)
    for targets, match in [([1, 1], "repeated target"), ([0, 3], "out of range"),
                           ([0], "does not fit")]:
        with pytest.raises(StateValidationError, match=match):
            _apply(pure, [(u, targets)])
        with pytest.raises(StateValidationError, match=match):
            _apply(pure, [(u, [2, 0]), (u, [0, 1]), (u, targets)])
    assert "_apply" not in qclone.__all__ and "apply_unitary" in qclone.__all__


def _tensordot_contract(tensor, u, targets, n):
    """Reference: u's input axes contracted against the target axes by one tensordot."""
    k = len(targets)
    qubit_axes = [n - 1 - targets[k - 1 - j] for j in range(k)]
    ut = u.reshape([2] * (2 * k))
    out = np.tensordot(ut, tensor, axes=(list(range(k, 2 * k)), qubit_axes))
    return np.moveaxis(out, list(range(k)), qubit_axes)


CONTRACT_CASES = pytest.mark.parametrize(
    "n,batch",
    [(6, []), (4, [16]), (8, [256])],
    ids=["statevector", "16-column-batch", "256-column-batch"],
)


@CONTRACT_CASES
def test_contract_is_bitwise_the_tensordot_contraction(rng, n, batch):
    shape = [2] * n + batch
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    orders = [(0,), (n - 1,), (2, 0), (0, 3), (3, 1, 2), (n - 1, 0, 2, 1), (1, 3, 0, 5, 2)]
    for targets in [t for t in orders if max(t) < n]:
        u = random_unitary(rng, 2 ** len(targets))
        got = _contract(tensor, [(u, targets)], n)
        assert np.array_equal(got, _tensordot_contract(tensor, u, targets, n))


@CONTRACT_CASES
def test_a_sequence_sweep_is_bitwise_its_single_op_sweeps(rng, n, batch):
    """Leaving each op's target axes in front and restoring the order once at the
    end changes nothing: 3-5 ops in one sweep equal one sweep per op, bitwise."""
    shape = [2] * n + batch
    for _ in range(10):
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ops = []
        for _ in range(rng.integers(3, 6)):
            targets = tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, 4)])
            ops.append((random_unitary(rng, 2 ** len(targets)), targets))
        stepped = tensor
        for op in ops:
            stepped = _contract(stepped, [op], n)
        assert np.array_equal(_contract(tensor, ops, n), stepped)


def test_embed_operator_is_multiplicative(rng):
    u = random_unitary(rng, 2)
    v = random_unitary(rng, 2)
    left = embed_operator(u @ v, [1], 3)
    right = embed_operator(u, [1], 3) @ embed_operator(v, [1], 3)
    assert np.allclose(left, right, atol=1e-12)


def test_target_order_transposes_the_gate(rng):
    """Listing targets in swapped order must swap the gate's wire roles."""
    u = random_unitary(rng, 4)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    a = embed_operator(u, [0, 2], 3)
    b = embed_operator(swap @ u @ swap, [2, 0], 3)
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# partial trace and entropy


def trace_out(rho: np.ndarray, n: int, keep) -> np.ndarray:
    """Reference reduction of a dense n-qubit density matrix onto ``keep``."""
    traced = [q for q in range(n) if q not in keep]
    mat = rho.reshape([2] * (2 * n))
    remaining = n
    for q in sorted(traced, reverse=True):
        # Tracing from the top down keeps each lower qubit's axis position.
        ax = remaining - 1 - q
        mat = np.trace(mat, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    return mat.reshape(2**remaining, 2**remaining)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_partial_trace_pure_and_density_paths_agree(seed, data):
    """The statevector reduction equals tracing out the full density matrix."""
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(2, 5))
    keep_size = data.draw(st.integers(1, n - 1))
    keep = data.draw(
        st.lists(st.integers(0, n - 1), min_size=keep_size, max_size=keep_size, unique=True)
    )
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    raw /= np.linalg.norm(raw)
    layout = RegisterLayout.generic(n)
    state = StateVector(raw, layout)

    from_pure = partial_trace(state, keep)
    from_density = trace_out(np.outer(raw, raw.conj()), n, keep)
    assert np.allclose(from_pure.matrix, from_density, atol=1e-12)
    assert np.isclose(np.trace(from_pure.matrix).real, 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_trace_of_a_density_operator_matches_the_pure_path(rng, n):
    """The tracing-out oracle on |psi><psi| reduces like psi on every keep set,
    listed in any order; on a mixed state, like a purification of it."""
    psi = haar_state(rng, n)
    projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
    purified, mixed = random_purification(rng, n)
    for size in range(1, n + 1):
        for keep in itertools.combinations(range(n), size):
            expect = partial_trace(psi, keep)
            assert expect.num_qubits == size
            assert np.abs(expect.matrix - trace_out(projector, n, keep)).max() < 1e-14
            for order in itertools.permutations(keep):
                got = partial_trace(psi, order)
                assert np.array_equal(got.matrix, expect.matrix)
            reduced = partial_trace(purified, keep).matrix
            assert np.abs(reduced - trace_out(mixed, n, keep)).max() < 1e-14


def test_partial_trace_two_steps_equals_one(rng):
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    raw /= np.linalg.norm(raw)
    state = StateVector(raw, RegisterLayout.generic(4))
    direct = partial_trace(state, [1])
    staged = trace_out(partial_trace(state, [1, 3]).matrix, 2, [0])
    assert np.allclose(direct.matrix, staged, atol=1e-12)


def test_partial_trace_of_product_state_is_clean():
    psi = single_qubit(0.6, 0.8)
    state = kron_states(
        [psi.amplitudes, bell_vector()], RegisterLayout.generic(3)
    )
    solo = partial_trace(state, [0])
    assert np.allclose(
        solo.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12
    )
    pair_half = partial_trace(state, [1])
    assert np.allclose(pair_half.matrix, np.eye(2) / 2, atol=1e-12)


def test_entropy_values():
    pure = DensityOperator(np.diag([1.0, 0.0]))
    mixed = DensityOperator(np.eye(2) / 2)
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(mixed) == pytest.approx(1.0, abs=1e-12)
    skew = DensityOperator(np.diag([0.25, 0.75]))
    expect = -0.25 * np.log2(0.25) - 0.75 * np.log2(0.75)
    assert von_neumann_entropy(skew) == pytest.approx(expect, abs=1e-12)


def test_entropy_is_additive_over_products(rng):
    p = rng.dirichlet([1, 1])
    q = rng.dirichlet([1, 1, 1, 1])
    a = DensityOperator(np.diag(p))
    b = DensityOperator(np.diag(q))
    joint = DensityOperator(np.kron(np.diag(q), np.diag(p)))
    assert von_neumann_entropy(joint) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10
    )


# ---------------------------------------------------------------------------
# metrics


def test_fidelity_and_trace_distance_extremes():
    layout = RegisterLayout.generic(1)
    zero = basis_state(layout)
    one = basis_state(layout, index=1)
    rho_zero = partial_trace(kron_states([zero.amplitudes, [1, 0]], RegisterLayout.generic(2)), [0])
    assert fidelity_pure(rho_zero, zero) == pytest.approx(1.0)
    assert fidelity_pure(rho_zero, one) == pytest.approx(0.0, abs=1e-12)
    rho_one = DensityOperator(np.diag([0.0, 1.0]))
    assert trace_distance(rho_zero, rho_one) == pytest.approx(1.0)
    assert trace_distance(rho_zero, rho_zero) == pytest.approx(0.0, abs=1e-12)
    two = DensityOperator(np.eye(4) / 4)
    with pytest.raises(StateValidationError, match="sizes differ"):
        fidelity_pure(two, zero)
    with pytest.raises(StateValidationError, match="sizes differ"):
        trace_distance(rho_zero, two)


def haar_state(rng, n: int) -> StateVector:
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(raw / np.linalg.norm(raw), RegisterLayout.generic(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("traced", [[0], [2], [0, 2], [1, 2]])
def test_reduced_trace_distance_matches_dense_reductions(rng, n, traced):
    a, b = haar_state(rng, n), haar_state(rng, n)
    keep = [q for q in range(n) if q not in traced]
    dense = trace_distance(partial_trace(a, keep), partial_trace(b, keep))
    assert reduced_trace_distance(a, b, traced) == pytest.approx(dense, abs=1e-12)
    assert reduced_trace_distance(a, a, traced) <= 1e-15


def test_reduced_trace_distance_of_orthogonal_kept_parts_is_one(rng):
    """|chi> (x) |v> against |chi'> (x) |w> with <v|w> = 0, tracing the chi qubit."""
    chi, chi2 = haar_state(rng, 1), haar_state(rng, 1)
    v = haar_state(rng, 3).amplitudes
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    w -= np.vdot(v, w) * v
    w /= np.linalg.norm(w)
    layout = RegisterLayout.generic(4)
    a = kron_states([chi.amplitudes, v], layout)
    b = kron_states([chi2.amplitudes, w], layout)
    assert reduced_trace_distance(a, b, [0]) == pytest.approx(1.0, abs=1e-12)


def test_reduced_trace_distance_rejects_bad_qubit_sets(rng):
    a, b = haar_state(rng, 3), haar_state(rng, 3)
    for traced in ([0, 0], [3], [-1], [0, 1, 2]):
        with pytest.raises(StateValidationError):
            reduced_trace_distance(a, b, traced)
    with pytest.raises(StateValidationError):
        reduced_trace_distance(a, haar_state(rng, 4), [0])
    with pytest.raises(StateValidationError, match="keep set must be non-empty"):
        partial_trace(a, [])


def test_purity_and_dominant_eigenvector(rng):
    psi = haar_random_qubit(rng)
    rho = DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert purity(rho) == pytest.approx(1.0)
    value, vec = dominant_eigenvector(rho)
    assert value == pytest.approx(1.0)
    assert abs(np.vdot(psi.amplitudes, vec.amplitudes)) == pytest.approx(1.0)
    mixed = DensityOperator(np.eye(2) / 2)
    assert purity(mixed) == pytest.approx(0.5)


def test_haar_random_states_are_deterministic_per_seed():
    a = haar_random_qubit(np.random.default_rng(11))
    b = haar_random_qubit(np.random.default_rng(11))
    assert np.array_equal(a.amplitudes, b.amplitudes)
