import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed_operator
from qclone import protocol
from qclone.cli import main
from qclone.paulis import SIGMA
from qclone.protocol import (
    AlphaCoefficients,
    AngleError,
    KeyMaterialError,
    ProtocolConfig,
    ProtocolError,
    Variant,
    bell_pair_vector,
    bell_projector,
    decoding_unitary,
    decrypt,
    decrypt_clone,
    decrypt_clones_from_input,
    decrypt_from_A,
    decrypt_with_substitution,
    encode,
    encoding_unitary,
    execute_iterated_cloning,
    expansion_coefficients,
    is_accepted_decrypt_angle,
    named_state,
    plan_iterated_cloning,
    prepare_initial,
    reverse_encoding_recovery,
)
from qclone.states import (
    STATE_ATOL,
    apply_unitary,
    check_unitary,
    fidelity_pure,
    haar_random_qubit,
    partial_trace,
    purity,
    reduced_trace_distance,
    trace_distance,
)

PROTOCOL_T = math.pi / 4


def both_alpha_families(n):
    """Decoder phases of the standard and the rotated encoder at pi/4."""
    return (
        AlphaCoefficients.standard(n),
        AlphaCoefficients.for_angle(n, PROTOCOL_T, Variant.ROTATED_X2),
    )


def all_probe_names():
    return ["0", "1", "+", "-", "+i", "-i"]


def encoded_marginal(config, psi, keep_roles):
    """Reduce the freshly encoded register onto the listed roles."""
    state = encode(prepare_initial(config, psi), config)
    return partial_trace(state, state.layout.indices(keep_roles))


def uniform_kron(mu: int, m: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, SIGMA[mu])
    return out


def decoder_oracle(n, alphas, pair_slot, plain_slots=frozenset()):
    """sum_mu alpha_mu |phi_mu><phi_mu|(carrier, pair) (x) sigma_mu^(T) on the
    other slots, as a product of dense embeddings."""
    dim = 2 ** (n + 1)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for mu in range(4):
        term = embed_operator(bell_projector(mu), [0, pair_slot], n + 1)
        for slot in range(1, n + 1):
            if slot == pair_slot:
                continue
            sig = SIGMA[mu] if slot in plain_slots else SIGMA[mu].T
            term = term @ embed_operator(sig, [slot], n + 1)
        total += alphas[mu] * term
    return total


# ---------------------------------------------------------------------------
# Bell basis


def test_bell_vectors_are_orthonormal():
    vectors = [bell_pair_vector(mu) for mu in range(4)]
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    assert np.allclose(gram, np.eye(4), atol=1e-14)


def test_bell_vectors_have_pauli_on_the_low_qubit():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    for mu in range(4):
        expect = np.kron(np.eye(2), SIGMA[mu]) @ phi
        assert np.allclose(bell_pair_vector(mu), expect, atol=1e-14)


def test_bell_projectors_resolve_identity():
    total = sum(bell_projector(mu) for mu in range(4))
    assert np.allclose(total, np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# encoder structure


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ROTATED_X2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_encoder_expands_into_four_uniform_pauli_strings(n, variant):
    """sum_mu c_mu(t) sigma_mu^(x)(n+1) with the closed-form weights equals the
    product of exponentials (cI - is X^(x)m)(cI - is P^(x)m)."""
    t = 0.37
    m = n + 1
    c, s = math.cos(t), math.sin(t)
    second = 2 if variant is Variant.ROTATED_X2 else 3
    eye = np.eye(2**m)
    expect = (c * eye - 1j * s * uniform_kron(1, m)) @ (c * eye - 1j * s * uniform_kron(second, m))
    assert np.allclose(encoding_unitary(n, t, variant), expect, atol=1e-12)
    coeffs = expansion_coefficients(n, t, variant)
    assert sum(abs(w) ** 2 for w in coeffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_encoder_is_unitary(n):
    check_unitary(encoding_unitary(n, 0.61))


def test_protocol_angle_makes_all_weights_quarter():
    coeffs = expansion_coefficients(2, PROTOCOL_T)
    assert np.allclose([abs(c) for c in coeffs], 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# accepted decryption angles and alpha coefficients


def test_accepted_angles_form_a_half_period_lattice():
    for m in (-2, -1, 0, 1, 5):
        assert is_accepted_decrypt_angle(math.pi / 4 + m * math.pi / 2)
    for t in (0.0, math.pi / 8, math.pi / 2, 1.0):
        assert not is_accepted_decrypt_angle(t)


def test_alphas_for_angle_rejects_generic_t():
    with pytest.raises(AngleError):
        AlphaCoefficients.for_angle(2, math.pi / 8)


def test_alphas_are_unimodular():
    for n in (1, 2, 3, 4):
        for alphas in both_alpha_families(n):
            for mu in range(4):
                assert abs(abs(alphas[mu]) - 1.0) < 1e-12


def test_decryption_at_shifted_angle_needs_angle_specific_alphas():
    """At t = 3pi/4 the sign pattern of the weights changes; the base alphas fail."""
    t = 3 * math.pi / 4
    config = ProtocolConfig(n=2, t=t)
    psi = named_state("0")
    state = encode(prepare_initial(config, psi), config)
    good = decrypt(state, config, target=1, reference=psi)
    assert good.fidelity == pytest.approx(1.0, abs=1e-12)

    layout = state.layout
    u = decoding_unitary(2, AlphaCoefficients.standard(2), target=1)
    wrong = apply_unitary(state, u, [layout.signal(1), layout.noise(1), layout.noise(2)])
    recovered = partial_trace(wrong, [layout.signal(1)])
    assert fidelity_pure(recovered, psi) < 1e-10  # the output is the flipped state


# ---------------------------------------------------------------------------
# perfect recovery


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_target_recovers_any_input_exactly(n, rng):
    config = ProtocolConfig(n=n)
    for trial in range(3):
        psi = haar_random_qubit(rng)
        state = encode(prepare_initial(config, psi), config)
        for target in range(1, n + 1):
            outcome = decrypt(state, config, target=target, reference=psi)
            assert outcome.fidelity >= 1 - 1e-12
            assert purity(outcome.recovered) == pytest.approx(1.0, abs=1e-10)


def test_single_pair_decode_recovers_but_flags(rng, capsys):
    """The outcome recovers the input; the demo report carries both n = 1 flags."""
    config = ProtocolConfig(n=1)
    psi = haar_random_qubit(rng)
    state = encode(prepare_initial(config, psi), config)
    outcome = decrypt(state, config, reference=psi)
    assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)
    assert main(["demo", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["flags"] == [
        "n=1: the clone is recoverable but was never fully encrypted",
        "not fully encrypted: with a single pair the clone leaks one Bloch component"
        " before decryption",
    ]


def test_every_decrypt_reads_its_result_off_the_decrypted_register(rng):
    """Each entry point's ``recovered`` and ``fidelity`` are bitwise the carrier's
    reduction of ``post_state`` and its fidelity, built on first read and kept."""
    psi = haar_random_qubit(rng)
    config = ProtocolConfig(n=2)
    state = encode(prepare_initial(config, psi), config)
    plan = plan_iterated_cloning(1)
    tree = execute_iterated_cloning(plan, psi)
    outcomes = [
        decrypt(state, config, target=2, reference=psi),
        decrypt_with_substitution(state, config, (2,), reference=psi),
        decrypt_from_A(state, config, reference=psi),
        reverse_encoding_recovery(state, config, reference=psi),
        decrypt_clone(plan, tree, plan.clones[1], reference=psi),
        *decrypt_clones_from_input(plan, psi, plan.clones[2:], reference=psi),
    ]
    for out in outcomes:
        recovered = partial_trace(out.post_state, [out.carrier])
        assert out.recovered.matrix.tobytes() == recovered.matrix.tobytes()
        assert out.fidelity == fidelity_pure(recovered, psi)
        assert out.recovered is out.recovered
        assert out.fidelity is out.fidelity
    assert decrypt(state, config).fidelity is None


def test_single_pair_clone_leaks_one_axis_before_decoding():
    """With one pair the clone marginal is I/2 + <Y> Y/2: perfectly readable on Y."""
    config = ProtocolConfig(n=1)
    marginals = {
        name: encoded_marginal(config, named_state(name), ["S1"])
        for name in ("+i", "-i", "0", "+")
    }
    assert trace_distance(marginals["+i"], marginals["-i"]) == pytest.approx(1.0, abs=1e-10)
    # the Z and X axes stay hidden
    assert np.allclose(marginals["0"].matrix, np.eye(2) / 2, atol=1e-10)
    assert np.allclose(marginals["+"].matrix, np.eye(2) / 2, atol=1e-10)


# ---------------------------------------------------------------------------
# perfect encryption


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_marginal_is_maximally_mixed(n):
    config = ProtocolConfig(n=n)
    for name in all_probe_names():
        psi = named_state(name)
        state = encode(prepare_initial(config, psi), config)
        layout = state.layout
        for role in ["A"] + [f"S{i}" for i in range(1, n + 1)]:
            rho = partial_trace(state, [layout.index(role)])
            assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-10, (n, name, role)


@pytest.mark.parametrize("n", [2, 3])
def test_noise_register_never_touched(n):
    """The encoder acts only on (A, S); the noise marginal stays exactly I/2^n."""
    config = ProtocolConfig(n=n)
    psi = named_state("+")
    rho = encoded_marginal(config, psi, [f"N{i}" for i in range(1, n + 1)])
    assert np.allclose(rho.matrix, np.eye(2**n) / 2**n, atol=1e-12)


# ---------------------------------------------------------------------------
# key consumption and pad restoration


@pytest.mark.parametrize("n", [2, 3])
def test_residual_after_decryption_is_input_independent(n):
    config = ProtocolConfig(n=n)
    outcomes = []
    for name in ("0", "1", "+", "+i"):
        state = encode(prepare_initial(config, named_state(name)), config)
        outcomes.append(decrypt(state, config, target=1))
    first = outcomes[0]
    for other in outcomes[1:]:
        assert trace_distance(first.residual, other.residual) < 1e-10
        assert reduced_trace_distance(
            first.post_state, other.post_state, [first.carrier]
        ) < 1e-10


def test_decryption_restores_fresh_pads(rng):
    """After decrypting S1 (n=2), (A,N1) and (S2,N2) are Bell pairs again."""
    config = ProtocolConfig(n=2)
    psi = haar_random_qubit(rng)
    state = encode(prepare_initial(config, psi), config)
    post = decrypt(state, config, target=1).post_state
    layout = post.layout
    phi = bell_projector(0)
    for pair in ([layout.data, layout.noise(1)], [layout.signal(2), layout.noise(2)]):
        rho = partial_trace(post, pair)
        assert np.allclose(rho.matrix, phi, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_second_decryption_of_another_clone_yields_noise(n):
    """Once the key is spent, a later target comes out input-independent."""
    config = ProtocolConfig(n=n)
    outputs = []
    for name in ("0", "1"):
        state = encode(prepare_initial(config, named_state(name)), config)
        post = decrypt(state, config, target=1).post_state
        second = decrypt(post, config, target=2)
        outputs.append(second.recovered)
    assert trace_distance(outputs[0], outputs[1]) < 1e-10


# ---------------------------------------------------------------------------
# erasure blindness


@pytest.mark.parametrize("n", [2, 3])
def test_any_pair_subset_reduces_to_correlated_bell_mixture(n):
    """Any n-1 pairs look like (1/4) sum_mu P_mu^(x)(n-1): same mu on every pair."""
    config = ProtocolConfig(n=n)
    m = n - 1
    mixture = np.zeros((4**m, 4**m), dtype=complex)
    for mu in range(4):
        term = np.array([[1.0]], dtype=complex)
        for _ in range(m):
            term = np.kron(term, bell_projector(mu))
        mixture += term / 4
    for name in ("0", "+i"):
        state = encode(prepare_initial(config, named_state(name)), config)
        layout = state.layout
        for dropped in range(1, n + 1):
            keep = []
            for i in range(1, n + 1):
                if i != dropped:
                    keep += [layout.signal(i), layout.noise(i)]
            rho = partial_trace(state, keep)
            assert np.max(np.abs(rho.matrix - mixture)) < 1e-10, (n, name, dropped)


# ---------------------------------------------------------------------------
# small identities


def test_swap_as_a_pauli_correlation_sum():
    """(1/2) sum_mu sigma_mu (x) sigma_mu is exactly the SWAP gate."""
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    total = 0.5 * sum(np.kron(SIGMA[mu], SIGMA[mu]) for mu in range(4))
    assert np.allclose(total, swap, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decoder_matches_bell_projector_construction(n):
    for alphas in both_alpha_families(n):
        for target in range(1, n + 1):
            expect = decoder_oracle(n, alphas, target)
            assert np.abs(decoding_unitary(n, alphas, target) - expect).max() < 1e-14


def _per_string_sum(strings, width):
    """The Pauli sum as one dense matrix per string, added in string order."""
    total = np.zeros((2**width,) * 2, dtype=np.complex128)
    for string in strings:
        total += string.to_matrix(width)
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_operators_equal_their_per_string_matrix_sums(monkeypatch, n):
    # The X-mask scatter adds, entry for entry, what the strings' own
    # matrices add, so the operators are bitwise unchanged.
    families = [
        *both_alpha_families(n),
        *(AlphaCoefficients.for_angle(n, 3 * PROTOCOL_T, v) for v in Variant),
    ]
    families += [AlphaCoefficients((a[0], a[1], -a[2], a[3])) for a in families]  # substitution

    def build():
        angles = (PROTOCOL_T, 3 * PROTOCOL_T, 0.3)
        ops = [encoding_unitary(n, t, v) for t in angles for v in Variant]
        for alphas in families:
            ops += [decoding_unitary(n, alphas, target) for target in range(1, n + 1)]
        return ops

    scattered = build()
    monkeypatch.setattr(protocol, "_pauli_sum", _per_string_sum)
    for got, expect in zip(scattered, build(), strict=True):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n,lost", [(2, {2}), (3, {2, 3}), (4, {3})])
def test_substitution_decoder_matches_bell_projector_construction(n, lost):
    for alphas in both_alpha_families(n):
        a = alphas.values
        flipped = AlphaCoefficients((a[0], a[1], a[2] * (-1) ** len(lost), a[3]))
        got = decoding_unitary(n, flipped, target=1)
        expect = decoder_oracle(n, alphas, 1, lost)
        assert np.abs(got - expect).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", list(Variant))
def test_substitution_post_states_match_the_bell_projector_oracle(n, variant, rng):
    config = ProtocolConfig(n=n, variant=variant)
    psi = haar_random_qubit(rng)
    state = encode(prepare_initial(config, psi), config)
    layout = state.layout
    alphas = AlphaCoefficients.for_angle(n, PROTOCOL_T, variant)
    for target in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != target]
        for lost in itertools.chain.from_iterable(
            itertools.combinations(others, k) for k in range(len(others) + 1)
        ):
            out = decrypt_with_substitution(state, config, lost, target=target)
            qubits = [layout.signal(target)] + [
                layout.signal(j) if j in lost else layout.noise(j) for j in range(1, n + 1)
            ]
            oracle = decoder_oracle(n, alphas, target, frozenset(lost))
            expect = apply_unitary(state, oracle, qubits).amplitudes
            assert np.abs(out.post_state.amplitudes - expect).max() < 1e-14


def test_single_pair_decrypt_is_substitution_with_nothing_lost(rng):
    config = ProtocolConfig(n=1)
    psi = haar_random_qubit(rng)
    state = encode(prepare_initial(config, psi), config)
    plain = decrypt(state, config, reference=psi)
    substituted = decrypt_with_substitution(state, config, (), reference=psi)
    assert plain.post_state.amplitudes.tobytes() == substituted.post_state.amplitudes.tobytes()
    assert plain.fidelity == substituted.fidelity


def test_encoder_and_every_decoder_are_unitary():
    """Both products U^dagger U and U U^dagger, entry for entry, for n <= 6."""
    for n, variant in itertools.product(range(1, 7), Variant):
        eye = np.eye(2 ** (n + 1))
        a = AlphaCoefficients.for_angle(n, PROTOCOL_T, variant)
        flipped = AlphaCoefficients((a[0], a[1], -a[2], a[3]))  # substitution
        ops = [encoding_unitary(n, t, variant) for t in (PROTOCOL_T, 3 * PROTOCOL_T, 0.3)]
        ops += [decoding_unitary(n, alphas, target) for alphas in (a, flipped)
                for target in range(1, n + 1)]
        for u in ops:
            assert np.abs(u.conj().T @ u - eye).max() <= STATE_ATOL, (n, variant)
            assert np.abs(u @ u.conj().T - eye).max() <= STATE_ATOL, (n, variant)


# ---------------------------------------------------------------------------
# operators kept on the config


def lost_sets(others, largest=2):
    return itertools.chain.from_iterable(
        itertools.combinations(others, k) for k in range(min(largest, len(others)) + 1)
    )


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", list(Variant))
def test_one_decoder_serves_every_target_bitwise(n, variant, rng):
    """The target-1 decoder on swapped key wires is the per-target decoder."""
    config = ProtocolConfig(n=n, variant=variant)
    state = encode(prepare_initial(config, haar_random_qubit(rng)), config)
    layout = state.layout
    a = AlphaCoefficients.for_angle(n, PROTOCOL_T, variant)
    for target in range(1, n + 1):
        for lost in lost_sets([j for j in range(1, n + 1) if j != target]):
            alphas = AlphaCoefficients((a[0], a[1], a[2] * (-1) ** len(lost), a[3]))
            wires = [layout.signal(target)] + [
                layout.signal(j) if j in lost else layout.noise(j) for j in range(1, n + 1)
            ]
            expect = apply_unitary(state, decoding_unitary(n, alphas, target), wires)
            got = decrypt_with_substitution(state, config, lost, target=target).post_state
            assert np.array_equal(got.amplitudes, expect.amplitudes), (target, lost)


def test_config_keeps_its_operators_read_only():
    config = ProtocolConfig(n=3, variant=Variant.ROTATED_X2)
    a = AlphaCoefficients.for_angle(3, PROTOCOL_T, Variant.ROTATED_X2)
    flipped = AlphaCoefficients((a[0], a[1], -a[2], a[3]))
    assert config.encoder is config.encoder
    assert config.decoder(0) is config.decoder(2) is not config.decoder(1)
    assert np.array_equal(config.encoder, encoding_unitary(3, PROTOCOL_T, Variant.ROTATED_X2))
    assert np.array_equal(config.decoder(), decoding_unitary(3, a))
    assert np.array_equal(config.decoder(1), decoding_unitary(3, flipped))
    for op in (config.encoder, config.decoder(), config.decoder(1)):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 0
    # The kept operators are no part of the config's identity.
    twin = ProtocolConfig(n=3, variant=Variant.ROTATED_X2)
    assert config == twin and hash(config) == hash(twin)
    with pytest.raises(AngleError):
        ProtocolConfig(n=2, t=0.6).decoder()


# ---------------------------------------------------------------------------
# configuration and input validation


def test_config_validation():
    with pytest.raises(ProtocolError):
        ProtocolConfig(n=0)
    with pytest.raises(ProtocolError):
        ProtocolConfig(n=2, t=math.inf)


def test_substitution_refuses_the_target_pair(rng):
    config = ProtocolConfig(n=2)
    state = encode(prepare_initial(config, haar_random_qubit(rng)), config)
    with pytest.raises(KeyMaterialError):
        decrypt_with_substitution(state, config, lost_noise=[1], target=1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_recovery_property_over_random_inputs(seed):
    """Fidelity-1 recovery is a property of every input state, not a sample."""
    rng = np.random.default_rng(seed)
    psi = haar_random_qubit(rng)
    config = ProtocolConfig(n=2)
    state = encode(prepare_initial(config, psi), config)
    outcome = decrypt(state, config, target=2, reference=psi)
    assert outcome.fidelity >= 1 - 1e-11
