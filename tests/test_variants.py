import itertools
import json
import math

import numpy as np
import pytest

import qclone.cli
import qclone.protocol
from qclone.protocol import (
    AlphaCoefficients,
    OddCloneCountError,
    ProtocolConfig,
    ProtocolError,
    Variant,
    append_fresh_pair,
    bell_pair_vector,
    decrypt,
    decrypt_clone,
    decrypt_clones_from_input,
    decrypt_from_A,
    decrypt_with_substitution,
    decoding_unitary,
    encode,
    encoding_unitary,
    execute_iterated_cloning,
    named_state,
    plan_iterated_cloning,
    prepare_initial,
)
from qclone.cli import main
from qclone.registers import RegisterLayout, RegisterOverflowError
from qclone.states import (
    StateVector,
    _apply,
    apply_unitary,
    haar_random_qubit,
    kron_states,
    partial_trace,
    reduced_trace_distance,
    trace_distance,
)


def encoded(config: ProtocolConfig, psi):
    return encode(prepare_initial(config, psi), config)


# ---------------------------------------------------------------------------
# substitution: signal qubits can stand in for lost noise qubits


@pytest.mark.parametrize("n,lost", [(2, (2,)), (3, (2,)), (3, (2, 3))])
def test_substitution_recovers_with_lost_noise(n, lost, rng):
    config = ProtocolConfig(n=n)
    psi = haar_random_qubit(rng)
    outcome = decrypt_with_substitution(
        encoded(config, psi), config, lost_noise=lost, target=1, reference=psi
    )
    assert outcome.fidelity >= 1 - 1e-12


def test_substitution_validates_the_lost_set(rng):
    config = ProtocolConfig(n=2)
    state = encoded(config, haar_random_qubit(rng))
    with pytest.raises(ProtocolError):
        decrypt_with_substitution(state, config, lost_noise=[5], target=1)


# ---------------------------------------------------------------------------
# decrypting the data qubit with the noise register


@pytest.mark.parametrize("n", [2, 4])
def test_data_side_decryption_for_even_clone_counts(n, rng):
    config = ProtocolConfig(n=n)
    psi = haar_random_qubit(rng)
    state = encoded(config, psi)
    outcome = decrypt_from_A(state, config, reference=psi)
    assert outcome.fidelity >= 1 - 1e-12
    assert outcome.carrier == state.layout.data


def test_data_side_decryption_rejects_odd_counts(rng):
    config = ProtocolConfig(n=3)
    state = encoded(config, haar_random_qubit(rng))
    with pytest.raises(OddCloneCountError):
        decrypt_from_A(state, config)


# ---------------------------------------------------------------------------
# reverse: undo the encoder on (A, S) at any angle


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, math.pi / 4, 2.0])
def test_reverse_encoding_recovery_at_any_angle(n, t, rng):
    from qclone.protocol import reverse_encoding_recovery

    config = ProtocolConfig(n=n, t=t)
    psi = haar_random_qubit(rng)
    outcome = reverse_encoding_recovery(encoded(config, psi), config, reference=psi)
    assert outcome.fidelity >= 1 - 1e-12


# ---------------------------------------------------------------------------
# rotated second axis


@pytest.mark.parametrize("n", [2, 3])
def test_rotated_variant_round_trip(n, rng):
    config = ProtocolConfig(n=n, variant=Variant.ROTATED_X2)
    psi = haar_random_qubit(rng)
    state = encoded(config, psi)
    for target in range(1, n + 1):
        outcome = decrypt(state, config, target=target, reference=psi)
        assert outcome.fidelity >= 1 - 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_rotated_variant_still_encrypts(n):
    config = ProtocolConfig(n=n, variant=Variant.ROTATED_X2)
    for name in ("0", "+", "+i"):
        state = encoded(config, named_state(name))
        layout = state.layout
        for i in range(1, n + 1):
            rho = partial_trace(state, [layout.signal(i)])
            assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-10


# ---------------------------------------------------------------------------
# iterated cloning: 3^k clones from a tree of n=2 encodings


@pytest.mark.parametrize("depth", [1, 2])
def test_plan_shape(depth):
    plan = plan_iterated_cloning(depth)
    assert len(plan.clones) == 3**depth
    assert plan.num_qubits == 2 * 3**depth - 1
    for clone in plan.clones:
        assert len(plan.key_qubits(clone)) == 2 * depth


def test_plan_rejects_depth_zero():
    with pytest.raises(ProtocolError):
        plan_iterated_cloning(0)


@pytest.mark.parametrize("depth", [1, 2])
def test_every_clone_decrypts_with_its_ancestry_key(depth, rng):
    psi = haar_random_qubit(rng)
    plan = plan_iterated_cloning(depth)
    state = execute_iterated_cloning(plan, psi)
    for clone in plan.clones:
        outcome = decrypt_clone(plan, state, clone, reference=psi)
        assert outcome.fidelity >= 1 - 1e-9, clone


def test_iterated_clone_marginals_are_mixed(rng):
    plan = plan_iterated_cloning(1)
    state = execute_iterated_cloning(plan, haar_random_qubit(rng))
    for clone in plan.clones:
        rho = partial_trace(state, [clone])
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) < 1e-10


def test_fresh_pair_as_key_reveals_nothing():
    """Decoding with key material outside the ancestry is input-independent."""
    plan = plan_iterated_cloning(1)
    outputs = []
    for name in ("0", "1"):
        state = execute_iterated_cloning(plan, named_state(name))
        enlarged, pair = append_fresh_pair(state)
        outcome = decrypt_clone(
            plan, enlarged, plan.clones[0], key_override={1: pair}
        )
        outputs.append(outcome.recovered)
    assert trace_distance(outputs[0], outputs[1]) < 1e-9


def test_foreign_subtree_key_reveals_nothing_at_depth_two():
    """A noise pair from a different branch of the tree is equally useless."""
    plan = plan_iterated_cloning(2)
    target = plan.clones[0]
    # any level-2 step not on the target's ancestry path
    ancestry_steps = {id(step) for step, _ in plan.ancestry(target)}
    foreign = next(
        s for s in plan.steps if s.level == 2 and id(s) not in ancestry_steps
    )
    outputs = []
    for name in ("0", "1"):
        state = execute_iterated_cloning(plan, named_state(name))
        outcome = decrypt_clone(
            plan, state, target, key_override={2: foreign.noises}
        )
        outputs.append(outcome.recovered)
    assert trace_distance(outputs[0], outputs[1]) < 1e-9


def test_clone_of_a_clone_chains_two_decodings(rng):
    """At depth 2 a leaf needs both its own key pair and its parent's."""
    psi = haar_random_qubit(rng)
    plan = plan_iterated_cloning(2)
    state = execute_iterated_cloning(plan, psi)
    clone = plan.clones[-1]
    chain = plan.ancestry(clone)
    assert len(chain) == 2
    levels = [step.level for step, _ in chain]
    assert levels == [2, 1]
    outcome = decrypt_clone(plan, state, clone, reference=psi)
    assert outcome.fidelity >= 1 - 1e-9


# ---------------------------------------------------------------------------
# the tree walk against the target-i decoders


def target_decoder_walk(plan, state, clone, key_override=None):
    """Oracle: each signal role undone by the decoder built for its own target."""
    u_enc = encoding_unitary(2, math.pi / 4)
    alphas = AlphaCoefficients.standard(2)
    undo = (u_enc.conj().T, *(decoding_unitary(2, alphas, target=i) for i in (1, 2)))
    for step, role in plan.ancestry(clone):
        keys = (key_override or {}).get(step.level, step.noises)
        state = apply_unitary(state, undo[role], [clone, *keys])
    return partial_trace(state, [clone]).matrix


def test_the_tree_takes_its_operators_from_one_n2_config(monkeypatch):
    """Every tree step applies the operators of one n = 2 config, kept read-only there."""
    config = ProtocolConfig(n=2)
    monkeypatch.setattr(qclone.protocol, "_TREE_CONFIG", config)
    applied = []

    def spy(state, ops):
        applied.extend(u for u, _ in ops)
        return _apply(state, ops)

    monkeypatch.setattr(qclone.protocol, "_apply", spy)
    plan = plan_iterated_cloning(1)
    state = execute_iterated_cloning(plan, named_state("+"))
    for clone in plan.clones:
        decrypt_clone(plan, state, clone)
    assert applied[0] is config.encoder
    assert applied[1] is config.encoder_adjoint
    assert all(u is config.decoder() for u in applied[2:]) and len(applied) == 4
    for u in (config.encoder, config.encoder_adjoint, config.decoder()):
        assert not u.flags.writeable


def foreign_noises(plan, clone):
    """The noise pair of a deepest-level step off the clone's ancestry."""
    own = {step for step, _ in plan.ancestry(clone)}
    return next(s for s in plan.steps if s.level == plan.depth and s not in own).noises


@pytest.mark.parametrize("depth", [1, 2])
def test_tree_walk_matches_the_target_decoder_walk(depth, rng):
    psi = haar_random_qubit(rng)
    plan = plan_iterated_cloning(depth)
    state = execute_iterated_cloning(plan, psi)
    enlarged, fresh = append_fresh_pair(state)
    for clone in plan.clones:
        cases = [(state, None), (enlarged, {plan.depth: fresh})]
        if depth > 1:
            cases.append((state, {depth: foreign_noises(plan, clone)}))
        for register, override in cases:
            got = decrypt_clone(plan, register, clone, key_override=override).recovered
            expect = target_decoder_walk(plan, register, clone, override)
            assert np.abs(got.matrix - expect).max() < 1e-14, (clone, override)


@pytest.mark.parametrize("levels", [{3: (5, 6)}, {0: (5, 6)}, {2: (5, 6), 3: (7, 8)}])
def test_key_override_at_an_unknown_level_is_rejected(levels):
    plan = plan_iterated_cloning(2)
    state = execute_iterated_cloning(plan, named_state("0"))
    with pytest.raises(ProtocolError, match="outside 1..2"):
        decrypt_clone(plan, state, plan.clones[0], key_override=levels)


def test_tree_decryption_reduces_the_register_once(monkeypatch):
    """One sweep of every ancestry decoder acts on the whole register, which is
    reduced once, to the clone."""
    applied, reduced = [], []

    def spy(log, fn):
        def wrapped(state, *args):
            log.append((state, *args))
            return fn(state, *args)

        return wrapped

    monkeypatch.setattr(qclone.protocol, "_apply", spy(applied, _apply))
    monkeypatch.setattr(qclone.protocol, "partial_trace", spy(reduced, partial_trace))
    plan = plan_iterated_cloning(2)
    state = execute_iterated_cloning(plan, named_state("+"))
    for clone in plan.clones:
        applied.clear()
        reduced.clear()
        decrypt_clone(plan, state, clone).recovered
        assert len(applied) == 1 and len(applied[0][1]) == plan.depth
        for s, _ in applied + reduced:
            assert isinstance(s, StateVector) and s.num_qubits == plan.num_qubits
        assert len(reduced) == 1


@pytest.mark.parametrize("depth", [1, 2])
def test_tree_decryption_consumes_its_key(depth):
    """Everything but the clone ends in the same state whatever the input was."""
    plan = plan_iterated_cloning(depth)
    states = [execute_iterated_cloning(plan, named_state(x)) for x in ("0", "1", "+")]
    for clone in plan.clones:
        posts = [decrypt_clone(plan, s, clone).post_state for s in states]
        for a, b in itertools.combinations(posts, 2):
            assert reduced_trace_distance(a, b, [clone]) < 1e-12, clone


# ---------------------------------------------------------------------------
# the grown tree register and the fresh pair on the key cone


def kron_then_encode(plan, psi):
    """Oracle: the whole register as psi (x) Bell pairs, then every encoder on it."""
    groups = [psi.amplitudes] + [bell_pair_vector()] * ((plan.num_qubits - 1) // 2)
    state = kron_states(groups, RegisterLayout.generic(plan.num_qubits))
    u_enc = encoding_unitary(2, math.pi / 4)
    for step in plan.steps:
        state = apply_unitary(state, u_enc, [step.data, *step.signals])
    return state


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", ["0", "1", "+", None])
def test_grown_register_matches_kron_then_encode(depth, name, rng):
    psi = haar_random_qubit(rng) if name is None else named_state(name)
    plan = plan_iterated_cloning(depth)
    grown = execute_iterated_cloning(plan, psi)
    oracle = kron_then_encode(plan, psi)
    assert grown.layout == oracle.layout == RegisterLayout.generic(plan.num_qubits)
    assert np.abs(grown.amplitudes - oracle.amplitudes).max() < 1e-15


def key_cones(plan, clone, fresh_key_level=None):
    """The clone's key cone in plan order, as positions in the tree register with
    a fresh pair appended and in the clone's ancestry register.

    That register grows root first: each step's four new qubits take the next
    four positions in plan order, and a fresh pair the two after the leaf step.
    """
    chain = plan.ancestry(clone)
    local = {0: 0}
    for i, (step, _) in enumerate(reversed(chain)):
        local.update(zip(sorted((*step.signals, *step.noises)), range(4 * i + 1, 4 * i + 5)))
    fresh = (plan.num_qubits, plan.num_qubits + 1)
    local.update(zip(fresh, (4 * plan.depth + 1, 4 * plan.depth + 2)))
    keys = [fresh if step.level == fresh_key_level else step.noises for step, _ in chain]
    cone = sorted({clone}.union(*keys))
    return cone, [local[q] for q in cone]


def assert_same_outcome(got, expect, cones, label):
    """``got`` decrypts an ancestry register and ``expect`` the tree register;
    ``cones`` is the key cone in each, and the two agree on it."""
    assert np.abs(got.recovered.matrix - expect.recovered.matrix).max() < 1e-14, label
    cone, local = cones
    assert local == sorted(local), label
    expected = partial_trace(expect.post_state, cone).matrix
    assert np.abs(partial_trace(got.post_state, local).matrix - expected).max() < 1e-14, label
    assert local.index(got.carrier) == cone.index(expect.carrier), label


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", ["0", "1", "+", "-", "+i", "-i", None])
def test_ancestry_register_matches_the_full_register_oracle(depth, name, rng):
    psi = haar_random_qubit(rng) if name is None else named_state(name)
    plan = plan_iterated_cloning(depth)
    state = execute_iterated_cloning(plan, psi)
    outcomes = decrypt_clones_from_input(plan, psi, plan.clones, psi)
    for clone, got in zip(plan.clones, outcomes, strict=True):
        expect = decrypt_clone(plan, state, clone, psi)
        assert_same_outcome(got, expect, key_cones(plan, clone), clone)


@pytest.mark.parametrize("depth", [1, 2])
def test_fresh_pair_on_the_cone_matches_the_appended_register(depth, rng):
    psi = haar_random_qubit(rng)
    plan = plan_iterated_cloning(depth)
    enlarged, fresh = append_fresh_pair(execute_iterated_cloning(plan, psi))
    for level in range(1, depth + 1):
        outcomes = decrypt_clones_from_input(plan, psi, plan.clones, psi, fresh_key_level=level)
        for clone, got in zip(plan.clones, outcomes, strict=True):
            expect = decrypt_clone(plan, enlarged, clone, psi, key_override={level: fresh})
            assert_same_outcome(got, expect, key_cones(plan, clone, level), (clone, level))


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", ["0", "+i", None])
def test_shared_growth_is_bitwise_one_clone_at_a_time(depth, name, rng):
    """Any clone order regrows exactly the registers that one-clone calls grow."""
    psi = haar_random_qubit(rng) if name is None else named_state(name)
    plan = plan_iterated_cloning(depth)
    shuffled = [int(q) for q in rng.permutation(plan.clones)]
    for level in (None, *range(1, depth + 1)):
        alone = {
            clone: next(decrypt_clones_from_input(plan, psi, [clone], psi, fresh_key_level=level))
            for clone in plan.clones
        }
        for order in (plan.clones[::-1], shuffled):
            outcomes = decrypt_clones_from_input(plan, psi, order, psi, fresh_key_level=level)
            for clone, got in zip(order, outcomes, strict=True):
                expect = alone[clone]
                assert np.array_equal(got.recovered.matrix, expect.recovered.matrix)
                assert np.array_equal(got.post_state.amplitudes, expect.post_state.amplitudes)
                assert got.carrier == expect.carrier and got.fidelity == expect.fidelity


@pytest.mark.parametrize("level", [0, 3, -1])
def test_fresh_key_level_outside_the_tree_is_rejected(level):
    plan = plan_iterated_cloning(2)
    clones = decrypt_clones_from_input(plan, named_state("0"), plan.clones, fresh_key_level=level)
    with pytest.raises(ProtocolError, match="outside 1..2"):
        next(clones)


@pytest.mark.parametrize(
    "override",
    [
        lambda clone: {2: (5,)},
        lambda clone: {2: (5, 5)},
        lambda clone: {2: (clone, 5)},
        lambda clone: {1: (5, 17)},
        lambda clone: {2: 5},
        lambda clone: {2: None},
    ],
    ids=["one-qubit", "repeated-qubit", "the-clone", "outside-the-register", "not-a-pair", "none"],
)
def test_key_override_values_are_validated(override):
    plan = plan_iterated_cloning(2)
    state = execute_iterated_cloning(plan, named_state("0"))
    clone = plan.clones[0]
    level = next(iter(override(clone)))
    with pytest.raises(ProtocolError, match=f"key_override level {level}"):
        decrypt_clone(plan, state, clone, key_override=override(clone))


def test_iterate_never_holds_a_register_wider_than_the_plan(monkeypatch, capsys):
    """The widest state is the probe's ancestry register plus its fresh pair,
    4k + 3 qubits, which is what plan_iterated_cloning checks against the cap;
    the full tree register is never built."""
    widths, full_trees = [], []

    def spy(width, fn):
        def wrapped(*args):
            widths.append(width(*args))
            return fn(*args)

        return wrapped

    monkeypatch.setattr(
        qclone.protocol, "kron_states", spy(lambda g, layout: layout.num_qubits, kron_states)
    )
    monkeypatch.setattr(
        qclone.protocol, "partial_trace", spy(lambda s, keep: s.num_qubits, partial_trace)
    )
    monkeypatch.setattr(
        qclone.protocol, "execute_iterated_cloning", lambda *a: full_trees.append(a)
    )
    assert main(["iterate", "--k", "2", "--psi", "+"]) == 0
    capsys.readouterr()
    assert widths and max(widths) == 4 * 2 + 3 == 11
    assert full_trees == [] and not hasattr(qclone.cli, "execute_iterated_cloning")


def test_iterate_grows_each_tree_step_once(monkeypatch, capsys):
    """9 clones over 4 tree steps, and 2 wrong-key probes that each grow 2 steps
    and append 1 fresh pair: 4 + 2 * 3 products, each step's two pairs in one."""
    calls = {name: 0 for name in ("kron_states", "_apply", "partial_trace")}

    def counted(name):
        fn = getattr(qclone.protocol, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(qclone.protocol, name, counted(name))
    assert main(["iterate", "--k", "2", "--psi", "+"]) == 0
    capsys.readouterr()
    # _apply: 4 + 2 * 2 encoders and one walk up per outcome;
    # partial_trace: one 1-qubit reduction per outcome.
    assert calls == {"kron_states": 10, "_apply": 8 + 11, "partial_trace": 11}


def test_iterate_decrypts_a_depth_three_tree(capsys):
    assert main(["iterate", "--k", "3", "--psi=+"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["total_qubits"] == 53 == plan_iterated_cloning(3).num_qubits
    assert len(report["clones"]) == 27
    assert {len(c["key_qubits"]) for c in report["clones"]} == {6}


def test_tree_build_checks_the_cap_before_the_first_kron(monkeypatch):
    calls = []
    monkeypatch.setattr(qclone.protocol, "kron_states", lambda *a: calls.append(a))
    with pytest.raises(RegisterOverflowError, match="53 qubits"):
        execute_iterated_cloning(plan_iterated_cloning(3), named_state("0"))
    assert calls == []
