"""The encrypted-cloning protocol.

One data qubit ``A`` is encoded together with ``n`` Bell pairs ``(S_i, N_i)``
by a single unitary

    U_enc(t) = exp(-i t X_A X_S1 .. X_Sn) . exp(-i t Z_A Z_S1 .. Z_Sn),

which at t = pi/4 turns every signal qubit into an encrypted clone of the
input state while each marginal stays maximally mixed.  Expanding the
exponentials gives  U_enc(t) = sum_mu c_mu(t) sigma_mu^(A) (x) sigma_mu^(S...)
with Pauli-string weights ``c_mu``; decryption applies the
Bell-basis-controlled unitary

    U_dec = sum_mu alpha_mu |phi_mu><phi_mu|_(S1 N1) (x) sigma_mu^T (N2..Nn),

whose phases ``alpha_mu = c_0/c_mu`` undo the encoding weights, consuming the
noise qubits as a one-time key.  A rotated family (Y replacing Z in the
encoder) works identically with adjusted phases, and for even ``n`` the data
qubit itself can be decrypted against the noise register alone.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .claims import ANGLE_ATOL, PHASE_ATOL
from .paulis import SIGMA, PauliString
from .registers import QcloneError, RegisterLayout, check_register_size
from .states import (
    DensityOperator,
    StateVector,
    _apply,
    check_unitary,
    fidelity_pure,
    kron_states,
    partial_trace,
    single_qubit,
)


class ProtocolError(QcloneError):
    """Configuration or state incompatible with the requested operation."""


class AngleError(ProtocolError):
    """Decryption attempted at an interaction time the decoder cannot undo."""


class KeyMaterialError(ProtocolError):
    """Requested decryption lacks the key half it cannot do without."""


class OddCloneCountError(ProtocolError):
    """Data-side decryption is only defined for an even number of clones."""


class Variant(Enum):
    STANDARD = "standard"
    ROTATED_X2 = "rotated_x2"


@dataclass(frozen=True)
class ProtocolConfig:
    """Number of clones, interaction time, encoder family, and the operators built from them."""

    n: int
    t: float = math.pi / 4
    variant: Variant = Variant.STANDARD

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ProtocolError(f"need n >= 1 signal/noise pairs, got {self.n}")
        if not math.isfinite(self.t):
            raise ProtocolError(f"interaction time {self.t} is not finite")
        check_register_size(2 * self.n + 1)  # before anything is built for the layout
        object.__setattr__(self, "_operators", {})  # beside the frozen fields

    def layout(self) -> RegisterLayout:
        return RegisterLayout.standard(self.n)

    def _kept(self, key) -> np.ndarray:
        """The operator under ``key``, built, checked unitary and frozen on first use."""
        op = self._operators.get(key)
        if op is None:
            if key == "encoder":
                op = encoding_unitary(self.n, self.t, self.variant)
            else:  # ("decoder", flips): alpha_2 flipped that many times
                a = AlphaCoefficients.for_angle(self.n, self.t, self.variant)
                flipped = AlphaCoefficients((a[0], a[1], a[2] * (-1) ** key[1], a[3]))
                op = decoding_unitary(self.n, flipped)
            op = self._operators[key] = check_unitary(op)
            op.setflags(write=False)
        return op

    @property
    def encoder(self) -> np.ndarray:
        """The encoder on [A, S_1..S_n], built on first use and kept read-only."""
        return self._kept("encoder")

    def decoder(self, flips: int = 0) -> np.ndarray:
        """The target-1 decoder, alpha_2 flipped ``flips`` times.  Every other slot
        carries the same factor, so target t swaps the key wires of pairs 1 and t."""
        return self._kept(("decoder", flips % 2))


# ---------------------------------------------------------------------------
# Bell pairs

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

BELL_PHI = np.array([1, 0, 0, 1], dtype=np.complex128) * _INV_SQRT2  # |phi>, read-only
BELL_PHI.setflags(write=False)


def bell_pair_vector(mu: int = 0) -> np.ndarray:
    """|phi_mu> = (sigma_mu (x) 1)|phi> on a (signal, noise) pair, signal on bit 0."""
    return np.kron(np.eye(2), SIGMA[mu]) @ BELL_PHI


def bell_projector(mu: int) -> np.ndarray:
    v = bell_pair_vector(mu)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# named single-qubit states

PAULI_EIGENSTATE_AMPLITUDES: dict[str, tuple[complex, complex]] = {
    "0": (1, 0),
    "1": (0, 1),
    "+": (_INV_SQRT2, _INV_SQRT2),
    "-": (_INV_SQRT2, -_INV_SQRT2),
    "+i": (_INV_SQRT2, _INV_SQRT2 * 1j),
    "-i": (_INV_SQRT2, -_INV_SQRT2 * 1j),
}


def named_state(name: str) -> StateVector:
    try:
        a0, a1 = PAULI_EIGENSTATE_AMPLITUDES[name]
    except KeyError:
        raise ProtocolError(
            f"unknown state name {name!r}; choose from"
            f" {sorted(PAULI_EIGENSTATE_AMPLITUDES)}"
        ) from None
    return single_qubit(a0, a1)


# ---------------------------------------------------------------------------
# encoder


def expansion_coefficients(n: int, t: float, variant: Variant = Variant.STANDARD):
    """Pauli-string weights c_mu(t) of the expanded encoder.

    c_0 = cos^2 t and c_1 = -i sin t cos t always; the remaining two weights
    depend on which Pauli the second exponential uses, through
    sigma_1^(x)m sigma_3^(x)m = (-i)^m sigma_2^(x)m  and
    sigma_1^(x)m sigma_2^(x)m = i^m sigma_3^(x)m  on m = n + 1 qubits.
    """
    c, s = math.cos(t), math.sin(t)
    sc = -1j * s * c
    if variant is Variant.ROTATED_X2:
        cross = -((1j) ** (n + 1)) * s * s
        return (c * c, sc, sc, cross)
    cross = -((-1j) ** (n + 1)) * s * s
    return (c * c, sc, cross, sc)


def encoding_unitary(n: int, t: float, variant: Variant = Variant.STANDARD) -> np.ndarray:
    """Dense encoder on local qubits [A = bit 0, S_1..S_n = bits 1..n]."""
    if n < 1:
        raise ProtocolError(f"need n >= 1, got {n}")
    qubits = range(n + 1)
    strings = (
        PauliString.uniform(mu, qubits, c)
        for mu, c in enumerate(expansion_coefficients(n, t, variant))
    )
    return _pauli_sum(strings, n + 1)


def _pauli_sum(strings, width: int) -> np.ndarray:
    """Dense sum of Pauli strings on ``width`` qubits, one scatter per X mask.

    Strings that share an X mask fill the same entries, so their column values
    are added first, in string order: each entry is the per-string sum.  The cap
    is checked before the first string is drawn, so lazy strings cost nothing if refused.
    """
    check_register_size(width, matrix=True)
    cols = np.arange(2**width)
    odd = np.zeros_like(cols)  # parity of the number of set bits of each index
    for q in range(width):
        odd ^= cols >> q & 1
    by_mask: dict[int, np.ndarray] = {}
    for s in strings:
        term = s.phase * (1 - 2 * odd[cols & s.z_mask])
        by_mask[s.x_mask] = by_mask.get(s.x_mask, 0) + term
    total = np.zeros((cols.size, cols.size), dtype=np.complex128)
    for x_mask, values in by_mask.items():
        total[cols ^ x_mask, cols] = values
    return total


# ---------------------------------------------------------------------------
# decoder


def is_accepted_decrypt_angle(t: float) -> bool:
    """Decryption works exactly at t = pi/4 + m pi/2 for integer m.  At an offset d from
    there |cos^2 t - sin^2 t| = |sin 2d|, so d is read off the float t at any magnitude."""
    return abs(math.cos(t) ** 2 - math.sin(t) ** 2) / 2 < ANGLE_ATOL


@dataclass(frozen=True)
class AlphaCoefficients:
    """Decoder phases, one per Pauli index: each within PHASE_ATOL of the unit circle, put on it."""

    values: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        vals = tuple(complex(v) for v in self.values)
        if len(vals) != 4:
            raise ProtocolError(f"need 4 phases, got {len(vals)}")
        for v in vals:
            if abs(abs(v) - 1.0) > PHASE_ATOL:
                raise ProtocolError(f"decoder phase {v} is not unimodular")
        object.__setattr__(self, "values", tuple(v / abs(v) for v in vals))

    def __getitem__(self, mu: int) -> complex:
        return self.values[mu]

    @classmethod
    def standard(cls, n: int) -> "AlphaCoefficients":
        return cls((1.0, 1j, -(1j ** (n + 1)), 1j))

    @classmethod
    def for_angle(cls, n: int, t: float, variant: Variant = Variant.STANDARD) -> "AlphaCoefficients":
        """alpha_mu = c_0(t)/c_mu(t); unimodular exactly at the accepted angles."""
        if not is_accepted_decrypt_angle(t):
            raise AngleError(
                f"t={t} is not of the form pi/4 + m*pi/2; the phase decoder"
                " cannot undo this encoding"
            )
        c = expansion_coefficients(n, t, variant)
        return cls(tuple(c[0] / c[mu] for mu in range(4)))


def decoding_unitary(n: int, alphas: AlphaCoefficients, target: int = 1) -> np.ndarray:
    """Dense decoder on local qubits [S_target = bit 0, N_1..N_n = bits 1..n].

    The Bell projector pairs the carrier with slot ``target``; every other
    slot gets sigma_mu^T.  Expanding
    |phi_mu><phi_mu| = 1/4 sum_nu eps_mu,nu sigma_nu (x) sigma_nu^T, with
    eps = -1 when mu, nu != 0 and mu != nu, makes the decoder a sum of 16
    Pauli strings; each transpose is a sign per Y factor.
    """
    if not 1 <= target <= n:
        raise ProtocolError(f"target {target} outside 1..{n}")
    others = [s for s in range(1, n + 1) if s != target]

    def strings():
        for mu, nu in itertools.product(range(4), repeat=2):
            sign = -1 if mu and nu and mu != nu else 1
            if nu == 2:  # sigma_nu^T on the pair slot
                sign = -sign
            if mu == 2:  # sigma_mu^T on every other slot
                sign *= (-1) ** len(others)
            factors = {0: nu, target: nu} | dict.fromkeys(others, mu)
            yield PauliString.from_factors(factors, alphas[mu] * sign / 4)

    return _pauli_sum(strings(), n + 1)


# ---------------------------------------------------------------------------
# running the protocol


def _seed(psi: StateVector) -> StateVector:
    if psi.num_qubits != 1:
        raise ProtocolError("the input must be a single-qubit state")
    return psi


def prepare_initial(config: ProtocolConfig, psi: StateVector) -> StateVector:
    """The input state (x) n Bell pairs on the standard layout."""
    return kron_states([_seed(psi).amplitudes] + [BELL_PHI] * config.n, config.layout())


def encode(state: StateVector, config: ProtocolConfig) -> StateVector:
    """Apply the encoder to the (A, S_1..S_n) block of a prepared register."""
    layout = state.layout
    targets = [layout.data] + [layout.signal(i) for i in range(1, config.n + 1)]
    return _apply(state, [(config.encoder, targets)])


@dataclass(frozen=True)
class DecryptionOutcome:
    """What a decryption attempt produced: ``carrier`` indexes ``post_state``.

    ``post_state`` is the decrypted register: the whole register for every
    decryption but :func:`decrypt_clones_from_input`'s, which is a clone's
    ancestry register.  ``recovered`` and ``fidelity`` are read off it on first
    use and kept; ``reference`` is the input state, if the caller knows it.
    """

    post_state: StateVector
    carrier: int
    reference: StateVector | None = None

    @functools.cached_property
    def recovered(self) -> DensityOperator:
        return partial_trace(self.post_state, [self.carrier])

    @functools.cached_property
    def fidelity(self) -> float | None:
        """<reference| recovered |reference>, or None without a reference."""
        return None if self.reference is None else fidelity_pure(self.recovered, self.reference)

    @property
    def residual(self) -> DensityOperator:
        """Dense reduced state on every qubit but the carrier, built on each read.

        For ``post_state`` of w qubits it is a (w-1)-qubit matrix, refused with
        ``RegisterOverflowError`` when 2(w-1) exceeds the cap, as for
        :func:`decrypt_clone` outcomes at depth >= 2.  Key consumption is checked
        without it, at any width, by ``reduced_trace_distance(a.post_state,
        b.post_state, [a.carrier])``; this is the dense oracle for that check.
        """
        others = [q for q in range(self.post_state.num_qubits) if q != self.carrier]
        return partial_trace(self.post_state, others)


def decrypt(
    state: StateVector,
    config: ProtocolConfig,
    target: int = 1,
    reference: StateVector | None = None,
) -> DecryptionOutcome:
    """Decrypt one clone of an encoded register, consuming all noise qubits.

    ``reference`` is the input state, if the caller knows it, used only to
    report a fidelity.
    """
    return decrypt_with_substitution(state, config, (), target, reference)


def _undo(config: ProtocolConfig, slot: int, carrier: int, keys, flips: int = 0):
    """The (operator, wires) undoing an encoding at ``carrier``, with one key wire per
    pair: slot 0 (the data qubit) the encoder's adjoint, slot t the target-1 decoder,
    alpha_2 flipped ``flips`` times, with key t in pair 1's place."""
    keys = list(keys)
    if not slot:
        return config.encoder.conj().T, [carrier, *keys]
    keys[0], keys[slot - 1] = keys[slot - 1], keys[0]
    return config.decoder(flips), [carrier, *keys]


def _decrypt(state, config: ProtocolConfig, slot: int, keys, reference, flips: int = 0):
    """Undo the encoding at slot 0 (A) or slot t (S_t) of a standard register."""
    carrier = state.layout.signal(slot) if slot else state.layout.data
    undo = _undo(config, slot, carrier, keys, flips)
    return DecryptionOutcome(_apply(state, [undo]), carrier, reference)


def decrypt_with_substitution(
    state: StateVector,
    config: ProtocolConfig,
    lost_noise,
    target: int = 1,
    reference: StateVector | None = None,
) -> DecryptionOutcome:
    """Decrypt although some noise qubits are gone, using their signal partners.

    For every lost ``N_j`` the decoder's transposed Pauli factor moves to
    ``S_j`` untransposed, which flips the sign of alpha_2 once per lost qubit.
    The target pair's own noise qubit cannot be substituted.
    """
    if not 1 <= target <= config.n:
        raise ProtocolError(f"target {target} outside 1..{config.n}")
    lost = frozenset(int(j) for j in lost_noise)
    if not lost <= set(range(1, config.n + 1)):
        raise ProtocolError(f"lost set {sorted(lost)} outside pairs 1..{config.n}")
    if target in lost:
        raise KeyMaterialError(
            f"noise qubit N_{target} belongs to the target pair and cannot be"
            " substituted"
        )
    layout = state.layout
    keys = [layout.signal(j) if j in lost else layout.noise(j) for j in range(1, config.n + 1)]
    return _decrypt(state, config, target, keys, reference, len(lost))


def decrypt_from_A(
    state: StateVector,
    config: ProtocolConfig,
    reference: StateVector | None = None,
) -> DecryptionOutcome:
    """Decrypt the data qubit itself against the noise register (even n only).

    Applies the adjoint of the encoder-shaped unitary U'(t) acting on
    (A, N_1..N_n); transposing a Pauli string over an odd number of pairs
    flips a sign that only cancels when n is even.
    """
    if config.n % 2:
        raise OddCloneCountError(
            f"data-side decryption needs an even clone count, got n={config.n}"
        )
    keys = [state.layout.noise(j) for j in range(1, config.n + 1)]
    return _decrypt(state, config, 0, keys, reference)


def reverse_encoding_recovery(
    state: StateVector,
    config: ProtocolConfig,
    reference: StateVector | None = None,
) -> DecryptionOutcome:
    """Undo the encoder outright on (A, S_1..S_n); valid at every t."""
    keys = [state.layout.signal(j) for j in range(1, config.n + 1)]
    return _decrypt(state, config, 0, keys, reference)


# ---------------------------------------------------------------------------
# iterated cloning


@dataclass(frozen=True)
class CloningStep:
    """One n=2 encoding: ``data`` spreads over itself and two fresh signals."""

    level: int
    data: int
    signals: tuple[int, int]
    noises: tuple[int, int]


@dataclass(frozen=True)
class IteratedCloningPlan:
    """Breadth-first tree of n=2 encodings producing 3^depth clones."""

    depth: int
    steps: tuple[CloningStep, ...]
    clones: tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return 1 + 4 * len(self.steps)

    def ancestry(self, clone: int) -> tuple[tuple[CloningStep, int], ...]:
        """(step, role) pairs from the leaf level up; role 0 means the data
        slot, role i in {1, 2} the i-th signal slot."""
        if clone not in self.clones:
            raise ProtocolError(f"qubit {clone} is not a final-level clone")
        chain: list[tuple[CloningStep, int]] = []
        carrier = clone
        for level in range(self.depth, 0, -1):
            step = next(
                s
                for s in self.steps
                if s.level == level and carrier in (s.data, *s.signals)
            )
            if carrier == step.data:
                role = 0
            else:
                role = 1 + step.signals.index(carrier)
                carrier = step.data
            chain.append((step, role))
        return tuple(chain)

    def key_qubits(self, clone: int) -> tuple[int, ...]:
        """The 2*depth noise qubits consumed when decrypting this clone."""
        out: list[int] = []
        for step, _ in self.ancestry(clone):
            out.extend(step.noises)
        return tuple(out)


def plan_iterated_cloning(depth: int) -> IteratedCloningPlan:
    """Lay out the tree.  Its widest simulated state, a clone's ancestry register
    plus a fresh pair (4*depth + 3 qubits), is checked against the cap first."""
    if depth < 1:
        raise ProtocolError(f"need depth >= 1, got {depth}")
    check_register_size(4 * depth + 3)
    steps: list[CloningStep] = []
    current = [0]
    next_free = 1
    for level in range(1, depth + 1):
        produced: list[int] = []
        for data in current:
            sa, na, sb, nb = range(next_free, next_free + 4)
            next_free += 4
            steps.append(
                CloningStep(level=level, data=data, signals=(sa, sb), noises=(na, nb))
            )
            produced.extend([data, sa, sb])
        current = produced
    return IteratedCloningPlan(depth=depth, steps=tuple(steps), clones=tuple(current))


_TREE_CONFIG = ProtocolConfig(n=2)  # every tree step's operators, built on first use


def _grow(state: StateVector, step: CloningStep, local: dict[int, int]) -> StateVector:
    """Append the step's two Bell pairs, as S, N, S, N, in one product, then encode;
    ``local`` gains their positions.  Tree registers keep the generic layout."""
    n = state.num_qubits
    local.update(zip(itertools.chain(*zip(step.signals, step.noises)), range(n, n + 4)))
    state = kron_states([state.amplitudes, BELL_PHI, BELL_PHI], RegisterLayout.generic(n + 4))
    return _apply(state, [(_TREE_CONFIG.encoder, [local[q] for q in (step.data, *step.signals)])])


def execute_iterated_cloning(plan: IteratedCloningPlan, psi: StateVector) -> StateVector:
    """The whole tree register grown from psi; only its last encoder sweeps all of it."""
    check_register_size(plan.num_qubits)
    state, local = _seed(psi), {0: 0}
    for step in plan.steps:
        state = _grow(state, step, local)
    return state


def append_fresh_pair(state: StateVector) -> tuple[StateVector, tuple[int, int]]:
    """Adjoin one Bell pair uncorrelated with everything else.

    The state's qubits keep their positions and role names; the pair takes
    the next two positions under the first two free names ``q<i>``, i >= n.
    Returns the enlarged state and the new pair's positions — key material
    that is deliberately wrong for every clone.
    """
    n, names = state.num_qubits, state.layout.names
    free = (f"q{i}" for i in itertools.count(n) if f"q{i}" not in names)
    layout = RegisterLayout((*names, next(free), next(free)))
    return kron_states([state.amplitudes, BELL_PHI], layout), (n, n + 1)


def decrypt_clone(
    plan: IteratedCloningPlan,
    state: StateVector,
    clone: int,
    reference: StateVector | None = None,
    key_override: dict[int, tuple[int, int]] | None = None,
) -> DecryptionOutcome:
    """Walk a clone's ancestry from the leaves up, consuming 2*depth key qubits.

    ``key_override`` substitutes the (noise, noise) pair used at a given level
    — deliberately handing the decoder the wrong key shows that nothing about
    the input leaks without the right one.

    Every ancestry step is undone on the whole register, so ``post_state`` is the
    decrypted register and ``carrier`` is ``clone``.  This full-register walk is
    the oracle for :func:`decrypt_clones_from_input`.
    """
    key_override = key_override or {}
    unknown = sorted(set(key_override) - set(range(1, plan.depth + 1)))
    if unknown:
        raise ProtocolError(f"key_override levels {unknown} outside 1..{plan.depth}")
    allowed = set(range(state.num_qubits)) - {clone}
    for level, pair in key_override.items():
        if not isinstance(pair, (tuple, list)) or not len(pair) == len(allowed & set(pair)) == 2:
            raise ProtocolError(f"key_override level {level}: {pair!r} is not two distinct"
                                f" register qubits other than the clone {clone}")
    walk = [_undo(_TREE_CONFIG, role, clone, key_override.get(step.level, step.noises))
            for step, role in plan.ancestry(clone)]
    return DecryptionOutcome(_apply(state, walk), clone, reference)


def decrypt_clones_from_input(
    plan: IteratedCloningPlan, psi: StateVector, clones, *, fresh_key_level: int | None = None,
) -> Iterator[DecryptionOutcome]:
    """Yield each clone's outcome, in the order given, with :func:`decrypt_clone`'s
    ``recovered`` and its ``fidelity`` to ``psi``.

    Encoders off a clone's ancestry act only on qubits its key cone traces out,
    so each clone is decrypted on the 1 + 4*depth qubits grown through its
    ancestry alone.  A stack keeps one grown register per level, and each clone
    regrows only the steps below the deepest one it shares with the previous
    clone: in ``plan.clones``' depth-first order every step is grown once.  The
    walk back up runs on a copy of the leaf register, with a fresh pair that the
    tree never held at ``fresh_key_level``, and ends in the decrypted ancestry
    register, ``post_state``.
    """
    if fresh_key_level is not None and not 1 <= fresh_key_level <= plan.depth:
        raise ProtocolError(f"fresh_key_level {fresh_key_level} outside 1..{plan.depth}")
    registers, prev, local = [_seed(psi)], [], {0: 0}  # registers[i]: prev[:i] grown
    for clone in clones:
        chain = plan.ancestry(clone)
        path = [step for step, _ in reversed(chain)]
        shared = next((i for i, (a, b) in enumerate(zip(path, prev)) if a != b), len(prev))
        del registers[shared + 1:]
        for step in path[shared:]:
            registers.append(_grow(registers[-1], step, local))
        prev, state, fresh = path, registers[-1], None
        if fresh_key_level is not None:  # uncorrelated with every level, so appended first
            state, fresh = append_fresh_pair(state)
        walk = [_undo(_TREE_CONFIG, role, local[clone], fresh if step.level == fresh_key_level
                      else [local[q] for q in step.noises]) for step, role in chain]
        yield DecryptionOutcome(_apply(state, walk), local[clone], psi)
