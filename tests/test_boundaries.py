"""Every input a boundary accepts passes every later public call.

One property test per boundary draws inputs just inside its window and runs
the calls that follow it; a second draws inputs outside, which must be refused
by that boundary's own error, never by a later internal check.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from qclone.circuits import (
    GateCircuit,
    apply_circuit,
    circuit_to_unitary,
    equivalence_up_to_global_phase,
    export_circuit,
    gate_cnot,
    gate_cu,
    parse_circuit_text,
)
from qclone.claims import ANGLE_ATOL, PHASE_ATOL, STATE_ATOL
from qclone.cli import orthogonal_state, parse_psi
from qclone.compiler import compile_ccu, compile_decoding, compile_encoding
from qclone.protocol import (
    AlphaCoefficients,
    AngleError,
    ProtocolConfig,
    ProtocolError,
    Variant,
    decoding_unitary,
    encode,
    prepare_initial,
)
from qclone.registers import RegisterLayout
from qclone.states import (
    StateValidationError,
    StateVector,
    check_unitary,
    partial_trace,
    von_neumann_entropy,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

seeds = st.integers(0, 2**32 - 1)
variants = st.sampled_from(list(Variant))


def _near_accepted(m: int, fraction: float) -> float:
    """pi/4 + m pi/2, offset by ``fraction`` of the angle window."""
    return math.pi / 4 + m * math.pi / 2 + fraction * ANGLE_ATOL


def _off_unitary(seed: int, scale: float, hermitian: bool) -> np.ndarray:
    """A Haar unitary times I + E, E with its largest entry ``scale``: u+u - I is
    E + E+ + E+E, at most 2 scale + 2 scale^2 entrywise, and 2 scale at E's largest
    entry to first order where E is Hermitian."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if hermitian:
        e = e + e.conj().T
    return random_unitary(rng, 2) @ (np.eye(2) + scale * e / np.abs(e).max())


def _state_of_norm(seed: int, n: int, norm_sq: float) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps * math.sqrt(norm_sq) / np.linalg.norm(amps), RegisterLayout.generic(n))


# ---------------------------------------------------------------------------
# protocol boundaries


@PROPERTY
@given(
    n=st.integers(2, 5),
    m=st.integers(-3, 3),
    fraction=st.floats(-0.99, 0.99),
    variant=variants,
)
def test_an_accepted_angle_builds_both_decoders_and_compiles(n, m, fraction, variant):
    t = _near_accepted(m, fraction)
    config = ProtocolConfig(n=n, t=t, variant=variant)
    for flips in (0, 1):
        config.decoder(flips)
    circuit = compile_decoding(n, AlphaCoefficients.for_angle(n, t, variant))
    assert circuit.two_qubit_count == 15 * n + 7


@PROPERTY
@given(
    n=st.integers(2, 5),
    m=st.integers(-3, 3),
    fraction=st.one_of(st.floats(1.01, 1e6), st.floats(-1e6, -1.01)),
    variant=variants,
)
def test_a_refused_angle_is_refused_as_an_angle(n, m, fraction, variant):
    t = _near_accepted(m, fraction)
    with pytest.raises(AngleError, match="is not of the form"):
        ProtocolConfig(n=n, t=t, variant=variant).decoder()
    with pytest.raises(AngleError, match="is not of the form"):
        AlphaCoefficients.for_angle(n, t, variant)


_phases = st.tuples(
    st.floats(-math.pi, math.pi), st.floats(-0.99 * PHASE_ATOL, 0.99 * PHASE_ATOL)
)


@PROPERTY
@given(n=st.integers(2, 4), phases=st.lists(_phases, min_size=4, max_size=4))
def test_caller_phases_in_the_window_decode_and_compile(n, phases):
    alphas = AlphaCoefficients(tuple((1 + d) * cmath.exp(1j * a) for a, d in phases))
    dense = check_unitary(decoding_unitary(n, alphas))
    circuit = circuit_to_unitary(compile_decoding(n, alphas))
    assert equivalence_up_to_global_phase(circuit, dense).max_entry_deviation <= 1e-14


@PROPERTY
@given(
    slot=st.integers(0, 3),
    angle=st.floats(-math.pi, math.pi),
    offset=st.one_of(st.floats(1.01 * PHASE_ATOL, 1e3), st.floats(-1.0, -1.01 * PHASE_ATOL)),
)
def test_caller_phases_off_the_window_are_refused_as_phases(slot, angle, offset):
    values = [1.0, 1j, -1.0, 1j]
    values[slot] = (1 + offset) * cmath.exp(1j * angle)
    with pytest.raises(ProtocolError, match="is not unimodular"):
        AlphaCoefficients(tuple(values))


_amplitudes = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(parts=st.one_of(st.lists(_amplitudes, min_size=2, max_size=2),
                       st.lists(_amplitudes, min_size=4, max_size=4)))
def test_any_finite_nonzero_psi_is_a_state_that_encodes(parts):
    spec = ",".join(map(repr, parts))
    if not any(parts):
        with pytest.raises(StateValidationError, match="zero amplitude pair"):
            parse_psi(spec, 0)
        return
    psi, desc = parse_psi(spec, 0)
    assert desc == "amplitudes" and abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-15
    config = ProtocolConfig(n=2)
    for state in (psi, orthogonal_state(psi)):
        encode(prepare_initial(config, state), config)


@PROPERTY
@given(parts=st.lists(_amplitudes, min_size=4, max_size=4),
       slot=st.integers(0, 3),
       bad=st.sampled_from(["inf", "-inf", "nan", "1e309"]))
def test_a_non_finite_psi_is_refused_as_amplitudes(parts, slot, bad):
    spec = [repr(p) for p in parts]
    spec[slot] = bad
    with pytest.raises(StateValidationError, match="are not finite"):
        parse_psi(",".join(spec), 0)


# ---------------------------------------------------------------------------
# engine boundaries


@PROPERTY
@given(
    seed=seeds,
    scale=st.floats(0, 0.49 * STATE_ATOL),
    hermitian=st.booleans(),
    depth=st.integers(2, 40),
)
def test_a_gate_matrix_in_the_window_compiles_and_applies(seed, scale, hermitian, depth):
    u = _off_unitary(seed, scale, hermitian)
    ccu = compile_ccu(u, (0, 1), 2)
    gates = (*(gate_cu(0, 2, u) for _ in range(depth)), gate_cnot(2, 1), *ccu.gates)
    state = StateVector(np.full(8, 8**-0.5), RegisterLayout.generic(3))
    out = apply_circuit(state, GateCircuit(gates, 3))
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


@PROPERTY
@given(seed=seeds, scale=st.floats(0.6 * STATE_ATOL, 1e-3))
def test_a_gate_matrix_off_the_window_is_refused_where_it_is_given(seed, scale):
    u = _off_unitary(seed, scale, hermitian=True)
    with pytest.raises(StateValidationError, match="not unitary"):
        gate_cu(0, 1, u)
    with pytest.raises(StateValidationError, match="not unitary"):
        compile_ccu(u, (0, 1), 2)


@PROPERTY
@given(
    n=st.integers(2, 5),
    m=st.integers(-3, 3),
    fraction=st.floats(-0.99, 0.99),
    t_enc=st.floats(-10, 10),
    variant=variants,
)
def test_compiled_circuit_text_survives_a_round_trip(n, m, fraction, t_enc, variant):
    alphas = AlphaCoefficients.for_angle(n, _near_accepted(m, fraction), variant)
    for circuit in (compile_encoding(n, t_enc, variant), compile_decoding(n, alphas)):
        text = export_circuit(circuit, "TEXT")
        assert export_circuit(parse_circuit_text(text), "TEXT") == text


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(1, 5),
    norm_sq=st.floats(1 - 0.99 * STATE_ATOL, 1 + 0.99 * STATE_ATOL),
    keep_mask=st.integers(1, 31),
)
def test_a_state_in_the_norm_window_reduces_to_a_density_operator(seed, n, norm_sq, keep_mask):
    state = _state_of_norm(seed, n, norm_sq)
    keep = [q for q in range(n) if keep_mask >> q & 1] or [0]
    assert math.isfinite(von_neumann_entropy(partial_trace(state, keep)))


@PROPERTY
@given(seed=seeds, n=st.integers(1, 5), off=st.floats(1.01 * STATE_ATOL, 0.5))
def test_a_state_off_the_norm_window_is_refused_as_a_state(seed, n, off):
    for norm_sq in (1 - off, 1 + off):
        with pytest.raises(StateValidationError, match="deviates from 1"):
            _state_of_norm(seed, n, norm_sq)
