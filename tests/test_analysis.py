import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import input_dependence_bound

from qclone import analysis, cli
from qclone.analysis import (
    CSV_HEADER,
    AnalysisError,
    LambdaSpectrum,
    SweepRow,
    _input_dependence_bound,
    _purified_register,
    _unauthorized_sets,
    coherent_information_formula,
    coherent_information_simulated,
    default_time_grid,
    encryption_audit,
    rows_to_csv,
    sweep_coherent_information,
)
from qclone.protocol import (
    PAULI_EIGENSTATE_AMPLITUDES,
    ProtocolConfig,
    bell_projector,
    encode,
    named_state,
    prepare_initial,
)
from qclone.registers import (
    ROLE_DATA,
    ROLE_REFERENCE,
    RegisterOverflowError,
    noise_role,
    signal_role,
)
from qclone.states import apply_unitary, partial_trace, trace_distance

# Fixed spot value of the curve, computed once from the closed-form spectrum
# (cos^4, sin^2 cos^2, sin^4, sin^2 cos^2) at t = pi/8 and pinned here.
I_AT_PI_OVER_8 = 0.201752073385712


# ---------------------------------------------------------------------------
# closed-form curve


@pytest.mark.parametrize("values", [(0.5, 0.5, 0.5, -0.5), (0.25, 0.25, 0.25, 0.2)])
def test_lambda_spectrum_refuses_what_is_no_probability_vector(values):
    with pytest.raises(AnalysisError, match="not a probability spectrum"):
        LambdaSpectrum(t=0.0, values=values)


def test_lambda_spectrum_is_a_probability_vector():
    for t in (0.0, 0.3, math.pi / 4, 2.9):
        spec = LambdaSpectrum.from_angle(t)
        assert sum(spec.values) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in spec.values)


def test_formula_endpoints_and_peak():
    assert coherent_information_formula(0.0) == -1.0  # exact under 0*log 0 = 0
    assert coherent_information_formula(math.pi / 2) == -1.0
    assert coherent_information_formula(math.pi / 4) == pytest.approx(1.0, abs=1e-12)


def test_formula_spot_value_is_frozen():
    assert coherent_information_formula(math.pi / 8) == pytest.approx(
        I_AT_PI_OVER_8, abs=1e-12
    )


def test_formula_symmetry_about_quarter_period():
    for t in (0.1, 0.5, 1.2):
        assert coherent_information_formula(t) == pytest.approx(
            coherent_information_formula(math.pi / 2 - t), abs=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, math.pi))
def test_formula_is_bounded(t):
    value = coherent_information_formula(t)
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# simulated curve and entropy identities


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0.0, math.pi / 8, math.pi / 4, 1.1])
def test_simulation_matches_formula(n, t):
    row = coherent_information_simulated(n, t)
    assert row.I_simulated == pytest.approx(coherent_information_formula(t), abs=1e-9)
    assert row.S_joint == pytest.approx(float(n), abs=1e-9)


def test_joint_entropy_equals_clone_count():
    """S(joint with reference) = n: each pair contributes one bit."""
    for n in (1, 2, 3):
        rows = sweep_coherent_information([0.3, math.pi / 4], n)
        for row in rows:
            assert row.S_joint == pytest.approx(n, abs=1e-9)


def test_sweep_checks_its_joint_block_before_encoding(monkeypatch):
    """At n = 11 the 13-qubit joint density operator counts 26 against the
    cap of 24, so nothing is encoded."""
    encoded = []
    monkeypatch.setattr(analysis, "encode", lambda *a: encoded.append(a))
    with pytest.raises(RegisterOverflowError, match="a dense 13-qubit matrix"):
        sweep_coherent_information(default_time_grid(3), 11)
    assert encoded == []


def test_marginal_entropy_identity():
    """S(marginal) = n - 1 + H(lambda) across the grid."""
    for n in (1, 2):
        for row in sweep_coherent_information([0.2, 0.9], n):
            h = LambdaSpectrum.from_angle(row.t).entropy()
            assert row.S_marginal == pytest.approx(n - 1 + h, abs=1e-9)


def test_purified_register_pairs_the_reference_with_the_data_qubit():
    state = _purified_register(2)
    layout = state.layout
    reference = layout.index(ROLE_REFERENCE)
    assert reference == 0 and layout.data == 1
    for pair in ([reference, layout.data], [layout.signal(1), layout.noise(1)],
                 [layout.signal(2), layout.noise(2)]):
        rho = partial_trace(state, pair)
        assert np.allclose(rho.matrix, bell_projector(0), atol=1e-12)


def test_pair_reduction_has_the_lambda_spectrum():
    """The (S1, N1) eigenvalues under a purified input are exactly lambda(t)."""
    t = 0.47
    state = encode(_purified_register(2), ProtocolConfig(n=2, t=t))
    layout = state.layout
    rho = partial_trace(state, [layout.signal(1), layout.noise(1)])
    eigs = sorted(np.linalg.eigvalsh(rho.matrix), reverse=True)
    lam = sorted(LambdaSpectrum.from_angle(t).values, reverse=True)
    assert np.allclose(eigs, lam, atol=1e-10)


def test_curve_does_not_depend_on_clone_count():
    grid = default_time_grid(9)
    curves = {n: [r.I_simulated for r in sweep_coherent_information(grid, n)] for n in (1, 2, 3)}
    for n in (2, 3):
        assert np.allclose(curves[1], curves[n], atol=1e-9)


def test_sweep_row_rejects_inconsistent_data():
    """Entropies whose difference misses the closed form by 1e-6 are refused."""
    with pytest.raises(AnalysisError, match="disagrees with the closed form"):
        SweepRow(t=0.3, S_joint=1.0, S_marginal=1.0 + coherent_information_formula(0.3) + 1e-6, n=1)


# ---------------------------------------------------------------------------
# grids and CSV artifacts


def test_default_grid_endpoints_and_length():
    grid = default_time_grid()
    assert len(grid) == 101
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)
    short = default_time_grid(3, 1.5707963)
    assert np.allclose(short, [0.0, 0.78539815, 1.5707963])
    with pytest.raises(AnalysisError, match="at least one grid point"):
        default_time_grid(0)
    with pytest.raises(AnalysisError, match="empty time grid"):
        sweep_coherent_information([], 2)


def test_csv_has_the_agreed_header_and_width():
    rows = sweep_coherent_information(default_time_grid(5), 2)
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert int(fields[5]) == 2
        float(fields[1])  # parses back


def test_csv_output_is_reproducible():
    rows_a = sweep_coherent_information(default_time_grid(11), 1)
    rows_b = sweep_coherent_information(default_time_grid(11), 1)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)


# ---------------------------------------------------------------------------
# encryption audit


@pytest.mark.parametrize("n", [2, 3])
def test_audit_passes_for_real_clone_counts(n):
    report = encryption_audit(n)
    assert report.keys() == {"n", "marginal_deviations", "independence_distances", "checks"}
    assert all(c.passed for c in report["checks"])
    names = {c.name for c in report["checks"]}
    assert names == {
        "signal-marginals-maximally-mixed",
        "data-marginal-maximally-mixed",
        "unauthorized-sets-input-independent",
        "noise-register-untouched",
    }
    assert all(v < 1e-10 for v in report["marginal_deviations"].values())
    assert "noise-register" in report["independence_distances"]


def test_audit_flags_the_single_pair_leak():
    report = encryption_audit(1)
    by_name = {c.name: c for c in report["checks"]}
    assert not all(c.passed for c in by_name.values())  # marginals genuinely leak
    leak = by_name["single-pair-clone-leaks-input"]
    assert leak.passed  # the leak itself is the predicted behavior
    assert leak.value == pytest.approx(1.0, abs=1e-10)
    assert not by_name["signal-marginals-maximally-mixed"].passed


def test_audit_counts_unauthorized_sets():
    """n pairs give n * 2^(n-1) complements plus the bare noise register."""
    assert len(encryption_audit(2)["independence_distances"]) == 2 * 2 + 1
    assert len(encryption_audit(3)["independence_distances"]) == 3 * 4 + 1


# ---------------------------------------------------------------------------
# linearity bound against the six-probe oracle


def _encoded_probes(n: int):
    cfg = ProtocolConfig(n=n)
    probes = [named_state(k) for k in PAULI_EIGENSTATE_AMPLITUDES]
    return cfg.layout(), [encode(prepare_initial(cfg, psi), cfg) for psi in probes]


def _six_probe_distance(encoded, keep) -> float:
    """Largest pairwise trace distance between the probes' reductions to ``keep``."""
    reduced = [partial_trace(state, keep) for state in encoded]
    return max(trace_distance(a, b) for a, b in combinations(reduced, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bound_caps_the_six_probe_distance_on_every_unauthorized_set(n):
    layout, encoded = _encoded_probes(n)
    bounds = encryption_audit(n)["independence_distances"]
    sets = _unauthorized_sets(n)
    assert bounds.keys() == sets.keys()
    for label, roles in sets.items():
        keep = layout.indices(roles)
        oracle = _six_probe_distance(encoded, keep)
        assert oracle <= bounds[label] + 1e-15, label
        assert oracle < 1e-10 and bounds[label] < 1e-10, label
        assert abs(bounds[label] - input_dependence_bound(encoded[0], encoded[1], keep)) <= 1e-15, label


@pytest.mark.parametrize(
    "n, roles, expected",
    [
        (1, [signal_role(1)], 1.0),  # the single-pair clone
        (2, [signal_role(1), noise_role(1), signal_role(2)], 1 + math.sqrt(2)),  # authorized
    ],
)
def test_bound_flags_input_dependent_sets(n, roles, expected):
    layout, encoded = _encoded_probes(n)
    keep = layout.indices(roles)
    bound = _input_dependence_bound(encoded[0], encoded[1], keep)
    assert bound == pytest.approx(expected, abs=1e-12)
    oracle = input_dependence_bound(encoded[0], encoded[1], keep)
    assert bound == pytest.approx(oracle, rel=1e-12, abs=0)
    assert bound > 1e-10
    assert _six_probe_distance(encoded, keep) <= bound + 1e-15


def test_bound_ignores_the_order_of_the_kept_qubits():
    layout, encoded = _encoded_probes(2)
    keep = layout.indices([ROLE_DATA, signal_role(2), noise_role(1)])
    forward = _input_dependence_bound(encoded[0], encoded[1], keep)
    backward = _input_dependence_bound(encoded[0], encoded[1], keep[::-1])
    assert forward == pytest.approx(backward, abs=1e-15)


def test_audit_takes_no_spectrum_beyond_a_single_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("encryption_audit called trace_distance")

    monkeypatch.setattr(analysis, "trace_distance", refuse)
    for n in (2, 3):
        assert all(c.passed for c in encryption_audit(n)["checks"])
    with pytest.raises(AssertionError, match="trace_distance"):
        encryption_audit(1)  # the n=1 leak is a lower bound and needs real distances


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_audit_makes_one_bound_per_set_and_six_reductions_per_watched_block(n, monkeypatch):
    """n + 1 set bounds, one per pair-permutation orbit of the n * 2^(n-1) + 1
    unauthorized sets; six probe reductions for each of the n + 2 watched blocks
    (the data qubit, every signal qubit, the noise register); no trace distance."""
    calls = dict.fromkeys(["_input_dependence_bound", "partial_trace", "trace_distance"], 0)

    def counting(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(analysis, name, counting(name, getattr(analysis, name)))
    encryption_audit(n)
    assert list(calls.values()) == [n + 1, 6 * (n + 2), 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_audit_encodes_only_zero_and_one(n, monkeypatch):
    """The encoder is linear, so the other four probes are combined from the two encodings."""
    inputs = []

    def spy(state, config):
        inputs.append(partial_trace(state, [state.layout.data]).matrix)
        return encode(state, config)

    monkeypatch.setattr(analysis, "encode", spy)
    encryption_audit(n)
    assert len(inputs) == 2
    np.testing.assert_allclose(inputs, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], atol=1e-15)


def _rotated_on_noise_qubit(state, j: int, angle: float):
    """``state`` with a Y rotation by ``angle`` on the noise qubit of pair ``j``."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return apply_unitary(state, np.array([[c, -s], [s, c]]), [state.layout.noise(j)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_bounds_cover_every_set_of_an_asymmetric_encoding(n):
    """With one pair of the |0> encoding rotated, the pair swaps measure a
    non-zero asymmetry and no label's value falls below its own set's bound."""
    layout, encoded = _encoded_probes(n)
    e0, e1 = _rotated_on_noise_qubit(encoded[0], 2, 1e-3), encoded[1]
    assert analysis._pair_swap_asymmetry(encoded[0], n) == 0.0
    assert analysis._pair_swap_asymmetry(e0, n) > 1e-4
    distances = analysis._independence_distances(e0, e1, n)
    sets = _unauthorized_sets(n)
    assert distances.keys() == sets.keys()
    for label, roles in sets.items():
        assert distances[label] >= input_dependence_bound(e0, e1, layout.indices(roles)), label


def test_audit_fails_when_one_pair_is_rotated_by_a_micro_radian(monkeypatch):
    real_encode = analysis.encode
    probes = iter(range(6))  # the first probe is |0>

    def encode_rotating_the_first_probe(state, cfg):
        encoded = real_encode(state, cfg)
        return encoded if next(probes) else _rotated_on_noise_qubit(encoded, 2, 1e-6)

    monkeypatch.setattr(analysis, "encode", encode_rotating_the_first_probe)
    by_name = {c.name: c for c in encryption_audit(3)["checks"]}
    assert not by_name["unauthorized-sets-input-independent"].passed


def _audit_passes_through_the_cli(n: int, capsys):
    assert cli.main(["audit", "--n", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert len(report["independence_distances"]) == n * 2 ** (n - 1) + 1
    assert max(report["independence_distances"].values()) < 1e-14


def test_audit_passes_at_six_pairs_through_the_cli(capsys):
    _audit_passes_through_the_cli(6, capsys)


def test_audit_passes_at_eight_pairs_through_the_cli(capsys):
    _audit_passes_through_the_cli(8, capsys)
