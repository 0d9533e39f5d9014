"""Information-theoretic verification of the cloning channel.

The channel's complementary-output spectrum at interaction time ``t`` is

    lambda = (cos^4 t, sin^2 t cos^2 t, sin^4 t, sin^2 t cos^2 t),

and the coherent information of the data-to-environment channel is
``-sum lambda log2 lambda - 1`` bits, independent of the clone count.  This
module computes that quantity both from the closed form and from a full
statevector simulation with a purifying reference, sweeps it over a time
grid (CSV-exportable), and audits the perfect-encryption claims subsystem by
subsystem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .claims import FORMULA_SIM_ATOL, check
from .registers import (
    ROLE_DATA,
    ROLE_REFERENCE,
    QcloneError,
    RegisterLayout,
    check_register_size,
    noise_role,
    signal_role,
)
from .states import (
    StateVector,
    _split,
    deviation_from_mixed,
    kron_states,
    partial_trace,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .protocol import (
    BELL_PHI,
    ProtocolConfig,
    default_probe_states,
    encode,
    prepare_initial,
)


class AnalysisError(QcloneError):
    """Inconsistent analysis request or violated internal identity."""


@dataclass(frozen=True)
class LambdaSpectrum:
    """Eigenvalue spectrum of the reduced (S1, N1) pair state."""

    t: float
    values: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if abs(sum(self.values) - 1.0) > 1e-12 or any(v < 0 for v in self.values):
            raise AnalysisError(f"not a probability spectrum: {self.values}")

    @classmethod
    def from_angle(cls, t: float) -> "LambdaSpectrum":
        c2 = math.cos(t) ** 2
        s2 = math.sin(t) ** 2
        return cls(t=t, values=(c2 * c2, s2 * c2, s2 * s2, s2 * c2))

    def entropy(self) -> float:
        """Shannon entropy of the spectrum in bits (0 log 0 := 0)."""
        return shannon_entropy(self.values)


def coherent_information_formula(t: float) -> float:
    """Closed-form coherent information in bits; peaks at 1 for t = pi/4 + m pi/2."""
    return LambdaSpectrum.from_angle(t).entropy() - 1.0


@dataclass(frozen=True)
class SweepRow:
    """One simulated point of the coherent-information curve, checked against the closed form."""

    t: float
    S_joint: float
    S_marginal: float
    n: int

    def __post_init__(self) -> None:
        if abs(self.I_formula - self.I_simulated) > FORMULA_SIM_ATOL:
            raise AnalysisError(
                f"simulation disagrees with the closed form at t={self.t}:"
                f" {self.I_simulated} vs {self.I_formula}"
            )

    @property
    def I_formula(self) -> float:
        return coherent_information_formula(self.t)

    @property
    def I_simulated(self) -> float:
        return self.S_marginal - self.S_joint


def _purified_register(n: int) -> StateVector:
    """n + 1 Bell pairs: (REF, A), then every (S_i, N_i).

    The data qubit enters maximally entangled with a purifying reference, on
    the standard layout with ``REF`` at position 0.
    """
    layout = RegisterLayout.standard(n, with_reference=True)
    return kron_states([BELL_PHI] * (n + 1), layout)


def coherent_information_simulated(n: int, t: float) -> SweepRow:
    """Simulate the channel with a purifying reference and take entropies.

    The joint block is (reference, S1, N1..Nn); dropping the reference gives
    the marginal block.  Their entropy difference is the coherent information.
    """
    state = encode(_purified_register(n), ProtocolConfig(n=n, t=t))
    layout = state.layout
    marginal_roles = [signal_role(1)] + [noise_role(j) for j in range(1, n + 1)]
    joint_roles = [ROLE_REFERENCE] + marginal_roles
    s_joint = von_neumann_entropy(partial_trace(state, layout.indices(joint_roles)))
    s_marginal = von_neumann_entropy(
        partial_trace(state, layout.indices(marginal_roles))
    )
    return SweepRow(t=t, S_joint=s_joint, S_marginal=s_marginal, n=n)


def default_time_grid(points: int = 101, t_max: float = math.pi) -> np.ndarray:
    """Uniform grid on [0, t_max]; the default hits pi/4, pi/2 and 3pi/4 exactly."""
    if points < 1:
        raise AnalysisError(f"need at least one grid point, got {points}")
    if not math.isfinite(t_max):
        raise AnalysisError(f"grid end {t_max} is not finite")
    return np.linspace(0.0, t_max, points)


def sweep_coherent_information(t_grid, n: int) -> list[SweepRow]:
    """Simulated coherent-information curve over a time grid, sorted by t."""
    ts = sorted(float(t) for t in np.asarray(t_grid).ravel())
    if not ts:
        raise AnalysisError("empty time grid")
    check_register_size(n + 2, matrix=True)  # the joint block, before anything is encoded
    return [coherent_information_simulated(n, t) for t in ts]


CSV_HEADER = "t,I_formula,I_simulated,S_joint,S_marginal,n"


def rows_to_csv(rows) -> str:
    """Render sweep rows with 12-significant-digit floats, deterministic bytes."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            "%.12g,%.12g,%.12g,%.12g,%.12g,%d"
            % (r.t, r.I_formula, r.I_simulated, r.S_joint, r.S_marginal, r.n)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# encryption audit


def _input_dependence_bound(e0: StateVector, e1: StateVector, keep) -> float:
    """Bound on the trace distance between any two inputs' reductions to ``keep``.

    ``e0``, ``e1`` encode |0>, |1>; by linearity a|0> + b|1> reduces to
    sum_xy a_x a_y* F_x F_y^dagger.  Two inputs differ by p D + c C + c* C^dagger,
    |p|, |c| <= 1, with D = F_0 F_0^dagger - F_1 F_1^dagger and C = F_0 F_1^dagger,
    so half its trace norm is at most sqrt(2^len(keep)) (||D||_F / 2 + ||C||_F).
    2D = M + M^dagger for M = (F_0 + F_1)(F_0 - F_1)^dagger: two products, not
    three, and each norm is one inner product.
    """
    f0, f1 = _split(e0, keep), _split(e1, keep)
    mixed = (f0 + f1) @ (f0 - f1).conj().T
    twice_diff = (mixed + mixed.conj().T).ravel()
    cross = (f0 @ f1.conj().T).ravel()
    return math.sqrt(f0.shape[0]) * (
        math.sqrt(np.vdot(twice_diff, twice_diff).real) / 4
        + math.sqrt(np.vdot(cross, cross).real)
    )


def _unauthorized_sets(n: int) -> dict[str, list[str]]:
    """Complements of the authorized sets, plus the full noise register.

    An authorized set is one full pair plus one half of each remaining pair;
    its complement is the data qubit together with the unused halves.  A label
    names the half of each other pair *held by the authorized party*
    (``S3`` keeps the noise qubit ``N3`` in the complement).
    """
    halves = {j: ((f"S{j}", noise_role(j)), (f"N{j}", signal_role(j))) for j in range(1, n + 1)}
    sets: dict[str, list[str]] = {"noise-register": [noise_role(j) for j in range(1, n + 1)]}
    for i in range(1, n + 1):
        for held in product(*(halves[j] for j in range(1, n + 1) if j != i)):
            label = "".join(tag for tag, _ in held) or "none"
            sets[f"complement-of-pair{i}+{label}"] = [ROLE_DATA, *(role for _, role in held)]
    return sets


def encryption_audit(n: int) -> dict:
    """Check that no unauthorized subsystem learns anything about the input.

    Returns the body of the ``audit`` report: ``n``, ``marginal_deviations``,
    ``independence_distances`` and ``checks``.

    With a single pair (n=1) the clone's marginal retains a dependence on the
    input — the audit measures and reports that failure rather than hiding it.
    """
    cfg = ProtocolConfig(n=n)
    layout = cfg.layout()
    encoded = [encode(prepare_initial(cfg, psi), cfg) for psi in default_probe_states()]

    def deviation(roles) -> float:
        """Largest entry deviation of any probe's reduction to ``roles`` from I/d."""
        keep = layout.indices(roles)
        return max(deviation_from_mixed(partial_trace(s, keep)) for s in encoded)

    watched = [ROLE_DATA] + [signal_role(i) for i in range(1, n + 1)]
    marginal_deviations = {role: deviation([role]) for role in watched}
    e0, e1 = encoded[:2]  # the probes lead with |0> and |1>
    independence_distances = {
        label: _input_dependence_bound(e0, e1, layout.indices(roles))
        for label, roles in _unauthorized_sets(n).items()
    }
    noise_dev = deviation([noise_role(j) for j in range(1, n + 1)])

    signal_dev = max(marginal_deviations[signal_role(i)] for i in range(1, n + 1))
    checks = [
        check("signal-marginals-maximally-mixed", signal_dev),
        check("data-marginal-maximally-mixed", marginal_deviations[ROLE_DATA]),
        check("unauthorized-sets-input-independent", max(independence_distances.values())),
        check("noise-register-untouched", noise_dev),
    ]
    if n == 1:
        # Single-pair counterexample: the clone leaks the input's Y component.
        clones = [partial_trace(s, [layout.signal(1)]) for s in encoded]
        leak = max(trace_distance(a, b) for a, b in combinations(clones, 2))
        checks.append(check("single-pair-clone-leaks-input", leak))
    return {
        "n": n,
        "marginal_deviations": marginal_deviations,
        "independence_distances": independence_distances,
        "checks": checks,
    }
