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
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .registers import ROLE_DATA, ROLE_REFERENCE, noise_role, signal_role
from .states import (
    DensityOperator,
    StateVector,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from .protocol import (
    ProtocolConfig,
    Variant,
    default_probe_states,
    encode,
    prepare_initial,
)

FORMULA_SIM_ATOL = 1e-9
ENCRYPTION_ATOL = 1e-10
NOISE_EXACT_ATOL = 1e-12
_LOG_CLAMP = 1e-12


class AnalysisError(ValueError):
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
        total = 0.0
        for lam in self.values:
            if lam > _LOG_CLAMP:
                total -= lam * math.log2(lam)
        return total


def coherent_information_formula(t: float) -> float:
    """Closed-form coherent information in bits; peaks at 1 for t = pi/4 + m pi/2."""
    return LambdaSpectrum.from_angle(t).entropy() - 1.0


@dataclass(frozen=True)
class SweepRow:
    """One simulated point of the coherent-information curve."""

    t: float
    I_formula: float
    I_simulated: float
    S_joint: float
    S_marginal: float
    n: int

    def __post_init__(self) -> None:
        if abs(self.I_simulated - (self.S_marginal - self.S_joint)) > 1e-12:
            raise AnalysisError("I_simulated must equal S_marginal - S_joint")
        if abs(self.I_formula - self.I_simulated) > FORMULA_SIM_ATOL:
            raise AnalysisError(
                f"simulation disagrees with the closed form at t={self.t}:"
                f" {self.I_simulated} vs {self.I_formula}"
            )


def coherent_information_simulated(n: int, t: float) -> SweepRow:
    """Simulate the channel with a purifying reference and take entropies.

    The joint block is (reference, S1, N1..Nn); dropping the reference gives
    the marginal block.  Their entropy difference is the coherent information.
    """
    cfg = ProtocolConfig(n=n, t=t, variant=Variant.WITH_REFERENCE)
    state = encode(prepare_initial(cfg, None), cfg)
    layout = state.layout
    marginal_roles = [signal_role(1)] + [noise_role(j) for j in range(1, n + 1)]
    joint_roles = [ROLE_REFERENCE] + marginal_roles
    s_joint = von_neumann_entropy(partial_trace(state, layout.indices(joint_roles)))
    s_marginal = von_neumann_entropy(
        partial_trace(state, layout.indices(marginal_roles))
    )
    return SweepRow(
        t=t,
        I_formula=coherent_information_formula(t),
        I_simulated=s_marginal - s_joint,
        S_joint=s_joint,
        S_marginal=s_marginal,
        n=n,
    )


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


@dataclass(frozen=True)
class AuditClaim:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    """Subsystem-by-subsystem verdict on the perfect-encryption claims."""

    n: int
    marginal_deviations: dict[str, float]
    independence_distances: dict[str, float]
    claims: tuple[AuditClaim, ...]
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        for v in self.marginal_deviations.values():
            if v < 0:
                raise AnalysisError("deviations must be non-negative")
        object.__setattr__(self, "passed", all(c.passed for c in self.claims))


def _max_pairwise_distance(states: list[DensityOperator]) -> float:
    worst = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            worst = max(worst, trace_distance(states[i], states[j]))
    return worst


def _unauthorized_sets(n: int) -> dict[str, list[str]]:
    """Complements of the authorized sets, plus the full noise register.

    An authorized set is one full pair plus one half of each remaining pair;
    its complement is the data qubit together with the unused halves.
    """
    sets: dict[str, list[str]] = {"noise-register": [noise_role(j) for j in range(1, n + 1)]}
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        for halves in product("SN", repeat=len(others)):
            # `halves[k]` is the half of pair others[k] *held by the authorized
            # party*; the complement gets the opposite half.
            roles = [ROLE_DATA]
            for j, held in zip(others, halves):
                roles.append(noise_role(j) if held == "S" else signal_role(j))
            label = "complement-of-pair%d+%s" % (
                i,
                "".join(f"{h}{j}" for j, h in zip(others, halves)) or "none",
            )
            sets[label] = roles
    return sets


def encryption_audit(n: int, psi_set: list[StateVector] | None = None) -> AuditReport:
    """Check that no unauthorized subsystem learns anything about the input.

    With a single pair (n=1) the clone's marginal retains a dependence on the
    input — the audit measures and reports that failure rather than hiding it.
    """
    probes = psi_set if psi_set is not None else default_probe_states()
    if len(probes) < 2:
        raise AnalysisError("need at least two probe states to detect dependence")
    cfg = ProtocolConfig(n=n)
    layout = cfg.layout()
    encoded = [encode(prepare_initial(cfg, psi), cfg) for psi in probes]

    half = np.eye(2) / 2
    marginal_deviations: dict[str, float] = {}
    watched = [ROLE_DATA] + [signal_role(i) for i in range(1, n + 1)]
    for role in watched:
        dev = 0.0
        for state in encoded:
            red = partial_trace(state, [layout.index(role)])
            dev = max(dev, float(np.abs(red.matrix - half).max()))
        marginal_deviations[role] = dev

    independence_distances: dict[str, float] = {}
    for label, roles in _unauthorized_sets(n).items():
        reduced = [partial_trace(state, layout.indices(roles)) for state in encoded]
        independence_distances[label] = _max_pairwise_distance(reduced)

    noise_roles = [noise_role(j) for j in range(1, n + 1)]
    noise_dev = 0.0
    noise_eye = np.eye(2**n) / 2**n
    for state in encoded:
        red = partial_trace(state, layout.indices(noise_roles))
        noise_dev = max(noise_dev, float(np.abs(red.matrix - noise_eye).max()))

    signal_dev = max(marginal_deviations[signal_role(i)] for i in range(1, n + 1))
    data_dev = marginal_deviations[ROLE_DATA]
    indep_worst = max(independence_distances.values())

    claims = [
        AuditClaim(
            name="signal-marginals-maximally-mixed",
            passed=signal_dev < ENCRYPTION_ATOL,
            value=signal_dev,
            threshold=ENCRYPTION_ATOL,
            detail="max entrywise deviation of any single clone marginal from I/2",
        ),
        AuditClaim(
            name="data-marginal-maximally-mixed",
            passed=data_dev < ENCRYPTION_ATOL,
            value=data_dev,
            threshold=ENCRYPTION_ATOL,
            detail="max entrywise deviation of the post-encoding data qubit from I/2",
        ),
        AuditClaim(
            name="unauthorized-sets-input-independent",
            passed=indep_worst < ENCRYPTION_ATOL,
            value=indep_worst,
            threshold=ENCRYPTION_ATOL,
            detail="max trace distance across probe inputs over all unauthorized sets",
        ),
        AuditClaim(
            name="noise-register-untouched",
            passed=noise_dev < NOISE_EXACT_ATOL,
            value=noise_dev,
            threshold=NOISE_EXACT_ATOL,
            detail="the encoder never acts on noise qubits; their state stays (I/2)^n",
        ),
    ]
    if n == 1:
        # Single-pair counterexample: the clone leaks the input's Y component.
        clone_states = [partial_trace(s, [layout.signal(1)]) for s in encoded]
        leak = _max_pairwise_distance(clone_states)
        claims.append(
            AuditClaim(
                name="single-pair-clone-leaks-input",
                passed=leak > ENCRYPTION_ATOL,
                value=leak,
                threshold=ENCRYPTION_ATOL,
                detail="n=1 is recoverable but not fully encrypted; the clone"
                " marginal must visibly depend on the input",
            )
        )
    return AuditReport(
        n=n,
        marginal_deviations=marginal_deviations,
        independence_distances=independence_distances,
        claims=tuple(claims),
    )
