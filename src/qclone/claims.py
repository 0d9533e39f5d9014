"""Every check a report makes, defined once.

Each claim names a paper guarantee as a report shows it: the detail text, the
threshold and how a measured value is compared with it.  The comparisons are

- ``<``: a deviation or distance that must vanish;
- ``>``: the single-pair clone's leak, which must be visible;
- ``fidelity``: ``F >= 1 - threshold``, reported as ``1 - F``;
- ``==``: a count against its closed form (``4n``, ``15n + 7``, ``3^k``);
- ``holds``: a verdict with no number.

Every tolerance of the program is defined here too: the report thresholds, then
the engine's windows and cuts, each with what it feeds.  The acceptance tests
keep their own literal bounds as the independent check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable

# Report thresholds: each check's measured value is compared with one of these.
RECOVERY_ATOL = 1e-10  # demo recovery and key consumption, variants fidelities
ITERATED_ATOL = 1e-9  # iterate, variants' iterated check
ENCRYPTION_ATOL = 1e-10  # demo marginals, audit
NOISE_EXACT_ATOL = 1e-12  # audit's untouched noise register
CIRCUIT_EQUIV_ATOL = 1e-8  # compile equivalence checks
FORMULA_SIM_ATOL = 1e-9  # sweep: simulated against closed-form curve

# Engine tolerances: input windows, self-checks and zero cuts.
STATE_ATOL = 1e-10  # states: norm, Hermiticity, trace and unitarity windows
EIG_NEG_TOL = 1e-10  # states.DensityOperator: eigenvalues below -EIG_NEG_TOL refuse the matrix
EIG_CLAMP = 1e-12  # states.shannon_entropy: eigenvalues up to EIG_CLAMP add 0
ANGLE_ATOL = 1e-11  # protocol: accepted offset from pi/4 + m*pi/2, where decoders undo to 2e-11
PHASE_ATOL = 1e-9  # protocol.AlphaCoefficients: a phase's distance from the unit circle
SQRT_ATOL = 1e-12  # compiler.principal_sqrt_2x2: the root's square against its input
SPECTRUM_SUM_ATOL = 1e-12  # analysis.LambdaSpectrum: the eigenvalues' sum against 1
PIVOT_ZERO = 1e-14  # circuits.equivalence_up_to_global_phase: |tr(v+ u)| below reads as no phase
ZYZ_ZERO = 1e-12  # circuits.zyz_angles: an entry below carries no phase
QASM_PHASE_ZERO = 1e-15  # circuits.controlled_u_qasm_lines: a global phase below emits no u1


def encoding_two_qubit_gates(n: int) -> int:
    return 4 * n


def decoding_two_qubit_gates(n: int) -> int:
    return 15 * n + 7


def cycle_two_qubit_budget(n: int) -> int:
    """Most two-qubit gates one full encode/decode cycle may take."""
    return 21 * n + 11


@dataclass(frozen=True)
class Claim:
    """How the checks of one name are judged; ``expected`` gives a count's closed form."""

    detail: str
    compare: str
    threshold: float | None = None
    expected: Callable[[int], int] | None = None


_ALIGNED = "max entry deviation after global-phase alignment"
_ONE_MINUS_F = "1 - fidelity"

# Keys are check names; the variants checks carry their parameters in the
# name, so their keys are fnmatch patterns.
CLAIMS: dict[str, Claim] = {
    # demo
    "recovery-fidelity": Claim(
        "1 - min decryption fidelity over the requested targets", "fidelity", RECOVERY_ATOL
    ),
    "key-consumption-input-independent": Claim(
        "residual trace distance between psi and an orthogonal input", "<", RECOVERY_ATOL
    ),
    "encryption-marginals-maximally-mixed": Claim(
        "max entry deviation of every clone marginal from I/2", "<", ENCRYPTION_ATOL
    ),
    # compile
    "encoding-two-qubit-count": Claim("expected 4n = {}", "==", None, encoding_two_qubit_gates),
    "encoding-circuit-equivalence": Claim(_ALIGNED, "<", CIRCUIT_EQUIV_ATOL),
    "decoding-two-qubit-count": Claim("expected 15n+7 = {}", "==", None, decoding_two_qubit_gates),
    "decoding-circuit-equivalence": Claim(_ALIGNED, "<", CIRCUIT_EQUIV_ATOL),
    # audit
    "signal-marginals-maximally-mixed": Claim(
        "max entrywise deviation of any single clone marginal from I/2", "<", ENCRYPTION_ATOL
    ),
    "data-marginal-maximally-mixed": Claim(
        "max entrywise deviation of the post-encoding data qubit from I/2", "<", ENCRYPTION_ATOL
    ),
    "unauthorized-sets-input-independent": Claim(
        "upper bound on the trace distance between any two inputs, over all unauthorized sets",
        "<",
        ENCRYPTION_ATOL,
    ),
    "noise-register-untouched": Claim(
        "the encoder never acts on noise qubits; their state stays (I/2)^n", "<", NOISE_EXACT_ATOL
    ),
    "single-pair-clone-leaks-input": Claim(
        "n=1 is recoverable but not fully encrypted; the clone marginal must"
        " visibly depend on the input",
        ">",
        ENCRYPTION_ATOL,
    ),
    # iterate
    "clone-count": Claim("expected 3^k = {}", "==", None, lambda k: 3**k),
    "noise-count": Claim("expected 3^k - 1 = {}", "==", None, lambda k: 3**k - 1),
    "key-size": Claim(
        "every clone's key is the 2k noise qubits of its ancestry", "==", None, lambda k: 2 * k
    ),
    "ancestry-key-recovery": Claim(
        "1 - min decryption fidelity over all clones", "fidelity", ITERATED_ATOL
    ),
    "wrong-key-output-input-independent": Claim(
        "trace distance of the wrong-key output between orthogonal inputs", "<", ITERATED_ATOL
    ),
    # variants
    "substitution-n*-lost-*": Claim(_ONE_MINUS_F, "fidelity", RECOVERY_ATOL),
    "data-side-decrypt-n*": Claim(_ONE_MINUS_F, "fidelity", RECOVERY_ATOL),
    "data-side-decrypt-odd-n-rejected": Claim(
        "n=3 must be refused: the transposed string flips a sign", "holds"
    ),
    "reverse-encoding-n*": Claim(_ONE_MINUS_F, "fidelity", RECOVERY_ATOL),
    "rotated-variant-n*": Claim(_ONE_MINUS_F, "fidelity", RECOVERY_ATOL),
    "iterated-k1-all-clones": Claim(_ONE_MINUS_F, "fidelity", ITERATED_ATOL),
}


@dataclass(frozen=True)
class Check:
    """One verdict of a report: what was measured against which threshold."""

    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None
    detail: str = ""


def claim(name: str) -> Claim:
    """The registry entry a check name falls under."""
    for pattern, entry in CLAIMS.items():
        if fnmatchcase(name, pattern):
            return entry
    raise KeyError(f"no claim is registered for check {name!r}")


def check(name: str, measured, size: int | None = None) -> Check:
    """Judge a measured value by its claim; ``size`` is the n or k of a count."""
    entry = claim(name)
    value, detail = measured, entry.detail
    if entry.compare == "<":
        passed = measured < entry.threshold
    elif entry.compare == ">":
        passed = measured > entry.threshold
    elif entry.compare == "fidelity":
        passed = measured >= 1 - entry.threshold
        value = 1 - measured
    elif entry.compare == "==":
        expected = entry.expected(size)
        passed = measured == expected
        detail = detail.format(expected)
    else:  # "holds": the measurement is the verdict
        passed, value = measured, None
    value = None if value is None else float(value)
    return Check(name, bool(passed), value, entry.threshold, detail)
