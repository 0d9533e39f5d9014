"""Command-line front end: demos, sweeps, audits, compilation reports.

Every command is deterministic under a fixed seed, prints floats with 12
significant digits, writes artifacts atomically (temp file + rename), and
exits 0 exactly when all of its embedded checks pass: 1 when one fails, 2 on
bad input (one ``error:`` line) and 3 on any other exception (one
``internal error:`` line, no traceback).  JSON reports validate against the
schema shipped in ``qclone/data/report.schema.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from importlib import resources

import jsonschema
import numpy as np

from .analysis import (
    ENCRYPTION_ATOL,
    AnalysisError,
    default_time_grid,
    encryption_audit,
    rows_to_csv,
    sweep_coherent_information,
)
from .circuits import (
    CIRCUIT_EQUIV_ATOL,
    CircuitError,
    circuit_to_unitary,
    equivalence_up_to_global_phase,
    export_circuit,
)
from .compiler import (
    CompileError,
    compile_decoding,
    compile_encoding,
    gate_count_report,
)
from .paulis import PauliError
from .protocol import (
    PAULI_EIGENSTATE_AMPLITUDES,
    AlphaCoefficients,
    OddCloneCountError,
    ProtocolConfig,
    ProtocolError,
    Variant,
    append_fresh_pair,
    decoding_unitary,
    decrypt,
    decrypt_clone,
    decrypt_from_A,
    decrypt_with_substitution,
    encode,
    encoding_unitary,
    execute_iterated_cloning,
    named_state,
    plan_iterated_cloning,
    prepare_initial,
    reverse_encoding_recovery,
)
from .registers import RegisterError, set_max_register_qubits
from .states import (
    StateValidationError,
    StateVector,
    haar_random_qubit,
    partial_trace,
    purity,
    reduced_trace_distance,
    single_qubit,
    trace_distance,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

RECOVERY_ATOL = 1e-10
ITERATED_ATOL = 1e-9


class CliInputError(ValueError):
    """Malformed command-line input (bad psi spec, bad paths, ...)."""


# ---------------------------------------------------------------------------
# report plumbing


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _canonical(obj):
    """Round floats to 12 significant digits, recursively; complex -> [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round12(obj.real), _round12(obj.imag)]
    return obj


_SCHEMA_CACHE: dict | None = None


def report_schema() -> dict:
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        text = (
            resources.files("qclone").joinpath("data/report.schema.json").read_text()
        )
        _SCHEMA_CACHE = json.loads(text)
    return _SCHEMA_CACHE


def render_report(report: dict) -> str:
    data = _canonical(report)
    jsonschema.validate(data, report_schema())
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(directory):
        raise CliInputError(f"output directory {directory} does not exist")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qclone-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(report: dict, out: str | None) -> None:
    text = render_report(report)
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _check(name: str, passed, value=None, threshold=None, detail: str = "") -> dict:
    entry: dict = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = float(value)
    if threshold is not None:
        entry["threshold"] = float(threshold)
    if detail:
        entry["detail"] = detail
    return entry


# ---------------------------------------------------------------------------
# input parsing


def parse_psi(spec: str | None, seed: int) -> tuple[StateVector, str]:
    """Input-state spec: a named state, explicit amplitudes, or Haar via seed.

    Amplitudes come as ``re0,im0,re1,im1`` or, for real states, ``a0,a1``.
    """
    if spec is None:
        return haar_random_qubit(np.random.default_rng(seed)), f"haar(seed={seed})"
    if spec in PAULI_EIGENSTATE_AMPLITUDES:
        return named_state(spec), spec
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise CliInputError(
            f"psi spec {spec!r} is neither a named state"
            f" {sorted(PAULI_EIGENSTATE_AMPLITUDES)} nor a list of floats"
        ) from None
    if len(vals) == 2:
        a, b = complex(vals[0]), complex(vals[1])
    elif len(vals) == 4:
        a, b = complex(vals[0], vals[1]), complex(vals[2], vals[3])
    else:
        raise CliInputError(
            f"psi spec {spec!r} must have 2 (real) or 4 (re,im pairs) numbers"
        )
    return single_qubit(a, b), "amplitudes"


def orthogonal_state(psi: StateVector) -> StateVector:
    a, b = psi.amplitudes
    return single_qubit(-np.conj(b), np.conj(a))


_VARIANTS = {
    "standard": Variant.STANDARD,
    "rotated": Variant.ROTATED_X2,
    "rotated_x2": Variant.ROTATED_X2,
}


def _psi_field(psi: StateVector, desc: str) -> dict:
    return {
        "description": desc,
        "amplitudes": [complex(a) for a in psi.amplitudes],
    }


def _dev_from_mixed(rho) -> float:
    return float(np.max(np.abs(rho.matrix - np.eye(2) / 2.0)))


# ---------------------------------------------------------------------------
# commands


def cmd_demo(args) -> int:
    config = ProtocolConfig(n=args.n, t=args.t, variant=_VARIANTS[args.variant])
    psi, psi_desc = parse_psi(args.psi, args.seed)
    layout = config.layout()
    state = encode(prepare_initial(config, psi), config)

    marginal_devs = {
        f"S{i}": _dev_from_mixed(partial_trace(state, [layout.signal(i)]))
        for i in range(1, config.n + 1)
    }
    data_dev = _dev_from_mixed(partial_trace(state, [layout.data]))

    if args.target is not None and not 1 <= args.target <= config.n:
        raise CliInputError(f"target {args.target} outside 1..{config.n}")
    targets = [args.target] if args.target else list(range(1, config.n + 1))

    decryptions = []
    flags: set[str] = set()
    min_fidelity = 1.0
    outcomes = [decrypt(state, config, target=i, reference=psi) for i in targets]
    for i, out in zip(targets, outcomes):
        decryptions.append(
            {
                "target": i,
                "fidelity": out.fidelity,
                "recovered_purity": purity(out.recovered),
            }
        )
        flags.update(out.warnings)
        min_fidelity = min(min_fidelity, out.fidelity)

    # Key consumption: what is left besides the decrypted clone must not
    # depend on the input.
    first = outcomes[0]
    state_b = encode(prepare_initial(config, orthogonal_state(psi)), config)
    post_b = decrypt(state_b, config, target=targets[0]).post_state
    key_consumption = reduced_trace_distance(
        first.post_state, post_b, [first.carrier]
    )

    checks = [
        _check(
            "recovery-fidelity",
            min_fidelity >= 1 - RECOVERY_ATOL,
            1 - min_fidelity,
            RECOVERY_ATOL,
            "1 - min decryption fidelity over the requested targets",
        ),
        _check(
            "key-consumption-input-independent",
            key_consumption < RECOVERY_ATOL,
            key_consumption,
            RECOVERY_ATOL,
            "residual trace distance between psi and an orthogonal input",
        ),
    ]
    if config.n >= 2:
        worst = max([data_dev, *marginal_devs.values()])
        checks.append(
            _check(
                "encryption-marginals-maximally-mixed",
                worst < ENCRYPTION_ATOL,
                worst,
                ENCRYPTION_ATOL,
                "max entry deviation of every clone marginal from I/2",
            )
        )
    else:
        flags.add(
            "not fully encrypted: with a single pair the clone leaks one"
            " Bloch component before decryption"
        )

    report = {
        "command": "demo",
        "n": config.n,
        "t": config.t,
        "variant": config.variant.value,
        "psi": _psi_field(psi, psi_desc),
        "signal_marginal_deviations": marginal_devs,
        "data_marginal_deviation": data_dev,
        "decryptions": decryptions,
        "key_consumption_trace_distance": key_consumption,
        "flags": sorted(flags),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    _emit_report(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    grid = default_time_grid(args.points, args.tmax)
    try:
        rows = sweep_coherent_information(grid, args.n)
    except AnalysisError as exc:
        print(f"sweep check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    text = rows_to_csv(rows)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_compile(args) -> int:
    variant = _VARIANTS[args.variant]
    # The same checks of n and t as every protocol command.
    ProtocolConfig(n=args.n, t=args.t, variant=variant)
    fmt = args.format.upper()
    ext = {"TEXT": "txt", "OPENQASM2": "qasm"}[fmt]
    outdir = args.out or "."
    checks: list[dict] = []
    files: list[str] = []
    report: dict = {
        "command": "compile",
        "n": args.n,
        "t": args.t,
        "variant": variant.value,
        "format": fmt,
        "what": args.what,
    }

    if args.what in ("enc", "both"):
        circuit = compile_encoding(args.n, args.t, variant)
        res = equivalence_up_to_global_phase(
            circuit_to_unitary(circuit), encoding_unitary(args.n, args.t, variant)
        )
        checks.append(
            _check(
                "encoding-two-qubit-count",
                circuit.two_qubit_count == 4 * args.n,
                circuit.two_qubit_count,
                detail=f"expected 4n = {4 * args.n}",
            )
        )
        checks.append(
            _check(
                "encoding-circuit-equivalence",
                res.equivalent,
                res.max_entry_deviation,
                CIRCUIT_EQUIV_ATOL,
                "max entry deviation after global-phase alignment",
            )
        )
        path = os.path.join(outdir, f"encoding_n{args.n}.{ext}")
        atomic_write(path, export_circuit(circuit, fmt))
        files.append(path)
        report["enc_2q"] = circuit.two_qubit_count
        report["enc_1q"] = circuit.one_qubit_count

    if args.what in ("dec", "both"):
        alphas = AlphaCoefficients.for_angle(args.n, args.t, variant)
        circuit = compile_decoding(args.n, alphas)
        res = equivalence_up_to_global_phase(
            circuit_to_unitary(circuit), decoding_unitary(args.n, alphas)
        )
        checks.append(
            _check(
                "decoding-two-qubit-count",
                circuit.two_qubit_count == 15 * args.n + 7,
                circuit.two_qubit_count,
                detail=f"expected 15n+7 = {15 * args.n + 7}",
            )
        )
        checks.append(
            _check(
                "decoding-circuit-equivalence",
                res.equivalent,
                res.max_entry_deviation,
                CIRCUIT_EQUIV_ATOL,
                "max entry deviation after global-phase alignment",
            )
        )
        path = os.path.join(outdir, f"decoding_n{args.n}.{ext}")
        atomic_write(path, export_circuit(circuit, fmt))
        files.append(path)
        report["dec_2q"] = circuit.two_qubit_count

    if args.what == "both" and args.n >= 2:
        report["counts"] = gate_count_report(args.n).to_dict()

    report["files"] = files
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    _emit_report(report, None)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_audit(args) -> int:
    audit = encryption_audit(args.n)
    checks = [
        _check(c.name, c.passed, c.value, c.threshold, c.detail)
        for c in audit.claims
    ]
    report = {
        "command": "audit",
        "n": audit.n,
        "marginal_deviations": audit.marginal_deviations,
        "independence_distances": audit.independence_distances,
        "checks": checks,
        "passed": audit.passed,
    }
    _emit_report(report, args.out)
    return EXIT_OK if audit.passed else EXIT_CHECK_FAILED


def cmd_iterate(args) -> int:
    psi, psi_desc = parse_psi(args.psi, args.seed)
    plan = plan_iterated_cloning(args.k)
    state = execute_iterated_cloning(plan, psi)

    clones = []
    min_fidelity = 1.0
    key_sizes_ok = True
    for q in plan.clones:
        out = decrypt_clone(plan, state, q, reference=psi)
        key = plan.key_qubits(q)
        key_sizes_ok = key_sizes_ok and len(key) == 2 * args.k
        clones.append({"clone": q, "fidelity": out.fidelity, "key_qubits": list(key)})
        min_fidelity = min(min_fidelity, out.fidelity)

    # Hand the last decoding level a Bell pair that is not in the ancestry:
    # whatever comes out must carry no trace of the input.
    probe_marginals = []
    probe_clone = plan.clones[0]
    for name in ("0", "1"):
        probe_state = execute_iterated_cloning(plan, named_state(name))
        enlarged, fresh_pair = append_fresh_pair(probe_state)
        out = decrypt_clone(
            plan, enlarged, probe_clone, key_override={plan.depth: fresh_pair}
        )
        probe_marginals.append(out.recovered)
    wrong_key_distance = trace_distance(*probe_marginals)

    num_clones = len(plan.clones)
    num_noise = (plan.num_qubits - 1) // 2
    checks = [
        _check(
            "clone-count",
            num_clones == 3**args.k,
            num_clones,
            detail=f"expected 3^k = {3 ** args.k}",
        ),
        _check(
            "noise-count",
            num_noise == 3**args.k - 1,
            num_noise,
            detail=f"expected 3^k - 1 = {3 ** args.k - 1}",
        ),
        _check(
            "key-size",
            key_sizes_ok,
            2 * args.k,
            detail="every clone's key is the 2k noise qubits of its ancestry",
        ),
        _check(
            "ancestry-key-recovery",
            min_fidelity >= 1 - ITERATED_ATOL,
            1 - min_fidelity,
            ITERATED_ATOL,
            "1 - min decryption fidelity over all clones",
        ),
        _check(
            "wrong-key-output-input-independent",
            wrong_key_distance < ITERATED_ATOL,
            wrong_key_distance,
            ITERATED_ATOL,
            "trace distance of the wrong-key output between orthogonal inputs",
        ),
    ]
    report = {
        "command": "iterate",
        "k": args.k,
        "psi": _psi_field(psi, psi_desc),
        "total_qubits": plan.num_qubits,
        "clones": clones,
        "wrong_key_trace_distance": wrong_key_distance,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    _emit_report(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_variants(args) -> int:
    psi, psi_desc = parse_psi(None, args.seed)
    checks: list[dict] = []

    def fidelity_check(name: str, fidelity: float, atol: float = RECOVERY_ATOL):
        checks.append(_check(name, fidelity >= 1 - atol, 1 - fidelity, atol, "1 - fidelity"))

    for n, lost in ((2, (2,)), (3, (2, 3))):
        config = ProtocolConfig(n=n)
        state = encode(prepare_initial(config, psi), config)
        out = decrypt_with_substitution(state, config, lost, target=1, reference=psi)
        lost_label = "".join(f"N{j}" for j in lost)
        fidelity_check(f"substitution-n{n}-lost-{lost_label}", out.fidelity)

    for n in (2, 4):
        config = ProtocolConfig(n=n)
        state = encode(prepare_initial(config, psi), config)
        out = decrypt_from_A(state, config, reference=psi)
        fidelity_check(f"data-side-decrypt-n{n}", out.fidelity)

    config3 = ProtocolConfig(n=3)
    state3 = encode(prepare_initial(config3, psi), config3)
    try:
        decrypt_from_A(state3, config3)
        rejected = False
    except OddCloneCountError:
        rejected = True
    checks.append(
        _check(
            "data-side-decrypt-odd-n-rejected",
            rejected,
            detail="n=3 must be refused: the transposed string flips a sign",
        )
    )

    for n in (1, 2, 3):
        config = ProtocolConfig(n=n, t=0.6)  # any angle: plain un-encoding
        state = encode(prepare_initial(config, psi), config)
        out = reverse_encoding_recovery(state, config, reference=psi)
        fidelity_check(f"reverse-encoding-n{n}", out.fidelity)

    for n in (2, 3):
        config = ProtocolConfig(n=n, variant=Variant.ROTATED_X2)
        state = encode(prepare_initial(config, psi), config)
        out = decrypt(state, config, target=1, reference=psi)
        fidelity_check(f"rotated-variant-n{n}", out.fidelity)

    plan = plan_iterated_cloning(1)
    state = execute_iterated_cloning(plan, psi)
    worst = min(
        decrypt_clone(plan, state, q, reference=psi).fidelity for q in plan.clones
    )
    fidelity_check("iterated-k1-all-clones", worst, ITERATED_ATOL)

    report = {
        "command": "variants",
        "seed": args.seed,
        "psi": _psi_field(psi, psi_desc),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    _emit_report(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclone",
        description=(
            "Simulate the encrypted-cloning protocol: one unitary spreads an"
            " unknown qubit over n maximally mixed clones, and entangled noise"
            " qubits act as a one-time key that decrypts exactly one of them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="encode, audit marginals, decrypt every target")
    p.add_argument("--n", type=int, default=2, help="number of clones")
    p.add_argument("--t", type=float, default=math.pi / 4, help="coupling angle")
    p.add_argument("--psi", default=None, help="input state spec (default: Haar via seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=int, default=None, help="decrypt only this clone")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="standard")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("sweep", help="coherent-information curve as CSV")
    p.add_argument("--n", type=int, default=1, help="number of clones")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--tmax", type=float, default=math.pi)
    p.add_argument("--out", default=None, help="write the CSV here (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compile", help="gate circuits, counts, equivalence checks")
    p.add_argument("--n", type=int, default=2, help="number of clones")
    p.add_argument("--t", type=float, default=math.pi / 4)
    p.add_argument("--what", choices=["enc", "dec", "both"], default="both")
    p.add_argument("--format", choices=["text", "openqasm2"], default="text")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="standard")
    p.add_argument("--out", default=None, help="directory for circuit files (default .)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("audit", help="perfect-encryption audit over probe states")
    p.add_argument("--n", type=int, default=2, help="number of clones")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("iterate", help="tree of encodings: 3^k clones, 2k-qubit keys")
    p.add_argument("--k", type=int, default=1, help="tree depth")
    p.add_argument("--psi", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("variants", help="substitution/data-side/reverse/rotated demos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_variants)

    return parser


def main(argv=None) -> int:
    cap = os.environ.get("QCLONE_MAX_QUBITS")
    if cap is not None:
        try:
            set_max_register_qubits(int(cap))
        except (ValueError, RegisterError) as exc:
            print(f"error: bad QCLONE_MAX_QUBITS: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliInputError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (
        CliInputError,
        ProtocolError,
        CompileError,
        CircuitError,
        AnalysisError,
        StateValidationError,
        RegisterError,
        PauliError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
