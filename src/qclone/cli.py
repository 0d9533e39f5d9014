"""Command-line front end: demos, sweeps, audits, compilation reports.

Every command is deterministic under a fixed seed, prints floats with 12
significant digits, writes artifacts atomically (temp file + rename), and
exits 0 exactly when all of its embedded checks pass: 1 when one fails, 2 on
refused input, any ``QcloneError`` or ``OSError`` (one ``error:`` line), and
3 on any other exception (one ``internal error:`` line, no traceback).  An
over-cap register or dense matrix is refused before it is allocated.  Each JSON
report is checked against ``qclone/data/report.schema.json`` before it is
written, by a checker of just the keywords that schema uses (no run imports
jsonschema); a report that breaks the schema is an internal error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import fields
from importlib import resources

import numpy as np

from .analysis import (
    AnalysisError,
    default_time_grid,
    encryption_audit,
    rows_to_csv,
    sweep_coherent_information,
)
from .circuits import circuit_to_unitary, equivalence_up_to_global_phase, export_circuit
from .claims import (
    Check,
    check,
    cycle_two_qubit_budget,
    decoding_two_qubit_gates,
    encoding_two_qubit_gates,
)
from .compiler import compile_decoding, compile_encoding
from .protocol import (
    PAULI_EIGENSTATE_AMPLITUDES,
    AlphaCoefficients,
    OddCloneCountError,
    ProtocolConfig,
    Variant,
    decoding_unitary,
    decrypt,
    decrypt_clones_from_input,
    decrypt_from_A,
    decrypt_with_substitution,
    encode,
    encoding_unitary,
    named_state,
    plan_iterated_cloning,
    prepare_initial,
    reverse_encoding_recovery,
)
from .registers import QcloneError, max_register_qubits, set_max_register_qubits
from .states import (
    StateVector,
    deviation_from_mixed,
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


class CliInputError(QcloneError):
    """Malformed command-line input (bad psi spec, bad paths, ...)."""


# ---------------------------------------------------------------------------
# report plumbing


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _canonical(obj):
    """Round floats to 12 significant digits, recursively; complex -> [re, im].

    A check drops its empty fields: a count has no threshold, a verdict no value.
    """
    if isinstance(obj, Check):
        obj = {f.name: v for f in fields(obj) if (v := getattr(obj, f.name)) is not None and v != ""}
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


@functools.cache
def report_schema() -> dict:
    text = resources.files("qclone").joinpath("data/report.schema.json").read_text()
    return json.loads(text)


# "boolean" before "number", so a bool is no number.
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float), "null": type(None)}
_SCHEMA_KEYWORDS = {"$schema", "title", "type", "enum", "required", "properties",
                    "additionalProperties", "items"}


def _schema_error(value, schema: dict, at: str = "report") -> str | None:
    """The first place where ``value`` breaks ``schema``, or None.  A keyword, type
    or form that the report schema does not use raises before the value is read."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if (schema.keys() - _SCHEMA_KEYWORDS or set(types) - _JSON_TYPES.keys() or isinstance(
            schema.get("items"), list) or schema.get("additionalProperties", False) is not False):
        raise ValueError(f"the schema at {at} uses what its checker does not implement")
    kind = next((name for name, cls in _JSON_TYPES.items() if isinstance(value, cls)), None)
    if types and kind not in types:
        return f"{at}: {value!r} is not of type {' or '.join(types)}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{at}: {value!r} is not one of {schema['enum']}"
    children = []
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        missing = [k for k in schema.get("required", []) if k not in value]
        extra = [k for k in value if k not in properties] if "additionalProperties" in schema else []
        if missing:
            return f"{at}: required property {missing[0]!r} is missing"
        if extra:
            return f"{at}: property {extra[0]!r} is not allowed"
        children = [(v, properties[k], f"{at}.{k}") for k, v in value.items() if k in properties]
    elif isinstance(value, list) and "items" in schema:
        children = [(v, schema["items"], f"{at}[{i}]") for i, v in enumerate(value)]
    return next(filter(None, (_schema_error(*child) for child in children)), None)


def render_report(report: dict) -> str:
    data = _canonical(report)
    error = _schema_error(data, report_schema())
    if error:
        raise ValueError(f"report breaks its schema: {error}")
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _existing_dir(directory: str) -> str:
    """Refuse an output directory that does not exist, before a run and at each write."""
    if not os.path.isdir(directory):
        raise CliInputError(f"output directory {directory} does not exist")
    return directory


def atomic_write(path: str, text: str) -> None:
    directory = _existing_dir(os.path.dirname(os.path.abspath(path)))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qclone-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(text: str, out: str | None) -> None:
    """Write a command's output to ``out`` atomically, or to stdout."""
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _finish(report: dict, out: str | None) -> int:
    """Judge, render and write a report: exit 0 exactly when every check passed."""
    report["passed"] = all(c.passed for c in report["checks"])
    _write(render_report(report), out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


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


# ---------------------------------------------------------------------------
# commands


def cmd_demo(args) -> int:
    config = ProtocolConfig(n=args.n, t=args.t, variant=_VARIANTS[args.variant])
    psi, psi_desc = parse_psi(args.psi, args.seed)
    if args.target is not None and not 1 <= args.target <= config.n:
        raise CliInputError(f"target {args.target} outside 1..{config.n}")
    AlphaCoefficients.for_angle(config.n, config.t, config.variant)  # refuses a t before encoding
    layout = config.layout()
    state = encode(prepare_initial(config, psi), config)

    marginal_devs = {
        f"S{i}": deviation_from_mixed(partial_trace(state, [layout.signal(i)]))
        for i in range(1, config.n + 1)
    }
    data_dev = deviation_from_mixed(partial_trace(state, [layout.data]))

    targets = [args.target] if args.target else list(range(1, config.n + 1))

    decryptions, flags, first = [], [], None  # first: the one register read again, below
    for i in targets:
        out = decrypt(state, config, target=i, reference=psi)
        decryptions.append({"target": i, "fidelity": out.fidelity,
                            "recovered_purity": purity(out.recovered)})
        first = first or out
        del out  # so the next decrypt runs beside no register but the first
    del state  # nothing reads it again; the orthogonal input is encoded beside `first` only
    min_fidelity = min([1.0, *(d["fidelity"] for d in decryptions)])

    # Key consumption: what is left besides the decrypted clone must not
    # depend on the input.
    state_b = encode(prepare_initial(config, orthogonal_state(psi)), config)
    post_b = decrypt(state_b, config, target=targets[0]).post_state
    key_consumption = reduced_trace_distance(
        first.post_state, post_b, [first.carrier]
    )

    checks = [
        check("recovery-fidelity", min_fidelity),
        check("key-consumption-input-independent", key_consumption),
    ]
    if config.n >= 2:
        worst = max([data_dev, *marginal_devs.values()])
        checks.append(check("encryption-marginals-maximally-mixed", worst))
    else:
        flags = [  # sorted
            "n=1: the clone is recoverable but was never fully encrypted",
            "not fully encrypted: with a single pair the clone leaks one"
            " Bloch component before decryption",
        ]

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
        "flags": flags,
        "checks": checks,
    }
    return _finish(report, args.out)


def cmd_sweep(args) -> int:
    grid = default_time_grid(args.points, args.tmax)
    try:
        rows = sweep_coherent_information(grid, args.n)
    except AnalysisError as exc:
        print(f"sweep check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _write(rows_to_csv(rows), args.out)
    return EXIT_OK


def _compiled(what: str, n: int, t: float, variant: Variant):
    """Yield (kind, circuit, dense oracle) for each requested direction.

    Each circuit is compiled only when its turn comes, so the encoder file is
    written before a decoder that cannot be compiled stops the run.
    """
    if what in ("enc", "both"):
        circuit = compile_encoding(n, t, variant)
        yield "encoding", circuit, lambda: encoding_unitary(n, t, variant)
    if what in ("dec", "both"):
        alphas = AlphaCoefficients.for_angle(n, t, variant)
        circuit = compile_decoding(n, alphas)
        yield "decoding", circuit, lambda: decoding_unitary(n, alphas)


def cmd_compile(args) -> int:
    variant = _VARIANTS[args.variant]
    # The same checks of n and t as every protocol command.
    ProtocolConfig(n=args.n, t=args.t, variant=variant)
    fmt = args.format.upper()
    ext = {"TEXT": "txt", "OPENQASM2": "qasm"}[fmt]
    outdir = args.out or "."
    checks: list[Check] = []
    files: list[str] = []
    report: dict = {
        "command": "compile",
        "n": args.n,
        "t": args.t,
        "variant": variant.value,
        "format": fmt,
        "what": args.what,
    }

    for kind, circuit, oracle in _compiled(args.what, args.n, args.t, variant):
        res = equivalence_up_to_global_phase(circuit_to_unitary(circuit), oracle())
        checks.append(check(f"{kind}-two-qubit-count", circuit.two_qubit_count, args.n))
        checks.append(check(f"{kind}-circuit-equivalence", res.max_entry_deviation))
        path = os.path.join(outdir, f"{kind}_n{args.n}.{ext}")
        atomic_write(path, export_circuit(circuit, fmt))
        files.append(path)
        report[f"{kind[:3]}_2q"] = circuit.two_qubit_count
        if kind == "encoding":
            report["enc_1q"] = circuit.one_qubit_count

    if args.what == "both":
        n, enc, dec = args.n, report["enc_2q"], report["dec_2q"]
        report["counts"] = {
            "n": n,
            "enc_2q": enc,
            "dec_2q": dec,
            "total_2q": cycle_two_qubit_budget(n),
            "measured_total": enc + dec,
            "enc_formula_4n": encoding_two_qubit_gates(n),
            "dec_formula_15n_plus_7": decoding_two_qubit_gates(n),
            "within_budget": enc + dec <= cycle_two_qubit_budget(n),
        }

    report["files"] = files
    report["checks"] = checks
    return _finish(report, None)


def cmd_audit(args) -> int:
    return _finish({"command": "audit", **encryption_audit(args.n)}, args.out)


def cmd_iterate(args) -> int:
    psi, psi_desc = parse_psi(args.psi, args.seed)
    plan = plan_iterated_cloning(args.k)
    clones = []
    min_fidelity = 1.0
    for q, out in zip(plan.clones, decrypt_clones_from_input(plan, psi, plan.clones, psi)):
        key = list(plan.key_qubits(q))
        clones.append({"clone": q, "fidelity": out.fidelity, "key_qubits": key})
        min_fidelity = min(min_fidelity, out.fidelity)
    # The key size furthest from 2k: one wrong key fails the check.
    key_size = max((len(c["key_qubits"]) for c in clones), key=lambda s: abs(s - 2 * args.k))

    # Hand the last decoding level a Bell pair that is not in the ancestry:
    # whatever comes out must carry no trace of the input.
    probes = [
        decrypt_clones_from_input(plan, named_state(x), plan.clones[:1], fresh_key_level=args.k)
        for x in ("0", "1")
    ]
    wrong_key_distance = trace_distance(*(out.recovered for (out,) in probes))

    checks = [
        check("clone-count", len(plan.clones), args.k),
        check("noise-count", (plan.num_qubits - 1) // 2, args.k),
        check("key-size", key_size, args.k),
        check("ancestry-key-recovery", min_fidelity),
        check("wrong-key-output-input-independent", wrong_key_distance),
    ]
    report = {
        "command": "iterate",
        "k": args.k,
        "psi": _psi_field(psi, psi_desc),
        "total_qubits": plan.num_qubits,
        "clones": clones,
        "wrong_key_trace_distance": wrong_key_distance,
        "checks": checks,
    }
    return _finish(report, args.out)


def cmd_variants(args) -> int:
    psi, psi_desc = parse_psi(None, args.seed)
    checks: list[Check] = []

    for n, lost in ((2, (2,)), (3, (2, 3))):
        config = ProtocolConfig(n=n)
        state = encode(prepare_initial(config, psi), config)
        out = decrypt_with_substitution(state, config, lost, target=1, reference=psi)
        lost_label = "".join(f"N{j}" for j in lost)
        checks.append(check(f"substitution-n{n}-lost-{lost_label}", out.fidelity))

    for n in (2, 4):
        config = ProtocolConfig(n=n)
        state = encode(prepare_initial(config, psi), config)
        out = decrypt_from_A(state, config, reference=psi)
        checks.append(check(f"data-side-decrypt-n{n}", out.fidelity))

    config3 = ProtocolConfig(n=3)
    state3 = encode(prepare_initial(config3, psi), config3)
    try:
        decrypt_from_A(state3, config3)
        rejected = False
    except OddCloneCountError:
        rejected = True
    checks.append(check("data-side-decrypt-odd-n-rejected", rejected))

    for n in (1, 2, 3):
        config = ProtocolConfig(n=n, t=0.6)  # any angle: plain un-encoding
        state = encode(prepare_initial(config, psi), config)
        out = reverse_encoding_recovery(state, config, reference=psi)
        checks.append(check(f"reverse-encoding-n{n}", out.fidelity))

    for n in (2, 3):
        config = ProtocolConfig(n=n, variant=Variant.ROTATED_X2)
        state = encode(prepare_initial(config, psi), config)
        out = decrypt(state, config, target=1, reference=psi)
        checks.append(check(f"rotated-variant-n{n}", out.fidelity))

    plan = plan_iterated_cloning(1)
    worst = min(out.fidelity for out in decrypt_clones_from_input(plan, psi, plan.clones, psi))
    checks.append(check("iterated-k1-all-clones", worst))

    report = {
        "command": "variants",
        "seed": args.seed,
        "psi": _psi_field(psi, psi_desc),
        "checks": checks,
    }
    return _finish(report, args.out)


# ---------------------------------------------------------------------------
# parser / entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every ``main`` call of the process; ``main`` runs ``cmd_<command>``."""
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

    p = sub.add_parser("sweep", help="coherent-information curve as CSV")
    p.add_argument("--n", type=int, default=1, help="number of clones")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--tmax", type=float, default=math.pi)
    p.add_argument("--out", default=None, help="write the CSV here (default stdout)")

    p = sub.add_parser("compile", help="gate circuits, counts, equivalence checks")
    p.add_argument("--n", type=int, default=2, help="number of clones")
    p.add_argument("--t", type=float, default=math.pi / 4)
    p.add_argument("--what", choices=["enc", "dec", "both"], default="both")
    p.add_argument("--format", choices=["text", "openqasm2"], default="text")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="standard")
    p.add_argument("--out", default=None, help="directory for circuit files (default .)")

    p = sub.add_parser("audit", help="perfect-encryption audit over probe states")
    p.add_argument("--n", type=int, default=2, help="number of clones")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("iterate", help="tree of encodings: 3^k clones, 2k-qubit keys")
    p.add_argument("--k", type=int, default=1, help="tree depth")
    p.add_argument("--psi", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("variants", help="substitution/data-side/reverse/rotated demos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")

    return parser


def main(argv=None) -> int:
    """Run one command; ``QCLONE_MAX_QUBITS`` caps the registers of this run only."""
    cap_on_entry = max_register_qubits()
    try:
        cap = os.environ.get("QCLONE_MAX_QUBITS")
        if cap is not None:
            try:
                set_max_register_qubits(int(cap))
            except ValueError as exc:
                print(f"error: bad QCLONE_MAX_QUBITS: {exc}", file=sys.stderr)
                return EXIT_INPUT_ERROR
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise CliInputError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.out:  # compile's --out names the directory itself, every other command's a file
            out = os.path.abspath(args.out)
            _existing_dir(out if args.command == "compile" else os.path.dirname(out))
        return globals()[f"cmd_{args.command}"](args)  # looked up now, so it can be patched
    except (QcloneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    finally:
        set_max_register_qubits(cap_on_entry)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
