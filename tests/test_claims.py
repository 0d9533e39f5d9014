"""The claim registry: every report check is judged and described by it."""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

import qclone
from qclone.claims import CLAIMS, check, claim
from qclone.cli import main, render_report

REPORT_ARGVS = [
    ("demo", "--n", "1", "--psi=+"),
    ("demo", "--n", "2", "--seed", "3"),
    ("demo", "--n", "3", "--psi=-i", "--variant", "rotated"),
    ("compile", "--n", "2", "--what", "both"),
    ("compile", "--n", "3", "--what", "dec", "--variant", "rotated"),
    ("audit", "--n", "1"),
    ("audit", "--n", "2"),
    ("iterate", "--k", "1", "--psi=1"),
    ("variants", "--seed", "2"),
]


def _pattern(name: str) -> str:
    return next(p for p in CLAIMS if CLAIMS[p] is claim(name))


def _reports(capsys, tmp_path):
    for argv in REPORT_ARGVS:
        out = ["--out", str(tmp_path)] if argv[0] == "compile" else []
        code = main([*argv, *out])
        report = json.loads(capsys.readouterr().out)
        assert code == (0 if report["passed"] else 1)
        yield report


def test_every_report_check_follows_its_claim(capsys, tmp_path):
    used, failed = set(), set()
    for report in _reports(capsys, tmp_path):
        size = report.get("n", report.get("k"))
        for c in report["checks"]:
            entry = claim(c["name"])
            used.add(_pattern(c["name"]))
            if not c["passed"]:
                failed.add((report["command"], report.get("n"), c["name"]))
            assert c.get("threshold") == entry.threshold
            value = c.get("value")
            if entry.compare == "<":
                assert c["passed"] == (value < entry.threshold)
            elif entry.compare == ">":
                assert c["passed"] == (value > entry.threshold)
            elif entry.compare == "fidelity":
                assert c["passed"] == (1 - value >= 1 - entry.threshold)
            elif entry.compare == "==":
                expected = entry.expected(size)
                assert c["detail"] == entry.detail.format(expected)
                assert c["passed"] == (value == expected)
                continue
            else:
                assert entry.compare == "holds" and value is None
            assert c["detail"] == entry.detail
    assert used == set(CLAIMS), "every registered claim appears in some report"
    # Only the single pair fails, where its clone leaks.
    assert failed == {("audit", 1, "signal-marginals-maximally-mixed")}


@pytest.mark.parametrize(
    "name,measured,size,passed,value",
    [
        ("key-consumption-input-independent", 1e-10, None, False, 1e-10),
        ("key-consumption-input-independent", 9.9e-11, None, True, 9.9e-11),
        ("single-pair-clone-leaks-input", 1e-10, None, False, 1e-10),
        ("single-pair-clone-leaks-input", 0.5, None, True, 0.5),
        ("recovery-fidelity", 1 - 1e-10, None, True, 1e-10),
        ("recovery-fidelity", 0.99, None, False, 0.01),
        ("iterated-k1-all-clones", 1 - 5e-10, None, True, 5e-10),
        ("encoding-two-qubit-count", 12, 3, True, 12.0),
        ("decoding-two-qubit-count", 51, 3, False, 51.0),
        ("key-size", 4, 2, True, 4.0),
        ("data-side-decrypt-odd-n-rejected", False, None, False, None),
    ],
)
def test_check_applies_the_registered_comparison(name, measured, size, passed, value):
    result = check(name, measured, size)
    assert result.passed is passed
    if value is None:
        assert result.value is None
    else:
        assert result.value == pytest.approx(value, rel=1e-12)


def test_parametrised_names_resolve_to_their_family():
    assert claim("substitution-n5-lost-N2N4") is CLAIMS["substitution-n*-lost-*"]
    assert claim("data-side-decrypt-n6") is CLAIMS["data-side-decrypt-n*"]
    assert claim("data-side-decrypt-odd-n-rejected").compare == "holds"
    with pytest.raises(KeyError):
        claim("no-such-check")


def test_rendered_check_drops_empty_fields():
    text = render_report(
        {
            "command": "variants",
            "seed": 0,
            "psi": {"description": "x", "amplitudes": [1, 0]},
            "checks": [
                check("data-side-decrypt-odd-n-rejected", True),
                check("clone-count", 3, 1),
                check("rotated-variant-n2", 1.0),
            ],
            "passed": True,
        }
    )
    rendered = json.loads(text)["checks"]
    assert set(rendered[0]) == {"name", "passed", "detail"}
    assert set(rendered[1]) == {"name", "passed", "value", "detail"}
    assert rendered[2] == {
        "name": "rotated-variant-n2",
        "passed": True,
        "value": 0.0,
        "threshold": 1e-10,
        "detail": "1 - fidelity",
    }


def test_report_thresholds_are_defined_only_in_the_registry():
    src = Path(qclone.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        for name in re.findall(r"^([A-Z_]*_ATOL)\s*=", path.read_text(), re.MULTILINE):
            found.setdefault(name, []).append(path.name)
    outside = {k: v for k, v in found.items() if v != ["claims.py"]}
    assert not outside, f"tolerances defined outside claims.py: {outside}"
    assert {k for k, v in found.items() if v == ["claims.py"]} >= {
        "RECOVERY_ATOL",
        "ITERATED_ATOL",
        "ENCRYPTION_ATOL",
        "NOISE_EXACT_ATOL",
        "CIRCUIT_EQUIV_ATOL",
        "FORMULA_SIM_ATOL",
        "STATE_ATOL",
        "ANGLE_ATOL",
        "PHASE_ATOL",
        "SQRT_ATOL",
        "SPECTRUM_SUM_ATOL",
    }


def test_no_tolerance_literal_outside_the_registry():
    """Every number below 1e-6 in the program is a named tolerance in claims.py;
    comments and strings may quote values, code may not."""
    src = Path(qclone.__file__).parent
    literals = []
    for path in sorted(src.glob("*.py")):
        if path.name == "claims.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for tok in tokens:
            if tok.type == tokenize.NUMBER and 0 < abs(ast.literal_eval(tok.string)) < 1e-6:
                literals.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not literals, f"tolerance literals outside claims.py: {literals}"
