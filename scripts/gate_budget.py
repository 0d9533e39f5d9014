#!/usr/bin/env python3
"""Tabulate compiled gate counts against the closed-form budgets.

Compiles encoder and decoder for a range of clone counts, prints measured
two-qubit counts next to the 4n / 15n+7 formulas and the overall 21n+11
budget, and verifies the circuits against the dense unitaries wherever the
register cap admits the 2(n + 1)-qubit dense rebuild ("-" where it does not).
"""
import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qclone.circuits import circuit_to_unitary, equivalence_up_to_global_phase
from qclone.claims import check, cycle_two_qubit_budget
from qclone.compiler import compile_decoding, compile_encoding
from qclone.protocol import AlphaCoefficients, decoding_unitary, encoding_unitary
from qclone.registers import max_register_qubits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=8)
    args = parser.parse_args()

    header = f"{'n':>3} {'enc 2q':>7} {'dec 2q':>7} {'sum':>5} {'budget 21n+11':>14} {'verified':>9}"
    print(header)
    print("-" * len(header))
    ok = True
    t = math.pi / 4
    for n in range(2, args.nmax + 1):
        alphas = AlphaCoefficients.standard(n)
        enc_circuit = compile_encoding(n, t)
        dec_circuit = compile_decoding(n, alphas)
        enc_2q, dec_2q = enc_circuit.two_qubit_count, dec_circuit.two_qubit_count
        verified = "-"
        if 2 * (n + 1) <= max_register_qubits():
            enc = equivalence_up_to_global_phase(
                circuit_to_unitary(enc_circuit), encoding_unitary(n, t)
            )
            dec = equivalence_up_to_global_phase(
                circuit_to_unitary(dec_circuit), decoding_unitary(n, alphas)
            )
            passed = all(
                check(f"{kind}-circuit-equivalence", res.max_entry_deviation).passed
                for kind, res in (("encoding", enc), ("decoding", dec))
            )
            verified = "yes" if passed else "NO"
            ok = ok and passed
        print(
            f"{n:>3} {enc_2q:>7} {dec_2q:>7} {enc_2q + dec_2q:>5}"
            f" {cycle_two_qubit_budget(n):>14} {verified:>9}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
