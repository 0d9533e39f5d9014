#!/usr/bin/env python3
"""Walk one full key lifecycle: encrypt, fail without the key, decrypt, consume.

The script encodes a Haar-random qubit into n clones and prints, step by step:
every clone marginal (maximally mixed), a keyless recovery attempt (bounded at
fidelity 1/2 on average), the keyed decryption (exact), and the residual state
after decryption compared across two orthogonal inputs (identical — the key is
spent and leaks nothing).
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qclone.protocol import ProtocolConfig, decrypt, encode, prepare_initial
from qclone.states import (
    dominant_eigenvector,
    haar_random_qubit,
    partial_trace,
    reduced_trace_distance,
    single_qubit,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    psi = haar_random_qubit(rng)
    config = ProtocolConfig(n=args.n)
    layout = config.layout()
    state = encode(prepare_initial(config, psi), config)

    print(f"input psi = {np.round(psi.amplitudes, 6)}")
    print(f"\n1) after encoding ({args.n} clones, {layout.num_qubits} qubits):")
    for i in range(1, args.n + 1):
        rho = partial_trace(state, [layout.signal(i)])
        dev = np.max(np.abs(rho.matrix - np.eye(2) / 2))
        print(f"   clone S{i} marginal: max |rho - I/2| = {dev:.3e}")

    print("\n2) best keyless guess from one clone alone:")
    rho = partial_trace(state, [layout.signal(1)])
    guess_fidelity = float(
        np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real
    )
    print(f"   <psi| rho_S1 |psi> = {guess_fidelity:.6f}  (1/2 = random)")

    print("\n3) keyed decryption of S1:")
    outcome = decrypt(state, config, target=1, reference=psi)
    print(f"   fidelity = {outcome.fidelity:.15f}")

    print("\n4) key consumption — residuals for two orthogonal inputs:")
    a, b = psi.amplitudes
    psi_perp = single_qubit(-np.conj(b), np.conj(a))
    post_perp = decrypt(
        encode(prepare_initial(config, psi_perp), config), config, target=1
    ).post_state
    td = reduced_trace_distance(outcome.post_state, post_perp, [outcome.carrier])
    print(f"   trace distance = {td:.3e}  (0 = nothing about psi survives)")

    val, vec = dominant_eigenvector(outcome.recovered)
    print(f"\nrecovered state (eigenvalue {val:.12f}): {np.round(vec.amplitudes, 6)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
