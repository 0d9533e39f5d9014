#!/usr/bin/env python3
"""Sweep the coherent information of the cloning channel and write CSVs.

For each requested clone count the channel's coherent information is computed
two ways — from the closed-form spectrum and from the simulated joint state —
on a uniform angle grid, then written as one CSV per n.  The curve must not
depend on n; the script prints the cross-n spread as a sanity line.
"""
import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qclone.analysis import default_time_grid, rows_to_csv, sweep_coherent_information


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=101)
    parser.add_argument("--tmax", type=float, default=math.pi)
    parser.add_argument("--n", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--outdir", default="sweeps")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    grid = default_time_grid(args.points, args.tmax)
    curves = {}
    for n in args.n:
        rows = sweep_coherent_information(grid, n)
        curves[n] = [r.I_simulated for r in rows]
        path = os.path.join(args.outdir, f"coherent_information_n{n}.csv")
        with open(path, "w") as fh:
            fh.write(rows_to_csv(rows))
        peak = max(rows, key=lambda r: r.I_simulated)
        print(
            f"n={n}: wrote {len(rows)} rows to {path}; "
            f"peak I={peak.I_simulated:.12g} at t={peak.t:.12g}"
        )

    ns = sorted(curves)
    spread = max(
        abs(a - b)
        for i, n1 in enumerate(ns)
        for n2 in ns[i + 1 :]
        for a, b in zip(curves[n1], curves[n2])
    ) if len(ns) > 1 else 0.0
    print(f"max cross-n spread of the curve: {spread:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
