"""Regenerate the FIG3 band reference table used by the bands-grid workload.

The lowest two band energies of the helical tube at FIG3
(kappa = tau = 1, rho0 = 0.1) on the default 101-point k-path from the
zone centre to the zone boundary, from one Richardson step on the 16x16
and 32x32 grid oracle (second-order scheme, so E = (4 E32 - E16) / 3).

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes perfbench/reference/fig3_bands.csv and prints a convergence
check at k_s = -0.3 and -0.5 against the same step on 24x24 and 48x48.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from helitube import BlochVector, HelixSpec, assemble_full, eigensolve

FIG3 = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)
COUNT = 101
OUT = Path(__file__).resolve().parent / "reference" / "fig3_bands.csv"


def lowest_pair(k_s: float, n: int) -> np.ndarray:
    H = assemble_full(FIG3, BlochVector(k_s, 0), n, n)
    return eigensolve(H, 2).eigenvalues


def richardson(k_s: float, coarse: int, fine: int) -> np.ndarray:
    return (4.0 * lowest_pair(k_s, fine) - lowest_pair(k_s, coarse)) / 3.0


def main() -> None:
    ks = np.linspace(0.0, -0.5 * abs(FIG3.tau), COUNT)
    lines = ["index,k_s,E1,E2"]
    for i, k in enumerate(ks):
        row = (float(k), *map(float, richardson(float(k), 16, 32)))
        lines.append(f"{i}," + ",".join(repr(v) for v in row))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({COUNT} k-points)")
    for k in (-0.3, -0.5):
        a = richardson(k, 16, 32)
        b = richardson(k, 24, 48)
        print(f"k_s={k}: 16/32 vs 24/48 max relative difference "
              f"{np.max(np.abs(a - b) / np.abs(b)):.2e}")


if __name__ == "__main__":
    main()
