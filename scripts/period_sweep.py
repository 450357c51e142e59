#!/usr/bin/env python3
"""Zero-temperature robustness experiment.

Drives a two-level system around a cone at several periods, records the
maximum excited-state population per cycle, and fits its scaling with the
period. Slow driving should push the exponent to -2.
"""

import argparse
import math
from pathlib import Path

import numpy as np

import qsteer as q

SX = [[0.0, 1.0], [1.0, 0.0]]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=math.pi / 3)
    ap.add_argument("--eta", type=float, default=0.1, help="ohmic coupling")
    ap.add_argument("--cutoff", type=float, default=20.0)
    ap.add_argument("--base-period", type=float, default=2 * math.pi / 0.05)
    ap.add_argument("--doublings", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("period_sweep.csv"))
    args = ap.parse_args()

    sd = q.zero_temperature_ohmic(args.eta, args.cutoff)
    periods = [args.base_period * 2**k for k in range(args.doublings)]
    rows = []
    for period in periods:
        path = q.rotating_cone(1.0, args.theta, 2 * math.pi / period, SX)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=period, record_stride=1)
        traj = q.integrate(
            lambda t, s, f: q.rhs_full(s, f, sd),
            q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(path, t),
        )
        peak = traj.max_excited_population
        alpha = q.frame_at(path, 0.0).alpha
        rows.append((period, alpha, peak, traj.max_positivity_violation))
        print(f"period {period:10.2f}  alpha {alpha:.4f}  max rho_ee {peak:.3e}")

    slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[2] for r in rows]), 1)[0]
    print(f"fitted exponent of max excited population vs period: {slope:.3f}")

    with open(args.out, "w") as fh:
        fh.write("period_time,alpha,max_excited_population,max_positivity_violation\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
