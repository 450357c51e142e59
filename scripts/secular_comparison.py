#!/usr/bin/env python3
"""Secular vs nonsecular comparison on a steered cone.

Integrates the same scenario with the full linear-order generator, its
secular truncation, and the frozen non-steered baseline, then prints the
final populations side by side. The gap between full and secular is the
footprint of the population-coherence cross terms the secular approximation
discards.
"""

import argparse
import math
from pathlib import Path

import qsteer as q

SX = [[0.0, 1.0], [1.0, 0.0]]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=math.pi / 3)
    ap.add_argument("--omega", type=float, default=0.04, help="drive angular rate")
    ap.add_argument("--eta", type=float, default=0.1)
    ap.add_argument("--cutoff", type=float, default=20.0)
    ap.add_argument("--out", type=Path, default=Path("secular_comparison.csv"))
    args = ap.parse_args()

    sd = q.zero_temperature_ohmic(args.eta, args.cutoff)
    path = q.rotating_cone(1.0, args.theta, args.omega, SX)
    cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=path.duration, record_stride=20)
    provider = lambda t: q.frame_at(path, t)
    initial = q.DensityState(1.0, 0j)

    frame0 = q.frame_at(path, 0.0)
    r0 = q.rates(frame0.m1, frame0.m2, frame0.omega01, sd)
    variants = {
        "full": lambda t, s, f: q.rhs_full(s, f, sd),
        "secular": lambda t, s, f: q.rhs_secular(
            s, q.rates(f.m1, f.m2, f.omega01, sd), f.omega01
        ),
        "nonsteered": lambda t, s, f: q.rhs_nonsteered(s, r0, frame0.omega01),
    }

    rows = []
    for name, rhs in variants.items():
        traj = q.integrate(rhs, initial, cfg, frame_provider=provider)
        final = traj.final.state.rho_gg
        peak = traj.max_excited_population
        rows.append((name, final, peak))
        print(f"{name:11s} final rho_gg {final:.12f}   max rho_ee {peak:.3e}")

    gap = abs(rows[0][1] - rows[1][1])
    print(f"full-vs-secular final population gap: {gap:.3e}")

    with open(args.out, "w") as fh:
        fh.write("variant,final_rho_gg,max_excited_population\n")
        for name, final, peak in rows:
            fh.write(f"{name},{final:.17g},{peak:.17g}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
