#!/usr/bin/env python3
"""Torus experiment: product structure, torsion closure, and duality.

Runs the torus preset end to end and prints three things: the tracked
package per degree, the torsion comparison assemblies, and the
star-duality residuals.  A JSON summary goes next to the other artifacts.

The duality pass re-tracks the package with the flipped potential, so
it roughly doubles the runtime; skip it with --no-duality.
"""

import argparse
import json
import math
import os

from wittenlab.config import preset
from wittenlab.experiments import run_duality, run_torsion


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", type=int, default=None,
                    help="Fourier cutoff override (per factor)")
    ap.add_argument("--tmax", type=float, default=None,
                    help="deformation horizon override")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--no-duality", action="store_true",
                    help="skip the flipped-potential duality pass")
    args = ap.parse_args()

    # the preset's cutoff needs a relaxed vanishing ceiling, which its
    # tolerances carry
    cfg = preset("torus-sin2-product")
    over = {"out_dir": args.out}
    if args.modes is not None:
        over["modes"] = args.modes
    if args.tmax is not None:
        over["t_max"] = args.tmax
    cfg = cfg.replace(**over)

    print(f"torus, {cfg.modes} modes per factor, t up to {cfg.t_max} "
          f"(config {cfg.digest()})")
    run = run_torsion(cfg)
    pkg = run.package_run.package
    rep = run.report

    for q, deg in sorted(pkg.degrees.items()):
        print(f"\ndegree {q}: beta={deg.beta} c={deg.c} gap={deg.gap:.3e}")
        for b in deg.branches:
            print(f"  {b.label:12s} cp={b.critical_point} "
                  f"mass={b.mass:.4f} lambda(0)={b.value_at(0.0):.6f}")
    print()

    print(f"branch term            {rep.branch_term:+.12f}")
    print(f"log a(0)               {rep.log_a0:+.12f}")
    print(f"log harmonic volume    {rep.log_lattice_volume:+.12f}")
    print(f"log T (flow complex)   {rep.log_T_morse:+.12f}")
    print(f"log W (integer covol)  {rep.log_W_morse:+.12f}")
    print(f"working assembly       {rep.working:+.12f}  "
          f"(target {rep.target:+.12f}, residual {rep.residual_working:.2e})")
    for t, r in rep.anomaly:
        print(f"anomaly residual at t={t:g}: {r:.2e}")
    vols = rep.terms["harmonic_volumes"]
    print("harmonic volumes: " + ", ".join(
        f"V_{q}={v:.9f}" for q, v in sorted(vols.items())))

    summary = {
        "config": cfg.as_dict(),
        "degrees": {str(q): {"beta": d.beta, "c": d.c, "gap": d.gap}
                    for q, d in pkg.degrees.items()},
        "working": rep.working,
        "target": rep.target,
        "residual_working": rep.residual_working,
        "anomaly": [[t, r] for t, r in rep.anomaly],
        "harmonic_volumes": {str(q): v for q, v in vols.items()},
        "a0": math.exp(rep.log_a0),
    }

    if not args.no_duality:
        dual = run_duality(cfg)
        print(f"\nduality: worst operator identity "
              f"{max(dual.identity_residuals.values()):.2e}, spectrum match "
              f"{dual.value_residual:.2e}, star frame match "
              f"{dual.star_match_residual:.2e}")
        summary["duality"] = {
            "value_residual": dual.value_residual,
            "star_match_residual": dual.star_match_residual,
        }

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"torus-summary-{cfg.digest()}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
