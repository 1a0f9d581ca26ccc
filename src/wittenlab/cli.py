"""Command line driver.

Commands map one-to-one onto the experiment runners; every run
writes deterministic artifacts (JSON reports, CSV branch traces, SVG
plots) under the output directory, named by the config digest so
different configurations never overwrite each other.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .config import PRESETS, ExperimentConfig, preset
from .errors import ConfigError, GapNotFoundError, NumericalError
from .experiments import (
    run_duality,
    run_morse,
    run_package,
    run_spectrum,
    run_torsion,
    run_verify_anomaly,
)


def build_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = preset(args.preset or "circle-sin2")
    over = {}
    if args.tmax is not None:
        over["t_max"] = args.tmax
    if args.modes is not None:
        over["modes"] = args.modes
    if args.seed is not None:
        over["seed"] = args.seed
    if args.format:
        over["format"] = args.format
    if args.out:
        over["out_dir"] = args.out
    return cfg.replace(**over) if over else cfg


def _outpath(cfg: ExperimentConfig, stem: str, ext: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, f"{stem}-{cfg.digest()}.{ext}")


def _emit_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)


def _base_payload(cfg: ExperimentConfig) -> dict:
    return {"version": __version__, "config_digest": cfg.digest(),
            "config": cfg.experiment_dict()}


BRANCH_COLUMNS = ["q", "branch", "t", "lambda", "label", "critical_point"]


def _write_branch_csv(path: str, pkg):
    """One row per (branch, grid point), package members before LARGE."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BRANCH_COLUMNS)
        ts = [f"{t:.6g}" for t in pkg.grid.tolist()]
        for q in sorted(pkg.degrees):
            deg = pkg.degrees[q]
            for i, b in enumerate(list(deg.branches) + list(deg.large)):
                cp = "" if b.critical_point is None else int(b.critical_point)
                lams = b.values[b.sample_index(pkg.grid)].tolist()
                for t, lam in zip(ts, lams):
                    w.writerow([q, i, t, f"{lam:.16e}", b.label, cp])
    print(path)


def _package_payload(run) -> dict:
    pkg = run.package
    degrees = {}
    for q, deg in pkg.degrees.items():
        rows = []
        for i, b in enumerate(deg.branches):
            rows.append({
                "id": i,
                "label": b.label,
                "critical_point": (None if b.critical_point is None
                                   else int(b.critical_point)),
                "mass": b.mass,
                "tie_group": b.tie_group,
                "t0_slope": b.t0_slope,
                "value_at_zero": b.value_at(0.0),
                "value_at_tmax": b.value_at(deg.t_max),
            })
        degrees[str(q)] = {
            "beta": deg.beta, "c": deg.c, "gap": deg.gap,
            "tol_zero": deg.tol_zero, "branches": rows,
            "n_large": len(deg.large),
            "warnings": [{"branch": i, "point": p, "mass": m}
                         for i, p, m in deg.assignment_warnings],
        }
    return {"manifold": pkg.manifold, "grid": [float(t) for t in pkg.grid],
            "degrees": degrees, "critical_points": _point_rows(run.points)}


def _point_rows(points) -> list:
    """One JSON row per critical point."""
    return [{"coords": list(p.coords), "index": p.index, "value": p.value,
             "hessian": list(p.hessian)} for p in points]


def cmd_spectrum(args) -> int:
    """Lowest eigenvalues along the deformation grid."""
    cfg = build_config(args)
    run = run_spectrum(cfg)
    if cfg.format == "csv":
        path = _outpath(cfg, "spectrum", "csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["q", "t", "i", "lambda"])
            for q, arr in sorted(run.values.items()):
                for ti, t in enumerate(run.ts):
                    for i, lam in enumerate(arr[ti]):
                        w.writerow([q, f"{float(t):.6g}", i, f"{lam:.16e}"])
        print(path)
        return 0
    payload = _base_payload(cfg)
    payload["ts"] = [float(t) for t in run.ts]
    payload["values"] = {str(q): arr.tolist() for q, arr in run.values.items()}
    _emit_json(_outpath(cfg, "spectrum", "json"), payload)
    return 0


def cmd_branches(args) -> int:
    # the one command that draws imports the plotting module
    from .svgplot import branch_plot, write_svg

    cfg = build_config(args)
    run = run_package(cfg, assign=False)
    _write_branch_csv(_outpath(cfg, "branches", "csv"), run.package)
    for q, deg in sorted(run.package.degrees.items()):
        write_svg(_outpath(cfg, f"branches-q{q}", "svg"),
                  branch_plot(deg, run.package.grid))
        write_svg(_outpath(cfg, f"branches-q{q}-log", "svg"),
                  branch_plot(deg, run.package.grid, log_scale=True))
        print(_outpath(cfg, f"branches-q{q}", "svg"))
        print(_outpath(cfg, f"branches-q{q}-log", "svg"))
    return 0


def cmd_package(args) -> int:
    cfg = build_config(args)
    run = run_package(cfg, assign=True)
    payload = _base_payload(cfg)
    payload.update(_package_payload(run))
    _emit_json(_outpath(cfg, "package", "json"), payload)
    _write_branch_csv(_outpath(cfg, "package-branches", "csv"), run.package)
    return 0


def cmd_morse(args) -> int:
    cfg = build_config(args)
    flow = run_morse(cfg)
    payload = _base_payload(cfg)
    payload["points"] = _point_rows(flow.points)
    payload["cells"] = {
        str(i): [{"axes": [list(a) for a in c.axes],
                  "orientation": c.orientation,
                  "boundary": [list(b) for b in c.boundary]}
                 for c in cells]
        for i, cells in enumerate(flow.cells)}
    table = [[list(x), list(y), d] for x, y, d in flow.smale_table]
    payload["morse_smale"] = {"ok": all(d >= 0 for _, _, d in table),
                              "table": table}
    payload["coboundary"] = [m.tolist() for m in flow.d]
    payload["betti"] = list(flow.betti)
    _emit_json(_outpath(cfg, "morse", "json"), payload)
    return 0


def cmd_torsion(args) -> int:
    cfg = build_config(args)
    run = run_torsion(cfg)
    r = run.report
    payload = _base_payload(cfg)
    payload["report"] = _jsonable({
        **r._asdict(),
        # determinant-backed quantities travel as (sign, log-magnitude)
        "a0": [float(r.terms.get("a0_sign", 1.0)), r.log_a0],
        "T_morse": [1.0, r.log_T_morse],
        "working_matches": r.working_matches,
        "printed_matches": r.printed_matches,
    })
    payload["chain_residuals"] = _jsonable(run.chain_residuals)
    payload["positivity"] = _jsonable(run.positivity)
    _emit_json(_outpath(cfg, "torsion", "json"), payload)
    return 0


def cmd_duality(args) -> int:
    cfg = build_config(args)
    run = run_duality(cfg)
    payload = _base_payload(cfg)
    payload["identity_residuals"] = {
        "-".join(str(p) for p in key): float(v)
        for key, v in run.identity_residuals.items()}
    payload["value_residual"] = run.value_residual
    payload["star_match_residual"] = run.star_match_residual
    payload["pairs"] = [[q, lam0, list(pf), list(pg)]
                        for q, lam0, pf, pg in run.pairs]
    _emit_json(_outpath(cfg, "duality", "json"), payload)
    return 0


def cmd_verify_anomaly(args) -> int:
    cfg = build_config(args)
    out = run_verify_anomaly(
        seed=cfg.seed, cases=200 if args.cases is None else args.cases)
    payload = _base_payload(cfg)
    payload["anomaly_check"] = out
    _emit_json(_outpath(cfg, "verify-anomaly", "json"), payload)
    if not out["ok"]:
        raise NumericalError(f"anomaly identity violated: max residual "
                             f"{out['max_residual']:.3e}")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


COMMANDS = {
    "spectrum": (cmd_spectrum, "lowest eigenvalues along the grid"),
    "branches": (cmd_branches,
                 "track eigenvalue branches, write traces and plots"),
    "package": (cmd_package, "classify the package and localize branches"),
    "morse": (cmd_morse, "critical points, cells, and the coboundary"),
    "torsion": (cmd_torsion, "assemble the torsion comparison report"),
    "duality": (cmd_duality,
                "star conjugation identities and package matching"),
    "verify-anomaly": (cmd_verify_anomaly,
                       "anomaly identity on random chain maps"),
}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wittenlab",
        description="Deformed Laplacian spectra, gradient-flow complexes, "
                    "and torsion comparisons on model manifolds.")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                   help="; ".join(f"{name}: {text}"
                                  for name, (_, text) in COMMANDS.items()))
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named built-in configuration")
    p.add_argument("--out", help="output directory")
    p.add_argument("--tmax", type=float, help="deformation endpoint")
    p.add_argument("--modes", type=int, help="per-axis frequency cutoff")
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.add_argument("--format", choices=["json", "csv"],
                   help="tabular output format")
    p.add_argument("--cases", type=int,
                   help="random cases of verify-anomaly (default 200)")
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.cases is not None and args.command != "verify-anomaly":
        parser.error("--cases applies to verify-anomaly only")
    try:
        return COMMANDS[args.command][0](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GapNotFoundError as e:
        print(f"gap not found: {e}", file=sys.stderr)
        return 4
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
