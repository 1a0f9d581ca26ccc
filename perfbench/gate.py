"""Correctness gate applied to the artifacts of every benchmark call.

The bounds are written out here, not read from the package, so a change
to the program cannot loosen its own gate:
- ANOMALY_MAX is the default tol_abs of torsion.check_anomaly;
- CHAIN_MAX is the rel_tol of ComplexMorphism.require_chain_map.
"""
from __future__ import annotations

import json
import os

ANOMALY_MAX = 1e-3
CHAIN_MAX = 1e-8

SCHEMAS = {"torsion": "torsion-report", "package": "spectral-package"}

# payload fields that name the run rather than its result
RUN_FIELDS = ("config", "config_digest")


def load_schema(src: str, name: str) -> dict:
    path = os.path.join(src, "wittenlab", "schemas", f"{name}.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def artifact_paths(stdout: str) -> list:
    """The artifact paths the CLI printed, one per line."""
    return [line.strip() for line in stdout.splitlines() if line.strip()]


def result_payload(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in RUN_FIELDS}


def check_call(workload, src: str, rc: int, paths: list) -> tuple:
    """Gate one CLI call; returns (errors, payload, csv texts)."""
    import jsonschema

    if rc != 0:
        return [f"exit code {rc}"], None, []
    stem = workload.command
    jsons = [p for p in paths if p.endswith(".json")]
    csvs = [p for p in paths if p.endswith(".csv")]
    if len(jsons) != 1 or not os.path.basename(jsons[0]).startswith(stem):
        return [f"expected one {stem} JSON artifact, got {paths}"], None, []
    with open(jsons[0], encoding="utf-8") as fh:
        payload = json.load(fh)
    texts = []
    for p in csvs:
        with open(p, encoding="utf-8") as fh:
            texts.append(fh.read())
    errors = []
    for name, doc in ((SCHEMAS[stem], payload),
                      ("experiment-config", payload.get("config"))):
        try:
            jsonschema.validate(doc, load_schema(src, name))
        except jsonschema.ValidationError as exc:
            errors.append(f"{name} schema: {exc.message}")
    if errors:
        return errors, payload, texts
    if stem == "torsion":
        errors += check_torsion(payload, workload)
    else:
        errors += check_package(payload, workload)
    return errors, payload, texts


def check_torsion(payload: dict, workload) -> list:
    errors = []
    rep = payload["report"]
    if rep.get("working_matches") is not True:
        errors.append(f"working formula does not match: residual "
                      f"{rep['residual_working']:.3e}")
    worst = max((r for _, r in rep["anomaly"]), default=0.0)
    if not worst <= ANOMALY_MAX:
        errors.append(f"anomaly residual {worst:.3e} exceeds {ANOMALY_MAX:g}")
    chain = max((r for _, r in payload.get("chain_residuals", [])), default=0.0)
    if not chain <= CHAIN_MAX:
        errors.append(f"chain residual {chain:.3e} exceeds {CHAIN_MAX:g}")
    # the branch term uses the VS_POSITIVE branches of each degree
    values = rep["terms"].get("branch_values_at_zero", {})
    for q, (beta, c) in enumerate(zip(workload.betti, workload.points)):
        n_vs = len(values.get(str(q), []))
        if n_vs != c - beta:
            errors.append(f"degree {q}: {n_vs} VS_POSITIVE branches, "
                          f"expected {c - beta}")
    return errors


def check_package(payload: dict, workload) -> list:
    errors = []
    degrees = payload["degrees"]
    for q, (beta, c) in enumerate(zip(workload.betti, workload.points)):
        deg = degrees.get(str(q))
        if deg is None:
            errors.append(f"degree {q} missing")
            continue
        labels = [b["label"] for b in deg["branches"]]
        got = (labels.count("ZERO"), labels.count("VS_POSITIVE"))
        if (deg["beta"], deg["c"]) != (beta, c) or got != (beta, c - beta):
            errors.append(f"degree {q}: beta {deg['beta']}, c {deg['c']}, "
                          f"ZERO/VS_POSITIVE {got}; expected beta {beta}, "
                          f"c {c}, ZERO/VS_POSITIVE {(beta, c - beta)}")
    return errors
