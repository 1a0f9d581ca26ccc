"""Self-test of the benchmark harness on a tiny config (circle, 24 modes).

Run from the root of a checkout:
    python3 perfbench/selftest.py

It checks that
- the printed metric names and units match BENCHMARK.json, in both modes;
- the traced self times add up to the traced call, and the call to its
  wall time within the set-up and tracing overhead;
- a repeated traced run gives exactly the same counts;
- the gate passes the tiny run's artifacts and rejects them when the
  expected critical-point count is wrong;
- seed 0 is the shipped preset, as a config and as a payload;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark fails without printing a result.
Exit code 0 when every check passes.
"""
from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from gate import check_call, result_payload  # noqa: E402
from run import WORK_DIR, trace_counts  # noqa: E402
from workloads import SELFTEST, TORUS_TORSION, WORKLOADS  # noqa: E402

FAILURES = []


def check(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def bench_run(trace: int, cwd: str = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         SELFTEST.name, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def last_json(lines: list):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_dir(trace: int) -> str:
    return os.path.join(ROOT, WORK_DIR, f"{SELFTEST.name}-s0-trace{trace}")


def check_names(bench: dict, line: dict, key: str, mode: str):
    want = {m["name"]: m["unit"] for m in bench[key]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    check(got == want, f"{mode}: printed names and units match "
                       f"BENCHMARK.json {key}")


def check_self_times(result: dict):
    chk = result["trace_check"]
    wall = result["per_layer"]["trace.wall_s"]["value"]
    check(abs(chk["self_sum_s"] - chk["root_total_s"]) < 1e-6,
          "self times add up to the traced call")
    check(chk["root_total_s"] <= chk["main_s"] <= chk["root_total_s"] + 0.05,
          f"traced call {chk['root_total_s']:.4f} s matches the CLI call "
          f"{chk['main_s']:.4f} s")
    setup = result["end_to_end"]["setup_s"]["raw_median"]
    check(0 < wall - chk["root_total_s"] <= setup + 0.5,
          f"wall {wall:.3f} s exceeds the traced call only by set-up "
          f"({setup:.3f} s) and exit")


def check_gate():
    src = os.path.join(ROOT, "src")
    out = os.path.join(run_dir(1), "out")
    paths = sorted(glob.glob(os.path.join(out, "torsion-*.json")))
    errors, _, _ = check_call(SELFTEST, src, 0, paths)
    check(not errors, f"gate passes the tiny run {errors}")
    wrong = dataclasses.replace(SELFTEST, points=(3, 2))
    errors, _, _ = check_call(wrong, src, 0, paths)
    check(bool(errors), "gate rejects a wrong expected count: "
                        + "; ".join(errors))
    check(bool(check_call(SELFTEST, src, 3, paths)[0]),
          "gate rejects a nonzero exit code")


def check_presets():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from wittenlab.cli import main as cli_main
    from wittenlab.config import ExperimentConfig, preset

    for w in (*WORKLOADS.values(), TORUS_TORSION):
        cfg = ExperimentConfig.from_dict(w.config(0, "out"))
        name = "circle-sin2" if cfg.manifold == "circle" else \
            "torus-sin2-product"
        ref = preset(name).replace(**w.overrides)
        same_terms = (cfg.potential_trigpoly().terms
                      == ref.potential_trigpoly().terms)
        rest = {k: v for k, v in cfg.as_dict().items() if k != "potential"}
        ref_rest = {k: v for k, v in ref.as_dict().items()
                    if k != "potential"}
        check(same_terms and rest == ref_rest,
              f"{w.name}: seed 0 config is the {name} preset")
    # the tiny run with the potential spelled as the preset name
    tmp = os.path.join(run_dir(0), "preset")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    doc = SELFTEST.config(0, tmp)
    doc["potential"] = "sin2"
    cfg_path = os.path.join(tmp, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            rc = cli_main(["torsion", "--config", cfg_path])
        finally:
            sys.stdout = stdout
    (ours,) = glob.glob(os.path.join(run_dir(0), "out", "torsion-*.json"))
    (theirs,) = glob.glob(os.path.join(tmp, "torsion-*.json"))
    with open(ours) as a, open(theirs) as b:
        same = result_payload(json.load(a)) == result_payload(json.load(b))
    check(rc == 0 and same, "seed 0 payload equals the preset payload")


def check_bare_directory():
    bare = os.path.join(ROOT, WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench_run(0, cwd=bare)
    check(rc != 0 and last_json(lines) is None,
          f"without the program the benchmark exits {rc} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rc, lines = bench_run(0)
    line = last_json(lines)
    check(rc == 0 and line is not None and line["correct"],
          "untraced tiny run passes the gate")
    if line:
        check_names(bench, line, "end_to_end", "--trace 0")
    counts = []
    for attempt in range(2):
        rc, lines = bench_run(1)
        line = last_json(lines)
        ok = rc == 0 and line is not None and line["correct"]
        check(ok, f"traced tiny run {attempt + 1} passes the gate and its "
                  "counts repeat")
        if not ok:
            return 1
        with open(os.path.join(run_dir(1), "result.json")) as fh:
            result = json.load(fh)
        counts.append(trace_counts({k: (v["value"], v["unit"])
                                    for k, v in line["metrics"].items()}))
    check_names(bench, line, "per_layer", "--trace 1")
    check(counts[0] == counts[1], "two traced runs give the same counts")
    check_self_times(result)
    check_gate()
    check_presets()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
