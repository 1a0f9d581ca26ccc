"""End-to-end benchmark of the wittenlab torsion and package pipelines.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark works like a user.  It writes the workload's seeded config
document, then runs `wittenlab <command> --config <file>` in a fresh
process, one process at a time (a closed loop with one client).  It
first starts a few processes that only import the package and parse the
config, to time set-up, then calls the CLI while the next call is
expected to end within S seconds of the start (at least one call).
Every call is checked by the correctness gate (gate.py) and the
payloads of one invocation must be identical.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics (medians over the calls), the times scaled to a
fixed host speed that a reference task measures between the processes
(see REFERENCE_S).  With --trace 1 one extra call runs with the
outside-in tracer (tracer.py) and the JSON carries the per-layer
metrics.  The lines before it print every metric with its unit,
quartiles and sample count, and the provenance of the run.  Everything
the run writes stays under .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import artifact_paths, check_call, result_payload  # noqa: E402
from tracer import LAYERS, Trace  # noqa: E402
from workloads import RUNNABLE, document_digest  # noqa: E402

SETUP_SPAWNS = 8  # set-up-only processes per run, besides one per call
# single-threaded BLAS keeps each call on one core of a small shared
# machine, so a busy second core cannot stall a BLAS call; cpu_s still
# shows any threads the program itself adds
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a call still running this long into the run is killed
STOP_AFTER_S = 100.0  # start no further call once this much time is spent
WORK_DIR = ".perfbench"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))
# Host-speed correction.  A small VM shares its physical cores with
# other tenants, whose load comes and goes: on a 2-vCPU Xeon VM the same
# circle-torsion call took from 2.9 to 6.0 s within ten minutes, in slow
# spells that outlast a whole run.  So a fixed reference task, which
# never touches the program, runs in this process before and after every
# process the benchmark starts, and the mean of the two measures the
# host's speed at the time.  Set-up time, and the call times of workloads
# whose calls are interpreter-bound like the reference task
# (Workload.scale_calls), are reported at the reference speed,
# t * REFERENCE_S / reference time, still in seconds.  REFERENCE_S is the
# reference task's time on that VM when it was quiet; it only sets the
# scale.  On circle-torsion the run medians of wall_s over ten seeds
# spread 21 % (quartile distance over median) unscaled and 5 % scaled.
REFERENCE_S = 0.22


def reference_task() -> float:
    """Seconds taken by a fixed task shaped like the interpreter-bound
    calls' hot path: columns cos(k t), sin(k t) of small arrays, stacked."""
    import numpy as np

    theta = np.linspace(0.0, 2.0 * np.pi, 24)
    scale = 1.0 / np.sqrt(np.pi)
    t0 = time.perf_counter()
    for i in range(1500):
        shifted = theta + i * 1e-4
        cols = [np.full(theta.shape, scale)]
        for k in range(1, 33):
            cols.append(np.cos(k * shifted) * scale)
            cols.append(np.sin(k * shifted) * scale)
        np.stack(cols, axis=1)
    return time.perf_counter() - t0


def layer_metrics(tr: Trace, traced_wall: float, untraced_wall: float,
                  artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced call: name -> (value, unit)."""
    m = {}

    def s(name, value):
        m[name] = (value, "s")

    def n(name, value):
        m[name] = (value, "count")

    # integrals
    p1, p2 = tr.count_total("panels_1d"), tr.count_total("panels_2d")
    n("integrals.panels_1d", p1)
    n("integrals.panels_2d", p2)
    # integrate_1d pre-evaluates 8 scale panels, integrate_2d 16; each
    # rejected adaptive panel is replaced by 2 (1-D) or 4 (2-D) children,
    # so a call that evaluated e adaptive panels accepted (e + 1) / 2
    # resp. (3 e + 1) / 4 of them as leaves
    leaves = sum((p - 8 + 1) / 2
                 for p in tr.count_in("integrals.integrate_1d", "panels_1d"))
    leaves += sum((3 * (p - 16) + 1) / 4
                  for p in tr.count_in("integrals.integrate_2d", "panels_2d"))
    m["integrals.panel_accept_ratio"] = (
        leaves / (p1 + p2) if p1 + p2 else 0.0, "ratio")
    n("integrals.integral_A.calls", tr.calls("integrals.integral_A"))
    n("integrals.pairing_matrix.calls", tr.calls("integrals.pairing_matrix"))
    s("integrals.pairing_matrix.s", tr.total_s("integrals.pairing_matrix"))
    s("integrals.quad_1d.self_s", tr.self_s("integrals.integrate_1d"))
    s("integrals.quad_2d.self_s", tr.self_s("integrals.integrate_2d"))
    # derham
    n("derham.basis_matrix_1d.calls", tr.calls("derham.basis_matrix_1d"))
    s("derham.basis_matrix_1d.s", tr.total_s("derham.basis_matrix_1d"))
    n("derham.basis_matrix_1d.elements", tr.work_sum("derham.basis_matrix_1d"))
    n("derham.laplacian_family.calls", tr.calls("derham.laplacian_family"))
    s("derham.build_complex.s", tr.outer_total_s(
        ["derham.build_circle_complex", "derham.build_torus_complex"]))
    # branches
    n("branches.dense_eigh.calls", tr.calls("branches.dense_eigh"))
    s("branches.dense_eigh.s", tr.total_s("branches.dense_eigh"))
    m["branches.dense_eigh.gflop_computed"] = (
        tr.work_sum("branches.dense_eigh") * 1e-9, "Gflop")
    n("branches.sparse_eigsh.calls", tr.calls("branches.sparse_eigsh"))
    s("branches.sparse_eigsh.s", tr.total_s("branches.sparse_eigsh"))
    samples = sum(tr.count_in("branches.track_branches", "samples"))
    grid = sum(tr.count_in("branches.track_branches", "grid_points"))
    n("branches.samples", samples)
    n("branches.bisections", samples - grid)
    track = {tr.names.index("branches.track_branches")} \
        if "branches.track_branches" in tr.names else set()
    solves = sum(1 for name in ("branches.dense_eigh", "branches.sparse_eigsh")
                 for i in tr.indices(name) if tr.has_ancestor(i, track))
    m["branches.solves_per_sample"] = (
        solves / samples if samples else 0.0, "ratio")
    s("branches.track_branches.self_s", tr.self_s("branches.track_branches"))
    s("branches.match_step.s", tr.total_s("branches.match_step"))
    n("branches.rebase.calls", tr.calls("branches.rebase"))
    s("branches.classify.s", tr.total_s("branches.classify"))
    s("branches.assign.s", tr.total_s("branches.assign_to_critical_points"))
    # morse
    n("morse.find_critical_points.calls", tr.calls("morse.find_critical_points"))
    s("morse.find_critical_points.s", tr.total_s("morse.find_critical_points"))
    n("morse.unstable_cells.calls", tr.calls("morse.unstable_cells"))
    s("morse.flow.s", tr.outer_total_s(
        ["integrals.flow_cells", "morse.morse_coboundary",
         "morse.check_morse_smale"]))
    # experiments: stage shares of the call
    for stage in ("run_package", "positivity_probe", "int_morphism",
                  "vs_complex"):
        s(f"experiments.{stage}.s", tr.total_s(f"experiments.{stage}"))
    s("experiments.a_q.s", tr.total_s("integrals.a_q"))
    # torsion
    s("torsion.assembly.s", tr.outer_total_s(
        [name for name in tr.names if name.startswith("torsion.")]))
    # cli
    s("cli.emit.s", tr.outer_total_s(["cli.emit_json", "cli.write_branch_csv"]))
    m["cli.artifact_bytes"] = (artifact_bytes, "B")
    # self time of each layer; together they add up to the traced call
    layer_self = {}
    for name, (_, _, self_s) in tr.by_name().items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    for layer in LAYERS:
        s(f"{layer}.self_s", layer_self.get(layer, 0.0))
    s("trace.wall_s", traced_wall)
    s("trace.overhead_s", traced_wall - untraced_wall)
    n("trace.spans", len(tr.dur))
    return m


def trace_counts(metrics: dict) -> dict:
    """The deterministic part of the per-layer metrics."""
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "Gflop", "B")
            or k in ("integrals.panel_accept_ratio",
                     "branches.solves_per_sample")}


# -- processes ---------------------------------------------------------------


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def spawn(root: str, env: dict, cli_args: list, run_dir: str, tag: str,
          limit_s: float, setup_only: bool = False,
          trace_path: str | None = None) -> dict:
    """Run one client process to completion and return its measurements."""
    timing_path = os.path.join(run_dir, f"{tag}.timing.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           os.path.join(root, "src"), timing_path]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    cmd += ["--"] + cli_args
    out_path = os.path.join(run_dir, f"{tag}.stdout")
    err_path = os.path.join(run_dir, f"{tag}.stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"rc": proc.returncode, "wall_s": t1 - t0,
           "cpu_s": ru.ru_utime + ru.ru_stime,
           "peak_rss_mb": ru.ru_maxrss / 1024.0}
    try:
        with open(timing_path) as fh:
            timing = json.load(fh)
        rec["setup_s"] = timing["ready"] - t0
        # the user does not wait for the trace file
        rec["wall_s"] -= timing.get("trace_write_s", 0.0)
        if "start" in timing:
            rec["main_s"] = timing["end"] - timing["start"]
    except (OSError, ValueError, KeyError):
        rec["rc"] = rec["rc"] or 1
    with open(out_path) as fh:
        rec["stdout"] = fh.read()
    with open(err_path) as fh:
        rec["stderr_tail"] = fh.read()[-2000:]
    return rec


# -- provenance ----------------------------------------------------------------


def src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root: str, seed: int, threads: int) -> dict:
    import platform
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "git_commit": git_commit(root),
        "src_digest": src_digest(os.path.join(root, "src")),
        "seed": seed,
    }


# -- the run ---------------------------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def artifact_bytes(paths: list) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def run(workload, seed: int, seconds: float, trace: bool, root: str) -> dict:
    src = os.path.join(root, "src")
    run_dir = os.path.join(root, WORK_DIR,
                           f"{workload.name}-s{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out_dir = os.path.join(run_dir, "out")
    doc = workload.config(seed, os.path.relpath(out_dir, root))
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    cli_args = [workload.command, "--config", config_path]
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = child_env(threads)
    info = {"workload": workload.name, "command": workload.command,
            "config": doc, "config_sha256": document_digest(doc),
            "provenance": provenance(root, seed, threads),
            "loop": "closed, one client, one process at a time"}

    t_begin = time.monotonic()
    records, errors = [], []
    reference = None  # (payload, csv texts) of the first passing call
    host_s = reference_task()  # the reference task's latest time

    def call(tag, **kw):
        nonlocal reference, host_s
        shutil.rmtree(out_dir, ignore_errors=True)
        limit = max(1.0, t_begin + RUN_LIMIT_S - time.monotonic())
        rec = spawn(root, env, cli_args, run_dir, tag, limit, **kw)
        before, host_s = host_s, reference_task()
        rec["host_factor"] = REFERENCE_S / ((before + host_s) / 2.0)
        records.append(rec)
        if kw.get("setup_only"):
            rec["errors"] = [] if rec["rc"] == 0 else [
                f"set-up process exit code {rec['rc']}: {rec['stderr_tail']}"]
            return rec
        paths = artifact_paths(rec["stdout"])
        errs, payload, texts = check_call(workload, src, rec["rc"], paths)
        if rec["rc"] != 0:
            errs.append(rec["stderr_tail"])
        if not errs:
            result = (result_payload(payload), texts)
            if reference is None:
                reference = result
                info["config_digest"] = payload["config_digest"]
            elif result != reference:
                errs.append("payload differs from the first call of this seed")
        rec["errors"] = errs
        rec["artifact_bytes"] = artifact_bytes(paths)
        return rec

    for i in range(SETUP_SPAWNS):
        call(f"setup{i}", setup_only=True)
    calls = []
    while True:
        rec = call(f"call{len(calls)}")
        calls.append(rec)
        # start another call only if it should end inside the window
        now = time.monotonic()
        longest = max(r["wall_s"] for r in calls)
        if (now - t_begin + longest > min(seconds, STOP_AFTER_S)
                or rec["errors"]):
            break
    traced = None
    if trace and calls[0]["rc"] == 0:
        trace_path = os.path.join(run_dir, "trace.json")
        traced = call("traced", trace_path=trace_path)
    for rec in records:
        errors += rec["errors"]

    ok_calls = [r for r in calls if not r["errors"]]
    scaled = ("setup_s", "wall_s", "cpu_s") if workload.scale_calls \
        else ("setup_s",)
    end_to_end = {}
    for name, unit in END_TO_END:
        pool = records if name == "setup_s" else ok_calls
        values = [r[name] * (r["host_factor"] if name in scaled else 1.0)
                  for r in pool if name in r]
        if values:
            q1, med, q3 = quartiles(values)
            end_to_end[name] = {
                "value": med, "unit": unit, "q1": q1, "q3": q3,
                "n": len(values),
                "raw_median": statistics.median(r[name] for r in pool
                                                if name in r)}
    failed = sum(1 for r in records if r["errors"])
    result = {"info": info, "attempted": len(records), "failed": failed,
              "errors": errors, "end_to_end": end_to_end,
              "host_factor": statistics.median(r["host_factor"]
                                               for r in records),
              "scaled": scaled}

    if traced is not None and traced["rc"] == 0:
        with open(os.path.join(run_dir, "trace.json")) as fh:
            tr = Trace(json.load(fh))
        untraced = statistics.median(r["wall_s"] for r in calls if r["rc"] == 0)
        metrics = layer_metrics(tr, traced["wall_s"], untraced,
                                traced["artifact_bytes"])
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
        result["trace_check"] = {
            "self_sum_s": tr.self_sum_s(), "root_total_s": tr.root_total_s(),
            "main_s": traced.get("main_s"),
            "top_self": sorted(((slf, name) for name, (_, _, slf)
                                in tr.by_name().items()), reverse=True)[:5]}
        errors += check_repeat(root, workload, seed, info, trace_counts(metrics))
    result["correct"] = not errors
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, default=str)
    return result


def check_repeat(root: str, workload, seed: int, info: dict,
                 counts: dict) -> list:
    """Traced counts of one seed and source must repeat across invocations."""
    key = (f"{workload.name}-s{seed}-{info['config_sha256']}-"
           f"{info['provenance']['src_digest']}")
    path = os.path.join(root, WORK_DIR, f"counts-{key}.json")
    if os.path.isfile(path):
        with open(path) as fh:
            before = json.load(fh)
        diff = sorted(k for k in set(before) | set(counts)
                      if before.get(k) != counts.get(k))
        if diff:
            return [f"traced counts differ from an earlier run: {diff}"]
        return []
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


def report(result: dict, trace: bool) -> dict:
    """Print every metric by name; return the final JSON line."""
    info = result["info"]
    print(f"workload {info['workload']} ({info['command']}), "
          f"seed {info['provenance']['seed']}, {info['loop']}")
    print(f"config sha256 {info['config_sha256']}, "
          f"wittenlab config digest {info.get('config_digest')}")
    print("config " + json.dumps(info["config"], sort_keys=True))
    print("provenance " + json.dumps(info["provenance"], sort_keys=True))
    print(f"host speed: reference task {REFERENCE_S} s / measured, median "
          f"{result['host_factor']:.4g}; scaled by it: "
          f"{', '.join(result['scaled'])}")
    for name, m in result["end_to_end"].items():
        print(f"{name:<14} median {m['value']:.6g} {m['unit']}  "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}  "
              f"unscaled median {m['raw_median']:.6g}")
    att, fail = result["attempted"], result["failed"]
    print(f"{'fail_ratio':<14} {fail}/{att} = {fail / att:.3g} ratio")
    for err in result["errors"]:
        print(f"GATE FAILURE: {err}")
    if trace and "per_layer" in result:
        for name, m in result["per_layer"].items():
            print(f"{name:<40} {m['value']:.6g} {m['unit']}")
        chk = result["trace_check"]
        print("largest self times: " + ", ".join(
            f"{name} {slf:.3f} s" for slf, name in chk["top_self"]))
    metrics = result.get("per_layer", {}) if trace else {
        k: {"value": m["value"], "unit": m["unit"]}
        for k, m in result["end_to_end"].items()}
    return {"correct": result["correct"], "attempted": att, "failed": fail,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wittenlab", "cli.py")):
        print("run from the root of a wittenlab checkout: src/wittenlab "
              "is missing", file=sys.stderr)
        return 2
    workload = RUNNABLE.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(RUNNABLE)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("the seed must be nonnegative", file=sys.stderr)
        return 2
    result = run(workload, args.seed, args.seconds, bool(args.trace), root)
    line = report(result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
