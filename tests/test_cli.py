import ast
import dataclasses
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import wittenlab
from wittenlab.branches import EigenBranch, PackageDegree, SpectralPackage
from wittenlab.cli import BRANCH_COLUMNS, _write_branch_csv, main, make_parser
from wittenlab.config import PRESETS, ExperimentConfig, Tolerances, load_schema
from wittenlab.errors import NumericalError


def write_config(tmp_path, **kw):
    base = dict(manifold="circle", modes=16, t_max=6.0, t_step=0.5,
                out_dir=str(tmp_path / "out"),
                tolerances=Tolerances(vanish_max=1e-3))
    base.update(kw)
    cfg = ExperimentConfig(**base)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg.as_dict()))
    return cfg, str(p)


def printed_files(capsys):
    out = capsys.readouterr().out
    return [line for line in out.splitlines() if line.strip()]


def test_spectrum_json(tmp_path, capsys):
    cfg, path = write_config(tmp_path, t_max=2.0)
    assert main(["spectrum", "--config", path]) == 0
    (outfile,) = printed_files(capsys)
    assert outfile.endswith(f"spectrum-{cfg.digest()}.json")
    payload = json.loads(open(outfile).read())
    assert payload["config_digest"] == cfg.digest()
    assert payload["ts"][0] == 0.0 and payload["ts"][-1] == 2.0
    lam0 = payload["values"]["0"][0]
    assert lam0[0] == pytest.approx(0.0, abs=1e-9)
    assert lam0[1] == pytest.approx(1.0, abs=1e-9)


def test_spectrum_csv(tmp_path, capsys):
    _, path = write_config(tmp_path, t_max=1.0, format="csv")
    assert main(["spectrum", "--config", path]) == 0
    (outfile,) = printed_files(capsys)
    assert outfile.endswith(".csv")
    lines = open(outfile).read().splitlines()
    assert lines[0] == "q,t,i,lambda"
    assert len(lines) > 10


def test_package_json_validates_against_schema(tmp_path, capsys):
    cfg, path = write_config(tmp_path)
    assert main(["package", "--config", path]) == 0
    files = printed_files(capsys)
    jpath = next(f for f in files if f.endswith(".json"))
    cpath = next(f for f in files if f.endswith(".csv"))
    payload = json.loads(open(jpath).read())
    jsonschema.validate(payload, load_schema("spectral-package"))
    assert payload["manifold"] == "circle"
    assert set(payload["degrees"]) == {"0", "1"}
    for q in ("0", "1"):
        deg = payload["degrees"][q]
        assert (deg["beta"], deg["c"]) == (1, 2)
        labels = sorted(r["label"] for r in deg["branches"])
        assert labels == ["VS_POSITIVE", "ZERO"]
    header = open(cpath).read().splitlines()[0]
    assert header == "q,branch,t,lambda,label,critical_point"


def test_low_mass_warnings_validate_against_schema(tmp_path, capsys):
    """A run whose boxes are too small for mass_min still writes its
    package, and each low-mass branch is a warning object that the
    shipped schema accepts."""
    _, path = write_config(tmp_path, tolerances=Tolerances(
        vanish_max=1e-3, mass_min=1.0, mass_radius=0.05))
    assert main(["package", "--config", path]) == 0
    jpath = next(f for f in printed_files(capsys) if f.endswith(".json"))
    payload = json.loads(open(jpath).read())
    jsonschema.validate(payload, load_schema("spectral-package"))
    for deg in payload["degrees"].values():
        rows = {r["id"]: r for r in deg["branches"]}
        assert len(deg["warnings"]) == len(rows)
        for w in deg["warnings"]:
            row = rows[w["branch"]]
            assert (w["point"], w["mass"]) == (row["critical_point"],
                                               row["mass"])
            assert w["mass"] < 1.0


def test_torsion_json_validates_against_schema(tmp_path, capsys):
    # 16 modes fail the anomaly check at t = 4 (test_experiments)
    cfg, path = write_config(tmp_path, modes=20)
    assert main(["torsion", "--config", path]) == 0
    (outfile,) = printed_files(capsys)
    payload = json.loads(open(outfile).read())
    jsonschema.validate(payload, load_schema("torsion-report"))
    rep = payload["report"]
    assert rep["working_matches"] is True
    assert rep["residual_working"] < 1e-8
    sign, log_abs = rep["a0"]
    assert sign in (-1.0, 1.0)
    # circle: a(0) = a0(0)/a1(0) = (sqrt 2/pi)/(2 sqrt 2) = 1/(2 pi)
    assert math.exp(log_abs) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)


def test_morse_json(tmp_path, capsys):
    _, path = write_config(tmp_path)
    assert main(["morse", "--config", path]) == 0
    (outfile,) = printed_files(capsys)
    payload = json.loads(open(outfile).read())
    assert payload["betti"] == [1, 1]
    assert payload["morse_smale"]["ok"] is True
    assert len(payload["points"]) == 4


def test_duality_json(tmp_path, capsys):
    _, path = write_config(tmp_path)
    assert main(["duality", "--config", path]) == 0
    (outfile,) = printed_files(capsys)
    payload = json.loads(open(outfile).read())
    assert payload["value_residual"] < 1e-9
    assert payload["star_match_residual"] < 1e-8
    assert max(payload["identity_residuals"].values()) < 1e-10


def test_branches_svg(tmp_path, capsys):
    _, path = write_config(tmp_path, t_max=3.0)
    assert main(["branches", "--config", path]) == 0
    files = printed_files(capsys)
    svgs = [f for f in files if f.endswith(".svg")]
    assert len(svgs) == 4  # linear and log per degree
    for f in svgs:
        body = open(f).read()
        assert body.startswith("<svg")
        assert "<polyline" in body


def test_verify_anomaly_subcommand(tmp_path, capsys):
    _, path = write_config(tmp_path)
    assert main(["verify-anomaly", "--config", path, "--cases", "10"]) == 0
    (outfile,) = printed_files(capsys)
    payload = json.loads(open(outfile).read())
    check = payload["anomaly_check"]
    assert check["ok"] is True and check["cases"] == 10
    assert check["max_residual"] <= 1e-9


def test_cases_is_refused_off_verify_anomaly(tmp_path, capsys):
    """--cases belongs to verify-anomaly: any other command exits 2
    before it runs."""
    _, path = write_config(tmp_path)
    for command in ("spectrum", "torsion"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--cases", "10"])
        assert exc.value.code == 2
        assert "--cases" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reruns_are_byte_identical(tmp_path, capsys):
    _, path = write_config(tmp_path, t_max=2.0)
    assert main(["spectrum", "--config", path]) == 0
    (outfile,) = printed_files(capsys)
    first = open(outfile, "rb").read()
    os.remove(outfile)
    assert main(["spectrum", "--config", path]) == 0
    capsys.readouterr()
    assert open(outfile, "rb").read() == first


def test_option_overrides_change_digest(tmp_path, capsys):
    _, path = write_config(tmp_path, t_max=2.0)
    assert main(["spectrum", "--config", path]) == 0
    (a,) = printed_files(capsys)
    assert main(["spectrum", "--config", path, "--tmax", "1.5"]) == 0
    (b,) = printed_files(capsys)
    assert a != b  # digest-named artifacts never overwrite each other
    assert os.path.exists(a) and os.path.exists(b)


def test_out_dir_does_not_change_the_artifact_names(tmp_path, capsys):
    """Two --out values write the same artifact, under one name."""
    _, path = write_config(tmp_path, t_max=2.0)
    runs = []
    for out in ("a", "b"):
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path / out)]) == 0
        (f,) = printed_files(capsys)
        runs.append(f)
    assert os.path.basename(runs[0]) == os.path.basename(runs[1])
    assert os.path.dirname(runs[0]) != os.path.dirname(runs[1])
    a, b = (Path(f).read_bytes() for f in runs)
    assert a == b and b"out_dir" not in a


def test_branch_csv_reads_the_grid_values(tmp_path, rng):
    """The branch CSV holds value_at of every branch at every grid t,
    and skips the samples that refinement put between grid points."""
    grid = np.arange(0.0, 2.01, 0.5)
    degrees = {}
    for q in (0, 1):
        brs = []
        for j, extra in enumerate(([], [0.125, 0.25], [1.75])):
            ts = np.sort(np.concatenate([grid, extra]))
            brs.append(EigenBranch(
                degree=q, ts=ts, values=rng.standard_normal(ts.size),
                vectors=np.ones((ts.size, 1)), rows=np.arange(1), dim=1,
                overlaps=np.ones(ts.size - 1), label=f"L{j}",
                critical_point=None if j == 2 else j))
        degrees[q] = PackageDegree(degree=q, branches=brs[:2],
                                   large=brs[2:], beta=1, c=2, gap=10.0,
                                   tol_zero=0.0)
    pkg = SpectralPackage(manifold="circle", grid=grid, degrees=degrees)
    path = tmp_path / "branches.csv"
    _write_branch_csv(str(path), pkg)
    rows = [",".join(BRANCH_COLUMNS)]
    for q in sorted(pkg.degrees):
        deg = pkg.degrees[q]
        for i, b in enumerate(list(deg.branches) + list(deg.large)):
            cp = "" if b.critical_point is None else str(b.critical_point)
            rows += [f"{q},{i},{float(t):.6g},{b.value_at(float(t)):.16e},"
                     f"{b.label},{cp}" for t in pkg.grid]
    assert path.read_text().splitlines() == rows


def test_exit_code_config_error(tmp_path, capsys):
    _, path = write_config(tmp_path)
    assert main(["spectrum", "--config", path, "--modes", "1"]) == 2
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["spectrum", "--config", str(bad)]) == 2


@pytest.mark.parametrize("section, value", [("tolerances", math.nan),
                                            ("tolerances", math.inf),
                                            ("potential", -math.inf)])
def test_non_finite_config_constants_exit_2(tmp_path, capsys, section, value):
    """NaN and +-Infinity are not JSON, and each passes every bound of
    the schema (a NaN or infinite vanish_max let a 16-mode circle that
    cannot resolve its decay by t = 2 exit 0), so a config file that
    holds one is refused."""
    cfg, path = write_config(tmp_path, t_max=2.0, tolerances=Tolerances())
    doc = cfg.as_dict()
    if section == "tolerances":
        doc["tolerances"]["vanish_max"] = value
    else:
        doc["potential"] = {"arity": 1,
                            "terms": [{"freq": [2], "sin": value}]}
    with open(path, "w") as fh:
        json.dump(doc, fh)  # writes the constant NaN, Infinity or -Infinity
    assert main(["package", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and json.dumps(value) in err


def test_non_finite_tmax_exits_2(tmp_path, capsys):
    _, path = write_config(tmp_path)
    assert main(["spectrum", "--config", path, "--tmax", "inf"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("modes", 16.0), ("k_extra", 2.0),
                                        ("seed", 1.0), ("degrees", [0.0, 1.0])])
def test_integral_floats_run_as_their_ints(tmp_path, capsys, key, value):
    """A count or index written as an integral float, which the schema
    accepts as an integer, runs like its int form: the same files with
    the same digest and bytes.  A fractional value still exits 2."""
    cfg, path = write_config(tmp_path, k_extra=2)
    doc = json.loads(open(path).read())
    runs = []
    for v in (value, [int(q) for q in value] if key == "degrees"
              else int(value)):
        doc[key] = v
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["package", "--config", path]) == 0
        files = printed_files(capsys)
        runs.append({f: open(f, "rb").read() for f in files})
    assert runs[0] == runs[1]
    assert all(cfg.replace(**{key: doc[key]}).digest() in f for f in runs[0])
    doc[key] = [0.5] if key == "degrees" else 2.5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["package", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_gap_not_found(tmp_path, capsys):
    # 16 modes cannot resolve the decay by t = 8 under the default
    # vanish ceiling, so classification refuses the package
    cfg, path = write_config(tmp_path, t_max=8.0,
                             tolerances=Tolerances())
    assert main(["package", "--config", path]) == 4
    assert "gap not found" in capsys.readouterr().err


def test_exit_code_numerical_error(tmp_path, capsys, monkeypatch):
    import wittenlab.cli as cli

    def boom(cfg, k=None):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "run_spectrum", boom)
    _, path = write_config(tmp_path, t_max=2.0)
    assert main(["spectrum", "--config", path]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_torsion_exit_code_on_failed_anomaly_check(tmp_path, capsys,
                                                   monkeypatch):
    import wittenlab.torsion as torsion

    check = torsion.check_anomaly

    def shifted(log_T_vs, log_a, log_volH, log_T_morse):
        # one log term off by ten times the check's own 1e-3 bound
        return check(log_T_vs + 1e-2, log_a, log_volH, log_T_morse)

    # anomaly_residual looks check_anomaly up in wittenlab.torsion
    monkeypatch.setattr(torsion, "check_anomaly", shifted)
    # 20 modes pass the unpatched check at every sample
    _, path = write_config(tmp_path, modes=20)
    assert main(["torsion", "--config", path]) == 3
    assert "anomaly identity fails at t=0.0" in capsys.readouterr().err


# the torus-sin2-product preset at 24 modes, and the same turned a
# quarter period on both circles (cos 2th1 + cos 2th2)
TORUS24 = {
    "manifold": "torus", "modes": 24, "t_max": 5.0, "t_step": 0.5,
    "tolerances": {"vanish_max": 1e-4}}
SIN2, COS2 = ({"arity": 2, "terms": [{"freq": [0, 2], "cos": c, "sin": s},
                                     {"freq": [2, 0], "cos": c, "sin": s}]}
              for c, s in ((0.0, 1.0), (1.0, 0.0)))


def test_default_routes_load_no_scipy_jsonschema_or_numpy_ma(tmp_path):
    """The command line imports no scipy module, and neither does a
    circle torsion run or a separable torus package run, which is built
    from circle factors: scipy serves only the subset and Lanczos
    eigensolves of assembled blocks above SMALL_BLOCK_DIM rows.  None of
    them loads jsonschema (the package reads the config schema itself),
    numpy.ma (which np.unique would load) or OpenSSL's _hashlib (the
    config digest takes CPython's built-in SHA-256).  Only the branches
    command, the one that draws, loads the SVG module."""
    configs = []
    for name, potential in (("sin2", SIN2), ("cos2", COS2)):
        path = tmp_path / f"torus24-{name}.json"
        path.write_text(json.dumps({**TORUS24, "potential": potential,
                                    "out_dir": str(tmp_path / name)}))
        configs.append(str(path))
    code = ("import sys, wittenlab.cli as cli\n"
            "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(rc, [m for m in sys.modules\n"
            "           if m.split('.')[0] in ('scipy', 'jsonschema')\n"
            "           or (m + '.').startswith('numpy.ma.')\n"
            "           or m in ('_hashlib', 'wittenlab.svgplot')])")
    for args, loaded in (
            ([], []),
            (["torsion", "--preset", "circle-sin2",
              "--out", str(tmp_path / "circle")], []),
            (["package", "--config", configs[0]], []),
            (["package", "--config", configs[1]], []),
            (["branches", "--preset", "circle-sin2",
              "--out", str(tmp_path / "branches")], ["wittenlab.svgplot"])):
        out = subprocess.run([sys.executable, "-c", code, *args],
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == f"0 {loaded}", (args,
                                                              out.stdout)


def test_no_record_is_a_dataclass():
    """Defining a dataclass exec-compiles its generated methods when its
    module is imported (18 records took about 9.6 ms of every start on a
    2-vCPU VM): no module of the package imports dataclasses, none of
    its classes is one, and a fresh interpreter that imports the command
    line never loads it."""
    for path in sorted(Path(wittenlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [a.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for a in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert "dataclasses" not in imported, path.name
        name = "wittenlab" + ("" if path.stem == "__init__"
                              else f".{path.stem}")
        mod = importlib.import_module(name)
        assert not [k for k, obj in vars(mod).items()
                    if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    out = subprocess.run([sys.executable, "-c", "import sys, wittenlab.cli; "
                          "print('dataclasses' in sys.modules)"],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def readme_commands() -> list:
    """Every `wittenlab ...` line of the README's code blocks, comments
    dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    return [line.split("#")[0].strip() for block in blocks
            for line in block.splitlines()
            if line.startswith("wittenlab ")]


def test_readme_commands_parse():
    """The README's commands, the one reproduction of both experiments,
    parse with the command's own parser (no call runs), and they run
    package, torsion and duality on both presets."""
    runs = set()
    for line in readme_commands():
        try:
            args = make_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        runs.add((args.command, args.preset))
    assert {(c, p) for c in ("package", "torsion", "duality")
            for p in PRESETS} <= runs


def test_empty_degree_list_means_every_degree(tmp_path, capsys):
    """degrees: [] in a config file reads as every degree, like null and
    [0, 1]: one digest for all three spellings, and torsion runs on it."""
    cfg, path = write_config(tmp_path, modes=20)
    doc = json.loads(Path(path).read_text())
    digests = set()
    for spelling in (None, [], [0, 1]):
        digests.add(ExperimentConfig.from_dict(
            {**doc, "degrees": spelling}).digest())
    assert digests == {cfg.digest()}
    Path(path).write_text(json.dumps({**doc, "degrees": []}))
    assert main(["torsion", "--config", path]) == 0
    (out,) = printed_files(capsys)
    assert os.path.basename(out) == f"torsion-{cfg.digest()}.json"
    assert json.loads(Path(out).read_text())["config"]["degrees"] == [0, 1]
