import copy
import hashlib
import json
import re

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wittenlab import config
from wittenlab.config import (ExperimentConfig, PRESETS, Tolerances, preset,
                              check_document, load_schema,
                              validate_config_dict)
from wittenlab.errors import ConfigError


def test_digest_is_stable_hex():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.digest() == b.digest()
    assert re.fullmatch(r"[0-9a-f]{16}", a.digest())
    assert a.replace(modes=16).digest() != a.digest()
    assert a.replace(tolerances=Tolerances(vanish_max=1e-4)).digest() != a.digest()


def test_digest_is_hashlib_sha256_of_the_canonical_json():
    """The digest, taken from CPython's built-in SHA-256, equals
    hashlib's of the canonical JSON without out_dir on every preset and
    on a torus-package-sparse benchmark config (seed 1: cos 2th1 +
    sin 2th2, 24 modes, t_step 0.5), so artifact names do not depend on
    which module computed it."""
    potential = {"arity": 2, "terms": [
        {"freq": [0, 2], "cos": 0.0, "sin": 1.0},
        {"freq": [2, 0], "cos": 1.0, "sin": 0.0}]}
    cfgs = [preset(name) for name in sorted(PRESETS)]
    cfgs.append(preset("torus-sin2-product").replace(
        modes=24, t_step=0.5, potential=potential,
        out_dir="torus-package-sparse"))
    for cfg in cfgs:
        doc = cfg.as_dict()
        del doc["out_dir"]
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        want = hashlib.sha256(canon.encode()).hexdigest()[:16]
        assert cfg.digest() == want


def test_digest_does_not_depend_on_out_dir():
    cfg = preset("circle-sin2")
    assert cfg.replace(out_dir="elsewhere").digest() == cfg.digest()


def test_dict_round_trip():
    cfg = preset("torus-sin2-product").replace(seed=7, k_extra=3)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.as_dict())))
    assert back == cfg
    assert back.digest() == cfg.digest()


def test_json_file_round_trip(tmp_path):
    cfg = preset("circle-sin2")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.as_dict()))
    assert ExperimentConfig.from_json(str(p)) == cfg
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(bad))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(str(tmp_path / "missing.json"))


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(manifold="sphere")
    with pytest.raises(ConfigError):
        ExperimentConfig(modes=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(modes=200)
    with pytest.raises(ConfigError):
        ExperimentConfig(t_step=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(t_step=2.0, t_max=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(k_extra=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(format="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig(degrees=(0, 5))
    # arity mismatch surfaces when the potential is materialized
    with pytest.raises(ConfigError):
        ExperimentConfig(manifold="torus", potential="sin2").potential_trigpoly()
    with pytest.raises(ConfigError):
        ExperimentConfig(potential="sin3").potential_trigpoly()


def test_from_dict_rejects_unknown_keys():
    d = ExperimentConfig().as_dict()
    d["extra"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d2 = ExperimentConfig().as_dict()
    d2["tolerances"]["bogus"] = 0.5
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d2)
    d3 = ExperimentConfig().as_dict()
    d3["tolerances"]["vanish_max"] = -1.0
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d3)


def test_potential_document_round_trip():
    doc = {"arity": 1, "terms": [{"freq": [2], "cos": 0.0, "sin": 1.0}]}
    cfg = ExperimentConfig(potential=doc)
    f = cfg.potential_trigpoly()
    assert f.arity == 1 and f.max_freq() == (2,)
    th = np.linspace(0.0, 6.0, 13)
    ref = ExperimentConfig().potential_trigpoly()
    assert np.allclose([f(x) for x in th], [ref(x) for x in th], atol=1e-15)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"potential": {"arity": 1}})


def test_presets():
    assert set(PRESETS) == {"circle-sin2", "torus-sin2-product"}
    c = preset("circle-sin2")
    assert (c.manifold, c.modes, c.t_max, c.t_step) == ("circle", 32, 15.0, 0.25)
    t = preset("torus-sin2-product")
    assert (t.manifold, t.modes, t.t_max) == ("torus", 12, 5.0)
    # the coarse torus cutoff needs the looser vanish ceiling
    assert t.tolerances.vanish_max == pytest.approx(1e-4)
    with pytest.raises(ConfigError):
        preset("klein-bottle")


@given(st.floats(0.05, 3.0), st.floats(0.01, 1.0))
def test_grid_properties(t_max, t_step):
    t_step = min(t_step, t_max)
    cfg = ExperimentConfig(t_max=t_max, t_step=t_step)
    ts = cfg.grid()
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(t_max, abs=1e-12)
    assert np.all(np.diff(ts) > 0)
    assert np.max(np.diff(ts)) <= t_step * (1 + 1e-9)


def test_schema_loads():
    for name in ("experiment-config", "spectral-package", "torsion-report"):
        sch = load_schema(name)
        assert sch.get("$schema", "").startswith("http")
    with pytest.raises(FileNotFoundError):
        load_schema("no-such-schema")


def test_tolerances_replace_and_round_trip():
    tol = Tolerances().replace(vanish_max=1e-4)
    assert tol.vanish_max == 1e-4
    assert Tolerances.from_dict(tol.as_dict()) == tol
    with pytest.raises(ConfigError):
        Tolerances.from_dict({"nope": 1.0})


def test_replace_validates_again():
    """The records are immutable NamedTuples whose __new__ validates;
    replace builds a new one through it (NamedTuple._replace would not)."""
    cfg = preset("circle-sin2")
    with pytest.raises(ConfigError, match="modes"):
        cfg.replace(modes=1)
    with pytest.raises(ConfigError, match="must be finite: vanish_max"):
        cfg.tolerances.replace(vanish_max=np.nan)
    with pytest.raises(TypeError):
        cfg.replace(nope=1)
    assert cfg.replace(degrees=[1]).degrees == (1,)
    assert hash(cfg) == hash(ExperimentConfig(**cfg._asdict()))
    with pytest.raises(AttributeError):
        cfg.modes = 8


def test_from_dict_reads_the_schema_once(monkeypatch):
    """A config document is checked once as a whole, its tolerances
    included; Tolerances.from_dict keeps its own check."""
    calls = []

    def counting(name):
        calls.append(name)
        return load_schema(name)

    monkeypatch.setattr(config, "load_schema", counting)
    cfg = ExperimentConfig.from_dict({"tolerances": {"vanish_max": 1e-4}})
    assert cfg.tolerances.vanish_max == 1e-4 and len(calls) == 1
    with pytest.raises(ConfigError, match=r"tolerances\.gap_min"):
        ExperimentConfig.from_dict({"tolerances": {"gap_min": True}})
    assert len(calls) == 2
    Tolerances.from_dict({"vanish_max": 1e-4})
    assert len(calls) == 3


def test_tolerances_share_the_schema_bounds():
    with pytest.raises(ConfigError, match=r"tolerances\.overlap_min"):
        Tolerances.from_dict({"overlap_min": 2.0})
    with pytest.raises(ConfigError, match=r"tolerances\.gap_min"):
        Tolerances.from_dict({"gap_min": True})
    assert Tolerances.from_dict({"overlap_min": 1}).overlap_min == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", list(Tolerances().as_dict()))
def test_non_finite_tolerances_are_refused(name, value):
    """A NaN or infinite tolerance passes every bound it is compared
    with, so none is accepted, from Python callers or config documents."""
    with pytest.raises(ConfigError, match=f"must be finite: {name}"):
        Tolerances(**{name: value})
    # -inf breaks a schema bound first; NaN and +inf pass the schema
    with pytest.raises(ConfigError, match=name):
        ExperimentConfig.from_dict({"tolerances": {name: value}})


# -- the schema reader against jsonschema as the oracle ----------------

CONFIG_SCHEMA = load_schema("experiment-config")
ORACLE = jsonschema.Draft7Validator(CONFIG_SCHEMA)

# a benchmark-style document: the torus at 24 modes with a potential of
# quarter-turned sin 2theta factors written out term by term
BENCH_DOC = {
    "manifold": "torus", "modes": 24, "t_max": 5.0, "t_step": 0.5,
    "tolerances": {"vanish_max": 1e-4}, "out_dir": "out",
    "potential": {"arity": 2, "terms": [
        {"freq": [0, 2], "cos": -1.0, "sin": 0.0},
        {"freq": [2, 0], "cos": 0.0, "sin": 1.0}]}}
BASE_DOCS = (preset("circle-sin2").as_dict(),
             preset("torus-sin2-product").as_dict(), BENCH_DOC)


def reader_accepts(doc) -> bool:
    try:
        validate_config_dict(doc)
    except ConfigError:
        return False
    return True


KEYS = st.sampled_from(sorted(
    {"manifold", "potential", "arity", "terms", "freq", "cos", "sin",
     "modes", "t_max", "degrees", "seed", "format", "tolerances",
     "vanish_max", "overlap_min", "bogus"})) | st.text(max_size=2)
SCALARS = (st.sampled_from([None, True, False, 0, 1, 2, -1, 0.0, 1.0, 2.0,
                            24.0, 0.5, 1e-4, 128, 129, "sin2", "sin2-product",
                            "circle", "torus", "csv", "json", ""])
           | st.integers() | st.floats() | st.text(max_size=3))
VALUES = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(KEYS, kids, max_size=3), max_leaves=5)


def _parent(doc, path):
    """The array or object that holds the value at path (path nonempty)."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _paths(doc, path=()):
    yield path
    kids = (doc.items() if isinstance(doc, dict)
            else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in kids:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_documents(draw):
    """A base document with one to three values replaced, keys or items
    deleted, or keys or items added, anywhere in it."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["set", "delete", "add"]))
        if not path:
            if op == "set":
                doc = draw(VALUES)
            continue
        parent = _parent(doc, path)
        target = parent[path[-1]]
        if op == "set":
            parent[path[-1]] = draw(VALUES)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(target, dict):
            target[draw(KEYS)] = draw(VALUES)
        elif isinstance(target, list):
            target.append(draw(VALUES))
    return doc


@settings(max_examples=400)
@given(mutated_documents())
def test_reader_matches_jsonschema(doc):
    assert reader_accepts(doc) == ORACLE.is_valid(doc)


def _set(path, value):
    def edit(doc):
        _parent(doc, path)[path[-1]] = value
    return edit


PINNED = {
    "modes true": (_set(["modes"], True), False),
    "modes 24.0": (_set(["modes"], 24.0), True),
    "arity 1.0": (_set(["potential", "arity"], 1.0), True),
    "freq empty": (_set(["potential", "terms", 0, "freq"], []), False),
    "freq [true]": (_set(["potential", "terms", 0, "freq"], [True]), False),
    "potential of neither form": (_set(["potential"], {"arity": 2}), False),
    "potential name unknown": (_set(["potential"], "sin3"), False),
    "degrees null": (_set(["degrees"], None), True),
    "extra key, top": (_set(["extra"], 1), False),
    "extra key, tolerances": (_set(["tolerances", "bogus"], 0.5), False),
    "extra key, potential": (_set(["potential", "bogus"], 0), False),
    "extra key, term": (_set(["potential", "terms", 0, "bogus"], 0), False),
    "t_max 0": (_set(["t_max"], 0), False),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_reader_pinned_cases(case):
    edit, valid = PINNED[case]
    doc = copy.deepcopy(BENCH_DOC)
    edit(doc)
    assert ORACLE.is_valid(doc) == valid
    assert reader_accepts(doc) == valid


def test_violation_names_its_json_path():
    doc = copy.deepcopy(BENCH_DOC)
    doc["tolerances"]["vanish_max"] = -1.0
    with pytest.raises(ConfigError, match=r" at tolerances\.vanish_max: "):
        ExperimentConfig.from_dict(doc)
    doc = copy.deepcopy(BENCH_DOC)
    doc["potential"]["terms"][1]["freq"] = [2, 0.5]
    with pytest.raises(ConfigError,
                       match=r" at potential\.terms\[1\]\.freq\[1\]: "):
        ExperimentConfig.from_dict(doc)


def test_reader_refuses_keywords_it_does_not_implement():
    check_document({}, CONFIG_SCHEMA)  # the shipped schema is readable
    with pytest.raises(NotImplementedError, match="pattern"):
        check_document("abc", {"type": "string", "pattern": "^a"})
    # also where the document never reaches
    nested = {"properties": {"x": {"items": {"uniqueItems": True}}}}
    with pytest.raises(NotImplementedError, match="uniqueItems"):
        check_document({}, nested)
    with pytest.raises(NotImplementedError, match="additionalProperties"):
        check_document({}, {"additionalProperties": {"type": "number"}})
