"""Experiment configuration: tolerances, presets, deterministic digests.

Configs round-trip through JSON and are validated against the schema
shipped in wittenlab/schemas/, read by the small draft-07 reader below.
The records check fields as well, so one built in code is checked too:
Tolerances.__new__ that every tolerance is finite, ExperimentConfig.__new__
the manifold, format, modes, t-grid, k_extra and degrees.  Every output
file embeds the config digest so runs are attributable and reproducible byte
for byte.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .trigpoly import TrigPoly, circle_sin2, torus_sin2_product

# CPython's built-in SHA-256, as random.py takes its _sha512: hashlib
# would load OpenSSL into every run for one 16-digit digest
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class _ToleranceFields(NamedTuple):
    # graded Kronecker defect of a separable torus, relative to 1 + max |E|
    operator_identity: float = 1e-10
    eig_residual: float = 1e-9
    zero_rel: float = 1e-9  # kernel detection, relative to spectral scale
    overlap_min: float = 0.9  # consecutive eigenvector overlap in tracking
    cluster_rel: float = 1e-6  # relative gap treated as a degenerate cluster
    gap_min: float = 10.0  # small/large spectral separation at t_max
    decay_ratio: float = 0.5  # lambda(t_max) <= ratio * lambda(t_max/2)
    vanish_max: float = 1e-6  # ceiling for decaying branches at t_max
    growth_floor: float = 1.0  # floor for growing branches at t_max
    mass_min: float = 0.5  # localization mass per assigned branch
    mass_radius: float = math.pi / 8
    quad_rel: float = 1e-10  # adaptive quadrature relative target
    det_gap: float = 1e3  # nullity gap ratio in det'
    newton_tol: float = 1e-12  # critical point refinement
    nondegen_tol: float = 1e-8  # Hessian nondegeneracy floor


class Tolerances(_ToleranceFields):
    """Numerical thresholds; defaults chosen for dense double precision."""

    __slots__ = ()

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        # NaN and +-inf pass every bound a threshold is compared with
        bad = [k for k, v in zip(self._fields, self) if not math.isfinite(v)]
        if bad:
            raise ConfigError(f"tolerances must be finite: {', '.join(bad)}")
        return self

    def replace(self, **kw) -> "Tolerances":
        return Tolerances(**{**self._asdict(), **kw})  # _replace skips __new__

    def as_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "Tolerances":
        schema = load_schema("experiment-config")["properties"]["tolerances"]
        check_document(d, schema, "tolerances")
        return cls(**d)


def _potential_to_json(f: TrigPoly) -> dict:
    terms = []
    for key in sorted(f.terms):
        c, s = f.terms[key]
        terms.append({"freq": list(key), "cos": c, "sin": s})
    return {"arity": f.arity, "terms": terms}


def _potential_from_json(spec) -> TrigPoly:
    if isinstance(spec, str):
        if spec == "sin2":
            return circle_sin2()
        if spec == "sin2-product":
            return torus_sin2_product()
        raise ConfigError(f"unknown potential preset {spec!r}")
    try:
        p = TrigPoly(int(spec["arity"]))
        for term in spec["terms"]:
            key = tuple(int(k) for k in term["freq"])
            if len(key) != p.arity:
                raise ConfigError("frequency vector length must equal arity")
            p._add(key, float(term.get("cos", 0.0)), float(term.get("sin", 0.0)))
        return p
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed potential document: {exc}") from exc


class _ConfigFields(NamedTuple):
    manifold: str = "circle"
    potential: str | dict = "sin2"
    modes: int = 32
    t_max: float = 15.0
    t_step: float = 0.25
    k_extra: int = 6  # tracked branches beyond c_q
    degrees: tuple | None = None  # None or () = all degrees of the manifold
    seed: int = 0
    out_dir: str = "out"
    format: str = "json"
    tolerances: Tolerances = Tolerances()


class ExperimentConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if self.manifold not in ("circle", "torus"):
            raise ConfigError(f"unknown manifold {self.manifold!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not (isinstance(self.modes, int) and 2 <= self.modes <= 128):
            raise ConfigError("modes must be an integer in [2, 128]")
        if not (math.isfinite(self.t_max) and 0 < self.t_step <= self.t_max):
            raise ConfigError("need 0 < t_step <= t_max, both finite")
        if self.k_extra < 0:
            raise ConfigError("k_extra must be nonnegative")
        n = 1 if self.manifold == "circle" else 2
        degs = tuple(self.degrees or range(n + 1))
        if any(not (0 <= q <= n) for q in degs):
            raise ConfigError(f"degrees must lie in 0..{n}")
        return self._replace(degrees=degs)

    @property
    def dim(self) -> int:
        return 1 if self.manifold == "circle" else 2

    def potential_trigpoly(self) -> TrigPoly:
        f = _potential_from_json(self.potential)
        if f.arity != self.dim:
            raise ConfigError(
                f"potential arity {f.arity} does not match manifold {self.manifold}"
            )
        return f

    def grid(self) -> np.ndarray:
        ts = np.arange(0.0, self.t_max + 0.5 * self.t_step, self.t_step)
        ts = np.round(ts, 12)
        if ts[-1] < self.t_max:
            ts = np.append(ts, self.t_max)
        else:
            ts[-1] = self.t_max
        return ts

    def as_dict(self) -> dict:
        d = self._asdict()
        d["degrees"] = list(self.degrees)
        d["tolerances"] = self.tolerances.as_dict()
        return d

    def experiment_dict(self) -> dict:
        """as_dict() without out_dir, which moves the artifacts but changes
        none of them: what the digest hashes and every payload echoes."""
        d = self.as_dict()
        del d["out_dir"]
        return d

    def digest(self) -> str:
        """First 16 hex digits of the SHA-256 of the canonical JSON of
        experiment_dict(), from CPython's built-in module (the same
        digest hashlib gives)."""
        canon = json.dumps(self.experiment_dict(), sort_keys=True,
                           separators=(",", ":"))
        return _sha256(canon.encode()).hexdigest()[:16]

    def replace(self, **kw) -> "ExperimentConfig":
        return ExperimentConfig(**{**self._asdict(), **kw})  # validated again

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        validate_config_dict(d)
        d = dict(d)
        # draft-07 counts an integral float such as 2.0 as an integer; the
        # counts and indices are read as that int
        for key in ("modes", "k_extra", "seed"):
            if key in d:
                d[key] = int(d[key])
        if "tolerances" in d:  # validated with the whole document
            d["tolerances"] = Tolerances(**d["tolerances"])
        if "degrees" in d and d["degrees"] is not None:
            d["degrees"] = tuple(int(q) for q in d["degrees"])
        cfg = cls(**d)
        cfg.potential_trigpoly()  # fail fast on malformed potentials
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        def refuse(name):
            # NaN and +-Infinity are not JSON, and they pass every bound
            raise ConfigError(f"config {path} holds the non-JSON constant "
                              f"{name}")

        try:
            with open(path) as fh:
                d = json.load(fh, parse_constant=refuse)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def validate_config_dict(d: dict):
    """Validate a raw config document against the shipped JSON schema."""
    check_document(d, load_schema("experiment-config"))


# -- a draft-07 reader for the keywords the config schema uses ---------

# the keywords the reader implements, after three annotations that
# constrain nothing
KEYWORDS = frozenset({
    "$schema", "title", "description",
    "type", "enum", "oneOf", "properties", "required",
    "additionalProperties", "items", "minItems", "maxItems", "minimum",
    "maximum", "exclusiveMinimum"})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# draft-07 types of a JSON value: bool is never a number, and a float
# with an integral value is an integer
JSON_TYPES = {
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "string": lambda x: isinstance(x, str),
    "array": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int)
                                            or x.is_integer()),
}


def _types(schema: dict) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _json_equal(a, b) -> bool:
    """JSON equality as `enum` uses it: bool never equals 1 or 0, and
    arrays and objects compare item by item under the same rule."""
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(v, b[k])
                                            for k, v in a.items())
    return a == b


def _require_known_keywords(schema: dict):
    """Raise on any keyword, or form of one, that the reader does not
    implement, anywhere in the schema, so no rule goes unchecked."""
    unknown = set(schema) - KEYWORDS
    unknown |= {f"type {t!r}" for t in _types(schema) if t not in JSON_TYPES}
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties other than false")
    if not isinstance(schema.get("items", {}), dict):
        unknown.add("items other than one schema")
    if unknown:
        raise NotImplementedError("schema keywords the reader does not "
                                  f"implement: {sorted(unknown)}")
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        _require_known_keywords(sub)


def _join(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _violation(x, schema: dict, path: str):
    """(JSON path, reason) of the first rule of schema that the value x
    breaks, or None when x is valid."""
    types = _types(schema)
    if "type" in schema and not any(JSON_TYPES[t](x) for t in types):
        return path, f"{x!r} is not of type {' or '.join(types)}"
    if "enum" in schema and not any(_json_equal(e, x) for e in schema["enum"]):
        return path, f"{x!r} is not one of {schema['enum']!r}"
    if "oneOf" in schema:
        found = [_violation(x, sub, path) for sub in schema["oneOf"]]
        n = found.count(None)
        if n == 0:  # name the value inside x that the closest form rejects
            deepest = max(found, key=lambda f: len(f[0]))
            if deepest[0] != path:
                return deepest
        if n != 1:
            return path, (f"{x!r} matches {n} of the {len(schema['oneOf'])} "
                          "allowed forms, not exactly one")
    if isinstance(x, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in x:
                return _join(path, key), "required key missing"
        if schema.get("additionalProperties") is False:
            for key in x:
                if key not in props:
                    return _join(path, key), "unknown key"
        for key, sub in props.items():
            if key in x:
                found = _violation(x[key], sub, _join(path, key))
                if found:
                    return found
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            return path, f"has fewer than {schema['minItems']} items"
        if len(x) > schema.get("maxItems", math.inf):
            return path, f"has more than {schema['maxItems']} items"
        for i, item in enumerate(x if "items" in schema else ()):
            found = _violation(item, schema["items"], _join(path, i))
            if found:
                return found
    if _is_number(x):
        if "minimum" in schema and x < schema["minimum"]:
            return path, f"{x!r} is less than {schema['minimum']!r}"
        if "maximum" in schema and x > schema["maximum"]:
            return path, f"{x!r} is greater than {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
            return path, (f"{x!r} is not greater than "
                          f"{schema['exclusiveMinimum']!r}")
    return None


def check_document(doc, schema: dict, path: str = ""):
    """Raise ConfigError, naming the JSON path of the offending value,
    when doc breaks the draft-07 schema; path is the document's own."""
    _require_known_keywords(schema)
    found = _violation(doc, schema, path)
    if found:
        where, reason = found
        raise ConfigError(
            f"config schema violation at {where or 'the top level'}: {reason}")


def load_schema(name: str) -> dict:
    from importlib import resources

    ref = resources.files("wittenlab") / "schemas" / f"{name}.schema.json"
    with ref.open() as fh:
        return json.load(fh)


# one-command reproductions of the worked example; the torus preset uses
# the window where its cutoff resolves the decaying branches (the small
# eigenvalues re-inflate past t ~ 5 at modes=12, a pure truncation effect)
PRESETS = {
    "circle-sin2": ExperimentConfig(
        manifold="circle", potential="sin2", modes=32, t_max=15.0, t_step=0.25
    ),
    "torus-sin2-product": ExperimentConfig(
        manifold="torus",
        potential="sin2-product",
        modes=12,
        t_max=5.0,
        t_step=0.25,
        tolerances=Tolerances(vanish_max=1e-4),
    ),
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
