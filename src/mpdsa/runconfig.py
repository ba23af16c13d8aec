"""Run configuration: one JSON document, schema-validated, unknown keys rejected."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator

from .configspace import LatticeGeometry
from .disorder import FieldModel
from .msa import BoundSchedule, ScalingParams
from .operators import InteractionModel


class ConfigError(ValueError):
    """Invalid run configuration."""


# Largest magnitude of a number that enters the diagonal of H or the
# energy it is shifted by: the coupling, energies, interaction amplitudes
# and table values, kernel taps and sweep values.  The gap certificate
# squares H - E, whose entries reach coupling x kernel tap, so each factor
# at 1e50 keeps the squares near 1e200, well inside double range.
MAX_MAGNITUDE = 1e50
# ``disorder.derive_seed`` packs the master seed as a signed 64-bit value
MAX_SEED = 2**63 - 1
_BOUNDED = {"type": "number", "minimum": -MAX_MAGNITUDE, "maximum": MAX_MAGNITUDE}

_FRACTION = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

_INTS = {"type": "array", "items": {"type": "integer"}}
_PAIR = {"type": "array", "minItems": 2, "maxItems": 2}

_EXPERIMENT = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {
            "enum": ["spectrum", "predicates", "audit", "evc", "dynamics", "event"]
        },
        "center": {"type": "array"},
        "second_center": {"type": "array"},
        "radius": {"type": "integer", "minimum": 0},
        "sub_scale": {"type": "integer", "minimum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "energies": {"type": "array", "items": _BOUNDED},
        "energy": _BOUNDED,
        "event": {
            "enum": [
                "singular",
                "non_localized",
                "tunneling",
                "distant_pair_singular",
                "always_true",
                "always_false",
            ]
        },
        "k_max": {"type": "integer", "minimum": 0},
        "matrix_cap": {"type": "integer", "minimum": 1},
        "grid_stride": {"type": "integer", "minimum": 1},
        # spacing thresholds: evc_bound raises them to fractional powers
        "s_grid": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "constants": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "C1": {"type": "number"},
                "A1": {"type": "number"},
                "b1": {"type": "number"},
                "C2": {"type": "number"},
                "A2": {"type": "number"},
                "b2": {"type": "number"},
            },
        },
        # each pair: two one-particle sites [x, y], or two configurations
        "pairs": {"type": "array", "items": {"oneOf": [_INTS | _PAIR, _PAIR | {"items": _INTS}]}},
        "time_points": {"type": "integer", "minimum": 1},
        "window": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "geometry", "particles", "experiments", "seed"],
    "properties": {
        "schema_version": {"const": 1},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["lattice", "graph"]},
                "d": {"type": "integer", "minimum": 1},
                "growth_constant": {"type": "number", "minimum": 1},
                "adjacency": {"type": "array"},
            },
        },
        "particles": {"type": "integer", "minimum": 1},
        "coupling": _BOUNDED,
        "disorder": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["iid", "moving_average"]},
                "marginal": {"enum": ["uniform", "gaussian"]},
                "kernel": {"type": "array", "items": _BOUNDED},
            },
        },
        "interaction": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["none", "step", "subexp", "table"]},
                "amplitude": _BOUNDED,
                "range": {"type": "integer", "minimum": 0},
                "prefactor": _BOUNDED,
                "rate": {"type": "number"},
                "tail_exponent": {"type": "number"},
                "table": {"type": "array", "items": {"type": "array", "items": _BOUNDED}},
                "truncation_radius": {"type": "integer", "minimum": 0},
                "pair_counting": {"enum": ["ordered", "unordered"]},
            },
        },
        "convention": {"enum": ["induced", "fixed"]},
        "scaling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "regime": {"enum": ["finite", "infinite"]},
                "alpha": _FRACTION,
                "varrho": _FRACTION,
                "tau": _FRACTION,
                "beta": _FRACTION,
                "beta_prime": _FRACTION,
                "delta": _FRACTION,
                "theta": {"type": "number"},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "initial_scale": {"type": "integer", "minimum": 3},
                "cn_variant": {"enum": ["11N", "2A+3"]},
                "numerical_floor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["p", "b"],
            "properties": {
                "p": {"type": "number"},
                "b": {"type": "number"},
            },
        },
        "seed": {"type": "integer", "minimum": 0, "maximum": MAX_SEED},
        "output_dir": {"type": "string"},
        "experiments": {"type": "array", "items": _EXPERIMENT, "minItems": 1},
    },
}


_KEYWORDS = frozenset(
    ("type", "const", "enum", "oneOf", "minimum", "maximum", "exclusiveMinimum", "required",
     "properties", "additionalProperties", "items", "minItems", "maxItems")
)
# the comparison that breaks each bound, as jsonschema makes it
_BREAKS_NUMBER = {"minimum": operator.lt, "maximum": operator.gt, "exclusiveMinimum": operator.le}
_BREAKS_LENGTH = {"minItems": operator.lt, "maxItems": operator.gt}
# the JSON type of each Python type ``json.load`` returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


class _Unsure(Exception):
    """The schema walk met a keyword or value it does not judge."""


def _equal(value, rule) -> bool:
    """jsonschema's equality against a scalar: a bool equals no number."""
    if type(rule) not in (str, int, float, type(None)):
        raise _Unsure
    return type(value) is not bool and value == rule


def _conforms(value, schema) -> bool:
    """Whether ``value`` satisfies ``schema`` under draft 2020-12, as
    jsonschema applies it.  Both verdicts are exact, since ``oneOf``
    counts the branches that match.  A keyword outside ``_KEYWORDS``, a
    schema that is not an object, or a value of a type ``json.load`` does
    not return raises ``_Unsure``."""
    kind = _JSON_TYPES.get(type(value))
    if kind is None or type(schema) is not dict or not schema.keys() <= _KEYWORDS:
        raise _Unsure
    for key, rule in schema.items():
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            ok = kind in types or (
                "integer" in types
                and kind == "number"
                and (type(value) is int or value.is_integer())
            )
        elif key == "const":
            ok = _equal(value, rule)
        elif key == "enum":
            ok = any(_equal(value, each) for each in rule)
        elif key == "oneOf":
            ok = sum(_conforms(value, branch) for branch in rule) == 1
        elif key == "additionalProperties" and rule is not False:
            raise _Unsure
        # every other keyword applies only to values of its own type
        elif kind == "number" and key in _BREAKS_NUMBER:
            ok = not _BREAKS_NUMBER[key](value, rule)
        elif kind == "array" and key in _BREAKS_LENGTH:
            ok = not _BREAKS_LENGTH[key](len(value), rule)
        elif kind == "array" and key == "items":
            ok = all(_conforms(each, rule) for each in value)
        elif kind == "object" and key == "required":
            ok = all(name in value for name in rule)
        elif kind == "object" and key == "properties":
            ok = all(_conforms(value[name], sub) for name, sub in rule.items() if name in value)
        elif kind == "object" and key == "additionalProperties":
            ok = value.keys() <= schema.get("properties", {}).keys()
        else:
            ok = True
        if not ok:
            return False
    return True


@functools.cache
def _validator():
    """jsonschema's validator of ``SCHEMA``, built once, on the first
    config ``_conforms`` does not accept: it words the rejection."""
    import jsonschema

    return jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _finite(text: str) -> float:
    """A JSON number, refusing NaN, Infinity and literals that overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(raw)


def _check_integers(value, schema, path: list) -> None:
    """``ConfigError`` at the first float where ``schema`` asks for an
    integer: JSON Schema counts 2.0 as one, ``range`` and ``derive_seed``
    do not."""
    if type(value) is float and schema.get("type") == "integer":
        raise ConfigError(f"config rejected: a float where an integer is required (at {path})")
    for branch in schema.get("oneOf", ()):
        _check_integers(value, branch, path)
    if type(value) is dict:
        props = schema.get("properties", {})
        for key, item in value.items():
            if key in props:
                _check_integers(item, props[key], path + [key])
    elif type(value) is list and "items" in schema:
        for i, item in enumerate(value):
            _check_integers(item, schema["items"], path + [i])


def validate_config(raw: dict) -> dict:
    """``raw`` if it satisfies ``SCHEMA``, with an int wherever the schema
    asks for an integer, else ``ConfigError`` naming the key path, with
    jsonschema's best-match message for a schema violation.  jsonschema is
    imported only when the schema walk does not accept ``raw``, and its
    verdict stands."""
    try:
        valid = _conforms(raw, SCHEMA)
    except _Unsure:
        valid = False
    if not valid:
        from jsonschema.exceptions import best_match

        error = best_match(_validator().iter_errors(raw))
        if error is not None:
            raise ConfigError(f"config rejected: {error.message} (at {list(error.absolute_path)})")
    _check_integers(raw, SCHEMA, [])
    return raw


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_geometry(raw: dict) -> LatticeGeometry:
    cfg = raw["geometry"]
    adjacency = cfg.get("adjacency")
    return LatticeGeometry(
        kind=cfg["kind"],
        d=cfg.get("d", 1),
        growth_constant=cfg.get("growth_constant"),
        adjacency=None
        if adjacency is None
        else tuple(tuple(int(v) for v in row) for row in adjacency),
    )


def build_field_model(raw: dict) -> FieldModel:
    cfg = raw.get("disorder", {})
    try:
        return FieldModel(
            kind=cfg.get("kind", "iid"),
            marginal=cfg.get("marginal", "uniform"),
            kernel=tuple(cfg.get("kernel", (1.0,))),
        )
    except ValueError as exc:
        raise ConfigError(f"disorder {json.dumps(cfg)}: {exc}")


def build_interaction(raw: dict) -> InteractionModel:
    cfg = raw.get("interaction", {"kind": "none"})
    return InteractionModel(
        kind=cfg.get("kind", "none"),
        amplitude=cfg.get("amplitude", 0.0),
        range_=cfg.get("range", 0),
        prefactor=cfg.get("prefactor", 0.0),
        rate=cfg.get("rate", 1.0),
        tail_exponent=cfg.get("tail_exponent", 0.0),
        table=tuple((int(r), float(v)) for r, v in cfg.get("table", ())),
        truncation_radius=cfg.get("truncation_radius"),
        pair_counting=cfg.get("pair_counting", "ordered"),
    )


def build_params(raw: dict) -> ScalingParams:
    cfg = raw.get("scaling", {})
    infinite = cfg.get("regime", "finite") == "infinite"
    # the regime's rational exponents pass through as given (a number or
    # [num, den]) for ScalingParams to parse; unset ones keep its defaults
    exponents = ("beta", "beta_prime") + (
        ("delta",) if infinite else ("alpha", "varrho", "tau")
    )
    common = {k: cfg[k] for k in exponents if k in cfg}
    common.update(
        n_particles=raw["particles"],
        d=raw["geometry"].get("d", 1),
        mass=cfg.get("mass", 1.0),
        initial_scale=cfg.get("initial_scale", 8),
        cn_variant=cfg.get("cn_variant", "11N"),
        numerical_floor=cfg.get("numerical_floor", 1e-12),
    )
    if infinite:
        return ScalingParams.infinite_range(theta=cfg.get("theta", 0.02), **common)
    return ScalingParams.finite_range(theta=cfg.get("theta", 0.0), **common)


def build_schedule(raw: dict) -> BoundSchedule | None:
    cfg = raw.get("schedule")
    if cfg is None:
        return None
    return BoundSchedule(p=cfg["p"], b=cfg["b"], n_particles=raw["particles"])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def config_center(
    exp: dict, geometry: LatticeGeometry, particles: int, key: str = "center"
) -> tuple:
    """The experiment's ``key`` entry as a tuple of ``particles`` distinct
    sites: integers, lists of d integers on a d > 1 lattice, or vertex
    numbers of a graph."""
    center = exp.get(key)
    if center is None:
        raise ConfigError(f"experiment {exp['kind']!r} needs a {key}")
    nested = geometry.kind == "lattice" and geometry.d > 1
    if nested:
        shape = f"a list of {geometry.d} integers"
        ok = all(
            isinstance(site, list) and len(site) == geometry.d and all(map(_is_int, site))
            for site in center
        )
    elif geometry.kind == "graph":
        shape = f"a vertex from 0 to {len(geometry.adjacency) - 1}"
        ok = all(_is_int(v) and 0 <= v < len(geometry.adjacency) for v in center)
    else:
        shape = "an integer"
        ok = all(map(_is_int, center))
    if not ok or len(center) != particles:
        raise ConfigError(
            f"experiment {exp['kind']!r} {key} {json.dumps(center)} must hold "
            f"{particles} sites, each {shape}"
        )
    sites = tuple(tuple(site) for site in center) if nested else tuple(center)
    if len(set(sites)) != len(sites):
        raise ConfigError(
            f"experiment {exp['kind']!r} {key} {json.dumps(center)} repeats a site"
        )
    return sites
