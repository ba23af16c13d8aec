"""Run configuration: one JSON document, schema-validated, unknown keys rejected."""

from __future__ import annotations

import hashlib
import json

import jsonschema

from .configspace import LatticeGeometry
from .disorder import FieldModel
from .msa import BoundSchedule, ScalingParams
from .operators import InteractionModel


class ConfigError(ValueError):
    """Invalid run configuration."""


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
        "energies": {"type": "array", "items": {"type": "number"}},
        "energy": {"type": "number"},
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
        "s_grid": {"type": "array", "items": {"type": "number"}},
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
        "pairs": {"type": "array"},
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
        "coupling": {"type": "number"},
        "disorder": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["iid", "moving_average"]},
                "marginal": {"enum": ["uniform", "gaussian"]},
                "kernel": {"type": "array", "items": {"type": "number"}},
            },
        },
        "interaction": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["none", "step", "subexp", "table"]},
                "amplitude": {"type": "number"},
                "range": {"type": "integer", "minimum": 0},
                "prefactor": {"type": "number"},
                "rate": {"type": "number"},
                "tail_exponent": {"type": "number"},
                "table": {"type": "array"},
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
                "mass": {"type": "number"},
                "initial_scale": {"type": "integer", "minimum": 3},
                "cn_variant": {"enum": ["11N", "2A+3"]},
                "numerical_floor": {"type": "number"},
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
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "experiments": {"type": "array", "items": _EXPERIMENT, "minItems": 1},
    },
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    try:
        jsonschema.validate(raw, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message} (at {list(exc.path)})")
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
    return FieldModel(
        kind=cfg.get("kind", "iid"),
        marginal=cfg.get("marginal", "uniform"),
        kernel=tuple(cfg.get("kernel", (1.0,))),
    )


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


def config_center(exp: dict, geometry: LatticeGeometry) -> tuple:
    center = exp.get("center")
    if center is None:
        raise ConfigError(f"experiment {exp['kind']!r} needs a center")
    if geometry.kind == "lattice" and geometry.d > 1:
        return tuple(tuple(int(c) for c in site) for site in center)
    return tuple(int(c) for c in center)
