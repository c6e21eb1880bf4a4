"""Structured-text (JSON) model configuration for the CLI.

A config names the model family, the step size (for the m-step family), one
profile record per parameter and optional numeric options.  Profile records
follow ``{"left": value, "right": value, "overrides": [{"site": s, "value":
v}, ...]}`` where a value is either a number or a two-element ``[re, im]``
list.  Angles are in radians; the gain is dimensionless.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

from .models import ModelParamsMko, ModelParamsUm
from .profiles import ParameterProfile

DEFAULT_OPTIONS = {
    "resolution": 2048,
    "window": 100,
    "tol": 1e-10,
    "seed": 0,
}

# (parameter, must be real) per model family
_UM_PROFILES = (("gamma", True), ("p", True), ("a", True), ("q", False), ("b", False))
_MKO_PROFILES = (("gamma", True), ("phi", True), ("theta1", True), ("theta2", True))


class ConfigError(ValueError):
    """Config file failed to parse; the message carries the field path."""


def _scalar(node, path: str, real: bool) -> complex:
    if isinstance(node, bool):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if isinstance(node, (int, float)):
        parts = (node,)
    elif isinstance(node, list) and len(node) == 2 and all(
        isinstance(u, (int, float)) and not isinstance(u, bool) for u in node
    ):
        parts = node
    else:
        raise ConfigError(f"{path}: expected a number or [re, im] pair")
    try:
        value = complex(*parts)
    except OverflowError as err:          # a JSON integer beyond the float range
        raise ConfigError(f"{path}: number too large for a float") from err
    if not cmath.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {node}")
    if real and value.imag != 0.0:
        raise ConfigError(f"{path}: expected a real value")
    return value


def _profile(node, path: str, real: bool) -> ParameterProfile:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(node) - {"left", "right", "overrides"}
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    for key in ("left", "right"):
        if key not in node:
            raise ConfigError(f"{path}.{key}: missing")
    left = _scalar(node["left"], f"{path}.left", real)
    right = _scalar(node["right"], f"{path}.right", real)
    overrides = {}
    for idx, entry in enumerate(node.get("overrides", [])):
        epath = f"{path}.overrides[{idx}]"
        if not isinstance(entry, dict) or set(entry) != {"site", "value"}:
            raise ConfigError(f"{epath}: expected {{'site': ..., 'value': ...}}")
        site = entry["site"]
        if not isinstance(site, int) or isinstance(site, bool):
            raise ConfigError(f"{epath}.site: expected an integer")
        if site in overrides:
            raise ConfigError(f"{epath}.site: site {site} is listed twice")
        overrides[site] = _scalar(entry["value"], f"{epath}.value", real)
    return ParameterProfile(left, right, overrides)


@dataclass
class ModelConfig:
    kind: str
    m: int | None
    profiles: dict
    options: dict = field(default_factory=dict)

    def build(self):
        """Construct validated model parameters (may raise InvalidParameters)."""
        if self.kind == "um":
            return ModelParamsUm(m=self.m, **self.profiles)
        return ModelParamsMko(**self.profiles)

    def option(self, name: str):
        return self.options.get(name, DEFAULT_OPTIONS[name])


def parse_model_config(document: dict, source: str = "config") -> ModelConfig:
    if not isinstance(document, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    kind = document.get("model")
    if kind not in ("um", "mko"):
        raise ConfigError(f"{source}.model: expected 'um' or 'mko'")
    m = None
    if kind == "um":
        m = document.get("m")
        if not isinstance(m, int) or isinstance(m, bool) or m == 0:
            raise ConfigError(f"{source}.m: expected a non-zero integer")
    elif "m" in document:
        raise ConfigError(f"{source}.m: not a parameter of the 'mko' model")
    raw_profiles = document.get("profiles")
    if not isinstance(raw_profiles, dict):
        raise ConfigError(f"{source}.profiles: missing or not an object")
    wanted = _UM_PROFILES if kind == "um" else _MKO_PROFILES
    unknown = set(raw_profiles) - {name for name, _ in wanted}
    if unknown:
        raise ConfigError(f"{source}.profiles.{sorted(unknown)[0]}: unknown parameter")
    profiles = {}
    for name, real in wanted:
        if name not in raw_profiles:
            raise ConfigError(f"{source}.profiles.{name}: missing")
        profiles[name] = _profile(raw_profiles[name], f"{source}.profiles.{name}", real)
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError(f"{source}.options: expected an object")
    unknown = set(options) - set(DEFAULT_OPTIONS)
    if unknown:
        raise ConfigError(f"{source}.options.{sorted(unknown)[0]}: unknown option")
    for name, value in options.items():
        # tol is a number; resolution, window and seed are JSON integers
        number = isinstance(DEFAULT_OPTIONS[name], float)
        if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
            raise ConfigError(
                f"{source}.options.{name}: expected {'a number' if number else 'an integer'}")
        if name == "seed" and value < 0:
            raise ConfigError(f"{source}.options.seed: expected a non-negative integer")
    return ModelConfig(kind=kind, m=m, profiles=profiles, options=dict(options))


def load_model_config(path: str) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    return parse_model_config(document, source=path)
