"""Experiment configuration: flat key=value files plus override parsing.

Each key is a field of ``ExperimentConfig`` or, as ``model.<kind>.<field>``,
of the kind's model config: parsed by its default's type, bounded by its
metadata and listed by ``describe_keys``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .models.base import MODEL_CONFIGS, MODEL_KINDS, check_bounds, least
from .sampling import STRATEGIES


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    master_seed: int = 0
    num_samples: int = least(20, 1)
    mu_min: float = least(0.7, 0)   # mu_min <= mu_max < 1
    mu_max: float = 0.9
    strategies: tuple = field(default=STRATEGIES,
                              metadata={"allowed": STRATEGIES})
    models: tuple = field(default=MODEL_KINDS,
                          metadata={"allowed": MODEL_KINDS})
    model_configs: dict = field(default_factory=dict)
    alphas: tuple = (0.0, 0.3, 0.7, 1.0)    # each in [0, 1]
    out_dir: str = "runs"
    jobs: int = least(1, 1)

    def __post_init__(self):
        check_bounds(self)
        if not self.mu_min <= self.mu_max < 1.0:
            raise ValueError("need 0 <= mu_min <= mu_max < 1")
        if not all(0.0 <= a <= 1.0 for a in self.alphas):
            raise ValueError(f"alphas must lie in [0, 1], got {self.alphas}")
        for kind in self.model_configs:
            self.config_for(kind)  # rejects what would fail every cell

    def config_for(self, kind):
        """The kind's model config with any file/CLI overrides applied."""
        try:
            return MODEL_CONFIGS[kind](**self.model_configs.get(kind, {}))
        except ValueError as exc:
            raise ConfigError(f"model.{kind}: {exc}") from None


# the experiment keys; model_configs is set as model.<kind>.<field>
_KEYS = {f.name: f for f in fields(ExperimentConfig)
         if f.name != "model_configs"}


def _parse(f, raw):
    """``raw`` as a value of the config field ``f``, by the type of its
    default: an int, finite float or str, or for a tuple a non-empty
    comma-separated list of distinct values of its element type, each of
    the field's ``allowed`` values if it has them."""
    if not isinstance(f.default, tuple):
        return _parse_value(type(f.default), raw)
    values = tuple(_parse_value(type(f.default[0]), v.strip())
                   for v in raw.split(",") if v.strip())
    if not values:
        raise ValueError("empty list")
    allowed = f.metadata.get("allowed", values)
    unknown = [v for v in values if v not in allowed]
    if unknown:
        raise ValueError(f"unknown value {unknown[0]!r} "
                         f"(allowed: {', '.join(allowed)})")
    repeated = [v for j, v in enumerate(values) if v in values[:j]]
    if repeated:
        raise ValueError(f"repeated value {repeated[0]!r}")
    return values


def _parse_value(kind, raw):
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def apply_setting(settings, key, raw):
    """Parse one key=value pair into the mutable settings dict."""
    key = key.strip()
    if key.startswith("model.") and key.count(".") == 2:
        _, kind, name = key.split(".")
        if kind not in MODEL_CONFIGS:
            raise ConfigError(f"{key}: unknown model kind {kind!r}")
        own = {f.name: f for f in fields(MODEL_CONFIGS[kind])}
        if name not in own:
            raise ConfigError(f"{key}: {kind} has no field {name!r} "
                              f"(fields: {', '.join(own)})")
        target = settings.setdefault("model_configs", {}).setdefault(kind, {})
        f = own[name]
    elif key in _KEYS:
        target, f = settings, _KEYS[key]
    else:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        target[f.name] = _parse(f, raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config(lines, overrides=()):
    """Build an ExperimentConfig from key=value lines plus override pairs.

    Lines may be blank or start with '#'. ``overrides`` are extra
    "key=value" strings (e.g. from the command line) applied last.
    """
    settings = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        apply_setting(settings, key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        apply_setting(settings, key, raw)
    try:
        return ExperimentConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path, overrides=()):
    try:
        with open(path) as fh:
            return parse_config(fh, overrides)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _shown(value):
    """A default as a key=value line writes it."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def describe_keys():
    """Documented key listing for --help output."""
    lines = ["Configuration keys (key=value; '#' comments) and defaults:"]
    lines += [f"  {name}={_shown(f.default)}" for name, f in _KEYS.items()]
    lines.append("  model.<kind>.<field>, each kind's own:")
    lines += [f"    model.{kind}.{f.name}={f.default}"
              for kind, cls in MODEL_CONFIGS.items() for f in fields(cls)]
    return "\n".join(lines)
