"""Experiment configuration: flat key=value files plus override parsing."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .models.base import MODEL_CONFIGS, MODEL_KINDS
from .sampling import EDGE_DROPOUT, NODE_DROPOUT


class ConfigError(Exception):
    pass


DEFAULT_ALPHAS = (0.0, 0.3, 0.7, 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    master_seed: int = 0
    num_samples: int = 20
    mu_min: float = 0.7
    mu_max: float = 0.9
    strategies: tuple = (NODE_DROPOUT, EDGE_DROPOUT)
    models: tuple = MODEL_KINDS
    model_configs: dict = field(default_factory=dict)
    metric_k: int = 20
    standardize: bool = True
    alphas: tuple = DEFAULT_ALPHAS
    rq2_total: int = 0          # 0 -> use the smaller strategy pool size
    out_dir: str = "runs"
    jobs: int = 1

    def config_for(self, kind):
        """The kind's model config with any file/CLI overrides applied."""
        try:
            return MODEL_CONFIGS[kind](**self.model_configs.get(kind, {}))
        except ValueError as exc:
            raise ConfigError(f"model.{kind}: {exc}") from None


_SCALAR_PARSERS = {
    "dataset": str,
    "master_seed": int,
    "num_samples": int,
    "mu_min": float,
    "mu_max": float,
    "metric_k": int,
    "rq2_total": int,
    "out_dir": str,
    "jobs": int,
}


def _parse_bool(raw, key):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_list(raw, allowed, key):
    values = tuple(v.strip() for v in raw.split(",") if v.strip())
    for v in values:
        if v not in allowed:
            raise ConfigError(f"{key}: unknown value {v!r} "
                              f"(allowed: {', '.join(allowed)})")
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def apply_setting(settings, key, raw):
    """Validate one key=value pair into the mutable settings dict."""
    key = key.strip()
    raw = raw.strip()
    try:
        if key in _SCALAR_PARSERS:
            settings[key] = _SCALAR_PARSERS[key](raw)
        elif key == "standardize":
            settings[key] = _parse_bool(raw, key)
        elif key == "strategies":
            settings[key] = _parse_list(raw, (NODE_DROPOUT, EDGE_DROPOUT), key)
        elif key == "models":
            settings[key] = _parse_list(raw, MODEL_KINDS, key)
        elif key == "alphas":
            alphas = tuple(float(v) for v in raw.split(",") if v.strip())
            if not alphas or any(not 0.0 <= a <= 1.0 for a in alphas):
                raise ConfigError(f"alphas must lie in [0, 1], got {raw!r}")
            settings[key] = alphas
        elif key.startswith("model.") and key.count(".") == 2:
            _, kind, name = key.split(".")
            if kind not in MODEL_CONFIGS:
                raise ConfigError(f"{key}: unknown model kind {kind!r}")
            own = {f.name: f.default for f in fields(MODEL_CONFIGS[kind])}
            if name not in own:
                raise ConfigError(f"{key}: {kind} has no field {name!r} "
                                  f"(fields: {', '.join(own)})")
            settings.setdefault("model_configs", {}).setdefault(kind, {})[name] \
                = type(own[name])(raw)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    except ConfigError:
        raise
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
    cfg = ExperimentConfig(**settings)
    _validate(cfg)
    return cfg


def load_config(path, overrides=()):
    try:
        with open(path) as fh:
            return parse_config(fh, overrides)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _validate(cfg):
    if cfg.num_samples < 1:
        raise ConfigError("num_samples must be >= 1")
    if not 0.0 <= cfg.mu_min <= cfg.mu_max < 1.0:
        raise ConfigError("need 0 <= mu_min <= mu_max < 1")
    if cfg.metric_k < 1:
        raise ConfigError("metric_k must be >= 1")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if cfg.rq2_total < 0:
        raise ConfigError("rq2_total must be >= 0")
    for kind in cfg.model_configs:
        cfg.config_for(kind)  # the model config rejects what fails every cell


def describe_keys():
    """Documented key listing for --help output."""
    lines = ["Configuration keys (key=value, one per line; '#' comments):"]
    for key in sorted(_SCALAR_PARSERS):
        lines.append(f"  {key}")
    lines += ["  standardize", "  strategies", "  models", "  alphas",
              "  model.<kind>.<field>, each kind's own (default):"]
    lines += [f"    model.{kind}.{f.name}={f.default}"
              for kind, cls in MODEL_CONFIGS.items() for f in fields(cls)]
    return "\n".join(lines)
