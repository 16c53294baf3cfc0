"""Experiment configuration: flat key=value files plus override parsing."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .models.base import MODEL_KINDS, ModelConfig, default_config
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
        """ModelConfig for a model kind with any file/CLI overrides applied."""
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {kind!r}")
        return default_config(kind, **self.model_configs.get(kind, {}))


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

_MODEL_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)
                 if f.name != "kind"}

# the least value each model field may take; learning_rate must be > 0
_MODEL_MINIMUMS = {
    **dict.fromkeys(("embedding_dim", "intents", "negatives", "item_topk",
                     "svd_rank", "batch_size", "max_epochs", "patience",
                     "eval_interval"), 1),
    **dict.fromkeys(("layers", "routing_iterations", "l2_weight",
                     "item_loss_weight", "a2"), 0),
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
            if kind not in MODEL_KINDS:
                raise ConfigError(f"{key}: unknown model kind {kind!r}")
            if name not in _MODEL_FIELDS:
                raise ConfigError(f"{key}: unknown model field {name!r}")
            caster = float if "float" in str(_MODEL_FIELDS[name]) else int
            settings.setdefault("model_configs", {}).setdefault(kind, {})[name] \
                = caster(raw)
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
        _validate_model(cfg.config_for(kind))


def _validate_model(mc):
    """Reject a model setting that would fail or mislead inside every cell."""
    for name, least in _MODEL_MINIMUMS.items():
        if not getattr(mc, name) >= least:  # NaN fails too
            raise ConfigError(f"model.{mc.kind}.{name} must be >= {least}")
    if not mc.learning_rate > 0:
        raise ConfigError(f"model.{mc.kind}.learning_rate must be > 0")
    if mc.kind == "dgcf" and mc.embedding_dim % mc.intents:
        raise ConfigError("model.dgcf.embedding_dim must be divisible by "
                          f"intents, got {mc.embedding_dim} and {mc.intents}")


def describe_keys():
    """Documented key listing for --help output."""
    lines = ["Configuration keys (key=value, one per line; '#' comments):"]
    for key in sorted(_SCALAR_PARSERS):
        lines.append(f"  {key}")
    lines += ["  standardize", "  strategies", "  models", "  alphas",
              "  model.<kind>.<field>  (e.g. model.lightgcn.layers=2)"]
    return "\n".join(lines)
