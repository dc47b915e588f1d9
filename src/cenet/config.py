"""Flat key-value run configuration.

The config file format is one ``key = value`` per line, with ``#``
comments and blank lines; unknown keys are errors so typos cannot pass
silently. The serialized text of a valid config round-trips, as
validation rejects string values the format cannot hold, and is written
alongside every checkpoint for provenance.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

from .blocks import NetworkConfig
from .dataset import AugmentSpec
from .optim import StepDecaySchedule


class ConfigError(ValueError):
    """Unknown key, bad value, or unusable combination in a run config."""


@dataclass
class RunConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    schedule: StepDecaySchedule = field(default_factory=StepDecaySchedule)
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    batch_size: int = 1
    seed: int = 0
    data_root: str = ""
    eval_data_root: str = ""
    output_dir: str = "run"
    checkpoint_every: int = 10_000
    log_every: int = 100

    def validate(self):
        """Raise ``ConfigError`` naming the config key of the first bad value."""
        for key in _POSITIVE_KEYS:
            value = getattr(*_field(self, key))
            if not value > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        # lr_at is monotone in the iteration, so the run's two ends bound every lr
        schedule = self.schedule
        for key, i in (("lr", 0), ("lr_decay_factor", schedule.total_iters - 1)):
            try:
                lr = schedule.lr_at(i)
            except OverflowError:  # decay_factor ** n past the largest float
                lr = 0.0
            except ZeroDivisionError:  # decay_factor ** n below the smallest
                lr = math.inf
            if not 0 < lr < math.inf:
                raise ConfigError(f"{key} {getattr(*_field(self, key))} gives learning rate "
                                  f"{lr} at iteration {i}; it must be finite and positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key in _STRING_KEYS:
            value = getattr(*_field(self, key))
            # parse_config cuts a line at '#', splits lines and strips values
            if "#" in value or len(value.splitlines()) > 1 or value != value.strip():
                raise ConfigError(
                    f"{key} must not contain '#' or a line break, nor start or end with "
                    f"whitespace, got {value!r}")
        if self.augment.crop_size < self.network.divisor:
            raise ConfigError(
                f"crop_size {self.augment.crop_size} is smaller than the "
                f"network's required divisor {self.network.divisor}")
        if self.augment.crop_size % self.network.divisor:
            raise ConfigError(
                f"crop_size {self.augment.crop_size} must be divisible by "
                f"{self.network.divisor} (2**stages)")
        if not self.data_root:
            raise ConfigError("data_root is not set; it must name a directory "
                              "with input/ and target/")
        if not self.output_dir:
            raise ConfigError("output_dir is not set; it must name the directory "
                              "for checkpoints and the loss log")


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# key -> (section attribute or None for top level, field name, parser)
_KEYS = {
    "stages": ("network", "num_stages", int),
    "base_channels": ("network", "base_channels", int),
    "global_context": ("network", "use_global_context", _parse_bool),
    "local_context": ("network", "use_local_context", _parse_bool),
    "lr": ("schedule", "initial_lr", float),
    "lr_decay_factor": ("schedule", "decay_factor", float),
    "lr_decay_every": ("schedule", "decay_every", int),
    "iterations": ("schedule", "total_iters", int),
    "crop_size": ("augment", "crop_size", int),
    "flip": ("augment", "enable_flip", _parse_bool),
    "rotation": ("augment", "enable_rotation", _parse_bool),
    "batch_size": (None, "batch_size", int),
    "seed": (None, "seed", int),
    "data_root": (None, "data_root", str),
    "eval_data_root": (None, "eval_data_root", str),
    "output_dir": (None, "output_dir", str),
    "checkpoint_every": (None, "checkpoint_every", int),
    "log_every": (None, "log_every", int),
}
_STRING_KEYS = tuple(key for key, (_, _, parser) in _KEYS.items() if parser is str)
_POSITIVE_KEYS = ("stages", "base_channels", "batch_size", "lr", "lr_decay_factor",
                  "lr_decay_every", "iterations", "checkpoint_every", "log_every")


def _field(config: RunConfig, key: str):
    """The (object, attribute name) that holds ``key``'s value."""
    section, attr, _ = _KEYS[key]
    return (config if section is None else getattr(config, section)), attr


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    config = base if base is not None else RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        parser = _KEYS[key][2]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        setattr(*_field(config, key), value)
    return config


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def format_config(config: RunConfig) -> str:
    lines = []
    for key, (_, _, parser) in _KEYS.items():
        value = getattr(*_field(config, key))
        if parser is _parse_bool:
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def desk_preset() -> RunConfig:
    """Small configuration that trains in minutes on a laptop CPU."""
    config = RunConfig()
    config.network.num_stages = 2
    config.network.base_channels = 8
    config.augment.crop_size = 64
    config.schedule.initial_lr = 1e-3
    config.schedule.decay_every = 1000
    config.schedule.total_iters = 2000
    config.checkpoint_every = 1000
    config.log_every = 50
    return config
