"""Run configuration: one JSON-serializable object that pins everything
a training, evaluation, or generation run depends on."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .dataset import SyntheticSpec
from .errors import ConfigError
from .losses import LossWeights, SsimParams
from .network import OUTPUT_STRIDE, ModelConfig

__all__ = ["OptimizerConfig", "DataConfig", "RunConfig"]

# The JSON types a field of each annotated type takes, and the type's name in
# errors. A bool is never taken as a number, although Python's bool is an int.
_JSON_TYPES = {int: ((int,), "int"), float: ((int, float), "float"),
               str: ((str,), "str"), bool: ((bool,), "bool"),
               tuple: ((list,), "a list of int")}


def _write(config):
    """A config dataclass as a JSON object: nested configs become objects
    and tuples become lists."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = _write(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _read(cls, d, where):
    """The config dataclass ``cls`` built from the JSON object ``d``, which
    sits at path ``where``. Missing keys keep their defaults; null is taken
    only where the default is None. Unknown keys, values of the wrong JSON
    type and out-of-range values raise ConfigError naming the path."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    known = {f.name: f for f in fields(cls)}
    extra = sorted(set(d) - set(known))
    if extra:
        raise ConfigError(f"unknown fields in {where}: {extra}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        path, tp = f"{where}.{key}", hints[key]
        if is_dataclass(tp):
            value = _read(tp, value, path)
        elif value is not None or known[key].default is not None:
            types, name = _JSON_TYPES[tp]
            if type(value) not in types or (
                    tp is tuple and any(type(v) is not int for v in value)):
                raise ConfigError(f"{path} must be {name}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass
class DataConfig:
    root: str = "data"
    crop: int = 64  # training crop size; 0 disables cropping
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if self.crop < 0:
            raise ValueError(f"crop must be >= 0, got {self.crop}")
        if self.crop and self.crop % OUTPUT_STRIDE:
            raise ValueError(f"crop must be divisible by {OUTPUT_STRIDE}, got {self.crop}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig.desk)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    ssim: SsimParams = field(default_factory=SsimParams)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 4
    epochs: int = 5
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    output_dir: str = "runs/desk"
    strict_determinism: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def desk(cls):
        """CPU-scale defaults: small widths, batch 4, lr 1e-3, 64px crops."""
        return cls()

    @classmethod
    def full_scale(cls):
        """Full-width model, batch 88, lr 0.01, whole slices; needs real
        hardware and is not exercised by the test suite."""
        return cls(model=ModelConfig(), batch_size=88, epochs=20,
                   optimizer=OptimizerConfig(lr=0.01), output_dir="runs/full",
                   data=DataConfig(crop=0))

    def to_dict(self):
        return _write(self)

    @classmethod
    def from_dict(cls, d):
        return _read(cls, d, cls.__name__)

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
        return cls.from_dict(raw)
