"""Run configuration: one JSON object covering corpus, model, and training.

Strict by design: unknown keys and values of the wrong JSON type are rejected
with the offending name, because a silently ignored typo in an experiment
config costs hours. Absent sections and absent keys fall back to dataclass
defaults.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .corpus.records import CorpusError
from .corpus.synth import SynthConfig
from .encoder import ModelConfig, ModelError
from .objective import LossConfig
from .pseudolabel import PseudoConfig, PseudoError
from .trainer import TrainConfig, TrainError


class ConfigError(ValueError):
    pass


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated hint: an int or a
    float for a float, an int but not a bool for an int, a list of fitting
    values, one per element, for a tuple."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if origin is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_fits(v, a) for v, a in zip(value, args)))
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def build_section(cls, data: dict, where: str):
    """Instantiate a config dataclass from a JSON object, strictly: unknown
    keys and values of the wrong type are rejected with their names."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    for name, value in data.items():
        hint = hints[name]
        if not _fits(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{where}.{name}: expected {expected}, "
                              f"got {json.dumps(value)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from e


@dataclass(frozen=True)
class RunConfig:
    corpus: SynthConfig = field(default_factory=SynthConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    pseudo: PseudoConfig = field(default_factory=PseudoConfig)

    def validate(self) -> None:
        try:
            self.corpus.validate()
            self.model.validate()
            self.train.validate()
            self.loss.validate()
            self.pseudo.validate()
        except (CorpusError, ModelError, TrainError, PseudoError, ValueError) as e:
            raise ConfigError(str(e)) from e


_SECTIONS = {"corpus": SynthConfig, "model": ModelConfig, "train": TrainConfig,
             "loss": LossConfig, "pseudo": PseudoConfig}


def run_config_from_dict(data: dict, where: str = "config") -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a top-level object")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"{where}: unknown sections {unknown}")
    parts = {name: build_section(cls, data.get(name, {}), f"{where}.{name}")
             for name, cls in _SECTIONS.items()}
    config = RunConfig(**parts)
    config.validate()
    return config


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    return run_config_from_dict(data, where=str(path))


def save_run_config(config: RunConfig, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(asdict(config), f, indent=2)
        f.write("\n")
