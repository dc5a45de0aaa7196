"""Experiment configuration: one flat JSON object of Config's fields."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .envs import make_env
from .errors import ConfigError
from .mixers import validate_mixer_kind
from .nn import CLIP_NORM, RMS_DECAY, RMS_EPS

_TYPES = {"int": int, "float": (int, float), "bool": bool}
_AT_LEAST_ONE = ("embed", "agent_hidden", "hypernet_hidden", "anneal_steps",
                 "episodes", "eval_interval", "eval_episodes",
                 "buffer_capacity", "batch_size", "target_interval")


def _has_type(value, type_name: str) -> bool:
    # a bool is not a count or a rate, though Python calls it an int
    return (isinstance(value, _TYPES[type_name])
            and isinstance(value, bool) == (type_name == "bool"))


@dataclass
class Config:
    """All run settings; every field has an overridable default."""

    env: dict
    mixer: str = "hgcn-mix"
    # model
    hyperedges: int = 32
    embed: int = 32
    agent_hidden: int = 64
    hypernet_hidden: int = 64
    # optimizer
    lr: float = 5e-4
    # PyMARL's fixed optimizer constants (nn), not fields: no config sets them
    rms_decay = RMS_DECAY
    rms_eps = RMS_EPS
    clip_norm = CLIP_NORM
    # schedule
    anneal_steps: int = 50_000
    # training
    gamma: float = 0.99
    episodes: int = 20_000
    eval_interval: int = 200
    eval_episodes: int = 32
    buffer_capacity: int = 5000
    batch_size: int = 32
    target_interval: int = 200
    stop_on_success: bool = False
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def require(cond, name, message):
            if not cond:
                raise ConfigError(f"{name}: {message}")

        for f in fields(self):
            if f.type in _TYPES:
                value = getattr(self, f.name)
                require(_has_type(value, f.type), f.name,
                        f"must be of type {f.type}, got {value!r}")
        require(isinstance(self.env, dict) and "name" in self.env,
                "env", "must be an object with a 'name' field")
        for name, check in (("env", make_env), ("mixer", validate_mixer_kind)):
            try:
                check(getattr(self, name))
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        # without learned hyperedges each convolution is the identity: qmix
        if self.mixer == "hgcn-mix" and self.hyperedges == 0:
            self.mixer = "qmix"
        require(self.hyperedges >= 0, "hyperedges", "must be >= 0")
        for name in _AT_LEAST_ONE:
            require(getattr(self, name) >= 1, name, "must be >= 1")
        require(0 < self.lr < float("inf"), "lr", "must be positive and finite")
        require(0.0 <= self.gamma < 1.0, "gamma", "must be in [0, 1)")
        require(self.batch_size <= self.buffer_capacity,
                "batch_size", "must not exceed buffer_capacity")
        require(isinstance(self.seeds, list) and len(self.seeds) > 0,
                "seeds", "must be a non-empty list")
        require(all(_has_type(s, "int") for s in self.seeds),
                "seeds", f"must be integers, got {self.seeds!r}")
        require(len(set(self.seeds)) == len(self.seeds),
                "seeds", f"must be distinct, got {self.seeds!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        if "env" not in data:
            raise ConfigError("env: must be given")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **changes) -> "Config":
        """Copy with updated fields (re-validated)."""
        return Config(**{**self.to_dict(), **changes})


def load_config(path) -> Config:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return Config.from_dict(data)
