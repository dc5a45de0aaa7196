"""Experiment configuration: one JSON file with flat per-module sections."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .envs import make_env
from .errors import ConfigError
from .mixers import MIXER_KINDS
from .nn import CLIP_NORM, RMS_DECAY, RMS_EPS

# top-level JSON keys and the keys of each config section, each named after
# its Config field
_TOP_LEVEL = ("env", "mixer", "seeds")
_SECTIONS = {
    "model": ("hyperedges", "embed", "agent_hidden", "hypernet_hidden"),
    "optimizer": ("lr",),
    "schedule": ("anneal_steps",),
    "training": ("gamma", "episodes", "eval_interval", "eval_episodes",
                 "buffer_capacity", "batch_size", "target_interval",
                 "stop_on_success"),
}
_PATHS = {name: f"{section}.{name}"
          for section, names in _SECTIONS.items() for name in names}
_TYPES = {"int": int, "float": (int, float), "bool": bool}


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
        def require(cond, path, message):
            if not cond:
                raise ConfigError(f"{path}: {message}")

        for f in fields(self):
            if f.name in _PATHS:
                value = getattr(self, f.name)
                require(_has_type(value, f.type), _PATHS[f.name],
                        f"must be of type {f.type}, got {value!r}")
        require(isinstance(self.env, dict) and "name" in self.env,
                "env", "must be an object with a 'name' field")
        try:
            make_env(self.env)
        except ConfigError as exc:
            raise ConfigError(f"env: {exc}") from None
        # with the identity incidence each convolution is the identity, so
        # the one-hot variant and hgcn-mix without learned hyperedges are qmix
        if self.mixer == "hgcn-mix-oh" or (self.mixer == "hgcn-mix" and
                                           self.hyperedges == 0):
            self.mixer = "qmix"
        require(self.mixer in MIXER_KINDS, "mixer",
                f"must be one of {list(MIXER_KINDS)}")
        require(self.hyperedges >= 0, "model.hyperedges", "must be >= 0")
        for path, value in (("model.embed", self.embed),
                            ("model.agent_hidden", self.agent_hidden),
                            ("model.hypernet_hidden", self.hypernet_hidden)):
            require(value > 0, path, "must be positive")
        require(0 < self.lr < float("inf"), "optimizer.lr",
                "must be positive and finite")
        require(self.anneal_steps >= 1, "schedule.anneal_steps", "must be >= 1")
        require(0.0 <= self.gamma < 1.0, "training.gamma", "must be in [0, 1)")
        for path, value in (("training.episodes", self.episodes),
                            ("training.eval_interval", self.eval_interval),
                            ("training.eval_episodes", self.eval_episodes),
                            ("training.buffer_capacity", self.buffer_capacity),
                            ("training.batch_size", self.batch_size),
                            ("training.target_interval", self.target_interval)):
            require(value >= 1, path, "must be >= 1")
        require(self.batch_size <= self.buffer_capacity,
                "training.batch_size", "must not exceed buffer_capacity")
        require(isinstance(self.seeds, list) and len(self.seeds) > 0,
                "seeds", "must be a non-empty list")
        require(all(_has_type(s, "int") for s in self.seeds),
                "seeds", f"must be integers, got {self.seeds!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        if "hyperedge_sweep" in data:
            raise ConfigError("hyperedge_sweep: removed; run the counts as"
                              " arms of `hypermix compare --mixers hgcn-mix"
                              " --hyperedges m1,m2,...`")
        unknown = set(data) - set(_TOP_LEVEL) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config sections {sorted(unknown)}")
        if "env" not in data:
            raise ConfigError("env: section is required")
        kwargs = {key: data[key] for key in _TOP_LEVEL if key in data}
        for section, names in _SECTIONS.items():
            body = data.get(section, {})
            if not isinstance(body, dict):
                raise ConfigError(f"{section}: must be an object")
            unknown = set(body) - set(names)
            if unknown:
                raise ConfigError(f"{section}: unknown fields {sorted(unknown)}")
            kwargs.update(body)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = {key: copy.deepcopy(getattr(self, key)) for key in _TOP_LEVEL}
        for section, names in _SECTIONS.items():
            out[section] = {name: getattr(self, name) for name in names}
        return out

    def replace(self, **changes) -> "Config":
        """Copy with updated fields (re-validated)."""
        merged = {f: getattr(self, f) for f in self.__dataclass_fields__}
        merged["env"] = dict(merged["env"])
        merged["seeds"] = list(merged["seeds"])
        merged.update(changes)
        return Config(**merged)


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
