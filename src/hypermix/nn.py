"""Parameterized layers, initialization, RMSProp, and checkpoint I/O."""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Var, add, elu, gru_sequence, matmul, relu
from .errors import CheckpointError, ConfigError, TrainingError
from .rng import Rng

_ACTIVATIONS = {"none": lambda v: v, "relu": relu, "elu": elu}


@dataclass
class LayerSpec:
    """Shape/activation description of one layer bundle."""

    kind: str  # "linear" | "gru-cell" | "mlp"
    in_dim: int
    out_dim: int
    hidden_dim: int | None = None
    activation: str = "none"

    def __post_init__(self):
        if self.kind not in ("linear", "gru-cell", "mlp"):
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ConfigError("layer dims must be positive")
        if self.kind == "mlp" and (self.hidden_dim is None or self.hidden_dim <= 0):
            raise ConfigError("mlp spec needs a positive hidden_dim")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


class _Param:
    __slots__ = ("value", "grad", "sq_avg")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)
        self.sq_avg = np.zeros_like(value)


class ParameterStore:
    """Named flat parameter matrices with gradient and RMSProp-moment slots."""

    def __init__(self):
        self._params: dict[str, _Param] = {}
        self._memo = None  # (key, weak refs to the value arrays, entries)

    def add(self, name: str, value) -> None:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self._params[name] = _Param(ad.as_matrix(value).copy())

    def __getitem__(self, name: str) -> _Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = np.zeros_like(p.value)

    def bind(self, tape: ad.Tape | None) -> dict[str, Var]:
        """Create one (traced) variable per parameter for a forward pass."""
        if tape is None:
            return {k: Var(p.value) for k, p in self._params.items()}
        return {k: tape.var(p.value) for k, p in self._params.items()}

    def accumulate_grads(self, bound: dict[str, Var]) -> None:
        """Add gradients from bound variables into the grad slots."""
        for name, var in bound.items():
            if var.grad is not None:
                p = self._params[name]
                p.grad = p.grad + var.grad

    def memo(self, key) -> weakref.WeakKeyDictionary:
        """Entries valid for ``key`` and the current value arrays (held weakly,
        made read-only); emptied when either changes."""
        arrays = [p.value for p in self._params.values()]
        held = self._memo
        if (held is None or held[0] != key or len(held[1]) != len(arrays)
                or any(r() is not a for r, a in zip(held[1], arrays))):
            for a in arrays:
                a.flags.writeable = False
            held = self._memo = (key, [weakref.ref(a) for a in arrays],
                                 weakref.WeakKeyDictionary())
        return held[2]

    def clone(self) -> "ParameterStore":
        other = ParameterStore()
        for name, p in self._params.items():
            other._params[name] = _Param(p.value.copy())
            other._params[name].sq_avg = p.sq_avg.copy()
        return other

    def copy_from(self, source: "ParameterStore") -> None:
        """Bit-exact copy of values from ``source`` (e.g. target-net sync)."""
        if source.names() != self.names():
            raise ConfigError("parameter stores have different layouts")
        for name, p in source.items():
            self._params[name].value = p.value.copy()


def init_params(store: ParameterStore, name: str, spec: LayerSpec, rng: Rng) -> None:
    """Add uniformly initialized entries for ``spec`` under prefix ``name``.

    Weights are uniform(-k, k) with k = 1/sqrt(fan_in of that matrix);
    biases start at zero.
    """

    def unif(rows, cols, fan_in):
        k = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-k, k, (rows, cols))

    if spec.kind == "linear":
        store.add(f"{name}.w", unif(spec.in_dim, spec.out_dim, spec.in_dim))
        store.add(f"{name}.b", np.zeros((1, spec.out_dim)))
    elif spec.kind == "gru-cell":
        hid = spec.out_dim
        store.add(f"{name}.w_ih", unif(spec.in_dim, 3 * hid, spec.in_dim))
        store.add(f"{name}.w_hh", unif(hid, 3 * hid, hid))
        store.add(f"{name}.b_ih", np.zeros((1, 3 * hid)))
        store.add(f"{name}.b_hh", np.zeros((1, 3 * hid)))
    else:  # mlp
        hid = spec.hidden_dim
        store.add(f"{name}.fc1.w", unif(spec.in_dim, hid, spec.in_dim))
        store.add(f"{name}.fc1.b", np.zeros((1, hid)))
        store.add(f"{name}.fc2.w", unif(hid, spec.out_dim, hid))
        store.add(f"{name}.fc2.b", np.zeros((1, spec.out_dim)))


def linear_fwd(x, pv: dict[str, Var], name: str, row_blocks: int = 1) -> Var:
    return add(matmul(x, pv[f"{name}.w"], row_blocks=row_blocks),
               pv[f"{name}.b"])


def mlp_fwd(x, pv: dict[str, Var], name: str, activation: str = "relu") -> Var:
    h = _ACTIVATIONS[activation](linear_fwd(x, pv, f"{name}.fc1"))
    return linear_fwd(h, pv, f"{name}.fc2")


def gru_fwd(x, h, pv: dict[str, Var], name: str, steps: int = 1) -> Var:
    return gru_sequence(x, h, pv[f"{name}.w_ih"], pv[f"{name}.w_hh"],
                        pv[f"{name}.b_ih"], pv[f"{name}.b_hh"], steps)


def rmsprop_step(store: ParameterStore, lr: float = 5e-4, decay: float = 0.99,
                 eps: float = 1e-5) -> None:
    """One RMSProp update: v <- d*v + (1-d)*g^2; p <- p - lr*g/(sqrt(v)+eps)."""
    for name, p in store.items():
        g = p.grad
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        p.sq_avg = decay * p.sq_avg + (1.0 - decay) * (g * g)
        p.value = p.value - lr * g / (np.sqrt(p.sq_avg) + eps)


def clip_grad_norm(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for _, p in store.items():
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for _, p in store.items():
            p.grad = p.grad * scale
    return norm


# ---------------------------------------------------------------------------
# checkpoint format: manifest.json + params.bin (little-endian float64 blobs
# concatenated in manifest order); round-trips are bit-exact. Both files are
# written under temporary names first and then renamed into place, blob
# before manifest, so a failed save leaves the previous checkpoint loadable.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"


def save_checkpoint(store: ParameterStore, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "hypermix-checkpoint",
        "dtype": "<f8",
        "params": [
            {"name": name, "rows": p.value.shape[0], "cols": p.value.shape[1]}
            for name, p in store.items()
        ],
    }
    blob = b"".join(
        np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        for _, p in store.items()
    )
    files = ((BLOB_NAME, blob),
             (MANIFEST_NAME, json.dumps(manifest, indent=2).encode()))
    for name, data in files:
        (directory / f"{name}.tmp").write_bytes(data)
    for name, _ in files:
        os.replace(directory / f"{name}.tmp", directory / name)


def load_checkpoint(directory) -> ParameterStore:
    """Load a checkpoint into a fresh store; validates sizes and finiteness."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise CheckpointError(f"checkpoint files missing under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
        entries = manifest["params"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
    blob = blob_path.read_bytes()
    expected = sum(e["rows"] * e["cols"] for e in entries) * 8
    if len(blob) != expected:
        raise CheckpointError(
            f"checkpoint blob has {len(blob)} bytes, manifest expects {expected}"
        )
    store = ParameterStore()
    offset = 0
    for e in entries:
        count = e["rows"] * e["cols"]
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        value = arr.reshape(e["rows"], e["cols"]).astype(np.float64)
        if not np.isfinite(value).all():
            raise CheckpointError(f"non-finite values in parameter {e['name']!r}")
        store.add(e["name"], value)
    return store


def load_checkpoint_into(store: ParameterStore, directory) -> None:
    """Load values into an existing store, verifying names and shapes."""
    loaded = load_checkpoint(directory)
    for name, p in store.items():
        if name not in loaded:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        lv = loaded[name].value
        if lv.shape != p.value.shape:
            raise CheckpointError(
                f"shape mismatch for parameter {name!r}:"
                f" checkpoint {lv.shape}, expected {p.value.shape}"
            )
        p.value = lv.copy()
    extra = set(loaded.names()) - set(store.names())
    if extra:
        raise CheckpointError(f"checkpoint has unexpected parameters {sorted(extra)}")
