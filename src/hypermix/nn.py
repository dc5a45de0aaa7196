"""Parameterized layers, initialization, RMSProp, and checkpoint I/O."""

from __future__ import annotations

import json
import os
import weakref
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Var, gru_sequence, linear
from .errors import CheckpointError, ConfigError, TrainingError
from .rng import Rng


class ParameterStore:
    """Named parameter matrices end to end in one flat float64 array, ``value``,
    in insertion order as in the checkpoint blob; ``store[name]`` is a view of
    it. ``add`` refuses after the first update, which allocates
    ``sq_avg``, the RMSProp moment, in the same layout: a store never updated
    (a target copy) holds values only. Updates assign a new ``value``, so
    bound variables and the memo keep theirs.
    """

    def __init__(self):
        self.value, self._sq_avg = np.zeros(0), None
        self._layout: dict[str, tuple[slice, tuple[int, int]]] = {}
        self._memo = None  # (key, weak ref to the value array, entries)

    def add(self, name: str, value) -> None:
        if name in self._layout:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if self._sq_avg is not None:
            raise ConfigError(f"parameter {name!r} added after the first update")
        value = ad.as_matrix(value)
        start = self.value.size
        self._layout[name] = (slice(start, start + value.size), value.shape)
        self.value = np.append(self.value, value)

    @property
    def sq_avg(self) -> np.ndarray:
        return np.zeros_like(self.value) if self._sq_avg is None else self._sq_avg

    @sq_avg.setter
    def sq_avg(self, value: np.ndarray) -> None:
        self._sq_avg = value

    def __getitem__(self, name: str) -> np.ndarray:
        span, shape = self._layout[name]
        return self.value[span].reshape(shape)

    def names(self) -> list[str]:
        return list(self._layout)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat``, laid out like ``value``, as named (rows x cols) views."""
        return {name: flat[span].reshape(shape)
                for name, (span, shape) in self._layout.items()}

    def bind(self, tape: ad.Tape | None) -> dict[str, Var]:
        """One ``Var(view, tape)`` per parameter, in store order; untraced when
        ``tape`` is None."""
        return {k: Var(v, tape) for k, v in self.views(self.value).items()}

    def memo(self, key) -> dict:
        """Entries valid for ``key`` and the current value array (held weakly,
        made read-only); emptied when either changes."""
        held = self._memo
        if held is None or held[0] != key or held[1]() is not self.value:
            self.value.flags.writeable = False
            held = self._memo = (key, weakref.ref(self.value), {})
        return held[2]

    def clone(self) -> "ParameterStore":
        other = ParameterStore()
        other._layout = dict(self._layout)
        other.value = self.value.copy()
        other._sq_avg = None if self._sq_avg is None else self._sq_avg.copy()
        return other

    def copy_from(self, source: "ParameterStore") -> None:
        """Bit-exact copy of values from ``source`` (e.g. target-net sync)."""
        if source._layout != self._layout:
            raise ConfigError("parameter stores have different layouts")
        self.value = source.value.copy()


def _first_nonfinite(views: dict[str, np.ndarray]) -> str:
    """The first of the named ``views`` that is not all finite."""
    return next(name for name, v in views.items() if not np.isfinite(v).all())


def _uniform(rng: Rng, rows: int, cols: int) -> np.ndarray:
    # uniform(-k, k) with k = 1/sqrt(fan_in); every matrix here has fan_in = rows
    k = 1.0 / np.sqrt(rows)
    return rng.uniform(-k, k, (rows, cols))


def init_linear(store: ParameterStore, name: str, in_dim: int, out_dim: int,
                rng: Rng) -> None:
    """Add ``name.w`` (uniform fan-in init) and a zero bias ``name.b``."""
    store.add(f"{name}.w", _uniform(rng, in_dim, out_dim))
    store.add(f"{name}.b", np.zeros((1, out_dim)))


def init_mlp(store: ParameterStore, name: str, in_dim: int, hidden: int,
             out_dim: int, rng: Rng) -> None:
    """Add the two linear layers ``name.fc1`` and ``name.fc2`` of a ReLU MLP."""
    init_linear(store, f"{name}.fc1", in_dim, hidden, rng)
    init_linear(store, f"{name}.fc2", hidden, out_dim, rng)


def init_gru(store: ParameterStore, name: str, in_dim: int, hidden: int,
             rng: Rng) -> None:
    """Add a GRU's (reset, update, candidate) gate weights and zero biases."""
    store.add(f"{name}.w_ih", _uniform(rng, in_dim, 3 * hidden))
    store.add(f"{name}.w_hh", _uniform(rng, hidden, 3 * hidden))
    store.add(f"{name}.b_ih", np.zeros((1, 3 * hidden)))
    store.add(f"{name}.b_hh", np.zeros((1, 3 * hidden)))


def linear_fwd(x, pv: dict[str, Var], name: str, rectify: bool = False) -> Var:
    return linear(x, pv[f"{name}.w"], pv[f"{name}.b"], rectify)


def mlp_fwd(x, pv: dict[str, Var], name: str) -> Var:
    h = linear_fwd(x, pv, f"{name}.fc1", rectify=True)
    return linear_fwd(h, pv, f"{name}.fc2")


def gru_fwd(x, h, pv: dict[str, Var], name: str, steps: int = 1) -> Var:
    return gru_sequence(x, h, pv[f"{name}.w_ih"], pv[f"{name}.w_hh"],
                        pv[f"{name}.b_ih"], pv[f"{name}.b_hh"], steps)


# PyMARL's fixed optimizer: RMSProp's decay and epsilon, the gradient clip
RMS_DECAY, RMS_EPS, CLIP_NORM = 0.99, 1e-5, 10.0


def rmsprop_step(store: ParameterStore, grad: np.ndarray, lr: float = 5e-4,
                 decay: float = RMS_DECAY, eps: float = RMS_EPS) -> None:
    """One RMSProp update of ``store`` from ``grad``, laid out like its
    ``value``: v <- d*v + (1-d)*g^2; p <- p - lr*g/(sqrt(v)+eps)."""
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient for parameter"
                            f" {_first_nonfinite(store.views(grad))!r}")
    store.sq_avg = decay * store.sq_avg + (1.0 - decay) * (grad * grad)
    store.value = store.value - lr * grad / (np.sqrt(store.sq_avg) + eps)


def clip_grad_norm(store: ParameterStore, grad: np.ndarray,
                   max_norm: float) -> float:
    """Scale ``grad``, laid out like ``store.value``, in place to a global L2
    norm of at most ``max_norm``; returns the norm before clipping. The
    squares are summed per parameter, in store order: one flat sum would
    round differently."""
    total = 0.0
    for squares in store.views(grad * grad).values():
        total += float(squares.sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# checkpoint format: manifest.json + params.bin (``store.value`` as little-
# endian float64); round-trips are bit-exact. Both files are written under
# temporary names first and then renamed into place, blob before manifest,
# so a failed save leaves the previous checkpoint loadable.
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
            {"name": name, "rows": v.shape[0], "cols": v.shape[1]}
            for name, v in store.views(store.value).items()
        ],
    }
    files = ((BLOB_NAME, store.value.astype("<f8").tobytes()),
             (MANIFEST_NAME, json.dumps(manifest, indent=2).encode()))
    for name, data in files:
        (directory / f"{name}.tmp").write_bytes(data)
    for name, _ in files:
        os.replace(directory / f"{name}.tmp", directory / name)


def load_checkpoint(store: ParameterStore, directory) -> None:
    """Load a checkpoint into ``store`` by name; the files, the manifest, the
    blob's size and finiteness, and every name and shape are checked before
    ``store`` changes."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise CheckpointError(f"checkpoint files missing under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
        entries = [(e.get("name"), e.get("rows"), e.get("cols"))
                   for e in manifest["params"]]
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
    layout, size = {}, 0  # name -> (slice, shape), as in a store
    for e in entries:
        if tuple(map(type, e)) != (str, int, int) or min(e[1:]) < 0:
            raise CheckpointError(f"bad checkpoint manifest entry {e}: need"
                                  " (name str, rows int >= 0, cols int >= 0)")
        if e[0] in layout:
            raise CheckpointError(f"bad checkpoint manifest entry {e}: name"
                                  f" {e[0]!r} is listed twice")
        layout[e[0]] = (slice(size, size + e[1] * e[2]), e[1:])
        size += e[1] * e[2]
    blob = blob_path.read_bytes()
    if len(blob) != size * 8:
        raise CheckpointError(
            f"checkpoint blob has {len(blob)} bytes, manifest expects {size * 8}"
        )
    flat = np.frombuffer(blob, dtype="<f8")
    got = {name: flat[span].reshape(shape) for name, (span, shape) in layout.items()}
    if not np.isfinite(flat).all():
        raise CheckpointError("non-finite values in parameter"
                              f" {_first_nonfinite(got)!r}")
    value = np.empty_like(store.value)
    for name, view in store.views(value).items():
        if name not in got:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        if got[name].shape != view.shape:
            raise CheckpointError(
                f"shape mismatch for parameter {name!r}:"
                f" checkpoint {got[name].shape}, expected {view.shape}"
            )
        view[...] = got[name]
    extra = set(got) - set(store.names())
    if extra:
        raise CheckpointError(f"checkpoint has unexpected parameters {sorted(extra)}")
    store.value = value
