"""Episode collection, replay, TD training, and the seeded run loop.

Training is centralized: the mixer sees global states and all agent values.
Execution stays decentralized: during collection each agent's action depends
only on its own observation history. Targets use a frozen parameter copy and
realize the max over joint actions through per-agent greedy actions, which
is exact for mixers satisfying the individual-global-max property.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path

import numpy as np

from . import agents as ag
from . import mixers as mx
from .autodiff import (Tape, Var, add, block_sum, gradient, mul, reshape,
                       select_rows)
from .envs import brute_force_optimal, draw_layouts, make_env
from .errors import TrainingError
from .nn import (CLIP_NORM, RMS_DECAY, RMS_EPS, ParameterStore,
                 clip_grad_norm, rmsprop_step, save_checkpoint)
from .rng import Rng


def epsilon(t: int, anneal_steps: int) -> float:
    """Exploration rate after ``t`` environment steps: PyMARL's linear anneal
    from 1.0 to 0.05 over ``anneal_steps``."""
    if t >= anneal_steps:
        return 0.05
    return 1.0 + (0.05 - 1.0) * (t / anneal_steps)


_stamps = itertools.count()
_FIELDS = ("obs", "state", "avail", "actions", "reward", "terminated")


@functools.lru_cache(maxsize=None)
def _record_dtype(layout: tuple) -> np.dtype:
    """The record dtype of a layout of (field, dtype.str, shape) triples,
    made once: one per episode would cost more than the episode's data."""
    return np.dtype(list(layout), align=True)


class Episode:
    """One rollout with a trailing observation slot for bootstrapping, kept
    as one record: a 0-d structured array with a field per array argument,
    in the dtype and shape given; ``ep.obs`` and the other fields read as
    views of it. obs is (T+1, n, obs_dim), state (T+1, state_dim), avail
    (T+1, n, n_actions), actions (T, n), reward and terminated (T,).

    Slots past ``length`` stay zero (-1 in ``actions``). The record is
    read-only: its ``stamp``, unique in the process, keys the target memo.
    """

    __slots__ = ("record", "length", "stamp", "__weakref__")

    def __init__(self, obs, state, avail, actions, reward, terminated,
                 length: int):
        arrays = (obs, state, avail, actions, reward, terminated)
        self.record = np.array(arrays, _record_dtype(tuple(
            (f, a.dtype.str, a.shape) for f, a in zip(_FIELDS, arrays))))
        self.record.setflags(write=False)
        self.length, self.stamp = length, next(_stamps)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _FIELDS:
            raise AttributeError(name)
        return self.record[name]

    @property
    def episode_return(self) -> float:
        return float(self.reward[:self.length].sum())


def stack_episodes(episodes: list[Episode]) -> dict[str, np.ndarray]:
    """One batch of episodes: each field stacked episode-major, (B, ...),
    C-contiguous, with the (B,) lengths and stamps. Each record is copied
    once, into one (B,) block.
    """
    block = np.empty(len(episodes), episodes[0].record.dtype)
    for k, ep in enumerate(episodes):
        block[k] = ep.record
    batch = {f: np.ascontiguousarray(block[f]) for f in _FIELDS}
    batch["length"] = np.array([ep.length for ep in episodes])
    batch["stamp"] = np.array([ep.stamp for ep in episodes])
    return batch


class ReplayBuffer:
    """Ring buffer of episodes with uniform without-replacement sampling."""

    def __init__(self, capacity: int = 5000):
        self.capacity = capacity
        self._episodes: list[Episode] = []
        self.inserted = 0

    def add(self, episode: Episode) -> None:
        if len(self._episodes) < self.capacity:
            self._episodes.append(episode)
        else:
            self._episodes[self.inserted % self.capacity] = episode
        self.inserted += 1

    def __len__(self) -> int:
        return len(self._episodes)

    def sample(self, batch_size: int, rng: Rng) -> dict[str, np.ndarray]:
        """A :func:`stack_episodes` batch of distinct episodes."""
        if batch_size > len(self._episodes):
            raise ValueError("not enough episodes buffered")
        idx = rng.sample_without_replacement(len(self._episodes), batch_size)
        return stack_episodes([self._episodes[i] for i in idx])


def rollout(env, store: ParameterStore, eps: float, layouts: np.ndarray,
            explore_rng: Rng | None, agent_hidden: int = 64) -> dict:
    """Roll one episode per row of ``layouts`` in lockstep in ``env``
    into a :func:`stack_episodes` batch without stamps: one (K, ...) block
    per Episode field and the lengths (K,). Each agent acts from its own
    inputs only; each step makes one observe, one env step and one agent
    call over the running episodes. At ``eps`` = 0 nothing is drawn, and
    ``explore_rng`` may be None."""
    spec = env.spec
    n, limit, k = spec.n_agents, spec.episode_limit, len(layouts)
    avail = np.zeros((k, limit + 1, n, spec.n_actions), dtype=bool)
    actions = np.full((k, limit, n), -1, np.min_scalar_type(-spec.n_actions))  # int8
    reward = np.zeros((k, limit))
    terminated = np.zeros((k, limit), dtype=bool)
    env.reset(layouts)
    pv = store.bind(None)
    rows = slice(None)  # the running episodes: a slice while all of them run
    hidden = Var(np.zeros((k * n, agent_hidden)))
    for t in range(limit + 1):
        o, s, m = env.observe()
        if not t:  # stored in the env's dtypes: int8 for every env here
            obs = np.zeros((k, limit + 1) + o.shape[1:], dtype=o.dtype)
            state = np.zeros((k, limit + 1) + s.shape[1:], dtype=s.dtype)
        obs[rows, t], state[rows, t], avail[rows, t] = o[rows], s[rows], m[rows]
        # at t = 0, terminated[:, -1] and actions[:, -1] hold padding
        going = ~terminated[rows, t - 1]
        live = np.count_nonzero(going)
        if t == limit or not live:
            break
        if live < len(going):
            rows = np.arange(k)[rows][going]
            hidden = Var(hidden.value[np.repeat(going, n)])
        inputs = ag.build_agent_inputs(o[rows], actions[rows, t - 1],
                                       spec.n_actions)
        q, hidden = ag.agent_forward(pv, Var(inputs.reshape(-1, inputs.shape[-1])),
                                     hidden)
        a = ag.select_action(q.value, m[rows].reshape(-1, spec.n_actions),
                             eps, explore_rng).reshape(-1, n)
        actions[rows, t] = a
        reward[rows, t], terminated[rows, t] = env.step(a)
    return dict(obs=obs, state=state, avail=avail, actions=actions, reward=reward,
                terminated=terminated, length=(actions[:, :, 0] >= 0).sum(axis=1))


def collect_episode(env, store: ParameterStore, eps: float, env_rng: Rng,
                    explore_rng: Rng | None, agent_hidden: int = 64) -> Episode:
    """Roll one episode in ``env`` on a layout drawn from ``env_rng``: row 0
    of a :func:`rollout` in its own record, so it keeps no block alive."""
    blocks = rollout(env, store, eps, draw_layouts(env, [env_rng]), explore_rng,
                     agent_hidden)
    length = int(blocks.pop("length")[0])
    return Episode(**{f: b[0] for f, b in blocks.items()}, length=length)


def _steps(batch: dict) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (t, e) with t < length of episode e.

    Ordered by step, then episode: the order of the rows of the agent
    pass.
    """
    lengths = batch["length"]
    return np.nonzero(np.arange(lengths.max())[:, None] < lengths)


def _agent_pass(pv: dict[str, Var], batch: dict, steps: int,
                agent_hidden: int) -> Var:
    """Agent Q values of the first ``steps`` steps of every episode of
    ``batch`` from a zero hidden state, in one agent call:
    (steps*B*n x n_actions), step-major."""
    actions = batch["actions"].swapaxes(0, 1)
    last = np.full((steps,) + actions.shape[1:], -1)
    last[1:] = actions[:steps - 1]
    inputs = ag.build_agent_inputs(batch["obs"][:, :steps].swapaxes(0, 1),
                                   last, batch["avail"].shape[-1])
    rows = inputs.shape[1] * inputs.shape[2]
    q, _ = ag.agent_forward(pv, Var(inputs.reshape(steps * rows, -1)),
                            np.zeros((rows, agent_hidden)), steps)
    return q


def _joint_values(pv: dict[str, Var], batch: dict, t: np.ndarray,
                  e: np.ndarray, kind: str, embed: int, agent_hidden: int,
                  actions: np.ndarray | None = None) -> Var:
    """Joint values (S x 1) of the (t, e) samples: one agent pass over the
    first ``t.max() + 1`` steps and one mixer call, each agent valued at
    ``actions`` (S*n ints, sample-major) or, if None, its greedy action."""
    n, n_actions = batch["avail"].shape[2:]
    q = _agent_pass(pv, batch, t.max() + 1, agent_hidden)
    # rows of the n agents of each sample in the step-major agent pass
    rows = ((t * len(batch["length"]) + e)[:, None] * n + np.arange(n)).ravel()
    if actions is None:
        actions = ag.select_action(
            q.value[rows], batch["avail"][e, t].reshape(-1, n_actions), 0.0)
    chosen = select_rows(reshape(q, q.value.size, 1), rows * n_actions + actions)
    Z = batch["obs"][e, t].reshape(rows.size, -1)
    return mx.mix_batch(kind, pv, chosen, Z, batch["state"][e, t], n, embed)


def _fresh_targets(batch: dict, target_store: ParameterStore, kind: str,
                   gamma: float, embed: int, agent_hidden: int) -> np.ndarray:
    """:func:`td_targets` of every episode of ``batch``, without the memo."""
    t, e = _steps(batch)
    targets = np.zeros((t.max() + 1, len(batch["length"])))
    targets[t, e] = batch["reward"][e, t]
    boot = ~batch["terminated"][e, t]
    if not boot.any():
        return targets
    t, e = t[boot] + 1, e[boot]
    qtot = _joint_values(target_store.bind(None), batch, t, e, kind, embed,
                         agent_hidden)
    targets[t - 1, e] += gamma * qtot.value[:, 0]
    return targets


def td_targets(batch: dict, target_store: ParameterStore, kind: str,
               gamma: float, embed: int, agent_hidden: int = 64) -> np.ndarray:
    """One-step TD targets from the frozen target parameters, as (T x B).

    ``batch`` is a :func:`stack_episodes` batch. Entry [t, e] is the target
    of step t of episode e; entries past an episode's length are zero.
    Terminal steps take the raw reward (so does a time-limit step the
    environment marks terminal, as the corridor does: no state feature
    carries the time left); other steps bootstrap from the target joint
    value at the per-agent greedy actions of the next step.

    Each episode's targets are memoized in ``target_store.memo`` under
    (kind, gamma, embed, agent_hidden) by episode stamp; a new key or target
    parameter array empties the memo. Missed episodes share one target agent
    and mixer call; hits make none.
    """
    memo = target_store.memo((kind, gamma, embed, agent_hidden))
    stamps, lengths = batch["stamp"].tolist(), batch["length"]
    missed = [k for k, stamp in enumerate(stamps) if stamp not in memo]
    if missed:
        fresh = _fresh_targets({f: v[missed] for f, v in batch.items()},
                               target_store, kind, gamma, embed, agent_hidden)
        for col, k in enumerate(missed):
            memo[stamps[k]] = fresh[:lengths[k], col].copy()
    targets = np.zeros((lengths.max(), len(stamps)))
    for k, stamp in enumerate(stamps):
        targets[:lengths[k], k] = memo[stamp]
    return targets


def td_loss(batch: dict, pv: dict[str, Var], targets: np.ndarray, kind: str,
            embed: int, agent_hidden: int = 64) -> Var:
    """Half the mean squared TD error over valid timesteps, (1 x 1): the
    joint values under ``pv`` at the taken actions against ``targets``, the
    :func:`td_targets` of ``batch``."""
    t, e = _steps(batch)
    qtot = _joint_values(pv, batch, t, e, kind, embed, agent_hidden,
                         batch["actions"][e, t].ravel())
    diff = add(qtot, -targets[t, e].reshape(-1, 1))
    return mul(block_sum(mul(diff, diff), t.size), np.array([[0.5 / t.size]]))


def train_step(batch: dict, store: ParameterStore,
               target_store: ParameterStore, kind: str, gamma: float,
               embed: int, agent_hidden: int = 64, lr: float = 5e-4,
               rms_decay: float = RMS_DECAY, rms_eps: float = RMS_EPS,
               clip_norm: float = CLIP_NORM) -> float:
    """One optimization step on a batch of episodes; returns the loss.

    The loss is :func:`td_loss`; gradients flow through the agent networks,
    the hypergraph generator and edge weights, and the hypernetworks, but
    not into the targets. One agent call covers every step of the batch and
    one mixer call every valid step, so the tape holds one GRU record however
    long the episodes are. ``batch`` is a :func:`stack_episodes` batch.
    """
    targets = td_targets(batch, target_store, kind, gamma, embed, agent_hidden)
    tape = Tape()
    pv = store.bind(tape)
    loss = td_loss(batch, pv, targets, kind, embed, agent_hidden)
    loss_value = float(loss.value[0, 0])
    if not np.isfinite(loss_value):
        raise TrainingError(
            f"non-finite loss {loss_value} (mixer={kind},"
            f" batch={len(batch['length'])}, t_max={batch['length'].max()})"
        )
    grads = gradient(tape, loss)
    # the gradient in the store's layout: zero where the sweep did not reach
    grad = np.concatenate([grads[v].ravel() if v in grads
                           else np.zeros(v.value.size) for v in pv.values()])
    clip_grad_norm(store, grad, clip_norm)
    rmsprop_step(store, grad, lr=lr, decay=rms_decay, eps=rms_eps)
    return loss_value


def update_target(store: ParameterStore, target_store: ParameterStore) -> None:
    """Hard, bit-exact copy of the online parameters into the target copy."""
    target_store.copy_from(store)


def evaluate_policy(env, store: ParameterStore, episodes: int, rng: Rng,
                    agent_hidden: int = 64, optimal: float | None = None) -> dict:
    """Greedy evaluation: mean return and the rate of optimal-return episodes."""
    if episodes < 1:
        raise ValueError(f"evaluate_policy: episodes must be >= 1, got {episodes}")
    if optimal is None:
        optimal = brute_force_optimal(env)
    layouts = draw_layouts(env, [rng.split(f"ep{k}") for k in range(episodes)])
    batch = rollout(env, store, 0.0, layouts, None, agent_hidden)
    # each episode's first ``length`` rewards, summed as episode_return sums
    returns = np.array([r[:t].sum() for r, t in zip(batch["reward"], batch["length"])])
    success = float((np.abs(returns - optimal) <= 1e-9).mean())
    return {"mean_return": float(returns.mean()), "success_rate": success}


def init_run_stores(cfg, env, seed: int) -> tuple[ParameterStore, ParameterStore]:
    """Build the online and target parameter stores for one seeded run."""
    rng = Rng(seed).split("init")
    spec = env.spec
    store = ParameterStore()
    ag.init_agent_params(store, spec.obs_dim, spec.n_actions, spec.n_agents,
                         rng.split("agent"), hidden=cfg.agent_hidden)
    mx.init_mixer_params(store, cfg.mixer, spec.n_agents, spec.obs_dim,
                         spec.state_dim, rng.split("mixer"),
                         hyperedges=cfg.hyperedges, embed=cfg.embed,
                         hypernet_hidden=cfg.hypernet_hidden)
    return store, store.clone()


def run_training(cfg, seed: int, out_dir) -> dict:
    """Train one seed to completion; writes metrics.jsonl and a checkpoint.

    Fully deterministic given (config, seed): rerunning into a fresh
    directory reproduces metrics.jsonl byte for byte. The summary's
    ``solved_at`` is the episode of the first evaluation whose success rate
    is 1.0, or None.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2,
                                                    sort_keys=True))
    env = make_env(cfg.env)
    optimal = brute_force_optimal(env)
    store, target_store = init_run_stores(cfg, env, seed)
    root = Rng(seed)
    env_rng = root.split("env")
    explore_rng = root.split("explore")
    buffer_rng = root.split("buffer")
    buffer = ReplayBuffer(cfg.buffer_capacity)

    env_steps = 0
    eval_count = 0
    losses: list[float] = []
    started = time.perf_counter()
    final_stats = None
    solved_at = None
    metrics_path = out_dir / "metrics.jsonl"
    with metrics_path.open("w") as metrics:
        for episode_idx in range(cfg.episodes):
            eps = epsilon(env_steps, cfg.anneal_steps)
            ep = collect_episode(env, store, eps, env_rng, explore_rng,
                                 cfg.agent_hidden)
            buffer.add(ep)
            env_steps += ep.length
            if len(buffer) >= cfg.batch_size:
                batch = buffer.sample(cfg.batch_size, buffer_rng)
                loss = train_step(batch, store, target_store, cfg.mixer,
                                  cfg.gamma, cfg.embed, cfg.agent_hidden,
                                  lr=cfg.lr)
                losses.append(loss)
                if len(losses) % cfg.target_interval == 0:
                    update_target(store, target_store)
            if (episode_idx + 1) % cfg.eval_interval == 0:
                stats = evaluate_policy(env, store, cfg.eval_episodes,
                                        root.split(f"eval{eval_count}"),
                                        cfg.agent_hidden, optimal)
                eval_count += 1
                loss_ma = (float(np.mean(losses[-50:])) if losses else None)
                record = {
                    "step": env_steps,
                    "episode": episode_idx + 1,
                    "mixer": cfg.mixer,
                    "seed": seed,
                    "mean_return": stats["mean_return"],
                    "success_rate": stats["success_rate"],
                    "loss_ma": loss_ma,
                    "epsilon": eps,
                }
                metrics.write(json.dumps(record, sort_keys=True) + "\n")
                final_stats = record
                if solved_at is None and stats["success_rate"] >= 1.0:
                    solved_at = episode_idx + 1
                if cfg.stop_on_success and solved_at is not None:
                    break
    save_checkpoint(store, out_dir / "checkpoint")
    return {
        "seed": seed,
        "episodes": episode_idx + 1,
        "env_steps": env_steps,
        "train_steps": len(losses),
        "wall_seconds": time.perf_counter() - started,
        "solved_at": solved_at,
        "final": final_stats,
        "metrics_path": str(metrics_path),
        "checkpoint": str(out_dir / "checkpoint"),
    }
