"""Episode collection, replay, TD training, and the seeded run loop.

Training is centralized: the mixer sees global states and all agent values.
Execution stays decentralized: during collection each agent's action depends
only on its own observation history. Targets use a frozen parameter copy and
realize the max over joint actions through per-agent greedy actions, which
is exact for mixers satisfying the individual-global-max property.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import agents as ag
from . import mixers as mx
from .autodiff import (Tape, Var, add, gradient, mul, reduce_sum, reshape,
                       select_rows)
from .envs import brute_force_optimal, make_env
from .errors import TrainingError
from .nn import (ParameterStore, clip_grad_norm, rmsprop_step, save_checkpoint)
from .rng import Rng


@dataclass(frozen=True)
class Schedule:
    """Linear exploration annealing over environment steps."""

    eps_start: float = 1.0
    eps_end: float = 0.05
    anneal_steps: int = 50_000

    def value(self, t: int) -> float:
        if t >= self.anneal_steps:
            return self.eps_end
        frac = t / self.anneal_steps
        return self.eps_start + (self.eps_end - self.eps_start) * frac


@dataclass(eq=False)
class Episode:
    """One rollout with a trailing observation slot for bootstrapping.

    Slots beyond ``length`` stay zero; ``length`` is the validity mask.
    """

    obs: np.ndarray          # (T+1, n, obs_dim)
    state: np.ndarray        # (T+1, state_dim)
    avail: np.ndarray        # (T+1, n, n_actions) bool
    actions: np.ndarray      # (T, n) int
    reward: np.ndarray       # (T,)
    terminated: np.ndarray   # (T,) bool
    length: int

    @classmethod
    def empty(cls, limit: int, n: int, obs_dim: int, state_dim: int,
              n_actions: int) -> "Episode":
        return cls(
            obs=np.zeros((limit + 1, n, obs_dim)),
            state=np.zeros((limit + 1, state_dim)),
            avail=np.zeros((limit + 1, n, n_actions), dtype=bool),
            actions=np.zeros((limit, n), dtype=np.intp),
            reward=np.zeros(limit),
            terminated=np.zeros(limit, dtype=bool),
            length=0,
        )

    @property
    def episode_return(self) -> float:
        return float(self.reward[:self.length].sum())


class ReplayBuffer:
    """Ring buffer of episodes with uniform without-replacement sampling."""

    def __init__(self, capacity: int = 5000):
        self.capacity = capacity
        self._episodes: list[Episode] = []
        self._next = 0
        self.inserted = 0

    def add(self, episode: Episode) -> None:
        if len(self._episodes) < self.capacity:
            self._episodes.append(episode)
        else:
            self._episodes[self._next] = episode
        self._next = (self._next + 1) % self.capacity
        self.inserted += 1

    def __len__(self) -> int:
        return len(self._episodes)

    def sample(self, batch_size: int, rng: Rng) -> list[Episode]:
        if batch_size > len(self._episodes):
            raise ValueError("not enough episodes buffered")
        idx = rng.sample_without_replacement(len(self._episodes), batch_size)
        return [self._episodes[i] for i in idx]


def collect_episode(env, store: ParameterStore, eps: float, env_rng: Rng,
                    explore_rng: Rng, agent_hidden: int = 64) -> Episode:
    """Roll one episode; each agent acts from its own inputs only."""
    spec = env.spec
    ep = Episode.empty(spec.episode_limit, spec.n_agents, spec.obs_dim,
                       spec.state_dim, spec.n_actions)
    pv = store.bind(None)
    obs, state = env.reset(env_rng)
    avail = env.avail_actions()
    hidden = ag.initial_hidden(spec.n_agents, agent_hidden)
    last_actions = None
    t = 0
    while True:
        ep.obs[t] = obs
        ep.state[t] = state
        ep.avail[t] = avail
        inputs = ag.build_agent_inputs(obs, last_actions, spec.n_actions)
        q, hidden = ag.agent_forward(pv, Var(inputs), hidden)
        actions = [ag.select_action(q.value[a], avail[a], eps, explore_rng)
                   for a in range(spec.n_agents)]
        res = env.step(actions)
        ep.actions[t] = actions
        ep.reward[t] = res.reward
        ep.terminated[t] = res.terminated
        last_actions = actions
        obs, state, avail = res.obs, res.state, res.avail
        t += 1
        if res.terminated or t >= spec.episode_limit:
            break
    ep.obs[t] = obs
    ep.state[t] = state
    ep.avail[t] = avail
    ep.length = t
    return ep


def _batch_inputs(batch: list[Episode], n_actions: int) -> np.ndarray:
    """Agent input rows of every step of the batch, (T+1, B*n, d).

    Step t stacks each episode's n agent rows in batch order; rows past an
    episode's end carry zero observations and no last action.
    """
    t_max = max(ep.length for ep in batch)
    n, obs_dim = batch[0].obs.shape[1:]
    out = np.zeros((t_max + 1, len(batch), n, obs_dim + n_actions + n))
    out[..., :obs_dim] = np.stack([ep.obs[:t_max + 1] for ep in batch], axis=1)
    out[..., obs_dim + n_actions:] = np.eye(n)
    agents = np.arange(n)
    for e, ep in enumerate(batch):
        steps = np.arange(1, ep.length + 1)[:, None]
        out[steps, e, agents, obs_dim + ep.actions[:ep.length]] = 1.0
    return out.reshape(t_max + 1, len(batch) * n, -1)


def _steps(batch: list[Episode]) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (t, e) with t < length of episode e.

    Ordered by step, then episode: the order of the rows of the agent
    pass.
    """
    lengths = np.array([ep.length for ep in batch])
    return np.nonzero(np.arange(lengths.max())[:, None] < lengths)


def _sample_rows(t: np.ndarray, e: np.ndarray, n_episodes: int,
                 n: int) -> np.ndarray:
    """Row indices, in the step-major agent pass, of the n agents of each
    (t, e) sample."""
    return ((t * n_episodes + e)[:, None] * n + np.arange(n)).ravel()


def _stacked(batch: list[Episode], field: str) -> np.ndarray:
    return np.stack([getattr(ep, field) for ep in batch])


def _agent_pass(pv: dict[str, Var], inputs: np.ndarray,
                agent_hidden: int) -> Var:
    """Agent Q values of every step of ``inputs`` (T, B*n, d) from a zero
    hidden state, in one agent call: (T*B*n x n_actions), step-major."""
    steps, rows = inputs.shape[:2]
    q, _ = ag.agent_forward(pv, Var(inputs.reshape(steps * rows, -1)),
                            ag.initial_hidden(rows, agent_hidden), steps)
    return q


def _mix_steps(kind: str, pv: dict[str, Var], chosen, batch: list[Episode],
               t: np.ndarray, e: np.ndarray, embed: int) -> Var:
    """Joint values of the (t, e) samples, in one mixer call."""
    n = batch[0].obs.shape[1]
    Z = _stacked(batch, "obs")[e, t].reshape(t.size * n, -1)
    return mx.mix_batch(kind, pv, chosen, Z, _stacked(batch, "state")[e, t],
                        n, embed)


def _fresh_targets(batch: list[Episode], target_store: ParameterStore,
                   kind: str, gamma: float, embed: int, agent_hidden: int,
                   inputs: np.ndarray | None) -> np.ndarray:
    """:func:`td_targets` of every episode of ``batch``, without the memo."""
    n = batch[0].obs.shape[1]
    n_actions = batch[0].avail.shape[2]
    t, e = _steps(batch)
    targets = np.zeros((t.max() + 1, len(batch)))
    targets[t, e] = _stacked(batch, "reward")[e, t]
    boot = ~_stacked(batch, "terminated")[e, t]
    if not boot.any():
        return targets
    t, e = t[boot] + 1, e[boot]
    if inputs is None:
        inputs = _batch_inputs(batch, n_actions)
    pv = target_store.bind(None)
    q = _agent_pass(pv, inputs[:t.max() + 1], agent_hidden)
    q_rows = q.value[_sample_rows(t, e, len(batch), n)]
    avail = _stacked(batch, "avail")[e, t].reshape(-1, n_actions)
    greedy = ag.greedy_actions(q_rows, avail)
    chosen = Var(q_rows[np.arange(q_rows.shape[0]), greedy].reshape(-1, 1))
    qtot = _mix_steps(kind, pv, chosen, batch, t, e, embed)
    targets[t - 1, e] += gamma * qtot.value[:, 0]
    return targets


def td_targets(batch: list[Episode], target_store: ParameterStore, kind: str,
               gamma: float, embed: int, agent_hidden: int = 64,
               inputs: np.ndarray | None = None) -> np.ndarray:
    """One-step TD targets from the frozen target parameters, as (T x B).

    Entry [t, e] is the target of step t of episode e; entries past an
    episode's length are zero. Terminal steps take the raw reward (so does a
    time-limit step the environment marks terminal, as the corridor does:
    no state feature carries the time left); other steps bootstrap from the
    target joint value at the per-agent greedy actions of the next step.
    ``inputs`` may pass in this batch's :func:`_batch_inputs`.

    Each episode's targets are memoized in ``target_store.memo`` under
    (kind, gamma, embed, agent_hidden) by episode identity, and its arrays
    become read-only; a new key or target parameter array empties the memo.
    Missed episodes share one target agent and mixer call; hits make none.
    """
    memo = target_store.memo((kind, gamma, embed, agent_hidden))
    missed = [k for k, ep in enumerate(batch) if ep not in memo]
    if missed:
        sub = [batch[k] for k in missed]
        if inputs is not None:
            cols = inputs.reshape(len(inputs), len(batch), -1, inputs.shape[2])
            inputs = cols[:, missed].reshape(len(inputs), -1, inputs.shape[2])
        fresh = _fresh_targets(sub, target_store, kind, gamma, embed,
                               agent_hidden, inputs)
        for k, ep in enumerate(sub):
            memo[ep] = fresh[:ep.length, k].copy()
            for value in (*vars(ep).values(), memo[ep]):
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
    targets = np.zeros((max(ep.length for ep in batch), len(batch)))
    for k, ep in enumerate(batch):
        targets[:ep.length, k] = memo[ep]
    return targets


def train_step(batch: list[Episode], store: ParameterStore,
               target_store: ParameterStore, kind: str, gamma: float,
               embed: int, agent_hidden: int = 64, lr: float = 5e-4,
               rms_decay: float = 0.99, rms_eps: float = 1e-5,
               clip_norm: float = 10.0) -> float:
    """One optimization step on a batch of episodes; returns the loss.

    The loss is the mean over valid timesteps of half the squared TD error;
    gradients flow through the agent networks, the hypergraph generator and
    edge weights, and the hypernetworks, but not into the targets. One agent
    call covers every step of the batch and one mixer call every valid step,
    so the tape holds one GRU record however long the episodes are.
    """
    n = batch[0].obs.shape[1]
    n_actions = batch[0].avail.shape[2]
    inputs = _batch_inputs(batch, n_actions)
    targets = td_targets(batch, target_store, kind, gamma, embed, agent_hidden,
                         inputs=inputs)
    t_max = len(inputs) - 1

    tape = Tape()
    pv = store.bind(tape)
    q = _agent_pass(pv, inputs[:t_max], agent_hidden)
    t, e = _steps(batch)
    rows = _sample_rows(t, e, len(batch), n)
    actions = _stacked(batch, "actions")[e, t].ravel()
    q_flat = reshape(q, q.value.size, 1)
    chosen = select_rows(q_flat, rows * n_actions + actions)
    qtot = _mix_steps(kind, pv, chosen, batch, t, e, embed)
    diff = add(qtot, -targets[t, e].reshape(-1, 1))
    loss = mul(reduce_sum(mul(diff, diff)), np.array([[0.5 / t.size]]))
    loss_value = float(loss.value[0, 0])
    if not np.isfinite(loss_value):
        raise TrainingError(
            f"non-finite loss {loss_value} (mixer={kind}, batch={len(batch)},"
            f" t_max={t_max})"
        )
    gradient(tape, loss)
    store.zero_grads()
    store.accumulate_grads(pv)
    clip_grad_norm(store, clip_norm)
    rmsprop_step(store, lr=lr, decay=rms_decay, eps=rms_eps)
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
    returns = []
    for k in range(episodes):
        ep = collect_episode(env, store, 0.0, rng.split(f"ep{k}"),
                             rng.split(f"explore{k}"), agent_hidden)
        returns.append(ep.episode_return)
    returns = np.asarray(returns)
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
    directory reproduces metrics.jsonl byte for byte.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2,
                                                    sort_keys=True))
    env = make_env(cfg.env)
    eval_env = make_env(cfg.env)
    optimal = brute_force_optimal(eval_env)
    store, target_store = init_run_stores(cfg, env, seed)
    root = Rng(seed)
    env_rng = root.split("env")
    explore_rng = root.split("explore")
    buffer_rng = root.split("buffer")
    buffer = ReplayBuffer(cfg.buffer_capacity)
    schedule = Schedule(cfg.eps_start, cfg.eps_end, cfg.anneal_steps)

    env_steps = 0
    train_steps = 0
    eval_count = 0
    losses: list[float] = []
    started = time.time()
    final_stats = None
    metrics_path = out_dir / "metrics.jsonl"
    with metrics_path.open("w") as metrics:
        for episode_idx in range(cfg.episodes):
            eps = schedule.value(env_steps)
            ep = collect_episode(env, store, eps, env_rng, explore_rng,
                                 cfg.agent_hidden)
            buffer.add(ep)
            env_steps += ep.length
            if (len(buffer) >= cfg.batch_size
                    and episode_idx % cfg.train_every == 0):
                batch = buffer.sample(cfg.batch_size, buffer_rng)
                loss = train_step(batch, store, target_store, cfg.mixer,
                                  cfg.gamma, cfg.embed, cfg.agent_hidden,
                                  lr=cfg.lr, rms_decay=cfg.rms_decay,
                                  rms_eps=cfg.rms_eps, clip_norm=cfg.clip_norm)
                losses.append(loss)
                train_steps += 1
                if train_steps % cfg.target_interval == 0:
                    update_target(store, target_store)
            if (episode_idx + 1) % cfg.eval_interval == 0:
                stats = evaluate_policy(eval_env, store, cfg.eval_episodes,
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
                if cfg.stop_on_success and stats["success_rate"] >= 1.0:
                    break
    save_checkpoint(store, out_dir / "checkpoint")
    return {
        "seed": seed,
        "episodes": episode_idx + 1,
        "env_steps": env_steps,
        "train_steps": train_steps,
        "wall_seconds": time.time() - started,
        "final": final_stats,
        "metrics_path": str(metrics_path),
        "checkpoint": str(out_dir / "checkpoint"),
    }
