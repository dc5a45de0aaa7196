"""Toy cooperative environments with a shared-reward Dec-POMDP contract.

Three environments stress different coordination pressures at desk scale:

* :class:`OneStepMatrixGame` - a one-shot game over a configurable payoff
  tensor (default: the climbing payoff whose optimum is guarded by large
  miscoordination penalties).
* :class:`TwoStepGame` - a commitment game where the first agent's initial
  action selects the payoff matrix of the second step.
* :class:`LazyCoordinationGrid` - n agents on a corridor, each with a
  private target; reward 1 only when every agent sits on its target in the
  same step. The ``freeze`` variant locks agents in place once they arrive
  and masks their observations with the fixed dead-agent value.

All environments are deterministic given the reset stream, emit one shared
scalar reward per step, and terminate at their episode limit at the latest.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .agents import mask_dead_agent
from .errors import ConfigError, ContractError
from .rng import Rng

CLIMBING_PAYOFF = ((11.0, -30.0, 0.0), (-30.0, 7.0, 6.0), (0.0, 0.0, 5.0))
BRANCH_A_PAYOFF = ((7.0, 7.0), (7.0, 7.0))
BRANCH_B_PAYOFF = ((0.0, 1.0), (1.0, 8.0))

ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class EnvSpec:
    """Static environment dimensions."""

    n_agents: int
    n_actions: int
    obs_dim: int
    state_dim: int
    episode_limit: int
    gamma: float = 0.99

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if self.n_actions < 2:
            raise ConfigError("n_actions must be >= 2")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")


@dataclass
class StepResult:
    """Outcome of one joint step: shared reward plus next-step context."""

    reward: float
    terminated: bool
    obs: np.ndarray            # (n, obs_dim)
    state: np.ndarray          # (state_dim,)
    avail: np.ndarray          # (n, n_actions) bool
    frozen: np.ndarray = field(default=None)  # (n,) bool, optional


def _check_actions(actions, avail: np.ndarray) -> np.ndarray:
    actions = np.asarray(actions, dtype=np.intp).ravel()
    if actions.shape[0] != avail.shape[0]:
        raise ContractError(
            f"expected {avail.shape[0]} actions, got {actions.shape[0]}"
        )
    for a, act in enumerate(actions):
        if act < 0 or act >= avail.shape[1] or not avail[a, act]:
            raise ContractError(f"agent {a} chose unavailable action {int(act)}")
    return actions


class OneStepMatrixGame:
    """One-shot shared-payoff game; the payoff tensor has one axis per agent."""

    def __init__(self, payoff=CLIMBING_PAYOFF):
        self.payoff = np.asarray(payoff, dtype=np.float64)
        n = self.payoff.ndim
        sizes = set(self.payoff.shape)
        if len(sizes) != 1:
            raise ConfigError("payoff must have equal action counts per agent")
        self.spec = EnvSpec(n_agents=n, n_actions=self.payoff.shape[0],
                            obs_dim=n, state_dim=1, episode_limit=1)
        self._done = True

    def reset(self, rng: Rng):
        self._done = False
        return self._obs(), self._state()

    def _obs(self):
        return np.eye(self.spec.n_agents)

    def _state(self):
        return np.ones(1)

    def avail_actions(self) -> np.ndarray:
        return np.ones((self.spec.n_agents, self.spec.n_actions), dtype=bool)

    def step(self, actions) -> StepResult:
        if self._done:
            raise ContractError("step() called on a finished episode")
        actions = _check_actions(actions, self.avail_actions())
        self._done = True
        return StepResult(reward=float(self.payoff[tuple(actions)]),
                          terminated=True, obs=self._obs(), state=self._state(),
                          avail=self.avail_actions())


class TwoStepGame:
    """Commitment game: agent 0's first action picks the second-step payoff."""

    _FIRST, _BRANCH_A, _BRANCH_B = 0, 1, 2

    def __init__(self, payoff_a=BRANCH_A_PAYOFF, payoff_b=BRANCH_B_PAYOFF):
        self.payoff_a = np.asarray(payoff_a, dtype=np.float64)
        self.payoff_b = np.asarray(payoff_b, dtype=np.float64)
        if self.payoff_a.shape != (2, 2) or self.payoff_b.shape != (2, 2):
            raise ConfigError("two-step payoffs must be 2x2")
        self.spec = EnvSpec(n_agents=2, n_actions=2, obs_dim=3, state_dim=3,
                            episode_limit=2)
        self._phase = None

    def reset(self, rng: Rng):
        self._phase = self._FIRST
        return self._obs(), self._state()

    def _state(self):
        s = np.zeros(3)
        s[self._phase] = 1.0
        return s

    def _obs(self):
        return np.tile(self._state(), (2, 1))

    def avail_actions(self) -> np.ndarray:
        return np.ones((2, 2), dtype=bool)

    def step(self, actions) -> StepResult:
        if self._phase is None:
            raise ContractError("step() called on a finished episode")
        actions = _check_actions(actions, self.avail_actions())
        if self._phase == self._FIRST:
            self._phase = self._BRANCH_A if actions[0] == 0 else self._BRANCH_B
            return StepResult(reward=0.0, terminated=False, obs=self._obs(),
                              state=self._state(), avail=self.avail_actions())
        payoff = self.payoff_a if self._phase == self._BRANCH_A else self.payoff_b
        self._phase = None
        reward = float(payoff[actions[0], actions[1]])
        obs = np.zeros((2, 3))
        return StepResult(reward=reward, terminated=True, obs=obs,
                          state=np.zeros(3), avail=self.avail_actions())


class LazyCoordinationGrid:
    """n agents on a corridor of ``length`` cells, each with a private target.

    Actions: 0 = stay, 1 = left, 2 = right; moves off the corridor are
    masked unavailable. Reward is 1 exactly when every agent is on its own
    target simultaneously, which also terminates the episode. The step at
    ``episode_limit`` is terminated too: the state has no time feature, so
    TD targets do not bootstrap past the limit. With
    ``freeze=True`` an agent locks in place on arrival and its observation
    is replaced by the dead-agent mask value.
    """

    STAY, LEFT, RIGHT = 0, 1, 2

    def __init__(self, n_agents: int = 4, length: int = 6, freeze: bool = False):
        if n_agents < 1 or length < 2:
            raise ConfigError("grid needs n_agents >= 1 and length >= 2")
        self.length = length
        self.freeze = freeze
        self.spec = EnvSpec(n_agents=n_agents, n_actions=3,
                            obs_dim=2 * length, state_dim=n_agents * 2 * length,
                            episode_limit=2 * length)
        self._pos = None

    def reset(self, rng: Rng):
        n = self.spec.n_agents
        self._pos = np.array([rng.integers(self.length) for _ in range(n)])
        self._target = np.array([rng.integers(self.length) for _ in range(n)])
        self._frozen = np.zeros(n, dtype=bool)
        if self.freeze:
            self._frozen = self._pos == self._target
        self._steps = 0
        self._done = False
        return self._obs(), self._state()

    def _one_hot_pair(self, agent: int) -> np.ndarray:
        row = np.zeros(2 * self.length)
        row[self._pos[agent]] = 1.0
        row[self.length + self._target[agent]] = 1.0
        return row

    def _obs(self) -> np.ndarray:
        rows = []
        for a in range(self.spec.n_agents):
            row = self._one_hot_pair(a)
            if self._frozen[a]:
                row = mask_dead_agent(row)
            rows.append(row)
        return np.stack(rows)

    def _state(self) -> np.ndarray:
        # global state stays unmasked; masking applies to observations only
        return np.concatenate([self._one_hot_pair(a)
                               for a in range(self.spec.n_agents)])

    def avail_actions(self) -> np.ndarray:
        n = self.spec.n_agents
        avail = np.zeros((n, 3), dtype=bool)
        avail[:, self.STAY] = True
        for a in range(n):
            if self._frozen[a]:
                continue
            if self._pos[a] > 0:
                avail[a, self.LEFT] = True
            if self._pos[a] < self.length - 1:
                avail[a, self.RIGHT] = True
        return avail

    def step(self, actions) -> StepResult:
        if self._pos is None or self._done:
            raise ContractError("step() called on a finished episode")
        actions = _check_actions(actions, self.avail_actions())
        self._steps += 1
        delta = {self.STAY: 0, self.LEFT: -1, self.RIGHT: 1}
        for a, act in enumerate(actions):
            if not self._frozen[a]:
                self._pos[a] += delta[int(act)]
        if self.freeze:
            self._frozen |= self._pos == self._target
        success = bool((self._pos == self._target).all())
        reward = 1.0 if success else 0.0
        terminated = success or self._steps >= self.spec.episode_limit
        self._done = terminated
        return StepResult(reward=reward, terminated=terminated, obs=self._obs(),
                          state=self._state(), avail=self.avail_actions(),
                          frozen=self._frozen.copy())


def make_env(env_cfg: dict):
    """Instantiate an environment from its config section."""
    cfg = dict(env_cfg)
    name = cfg.pop("name", None)
    try:
        if name == "matrix_game":
            return OneStepMatrixGame(**cfg)
        if name == "two_step":
            return TwoStepGame(**cfg)
        if name == "grid":
            return LazyCoordinationGrid(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad options for env {name!r}: {exc}") from exc
    raise ConfigError(f"unknown env name {name!r}")


def _max_return_dfs(env) -> float:
    """Exhaustive max total reward over all joint-action sequences."""
    n, n_actions = env.avail_actions().shape
    best = -np.inf

    def rec(env, acc):
        nonlocal best
        avail = env.avail_actions()
        joints = [[]]
        for agent in range(n):
            choices = [a for a in range(n_actions) if avail[agent, a]]
            joints = [pre + [a] for pre in joints for a in choices]
        for joint in joints:
            child = copy.deepcopy(env)
            res = child.step(joint)
            total = acc + res.reward
            if res.terminated:
                best = max(best, total)
            else:
                rec(child, total)

    rec(env, 0.0)
    return float(best)


def brute_force_optimal(env) -> float:
    """Exact optimal expected episode return by exhaustive search.

    Deterministic fixed-start games are searched over all joint-action
    sequences. For the corridor environment the agents' dynamics are
    independent, so the expected optimum over random layouts is the product
    over agents of the probability that a (position, target) pair is
    reachable within the episode limit under single-agent shortest paths,
    a closed form costing O(length^2) for any number of agents. The other
    games refuse search spaces beyond ``ENUMERATION_LIMIT``.
    """
    if isinstance(env, OneStepMatrixGame):
        if env.payoff.size > ENUMERATION_LIMIT:
            raise ValueError("joint action space too large to enumerate")
        return float(env.payoff.max())
    if isinstance(env, TwoStepGame):
        spec = env.spec
        paths = (spec.n_actions ** spec.n_agents) ** spec.episode_limit
        if paths > ENUMERATION_LIMIT:
            raise ValueError("joint policy space too large to enumerate")
        probe = copy.deepcopy(env)
        probe.reset(Rng(0))
        return _max_return_dfs(probe)
    if isinstance(env, LazyCoordinationGrid):
        length = env.length
        pairs = length * length
        ok = sum(1 for p in range(length) for t in range(length)
                 if abs(p - t) <= env.spec.episode_limit)
        return float((ok / pairs) ** env.spec.n_agents)
    raise ValueError(f"no optimal-return oracle for {type(env).__name__}")
