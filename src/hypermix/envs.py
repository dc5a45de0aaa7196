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

Each steps K episodes in lockstep, as PyMARL's parallel runner does:
``reset(layouts)`` starts one per row of a (K, ...) int array, such as
:func:`draw_layouts` makes; ``observe()`` gives all K episodes' (K, n,
obs_dim) observations and (K, state_dim) states, int8 with entries -1, 0 or
1, and (K, n, n_actions) action masks, a finished one's final ones;
``step(actions)`` maps the (R, n) actions of the R running episodes, in
episode order, to their (R,) shared rewards and termination flags. Given the
layouts all are deterministic, and each episode ends by the episode limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

CLIMBING_PAYOFF = ((11.0, -30.0, 0.0), (-30.0, 7.0, 6.0), (0.0, 0.0, 5.0))
BRANCH_A_PAYOFF = ((7.0, 7.0), (7.0, 7.0))
BRANCH_B_PAYOFF = ((0.0, 1.0), (1.0, 8.0))


@dataclass(frozen=True)
class EnvSpec:
    """Static environment dimensions."""

    n_agents: int
    n_actions: int
    obs_dim: int
    state_dim: int
    episode_limit: int


def _check_actions(actions, masks: np.ndarray, episodes) -> np.ndarray:
    """``actions`` as (R, n) ints, each one available in ``masks``, the (R, n,
    n_actions) action masks of the running ``episodes``."""
    n, n_actions = masks.shape[1:]
    masks = masks.reshape(-1, n_actions)
    actions = np.asarray(actions, dtype=np.intp).ravel()
    if actions.size != len(masks):
        raise ContractError(f"expected {len(masks)} actions, got {actions.size}")
    known = actions.view(np.uintp) < n_actions  # a negative one wraps round
    ok = known & masks[np.arange(len(masks)), np.where(known, actions, 0)]
    if np.count_nonzero(ok) < len(masks):
        r = int(ok.argmin())
        raise ContractError(f"episode {episodes[r // n]} agent {r % n} chose"
                            f" unavailable action {actions[r]}")
    return actions.reshape(-1, n)


def _numbers(value) -> bool:
    """Whether every entry is an int or a float; a bool or a string is not,
    though numpy would read either as a number."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(map(_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _payoff(name: str, value) -> np.ndarray:
    """The payoff option ``name`` as an array of finite floats with at least
    2 actions on every axis."""
    try:
        payoff = np.asarray(value, dtype=np.float64) if _numbers(value) else None
    except ValueError:  # ragged: numpy cannot build one array from it
        raise ConfigError(f"{name} must be a rectangular nested list,"
                          f" got {value!r}") from None
    if payoff is None or not np.isfinite(payoff).all():
        raise ConfigError(f"{name} entries must be finite numbers, got {value!r}")
    if payoff.ndim == 0:
        raise ConfigError(f"{name} must be a nested list, got the scalar {value!r}")
    if min(payoff.shape) < 2:
        raise ConfigError(f"{name} must give each agent at least 2 actions,"
                          f" got the shape {payoff.shape}")
    return payoff


class OneStepMatrixGame:
    """One-shot shared-payoff game; the payoff tensor has one axis per agent."""

    def __init__(self, payoff=CLIMBING_PAYOFF):
        self.payoff = _payoff("payoff", payoff)
        n = self.payoff.ndim
        sizes = set(self.payoff.shape)
        if len(sizes) != 1:
            raise ConfigError("payoff must have equal action counts per agent")
        self.spec = EnvSpec(n_agents=n, n_actions=self.payoff.shape[0],
                            obs_dim=n, state_dim=1, episode_limit=1)
        self._k, self._done = 0, True

    def reset(self, layouts: np.ndarray) -> None:
        self._k, self._done = len(layouts), False

    def observe(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Agent-id one-hots, a unit state and an all-true mask."""
        k, n = self._k, self.spec.n_agents
        return (np.tile(np.eye(n, dtype=np.int8), (k, 1, 1)),
                np.ones((k, 1), dtype=np.int8),
                np.ones((k, n, self.spec.n_actions), dtype=bool))

    def step(self, actions) -> tuple[np.ndarray, np.ndarray]:
        if self._done:
            raise ContractError("step() called on a finished episode")
        actions = _check_actions(actions, self.observe()[2], range(self._k))
        self._done = True
        return self.payoff[tuple(actions.T)], np.ones(self._k, dtype=bool)


class TwoStepGame:
    """Commitment game: agent 0's first action picks the second-step payoff."""

    _OVER = 3  # the phase after the second step

    def __init__(self, payoff_a=BRANCH_A_PAYOFF, payoff_b=BRANCH_B_PAYOFF):
        self.payoff_a = _payoff("payoff_a", payoff_a)
        self.payoff_b = _payoff("payoff_b", payoff_b)
        if self.payoff_a.shape != (2, 2) or self.payoff_b.shape != (2, 2):
            raise ConfigError("two-step payoffs must be 2x2")
        self.spec = EnvSpec(n_agents=2, n_actions=2, obs_dim=3, state_dim=3,
                            episode_limit=2)
        self._phase = np.zeros(0, dtype=np.intp)

    def reset(self, layouts: np.ndarray) -> None:
        self._phase = np.zeros(len(layouts), dtype=np.intp)

    def observe(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both agents see the state, a one-hot of the phase (first step,
        branch A or B; zeros once over), and may take either action."""
        state = np.eye(self._OVER + 1, dtype=np.int8)[self._phase, :self._OVER]
        return (np.repeat(state[:, None], 2, axis=1), state,
                np.ones((len(state), 2, 2), dtype=bool))

    def step(self, actions) -> tuple[np.ndarray, np.ndarray]:
        if (self._phase == self._OVER).all():
            raise ContractError("step() called on a finished episode")
        actions = _check_actions(actions, self.observe()[2],
                                 range(len(self._phase)))
        done = self._phase > 0  # the episodes step together: all or none
        # phase 1 or 2 picks branch A or B; a first step's pick goes unpaid
        payoff = np.stack((self.payoff_a, self.payoff_b))[
            self._phase - 1, actions[:, 0], actions[:, 1]]
        self._phase = np.where(done, self._OVER, 1 + actions[:, 0])
        return np.where(done, payoff, 0.0), done


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
    MOVES = np.array([0, -1, 1])  # position change, indexed by action

    def __init__(self, n_agents: int = 4, length: int = 6, freeze: bool = False):
        # as in the config, a bool is not a count
        for name, value in (("n_agents", n_agents), ("length", length)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(freeze, bool):
            raise ConfigError(f"freeze must be true or false, got {freeze!r}")
        if n_agents < 1 or length < 2:
            raise ConfigError("grid needs n_agents >= 1 and length >= 2")
        self.length = length
        self.freeze = freeze
        self.spec = EnvSpec(n_agents=n_agents, n_actions=3,
                            obs_dim=2 * length, state_dim=n_agents * 2 * length,
                            episode_limit=2 * length)
        self._eye = np.eye(length, dtype=np.int8)
        # the action mask of each cell, and in row ``length`` a frozen agent's
        self._masks = np.ones((length + 1, 3), dtype=bool)
        self._masks[[0, length - 1, length, length],
                    [self.LEFT, self.RIGHT] * 2] = False
        self._running = np.zeros(0, dtype=np.intp)

    def reset(self, layouts: np.ndarray) -> None:
        """Episode k takes positions ``layouts[k, 0]`` and targets ``layouts[k, 1]``,
        each an integer cell in [0, length)."""
        layouts, n = np.asarray(layouts), self.spec.n_agents
        if layouts.dtype.kind not in "iu" or layouts.shape[1:] != (2, n):
            raise ContractError(f"layouts must be an integer (K, 2, {n}) array,"
                                f" got {layouts.dtype} {layouts.shape}")
        if layouts.size and (layouts.min() < 0 or layouts.max() >= self.length):
            k, i, a = np.argwhere((layouts < 0) | (layouts >= self.length))[0]
            raise ContractError(f"episode {k} agent {a}: {('position', 'target')[i]}"
                                f" {layouts[k, i, a]} is outside [0, {self.length})")
        self._pos, self._target = np.array(layouts, np.intp).swapaxes(0, 1)
        self._frozen = (self._pos == self._target) & self.freeze
        self._steps, self._avail = 0, None
        self._running = np.arange(len(layouts))

    def observe(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Observations and state from each agent's position one-hot ++
        target one-hot, and the (K, n, 3) action masks that the next step
        checks against. The state stays unmasked; a frozen agent's
        observation takes the dead-agent mask value -1."""
        pairs = np.concatenate((self._eye[self._pos], self._eye[self._target]),
                               axis=2)
        self._avail = self._masks[np.where(self._frozen, self.length, self._pos)]
        return (np.where(self._frozen[..., None], -1, pairs),
                pairs.reshape(len(pairs), -1), self._avail)

    def step(self, actions) -> tuple[np.ndarray, np.ndarray]:
        if not len(self._running):
            raise ContractError("step() called on a finished episode")
        # the running episodes' rows: a slice while every episode runs
        rows = self._running if len(self._running) < len(self._pos) else slice(None)
        if self._avail is None:
            self.observe()
        actions = _check_actions(actions, self._avail[rows], self._running)
        self._avail = None  # the state moves below: the mask goes stale
        self._steps += 1
        # a frozen agent's only available action is STAY, which moves 0
        self._pos[rows] += self.MOVES[actions]
        arrived = self._pos[rows] == self._target[rows]
        if self.freeze:
            self._frozen[rows] |= arrived
        success = arrived.all(axis=1)
        done = success | (self._steps >= self.spec.episode_limit)
        if np.count_nonzero(done):
            self._running = self._running[~done]
        return success.astype(np.float64), done


def make_env(env_cfg: dict):
    """Instantiate an environment from the config's ``env`` options."""
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


def draw_layouts(env, rngs) -> np.ndarray:
    """One layout per stream for ``env.reset``: the corridor's (K, 2, n) are
    positions then targets, one ``integers`` call each; the games' (K, 0)."""
    if not isinstance(env, LazyCoordinationGrid):
        return np.zeros((len(rngs), 0), dtype=np.intp)
    n = env.spec.n_agents
    return np.array([[rng.integers(env.length) for _ in range(2 * n)]
                     for rng in rngs], dtype=np.intp).reshape(-1, 2, n)


def brute_force_optimal(env) -> float:
    """Exact optimal expected episode return.

    The one-step game's optimum is its largest payoff. In the two-step game
    the first step pays 0 and agent 0's action picks the branch, so the
    optimum is the largest entry of either second-step payoff. In the
    corridor each agent walks to its own target along a shortest path and
    stays there; ``episode_limit`` = 2 * length exceeds every distance
    |p - t| <= length - 1, so every layout is solved and the optimum is 1.0
    for any number of agents.
    """
    if isinstance(env, OneStepMatrixGame):
        return float(env.payoff.max())
    if isinstance(env, TwoStepGame):
        return float(max(env.payoff_a.max(), env.payoff_b.max()))
    if isinstance(env, LazyCoordinationGrid):
        return 1.0
    raise ValueError(f"no optimal-return oracle for {type(env).__name__}")
