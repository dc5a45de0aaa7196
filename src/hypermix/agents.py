"""Per-agent recurrent Q-networks and action selection.

One parameter-shared network serves all agents; each agent's input row is
its own observation, its previous action one-hot (zeros at episode start),
and its agent-id one-hot. Execution stays decentralized: one chooser call
acts for a whole block of rows, but each row's action depends only on that
row's values and availability mask (and, when exploring, its own draws).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var
from .errors import ContractError
from .nn import ParameterStore, gru_fwd, init_gru, init_linear, linear_fwd
from .rng import Rng


def init_agent_params(store: ParameterStore, obs_dim: int, n_actions: int,
                      n_agents: int, rng: Rng, hidden: int = 64) -> None:
    # input rows: obs ++ last-action one-hot ++ agent-id one-hot
    d_in = obs_dim + n_actions + n_agents
    init_linear(store, "agent.fc1", d_in, hidden, rng)
    init_gru(store, "agent.rnn", hidden, hidden, rng)
    init_linear(store, "agent.fc2", hidden, n_actions, rng)


def agent_forward(pv: dict[str, Var], inputs, hidden, steps: int = 1):
    """Run the agent network over ``steps`` steps of a row batch.

    ``inputs`` stacks the input rows of every step, (steps*R x d) with step
    t in rows t*R .. (t+1)*R; ``hidden`` is the (R x H) state before the
    first step. Rows may stack any number of agents and batch entries since
    the network is shared. Returns (q_values, hidden_states), both stacked
    the same way; the last R rows of hidden_states are the state to carry
    into the next call. fc1 and fc2 each run as one product over all rows,
    and the GRU as one tape record that steps through its R rows at a time.
    """
    x = linear_fwd(inputs, pv, "agent.fc1", rectify=True)
    h = gru_fwd(x, hidden, pv, "agent.rnn", steps)
    q = linear_fwd(h, pv, "agent.fc2")
    return q, h


def build_agent_inputs(obs: np.ndarray, last_actions, n_actions: int) -> np.ndarray:
    """Stack per-agent input rows: obs ++ last-action one-hot ++ id one-hot.

    ``obs`` is (..., n, obs_dim) and ``last_actions`` (..., n) ints, where -1
    means no last action (the first step of an episode, or past its end);
    the float64 rows come out (..., n, d) in the order of the leading axes.
    """
    n, obs_dim = obs.shape[-2:]
    out = np.zeros(obs.shape[:-1] + (obs_dim + n_actions + n,))
    out[..., :obs_dim] = obs
    out[..., obs_dim:obs_dim + n_actions] = (
        np.asarray(last_actions)[..., None] == np.arange(n_actions))
    out[..., obs_dim + n_actions:] = np.eye(n)
    return out


def select_action(q_rows: np.ndarray, avail_rows: np.ndarray, epsilon: float,
                  rng: Rng | None = None) -> np.ndarray:
    """Epsilon-greedy action of each row over its available actions.

    Greedy picks are the masked argmax, ties broken to the lowest index.
    Only when ``epsilon`` > 0 are draws made: the rows in order, each one
    ``rng.random()`` and, if it explores, one ``rng.integers`` over its
    available actions, as a row-by-row loop would draw them.
    """
    avail_rows = np.asarray(avail_rows, dtype=bool)
    if not avail_rows.any(axis=1).all():
        raise ContractError("no available action for agent")
    actions = np.where(avail_rows, q_rows, -np.inf).argmax(axis=1)
    if epsilon > 0.0:
        for row, avail in enumerate(avail_rows):
            if rng.random() < epsilon:
                candidates = avail.nonzero()[0]
                actions[row] = candidates[rng.integers(candidates.size)]
    return actions
