"""Joint-value mixing heads: additive, state-conditioned monotone, hypergraph.

All heads consume the per-agent chosen-action values for a batch of samples
and produce one joint value per sample. The state-conditioned head generates
its mixing weights from the global state through hypernetworks and takes
their absolute value, so the joint value is nondecreasing in every agent
value and the individual-global-max property holds by construction. The
hypergraph head first passes the agent values through two convolution
layers whose incidence matrix is generated from the current observations.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .autodiff import Var, absval, add, block_sum, elu, mul, reshape
from .errors import ConfigError, DimensionError
from .hypergraph import build_hypergraph_rows, hgcn_transform_rows
from .nn import ParameterStore, init_linear, init_mlp, linear_fwd, mlp_fwd
from .rng import Rng

MIXER_KINDS = ("vdn", "qmix", "hgcn-mix")


def validate_mixer_kind(kind: str) -> None:
    if kind not in MIXER_KINDS:
        raise ConfigError(f"unknown mixer kind {kind!r}, expected one of {MIXER_KINDS}")


def init_mixer_params(store: ParameterStore, kind: str, n_agents: int,
                      obs_dim: int, state_dim: int, rng: Rng,
                      hyperedges: int = 32, embed: int = 32,
                      hypernet_hidden: int = 64) -> None:
    """Add all parameters the given mixer kind needs.

    Edge weights start at one (an unweighted hypergraph); the hypernetworks
    follow the usual uniform fan-in initialization.
    """
    validate_mixer_kind(kind)
    if kind == "vdn":
        return
    hh = hypernet_hidden
    init_mlp(store, "mix.hyper_w1", state_dim, hh, n_agents * embed, rng)
    init_linear(store, "mix.hyper_b1", state_dim, embed, rng)
    init_mlp(store, "mix.hyper_w2", state_dim, hh, embed, rng)
    init_mlp(store, "mix.v", state_dim, hh, 1, rng)
    if kind == "hgcn-mix":
        init_linear(store, "mix.gen", obs_dim, hyperedges, rng)
        store.add("mix.edge_w1", np.ones((hyperedges + n_agents, 1)))
        store.add("mix.edge_w2", np.ones((hyperedges + n_agents, 1)))


def state_module(q, s, pv: dict[str, Var], n_agents: int, embed: int) -> Var:
    """State-conditioned monotone head: per-agent values -> (S x 1) joint.

    ``q`` holds the agent values of the S samples in ``s`` either as
    (S x n) rows or as the sample-major (S*n x 1) column.
    hidden = elu(|W1(s)|^T q + b1(s)); out = |W2(s)|^T hidden + V(s), with
    W1, W2 generated from the state and made nonnegative via abs.
    """
    n_samples = s.shape[0]
    q_col = reshape(q, n_samples * n_agents, 1)
    w1 = absval(mlp_fwd(s, pv, "mix.hyper_w1"))   # S x (n*embed)
    b1 = linear_fwd(s, pv, "mix.hyper_b1")        # S x embed
    w2 = absval(mlp_fwd(s, pv, "mix.hyper_w2"))   # S x embed
    v = mlp_fwd(s, pv, "mix.v")                   # S x 1
    mixed = block_sum(mul(reshape(w1, n_samples * n_agents, embed), q_col),
                      n_agents)                   # S x embed
    hidden = elu(add(mixed, b1))
    weighted = reshape(mul(w2, hidden), n_samples * embed, 1)
    return add(block_sum(weighted, embed), v)


def mix_batch(kind: str, pv: dict[str, Var], chosen: Var, Z: np.ndarray,
              s: np.ndarray, n_agents: int, embed: int) -> Var:
    """Joint values (S x 1) for a batch of samples.

    ``chosen`` stacks per-agent chosen-action values as (S*n x 1) rows in
    sample-major order; ``Z`` stacks the matching observations (S*n x d_obs)
    and ``s`` the global states (S x d_state).
    """
    validate_mixer_kind(kind)
    s = np.asarray(s, dtype=np.float64)
    if kind == "vdn":
        return block_sum(chosen, n_agents)
    if kind == "qmix":
        return state_module(chosen, s, pv, n_agents, embed)
    h_rows, _ = build_hypergraph_rows(np.asarray(Z, dtype=np.float64),
                                      pv["mix.gen.w"], pv["mix.gen.b"],
                                      n_agents)
    qp = hgcn_transform_rows(chosen, h_rows, pv["mix.edge_w1"],
                             pv["mix.edge_w2"], n_agents)
    return state_module(qp, s, pv, n_agents, embed)


def make_qtot_fn(kind: str, store: ParameterStore, Z, s, n_agents: int,
                 embed: int):
    """Forward-only joint-value evaluator for fixed parameters and context.

    Returns a callable mapping an n-vector of chosen agent values to a float;
    it runs :func:`mix_batch` on a single sample, so ``s`` is its state.
    """
    if s is None:
        raise DimensionError("make_qtot_fn: s must be the state of one"
                             " sample, got None")
    pv = store.bind(None)
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))

    def qtot(chosen) -> float:
        col = Var(np.asarray(chosen, dtype=np.float64).reshape(-1, 1))
        return float(mix_batch(kind, pv, col, Z, s, n_agents, embed).value[0, 0])

    return qtot


def igm_check(qtot_fn, q_tables: np.ndarray, tol: float = 1e-9,
              max_joint: int = 1_000_000) -> bool:
    """Exhaustively verify the individual-global-max property.

    True iff the joint value at the tuple of per-agent argmaxes is within
    ``tol`` of the maximum over every joint action. Refuses joint spaces
    larger than ``max_joint``.
    """
    q_tables = np.asarray(q_tables, dtype=np.float64)
    n, n_actions = q_tables.shape
    if n_actions ** n > max_joint:
        raise ValueError(
            f"igm_check: joint space {n_actions}^{n} exceeds {max_joint}"
        )
    greedy = q_tables.argmax(axis=1)
    value_at_greedy = qtot_fn(q_tables[np.arange(n), greedy])
    best = -np.inf
    for joint in product(range(n_actions), repeat=n):
        best = max(best, qtot_fn(q_tables[np.arange(n), joint]))
    return value_at_greedy >= best - tol
