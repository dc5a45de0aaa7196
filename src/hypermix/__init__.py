"""Cooperative multi-agent Q-learning with hypergraph-convolution mixing.

A numpy library built around four pieces: a minimal tape-based reverse-mode
autodiff core, recurrent per-agent Q-networks, joint-value mixing heads
(additive, state-conditioned monotone, and hypergraph-convolution variants),
and toy shared-reward environments with brute-force optimal-return oracles.
"""

from . import agents, autodiff, config, envs, hypergraph, mixers, nn, training
from .autodiff import Tape, Var, evaluate, finite_diff, gradient
from .config import Config, load_config
from .envs import (LazyCoordinationGrid, OneStepMatrixGame, TwoStepGame,
                   brute_force_optimal, make_env)
from .hypergraph import build_hypergraph_rows, hgcn_transform_rows
from .mixers import MIXER_KINDS, igm_check, mix_batch, state_module, vdn_mix
from .nn import ParameterStore, rmsprop_step
from .rng import Rng
from .training import (Episode, ReplayBuffer, Schedule, collect_episode,
                       evaluate_policy, run_training, td_targets, train_step,
                       update_target)

__version__ = "0.1.0"
