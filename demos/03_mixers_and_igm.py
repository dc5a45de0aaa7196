"""Joint-value mixing heads and the individual-global-max (IGM) property.

Run: python3 demos/03_mixers_and_igm.py
"""

import numpy as np

from hypermix.mixers import (MIXER_KINDS, igm_check, init_mixer_params,
                             make_qtot_fn)
from hypermix.nn import ParameterStore
from hypermix.rng import Rng

n_agents, n_actions, obs_dim, state_dim, embed = 3, 3, 4, 3, 8
rng = np.random.default_rng(2)

# Random per-agent action-value tables and a random context
q_tables = rng.normal(size=(n_agents, n_actions)) * 2.0
Z = rng.normal(size=(n_agents, obs_dim))
s = rng.normal(size=(1, state_dim))

for kind in MIXER_KINDS:
    store = ParameterStore()
    init_mixer_params(store, kind, n_agents, obs_dim, state_dim, Rng(7),
                      hyperedges=4, embed=embed, hypernet_hidden=16)
    qtot = make_qtot_fn(kind, store, Z, s)

    # per-agent greedy tuple vs exhaustive joint maximum
    ok = igm_check(qtot, q_tables)
    greedy = q_tables.argmax(axis=1)
    value = qtot(q_tables[np.arange(n_agents), greedy])
    print(f"{kind:12s} IGM holds: {ok}   Qtot at greedy tuple: {value:+.4f}")

    # monotonicity: nudging any agent's value up never lowers the joint value
    chosen = q_tables[np.arange(n_agents), greedy]
    partials = []
    for i in range(n_agents):
        bumped = chosen.copy()
        bumped[i] += 1e-6
        partials.append((qtot(bumped) - qtot(chosen)) / 1e-6)
    print(f"{'':12s} finite-difference partials dQtot/dQ_a: "
          + " ".join(f"{p:+.3f}" for p in partials))

# A deliberately broken head (negated weight) violates IGM, so the checker
# itself is discriminating:
bad = lambda chosen: float(-np.sum(chosen))
print("negated-sum head passes IGM?",
      igm_check(bad, np.array([[0.0, 1.0], [0.0, 1.0]])))
