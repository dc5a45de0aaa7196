"""The observation-generated hypergraph and its convolution, step by step.

Every hypergraph function takes samples stacked along rows, one block of
n agent rows per sample; this demo mostly uses a batch of one sample.
Run: python3 demos/02_hypergraph_convolution.py
"""

import numpy as np

from hypermix.autodiff import Tape, Var, hgcn_conv
from hypermix.hypergraph import (build_hypergraph_rows, hgcn_transform_rows,
                                 mixing_matrix)

rng = np.random.default_rng(1)
n_agents, n_edges, obs_dim = 4, 3, 5
edge_w = np.ones((n_edges + n_agents, 1))

# A shared linear generator maps each agent's observation to hyperedge
# memberships; ReLU keeps them nonnegative, and a scaled identity block
# gives every agent a self-edge of matching magnitude.
Z = rng.normal(size=(n_agents, obs_dim))
gen_w = rng.normal(size=(obs_dim, n_edges)) * 0.5
gen_b = np.zeros((1, n_edges))
H, mu = build_hypergraph_rows(Z, gen_w, gen_b, n_agents)
print("incidence matrix H (learned block | scaled identity):")
print(np.round(H.value, 3))
print(f"mean of learned block mu = {mu.value[0, 0]:.4f}\n")

# Convolving per-agent values mixes them along shared hyperedges.
q = rng.normal(size=(n_agents, 1))
q_mixed = hgcn_transform_rows(q, H, edge_w, edge_w, n_agents)
print("agent values before:", np.round(q.ravel(), 3))
print("agent values after: ", np.round(q_mixed.value.ravel(), 3), "\n")

# The effective mixing matrix is entrywise nonnegative, which is what
# preserves the monotonicity needed for greedy decentralized execution.
A = mixing_matrix(H.value, edge_w)
print("effective mixing matrix (all entries >= 0):")
print(np.round(A, 3), "\n")

# Two special cases pin down the algebra:
# 1. identity incidence leaves values untouched (so hgcn-mix with no learned
#    hyperedges is qmix);
q_id = hgcn_transform_rows(q, np.eye(n_agents), np.ones((n_agents, 1)),
                           np.ones((n_agents, 1)), n_agents)
print("identity incidence max |q' - q|:",
      f"{np.abs(q_id.value - q).max():.2e}")

# 2. one all-ones hyperedge averages the values (mean pooling).
pool = hgcn_conv(q, np.ones((n_agents, 1)), np.ones((1, 1)), n_agents)
print("single uniform hyperedge output:", np.round(pool.value.ravel(), 4),
      "vs mean", round(float(q.mean()), 4), "\n")

# Training stacks many samples in one call: each block of rows gets its own
# incidence and its own degree normalization.
Z2 = rng.normal(size=(2 * n_agents, obs_dim))
H2, mu2 = build_hypergraph_rows(Z2, gen_w, gen_b, n_agents)
q2 = rng.normal(size=(2 * n_agents, 1))
mixed2 = hgcn_transform_rows(q2, H2, edge_w, edge_w, n_agents)
print("two stacked samples, mu per sample:", np.round(mu2.value.ravel(), 4))
print("mixed values per sample:")
print(np.round(mixed2.value.reshape(2, n_agents), 3))

# On a tape, each convolution layer is a single record whose backward gives
# the gradients of the values, the incidence and the edge weights at once.
# A traced leaf is Var(value, tape).
tape = Tape()
hgcn_transform_rows(*(Var(a, tape) for a in (q2, H2.value, edge_w, edge_w)),
                    n_agents)
print("tape records of a traced transform:", [r.name for r in tape.records])
