"""Cooperative multi-agent Q-learning with hypergraph-convolution mixing.

A numpy library built around four pieces: a minimal tape-based reverse-mode
autodiff core, recurrent per-agent Q-networks, joint-value mixing heads
(additive, state-conditioned monotone, and hypergraph-convolution variants),
and toy shared-reward environments with brute-force optimal-return oracles.
"""

import ctypes

# glibc trims the heap top after each train step and faults it back in during
# the next (~4,000 minor faults per paper-width hgcn-mix step). Fixed values
# keep the heap and end glibc's history-dependent dynamic thresholds.
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD (glibc's 64-bit maximum)
    _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
except (AttributeError, OSError, TypeError):
    pass  # no glibc mallopt (macOS, Windows, musl)

from . import agents, autodiff, config, envs, hypergraph, mixers, nn, training

__version__ = "0.1.0"
