"""Deterministic, splittable random streams on the Philox counter generator.

Child streams are keyed by SHA-256 of (seed, path label), so every component
(environment, exploration, initialization, ...) gets an independent stream
whose draws are reproducible across runs and platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Rng:
    """A named random stream derived from a 64-bit seed."""

    def __init__(self, seed: int, path: str = ""):
        self.seed = int(seed)
        self.path = path
        digest = hashlib.sha256(f"{self.seed}|{path}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, label: str) -> "Rng":
        """Derive an independent child stream named by ``label``."""
        return Rng(self.seed, f"{self.path}/{label}")

    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.normal(size=size)

    def integers(self, n: int) -> int:
        """One draw uniform over {0, ..., n-1}."""
        return int(self._gen.integers(n))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)
