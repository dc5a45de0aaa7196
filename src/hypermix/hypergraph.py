"""Observation-generated hypergraphs and spectral hypergraph convolution.

The incidence matrix H is (agents x hyperedges), built from the current
observations by a shared linear generator followed by ReLU, then padded on
the right with a scaled identity block so each agent keeps a self-edge whose
weight matches the scale of the learned block. The convolution normalizes by
vertex and hyperedge degrees with diagonal pseudo-inverses, so all-zero
hyperedge columns are legal and the scaled-identity case reproduces the
input exactly; each layer is a single ``autodiff.hgcn_conv`` tape record.
Every function takes samples stacked along rows, one block of n agent rows
each; a single sample is a batch of one.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .autodiff import (Var, block_sum, concat_cols, hgcn_conv, linear, mul,
                       reshape)


def build_hypergraph_rows(Z_rows, gen_w, gen_b, n: int):
    """Incidence matrices of samples stacked along rows.

    ``Z_rows`` holds blocks of ``n`` observation rows, one block per sample.
    Each block's learned part is relu(Z @ gen_w + gen_b), with one shared
    linear map across agents; its one-hot part is the mean of the learned
    part times the identity. Returns the stacked incidence (S*n x (m+n))
    and the per-sample means (S x 1).
    """
    h1 = linear(Z_rows, gen_w, gen_b, rectify=True)       # S*n x m
    rows, m = h1.value.shape
    mu = mul(block_sum(reshape(h1, rows * m, 1), n * m),
             np.array([[1.0 / (n * m)]]))                 # S x 1
    h2 = reshape(mul(mu, np.eye(n).reshape(1, n * n)), rows, n)  # S*n x n
    return concat_cols(h1, h2), mu


def hgcn_transform_rows(q, H_rows, w1, w2, n: int) -> Var:
    """Two stacked convolutions of per-agent values q (S*n x 1).

    Each layer is one :func:`hypermix.autodiff.hgcn_conv` record, with the
    inter-layer weight matrix fixed to the identity.
    """
    return hgcn_conv(hgcn_conv(q, H_rows, w1, n), H_rows, w2, n)


def mixing_matrix(H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Materialize the effective (n x n) mixing matrix of one layer.

    Diagnostic view of the convolution as a single matrix: sample j of n
    stacked samples convolves the unit signal e_j, giving column j.
    Entries are nonnegative for any inputs because every factor is.
    """
    H = np.asarray(H, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    n = H.shape[0]
    y = hgcn_conv(np.eye(n).reshape(n * n, 1), np.tile(H, (n, 1)), w, n)
    return y.value.reshape(n, n).T


def write_hypergraph_csv(path, H: np.ndarray) -> None:
    """Dump an incidence matrix as rows of ``agent,hyperedge,weight``."""
    H = np.asarray(H, dtype=np.float64)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "hyperedge", "weight"])
        for i in range(H.shape[0]):
            for e in range(H.shape[1]):
                writer.writerow([i, e, repr(float(H[i, e]))])


def read_hypergraph_csv(path) -> np.ndarray:
    """Inverse of :func:`write_hypergraph_csv`."""
    rows = []
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append((int(rec["agent"]), int(rec["hyperedge"]),
                         float(rec["weight"])))
    n = max(r[0] for r in rows) + 1
    e = max(r[1] for r in rows) + 1
    H = np.zeros((n, e))
    for i, j, v in rows:
        H[i, j] = v
    return H
