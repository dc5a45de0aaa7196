"""Tour of the autodiff core: tapes, gradients, and the finite-difference check.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from hypermix.autodiff import (Tape, Var, block_sum, finite_diff, gradient,
                               linear, reshape)

# Build a tiny traced computation: sum(relu(x @ w + b)). A traced leaf is
# Var(value, tape); the ReLU layer is one `linear` record with rectify=True,
# and the sum of its 6 entries is one `block_sum` over a column of 6 rows.
rng = np.random.default_rng(0)
x = rng.normal(size=(3, 4))
w = rng.normal(size=(4, 2))
b = rng.normal(size=(1, 2))

tape = Tape()
xv, wv, bv = (Var(a, tape) for a in (x, w, b))
out = block_sum(reshape(linear(xv, wv, bv, rectify=True), 6, 1), 6)
print(f"forward value: {out.value[0, 0]:.6f}")
print(f"tape length:   {len(tape.records)} primitive records")

# The reverse sweep frees each record as it goes and returns the gradients
# of the leaves it reached: the traced inputs x, w and b, and no record output
grads = gradient(tape, out)
print(f"dL/dx shape:   {grads[xv].shape}, dL/dw shape: {grads[wv].shape},"
      f" dL/db shape: {grads[bv].shape}")
print(f"records left:  {len(tape.records)}; the output has no gradient entry:"
      f" {out not in grads}")

# Cross-check against the central-difference oracle
fd_x = finite_diff(lambda a: float(np.maximum(a @ w + b, 0.0).sum()), x, h=1e-5)
err = np.abs(grads[xv] - fd_x).max()
print(f"max |analytic - finite difference| for x: {err:.2e}")
assert err < 1e-6

# A consumed tape refuses a second backward pass
try:
    gradient(tape, out)
except RuntimeError as exc:
    print(f"second backward correctly rejected: {exc}")
