"""Tour of the autodiff core: tapes, gradients, and the finite-difference check.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from hypermix.autodiff import evaluate, finite_diff, gradient, linear, reduce_sum

# Build a tiny traced computation: sum(relu(x @ w + b)). The ReLU layer is
# one `linear` record with rectify=True.
rng = np.random.default_rng(0)
x = rng.normal(size=(3, 4))
w = rng.normal(size=(4, 2))
b = rng.normal(size=(1, 2))

out, tape, (xv, wv, bv) = evaluate(
    lambda *vs: reduce_sum(linear(*vs, rectify=True)), x, w, b)
print(f"forward value: {out.value[0, 0]:.6f}")
print(f"tape length:   {len(tape)} primitive records")

# The reverse sweep frees each record as it goes and fills .grad on the
# leaves: the traced inputs x, w and b
gradient(tape, out)
print(f"dL/dx shape:   {xv.grad.shape}, dL/dw shape: {wv.grad.shape},"
      f" dL/db shape: {bv.grad.shape}")
print(f"records left:  {len(tape)}; the output keeps no grad: {out.grad}")

# Cross-check against the central-difference oracle
fd_x = finite_diff(lambda a: float(np.maximum(a @ w + b, 0.0).sum()), x, h=1e-5)
err = np.abs(xv.grad - fd_x).max()
print(f"max |analytic - finite difference| for x: {err:.2e}")
assert err < 1e-6

# A consumed tape refuses a second backward pass
try:
    gradient(tape, out)
except RuntimeError as exc:
    print(f"second backward correctly rejected: {exc}")
