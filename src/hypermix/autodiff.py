"""Dense-matrix reverse-mode automatic differentiation on a recording tape.

Every value is a 2-D row-major float64 numpy array. Applying a primitive to
traced variables computes the forward value eagerly and appends a record to
the owning :class:`Tape`; :func:`gradient` then pops the records in strict
reverse order to accumulate exact gradients for every traced input, freeing
each record as its backward runs. Plain numpy arrays (or variables without a
tape) act as constants: backward computes no gradient for them.

Subgradient conventions at kinks: relu'(0) = 0 (``linear`` with
``rectify``), abs'(0) = 0, elu uses alpha = 1. The hypergraph convolution's
degree pseudo-inverses are exactly 0 at or below ``SAFE_EPS``, so zero
degrees stay finite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError, TapeError

SAFE_EPS = 1e-8


def as_matrix(x) -> np.ndarray:
    """Coerce a scalar, 1-D, or 2-D input to a 2-D float64 array.

    Scalars become 1x1; 1-D arrays become a single row.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 2:
        return a
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return a.reshape(1, -1)
    raise DimensionError(f"expected at most 2 dimensions, got {a.ndim}")


class Var:
    """A matrix value, traced when it has a tape: ``Var(value, tape)`` is a leaf."""

    __slots__ = ("value", "tape", "__weakref__")

    def __init__(self, value, tape: "Tape | None" = None):
        self.value = as_matrix(value)
        self.tape = tape

    def __repr__(self) -> str:
        traced = "traced" if self.tape is not None else "constant"
        return f"Var(shape={self.value.shape}, {traced})"


class _Record:
    # bwd(g, need) returns one gradient per input, None where need is False
    __slots__ = ("name", "inputs", "out", "bwd")

    def __init__(self, name, inputs, out, bwd):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.bwd = bwd


class Tape:
    """Ordered log of primitive applications over traced variables."""

    def __init__(self):
        self.records: list[_Record] = []
        self.consumed = False


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _tape_of(name: str, *vs: Var) -> "Tape | None":
    tape = None
    for v in vs:
        if v.tape is None:
            continue
        if tape is None:
            tape = v.tape
        elif tape is not v.tape:
            raise TapeError(f"{name}: operands recorded on different tapes")
    return tape


def _emit(name, inputs, out_value, bwd) -> Var:
    tape = _tape_of(name, *inputs)
    out = Var(out_value, tape)
    if tape is not None:
        tape.records.append(_Record(name, inputs, out, bwd))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def linear(x, w, b, rectify: bool = False) -> Var:
    """Affine layer x @ w + b, rectified (ReLU) if ``rectify``, as one record.

    ``b`` is one (1 x out) row. The product runs once over all rows; the bias
    and the rectifier act in place on it. Backward masks by the output, > 0
    exactly where the rectifier's input is, so the record keeps no other
    array.
    """
    x, w, b = operands = tuple(map(_as_var, (x, w, b)))
    xv, wv = x.value, w.value
    if xv.shape[1] != wv.shape[0] or b.value.shape != (1, wv.shape[1]):
        raise DimensionError(f"linear: x {xv.shape}, w {wv.shape}, b {b.value.shape}"
                             " do not fit x @ w + b, b one row")
    out = xv @ wv
    out += b.value
    if rectify:
        np.maximum(out, 0.0, out=out)

    def bwd(g, need):
        if rectify:
            g = g * (out > 0.0)
        return (g @ wv.T if need[0] else None, xv.T @ g if need[1] else None,
                _unbroadcast(g, b.value.shape) if need[2] else None)

    return _emit("linear", operands, out, bwd)


def add(a, b) -> Var:
    """Elementwise sum with numpy broadcasting over size-1 axes."""
    a, b = _as_var(a), _as_var(b)
    a_shape, b_shape = a.value.shape, b.value.shape
    try:
        out = a.value + b.value
    except ValueError:
        raise DimensionError(
            f"add: shapes {a_shape} and {b_shape} do not broadcast") from None

    def bwd(g, need):
        return (_unbroadcast(g, a_shape) if need[0] else None,
                _unbroadcast(g, b_shape) if need[1] else None)

    return _emit("add", (a, b), out, bwd)


def mul(a, b) -> Var:
    """Elementwise product with numpy broadcasting over size-1 axes."""
    a, b = _as_var(a), _as_var(b)
    av, bv = a.value, b.value
    try:
        out = av * bv
    except ValueError:
        raise DimensionError(
            f"mul: shapes {av.shape} and {bv.shape} do not broadcast") from None

    def bwd(g, need):
        # the gradient broadcasting reduces first: one full-size product at a time
        grads = {i: _unbroadcast(g * (bv, av)[i], (av, bv)[i].shape)
                 for i in ((1, 0) if bv.size < av.size else (0, 1)) if need[i]}
        return grads.get(0), grads.get(1)

    return _emit("mul", (a, b), out, bwd)


def elu(x) -> Var:
    """Exponential linear unit with alpha = 1."""
    x = _as_var(x)
    xv = x.value

    def bwd(g, need):
        return (g * np.where(xv > 0.0, 1.0, np.exp(np.minimum(xv, 0.0))),)

    return _emit("elu", (x,),
                 np.where(xv > 0.0, xv, np.expm1(np.minimum(xv, 0.0))), bwd)


def absval(x) -> Var:
    x = _as_var(x)
    xv = x.value

    def bwd(g, need):
        return (g * np.sign(xv),)

    return _emit("abs", (x,), np.abs(xv), bwd)


def concat_cols(a, b) -> Var:
    """Join two matrices side by side; they must share the row count."""
    a, b = _as_var(a), _as_var(b)
    rows, split = a.value.shape
    if b.value.shape[0] != rows:
        raise DimensionError(
            f"concat_cols: row counts differ, {b.value.shape[0]} != {rows}")

    def bwd(g, need):
        return (g[:, :split] if need[0] else None,
                g[:, split:] if need[1] else None)

    return _emit("concat_cols", (a, b),
                 np.concatenate((a.value, b.value), axis=1), bwd)


def reshape(x, rows: int, cols: int) -> Var:
    """Row-major reshape; returns ``x`` itself when the shape already matches."""
    x = _as_var(x)
    shape = x.value.shape
    if shape == (rows, cols):
        return x
    if rows * cols != x.value.size:
        raise DimensionError(f"reshape: cannot view {shape} as {(rows, cols)}")

    def bwd(g, need):
        return (g.reshape(shape),)

    return _emit("reshape", (x,), x.value.reshape(rows, cols), bwd)


def block_sum(x, n: int) -> Var:
    """Sum each block of ``n`` consecutive rows: (R x c) -> (R/n x c)."""
    x = _as_var(x)
    rows, cols = x.value.shape
    if n <= 0 or rows % n:
        raise DimensionError(f"block_sum: {rows} rows do not split into blocks of {n}")

    def bwd(g, need):
        return (np.repeat(g, n, axis=0),)

    return _emit("block_sum", (x,),
                 x.value.reshape(rows // n, n, cols).sum(axis=1), bwd)


def select_rows(x, rows) -> Var:
    """Gather rows by (constant) integer index; duplicates accumulate in backward."""
    x = _as_var(x)
    idx = np.asarray(rows, dtype=np.intp).ravel()
    n = x.value.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DimensionError(f"select_rows: index out of range for {n} rows")
    unique = not idx.size or np.bincount(idx, minlength=n).max() <= 1
    shape = x.value.shape

    def bwd(g, need):
        out = np.zeros(shape)
        if unique:
            out[idx] = g
        else:
            np.add.at(out, idx, g)
        return (out,)

    return _emit("select_rows", (x,), x.value[idx], bwd)


def gru_sequence(x, h0, w_ih, w_hh, b_ih, b_hh, steps: int = 1) -> Var:
    """GRU recurrence over ``steps`` steps of a row batch, as one record.

    ``x`` stacks the inputs of every step, (steps*R x in) with step t in
    rows t*R .. (t+1)*R; ``h0`` is the (R x H) initial state. Returns the
    (steps*R x H) stack of the hidden states after each step. Gate layout
    is (reset, update, candidate) stacked along columns: ``w_ih`` is (in,
    3H), ``w_hh`` is (H, 3H), biases are (1, 3H). Each step is the standard
    sigmoid/tanh update h' = (1 - z) * c + z * h. Backward walks the steps
    in reverse with one step's gate gradients alive at a time. Inside, each
    gate is a contiguous (R x H) block: products use zero-copy gate-major
    (3, in, H) views of the weights, which give the bits of the (R x 3H)
    products. Only r and z are kept per step; backward recomputes c and hn
    with the forward's own candidate-gate products and ufuncs, so it keeps
    the bits and pays two (R x H) gate products a step for half the kept
    memory.
    """
    operands = tuple(map(_as_var, (x, h0, w_ih, w_hh, b_ih, b_hh)))
    xv, h0v, wiv, whv, biv, bhv = (v.value for v in operands)
    rows, hid = h0v.shape
    if steps <= 0 or xv.shape[0] != steps * rows:
        raise DimensionError(f"gru_sequence: x {xv.shape} is not {steps} steps of"
                             f" the rows of h0 {h0v.shape}")
    for name, v, want in (("w_ih", wiv, (xv.shape[1], 3 * hid)),
                          ("w_hh", whv, (hid, 3 * hid)),
                          ("b_ih", biv, (1, 3 * hid)), ("b_hh", bhv, (1, 3 * hid))):
        if v.shape != want:
            raise DimensionError(
                f"gru_sequence: {name} shape {v.shape}, expected {want}")

    def gates(a):  # zero-copy (3, n, H) view of an (n, 3H) array
        return a.reshape(len(a), 3, hid).transpose(1, 0, 2)
    wig, whg, big, bhg = map(gates, (wiv, whv, biv, bhv))
    out = np.empty((steps * rows, hid))
    # kept for backward, per step: the reset and update gates r and z only;
    # backward recomputes the candidate c and hn, the recurrent part of its
    # input. c and hn live in gh, one step's scratch; untraced, one slot
    # of r and z is reused
    kept = steps if _tape_of("gru_sequence", *operands) is not None else 1
    s, gi, gh = np.empty((kept, 2, rows, hid)), *np.empty((2, 3, rows, hid))
    c, hn = gh[0], gh[2]  # c overwrites the spent recurrent part of r
    hv = h0v
    for t in range(steps):
        rz = s[t % kept]
        np.add(np.matmul(xv[t * rows:(t + 1) * rows], wig, out=gi), big, out=gi)
        np.add(np.matmul(hv, whg, out=gh), bhg, out=gh)
        # logistic exp(min(u, 0)) / (1 + exp(-|u|)): exp of u <= 0 only
        u = np.add(gi[:2], gh[:2], out=rz)
        d = np.exp(np.negative(np.abs(u, out=gi[:2]), out=gi[:2]), out=gi[:2])
        d += 1.0
        np.divide(np.exp(np.minimum(u, 0.0, out=rz), out=rz), d, out=rz)
        np.tanh(np.add(gi[2], np.multiply(rz[0], hn, out=c), out=c), out=c)
        hv = np.multiply(rz[1], hv, out=out[t * rows:(t + 1) * rows])
        hv += np.multiply(np.subtract(1.0, rz[1], out=gi[0]), c, out=gi[0])

    def bwd(g, need):
        dx = np.empty_like(xv) if need[0] else None
        # weight gradients add up gate-major; p_* end as the (in, 3H) sums
        dw_ih, dw_hh = (np.zeros((3, len(w), hid)) if n else None
                        for w, n in ((wiv, need[2]), (whv, need[3])))
        p_ih, p_hh = (None if a is None else np.empty_like(a) for a in (dw_ih, dw_hh))
        # gradients of r, z, c, hn and their biases; b_hh shares r's and z's
        dr, dz, dc, dhn = dgate = np.empty((4, rows, hid))
        drz, dh, db = dgate[:2], np.empty((rows, hid)), np.zeros((4, 1, hid))
        # dx and dh copy the gates into (R x 3H) rows for one product, in the
        # row layout's summation order; the rows' memory first holds the
        # recomputed c and hn, then 1 - rz
        work = np.empty((3, rows, hid))
        row, tmp = work.reshape(rows, 3 * hid), work[:2]
        for t in reversed(range(steps)):
            lo, hi = t * rows, (t + 1) * rows
            gt = g[lo:hi] if t == steps - 1 else np.add(g[lo:hi], dh, out=dh)
            rz, hv = s[t], (out[lo - rows:lo] if t else h0v)
            # c and hn by the forward's own products and ufuncs, so same bits
            c, hn, xn = work
            np.add(np.matmul(hv, whg[2:], out=work[1:2]), bhg[2:], out=work[1:2])
            np.add(np.matmul(xv[lo:hi], wig[2:], out=work[2:]), big[2:], out=work[2:])
            np.tanh(np.add(xn, np.multiply(rz[0], hn, out=c), out=c), out=c)
            # dc = gt * (1 - z) * (1 - c * c)
            np.multiply(gt, np.subtract(1.0, rz[1], out=dr), out=dr)
            np.multiply(dr, np.subtract(1.0, np.multiply(c, c, out=dz), out=dz),
                        out=dc)
            np.multiply(dc, hn, out=dr)
            np.multiply(gt, np.subtract(hv, c, out=dz), out=dz)
            np.multiply(np.multiply(drz, rz, out=drz),
                        np.subtract(1.0, rz, out=tmp), out=drz)
            np.multiply(dc, rz[0], out=dhn)
            if need[2]:
                dw_ih += np.matmul(xv[lo:hi].T, dgate[:3], out=p_ih)
            if need[3]:
                np.matmul(hv.T, drz, out=p_hh[:2])
                np.matmul(hv.T, dhn, out=p_hh[2])
                dw_hh += p_hh
            if need[4] or need[5]:
                db += dgate.sum(axis=1, keepdims=True)
            gates(row)[:2] = drz
            if need[0]:
                gates(row)[2] = dc
                np.matmul(row, wiv.T, out=dx[lo:hi])
            if t or need[1]:
                gates(row)[2] = dhn
                gz = np.multiply(gt, rz[1], out=dr)  # gt may live in dh: read it first
                np.add(np.matmul(row, whv.T, out=dh), gz, out=dh)
        for acc, p in ((dw_ih, p_ih), (dw_hh, p_hh)):
            if acc is not None:
                gates(p.reshape(-1, 3 * hid))[...] = acc
        return (dx, dh if need[1] else None,
                *(None if p is None else p.reshape(-1, 3 * hid) for p in (p_ih, p_hh)),
                db[:3].reshape(1, 3 * hid) if need[4] else None,
                db[[0, 1, 3]].reshape(1, 3 * hid) if need[5] else None)

    return _emit("gru_sequence", operands, out, bwd)


def hgcn_conv(x, H, w, n: int) -> Var:
    """Spectral hypergraph convolution of samples stacked along rows, as one record.

    ``x`` (S*n x 1) and ``H`` (S*n x k) hold one block of ``n`` agent rows per
    sample; ``w`` (k x 1) holds the shared hyperedge weights. Each block
    computes d^{-1/2} H |w| b^{-1} H^T d^{-1/2} x with vertex degrees
    d = H |w| and hyperedge degrees b = 1^T H of its own. Both normalizers
    are diagonal pseudo-inverses: exactly 0 where the degree is at or below
    ``SAFE_EPS``, with zero gradient there; abs'(0) = 0. The record keeps its
    operands and (S x n) values only; backward reruns the forward's (S x k) part.
    """
    operands = tuple(map(_as_var, (x, H, w)))
    xv, hv, wv = (v.value for v in operands)
    rows, k = hv.shape
    if n <= 0 or rows % n:
        raise DimensionError(f"hgcn_conv: {rows} rows do not split into blocks of {n}")
    if xv.shape != (rows, 1) or wv.shape != (k, 1):
        raise DimensionError(f"hgcn_conv: x {xv.shape} and w {wv.shape} do not fit"
                             f" H {hv.shape}; expected {(rows, 1)} and {(k, 1)}")
    S = rows // n
    h3 = hv.reshape(S, n, k)
    aw = np.abs(wv)
    d = (hv @ aw).reshape(S, n)
    dis = (d > SAFE_EPS) / np.sqrt(np.maximum(d, SAFE_EPS))
    x2 = xv.reshape(S, n)
    lhs = np.stack((np.ones_like(d), dis * x2), axis=1)
    z = lhs[:, 1]

    def edges():  # s, b^{-1} and t = s b^{-1} |w|^T, each S x k
        # one product: hyperedge degrees b and projections s = (d^{-1/2} x)^T H,
        # each a contiguous block, where elementwise work runs faster than strided
        b, s = bs = np.empty((2, S, k))
        np.matmul(lhs, h3, out=bs.transpose(1, 0, 2))
        binv = (b > SAFE_EPS) / np.maximum(b, SAFE_EPS)
        return s, binv, s * binv * aw.T
    s, binv, t = edges()
    u = (h3 @ t[:, :, None])[:, :, 0]                     # S x n
    out = (dis * u).reshape(rows, 1)

    def bwd(g, need):
        s, binv, t = edges()  # the forward's expressions, so its bits
        g = g.reshape(S, n)
        gu = g * dis
        gt = (gu[:, None, :] @ h3)[:, 0]
        gs = gt * binv * aw.T
        gz = (h3 @ gs[:, :, None])[:, :, 0]
        gx = (gz * dis).reshape(rows, 1) if need[0] else None
        gH = gw = None
        if need[1] or need[2]:
            # d(d^{-1/2})/dd = -d^{-3/2}/2 and d(b^{-1})/db = -b^{-2}: both
            # vanish where the pseudo-inverse is 0
            dd = (g * u + gz * x2) * (-0.5 * dis ** 3)
        if need[1]:
            # dH = gu t^T + z gs^T + dd |w|^T + 1 gb^T, one rank-4 product
            left, right = np.ones((S, n, 4)), np.empty((S, 4, k))
            left[..., 0], left[..., 1], left[..., 2] = gu, z, dd
            right[:, 0], right[:, 1], right[:, 2] = t, gs, aw.T
            np.multiply(-gt * t, binv, out=right[:, 3])
            gH = (left @ right).reshape(rows, k)
        if need[2]:
            gaw = (gt * s * binv).sum(axis=0)[:, None] + hv.T @ dd.reshape(rows, 1)
            gw = gaw * np.sign(wv)
        return gx, gH, gw

    return _emit("hgcn_conv", operands, out, bwd)


# ---------------------------------------------------------------------------
# driver-level operations
# ---------------------------------------------------------------------------

def gradient(tape: Tape, seeds) -> dict:
    """Reverse sweep over a tape; returns leaf-variable gradients.

    ``seeds`` is either a single output Var (seeded with ones) or a mapping
    from output Var to its seed matrix. The returned dict maps the leaf
    variables reached by the sweep (inputs and parameters: those no record
    produced) to their accumulated gradients; it holds no record output, and
    a leaf that influences no seeded output is absent (a zero gradient).
    Each record's backward is told which of its operands are traced and
    skips the work for the others. The sweep pops each record and drops its
    output before its backward runs, so a backward holds only the arrays it
    reads: the record, its output and gradient, and whatever of the graph
    the caller no longer holds are freed as the sweep passes them.
    """
    if tape.consumed:
        raise TapeError("gradient: tape already consumed by a previous backward pass")
    tape.consumed = True
    if isinstance(seeds, Var):
        seeds = {seeds: np.ones_like(seeds.value)}
    acc: dict[Var, np.ndarray] = {}
    for v, s in seeds.items():
        s = as_matrix(s)
        if s.shape != v.value.shape:
            raise DimensionError(
                f"gradient: seed shape {s.shape} != output shape {v.value.shape}"
            )
        acc[v] = acc[v] + s if v in acc else s
    records = tape.records
    while records:
        rec = records.pop()
        g = acc.pop(rec.out, None)
        rec.out = v = gi = None  # hold only what this backward reads
        if g is None:
            continue
        need = tuple(v.tape is tape for v in rec.inputs)
        for v, gi in zip(rec.inputs, rec.bwd(g, need)):
            if gi is not None:
                acc[v] = acc[v] + gi if v in acc else gi
    return acc


def finite_diff(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, per coordinate."""
    if h <= 0:
        raise ValueError("finite_diff: h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g
