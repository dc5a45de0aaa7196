"""Independent reference implementations used as test oracles.

Everything here is written straight-line against the mathematical
definitions, deliberately sharing no code with the library: dense
matrix-product hypergraph convolution, loop-based degree sums, the
affine layer as separate product, bias and rectifier steps, a second
GRU, the row-layout GRU sequence with its backward, a
per-sample TD-target loop, a per-agent action chooser, a per-parameter
clip and RMSProp loop, and joint-state search for the corridor
environment.
"""

import itertools

import numpy as np

SAFE_EPS = 1e-8


def diag_pinv(v: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Diagonal pseudo-inverse matrix of a degree vector: 0 where v <= eps."""
    v = np.asarray(v, dtype=np.float64).ravel()
    out = np.zeros_like(v)
    mask = v > SAFE_EPS
    out[mask] = v[mask] ** -power
    return np.diag(out)


def degrees_loop(H: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and hyperedge degrees by explicit double loops."""
    H = np.asarray(H, dtype=np.float64)
    aw = np.abs(np.asarray(w, dtype=np.float64)).ravel()
    n, m = H.shape
    d = np.zeros(n)
    b = np.zeros(m)
    for i in range(n):
        for e in range(m):
            d[i] += aw[e] * H[i, e]
            b[e] += H[i, e]
    return d, b


def hgcn_layer_dense(x: np.ndarray, H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One convolution layer as explicit dense matrix products."""
    H = np.asarray(H, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    aw = np.abs(np.asarray(w, dtype=np.float64)).ravel()
    d, b = degrees_loop(H, w)
    Dinv_sqrt = diag_pinv(d, 0.5)
    Binv = diag_pinv(b, 1.0)
    W = np.diag(aw)
    return Dinv_sqrt @ H @ W @ Binv @ H.T @ Dinv_sqrt @ x


def hgcn_transform_dense(q, H, w1, w2) -> np.ndarray:
    return hgcn_layer_dense(hgcn_layer_dense(q, H, w1), H, w2)


def build_hypergraph_dense(Z, gen_w, gen_b):
    """Incidence from observations: relu(Z W + b) padded with mean * identity."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    h1 = np.maximum(Z @ gen_w + gen_b, 0.0)
    mu = h1.mean() if h1.size else 1.0
    return np.concatenate([h1, mu * np.eye(Z.shape[0])], axis=1), mu


def linear_reference(x, w, b, g, rectify=False):
    """The affine layer as the three separate steps it was once recorded as,
    forward and backward: the product, the bias sum broadcast over rows (its
    gradient summed over rows unless there is one row), and the rectifier
    with relu'(0) = 0.

    Returns the output and the gradients of x, w and b for the output
    gradient ``g``.
    """
    pre = x @ w + b
    out = np.maximum(pre, 0.0) if rectify else pre
    g_pre = g * (pre > 0.0) if rectify else g
    g_b = g_pre if len(x) == 1 else g_pre.sum(axis=0, keepdims=True)
    return out, (g_pre @ w.T, x.T @ g_pre, g_b)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def gru_step_reference(x, h, w_ih, w_hh, b_ih, b_hh) -> np.ndarray:
    """Second, scalar-transparent GRU implementation (same gate layout)."""
    x = np.atleast_2d(x)
    h = np.atleast_2d(h)
    hid = h.shape[1]
    gi = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    r = sigmoid(gi[:, :hid] + gh[:, :hid])
    z = sigmoid(gi[:, hid:2 * hid] + gh[:, hid:2 * hid])
    c = np.tanh(gi[:, 2 * hid:] + r * gh[:, 2 * hid:])
    return (1.0 - z) * c + z * h


def gru_sequence_reference(x, h0, w_ih, w_hh, b_ih, b_hh, steps, g,
                           need=(True,) * 6):
    """The row-layout GRU recurrence and its backward, op for op.

    Every gate is a column slice of an (R x 3H) array, as in the library's
    original ``gru_sequence``. Returns the (steps*R x H) output and the six
    gradients for the output seed ``g``, None where ``need`` is False. The
    library's gate-major version must match it bit for bit.
    """
    out, saved = _gru_rows_forward(x, h0, w_ih, w_hh, b_ih, b_hh, steps)
    return out, _gru_rows_backward(x, h0, w_ih, w_hh, b_ih, b_hh, out, saved,
                                   g, need)


def _gru_rows_forward(x, h0, w_ih, w_hh, b_ih, b_hh, steps):
    rows, hid = h0.shape
    out = np.empty((steps * rows, hid))
    rz_s = np.empty((steps, rows, 2 * hid))
    c_s, hn_s = np.empty((steps, rows, hid)), np.empty((steps, rows, hid))
    gi, gh = np.empty((rows, 3 * hid)), np.empty((rows, 3 * hid))
    hv = h0
    for t in range(steps):
        rz, c, hn = rz_s[t], c_s[t], hn_s[t]
        np.add(np.matmul(x[t * rows:(t + 1) * rows], w_ih, out=gi), b_ih, out=gi)
        np.add(np.matmul(hv, w_hh, out=gh), b_hh, out=gh)
        u = np.add(gi[:, :2 * hid], gh[:, :2 * hid], out=rz)
        d = np.exp(-np.abs(u)) + 1.0
        np.divide(np.exp(np.minimum(u, 0.0, out=rz), out=rz), d, out=rz)
        hn[...] = gh[:, 2 * hid:]
        np.tanh(np.add(gi[:, 2 * hid:], rz[:, :hid] * hn, out=c), out=c)
        z = rz[:, hid:]
        hv = out[t * rows:(t + 1) * rows] = (1.0 - z) * c + z * hv
    return out, (rz_s, c_s, hn_s)


def _gru_rows_backward(x, h0, w_ih, w_hh, b_ih, b_hh, out, saved, g, need):
    (rows, hid), steps = h0.shape, len(saved[0])
    rz_s, c_s, hn_s = saved
    dx, _, dw_ih, dw_hh, db_ih, db_hh = (
        np.zeros_like(v) if n else None
        for v, n in zip((x, h0, w_ih, w_hh, b_ih, b_hh), need))
    d_rz = np.empty((rows, 2 * hid))
    dgi, dgh = np.empty((rows, 3 * hid)), np.empty((rows, 3 * hid))
    dh = None
    for t in reversed(range(steps)):
        lo, hi = t * rows, (t + 1) * rows
        gt = g[lo:hi] if dh is None else g[lo:hi] + dh
        rz, c, hn = rz_s[t], c_s[t], hn_s[t]
        z = rz[:, hid:]
        hv = out[lo - rows:lo] if t else h0
        dpre_c = np.multiply(gt * (1.0 - z), 1.0 - c * c, out=dgi[:, 2 * hid:])
        np.multiply(dpre_c, hn, out=d_rz[:, :hid])
        np.multiply(gt, hv - c, out=d_rz[:, hid:])
        np.multiply(d_rz * rz, 1.0 - rz, out=dgi[:, :2 * hid])
        dgh[:, :2 * hid] = dgi[:, :2 * hid]
        np.multiply(dpre_c, rz[:, :hid], out=dgh[:, 2 * hid:])
        if need[0]:
            dx[lo:hi] = dgi @ w_ih.T
        if need[2]:
            dw_ih += x[lo:hi].T @ dgi
        if need[3]:
            dw_hh += hv.T @ dgh
        if need[4]:
            db_ih += dgi.sum(axis=0, keepdims=True)
        if need[5]:
            db_hh += dgh.sum(axis=0, keepdims=True)
        if t or need[1]:
            dh = dgh @ w_hh.T + gt * z
    return dx, dh if need[1] else None, dw_ih, dw_hh, db_ih, db_hh


def agent_forward_reference(params: dict, inputs, hidden):
    """Straight-line MLP -> GRU -> linear head on plain arrays."""
    x = np.atleast_2d(inputs)
    pre = x @ params["agent.fc1.w"] + params["agent.fc1.b"]
    act = np.maximum(pre, 0.0)
    h = gru_step_reference(act, hidden, params["agent.rnn.w_ih"],
                           params["agent.rnn.w_hh"], params["agent.rnn.b_ih"],
                           params["agent.rnn.b_hh"])
    q = h @ params["agent.fc2.w"] + params["agent.fc2.b"]
    return q, h


def select_action_reference(q_values, avail, epsilon: float, rng) -> int:
    """One agent's epsilon-greedy action: one ``rng.random()`` when epsilon
    > 0 and, if it explores, one ``rng.integers`` over the available
    actions; otherwise the first available action of largest value."""
    q_values = np.asarray(q_values, dtype=np.float64).ravel()
    candidates = np.flatnonzero(np.asarray(avail, dtype=bool).ravel())
    if candidates.size == 0:
        raise ValueError("no available action")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(candidates[rng.integers(candidates.size)])
    best = candidates[0]
    for a in candidates:
        if q_values[a] > q_values[best]:
            best = a
    return int(best)


def elu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def state_module_reference(params: dict, q_prime, s, n: int, embed: int) -> float:
    """Monotone state-conditioned head on plain arrays, one sample."""
    s = np.atleast_2d(s)
    q_prime = np.asarray(q_prime, dtype=np.float64).reshape(n, 1)

    def mlp(prefix):
        hidden = np.maximum(s @ params[f"{prefix}.fc1.w"] + params[f"{prefix}.fc1.b"], 0.0)
        return hidden @ params[f"{prefix}.fc2.w"] + params[f"{prefix}.fc2.b"]

    w1 = np.abs(mlp("mix.hyper_w1")).reshape(n, embed)
    b1 = (s @ params["mix.hyper_b1.w"] + params["mix.hyper_b1.b"]).reshape(embed, 1)
    w2 = np.abs(mlp("mix.hyper_w2")).reshape(embed, 1)
    v = float(mlp("mix.v")[0, 0])
    hidden = elu(w1.T @ q_prime + b1)
    return float((w2.T @ hidden)[0, 0]) + v


def hgcn_mix_reference(params: dict, q, Z, s, n: int, embed: int) -> float:
    """Composition of the dense-convolution and state-head oracles."""
    H, _ = build_hypergraph_dense(Z, params["mix.gen.w"], params["mix.gen.b"])
    qp = hgcn_transform_dense(np.asarray(q, dtype=np.float64).reshape(n, 1), H,
                              params["mix.edge_w1"], params["mix.edge_w2"])
    return state_module_reference(params, qp, s, n, embed)


def store_values(store) -> dict:
    return {name: v.copy() for name, v in store.views(store.value).items()}


def clip_rmsprop_reference(values: dict, sq_avgs: dict, grads: dict,
                           max_norm: float, lr: float, decay: float,
                           eps: float) -> tuple[dict, dict, float]:
    """One optimizer step, parameter by parameter, in the dicts' order.

    ``grads[name]`` is None for a parameter the backward sweep did not
    reach. Each gradient is added into a zero slot, the squares are summed
    per parameter into the global norm, every gradient is scaled when the
    norm exceeds ``max_norm``, and then each parameter takes its RMSProp
    step. Returns the new values, the new moments and the pre-clip norm.
    """
    slots = {}
    for name, value in values.items():
        slot = np.zeros_like(value)
        if grads[name] is not None:
            slot = slot + grads[name]
        slots[name] = slot
    total = 0.0
    for g in slots.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        slots = {name: g * scale for name, g in slots.items()}
    new_values, new_sq = {}, {}
    for name, g in slots.items():
        new_sq[name] = decay * sq_avgs[name] + (1.0 - decay) * (g * g)
        new_values[name] = values[name] - lr * g / (np.sqrt(new_sq[name]) + eps)
    return new_values, new_sq, norm


def td_targets_loop(batch, qtot_next_fn, gamma: float):
    """Per-sample TD-target loop: y = r, or r + gamma * Qtot(next greedy)."""
    out = []
    for ep in batch:
        y = np.zeros(ep.length)
        for t in range(ep.length):
            if ep.terminated[t]:
                y[t] = ep.reward[t]
            else:
                y[t] = ep.reward[t] + gamma * qtot_next_fn(ep, t + 1)
        out.append(y)
    return out


def grid_joint_bfs(length: int, starts, targets, episode_limit: int) -> int:
    """Shortest number of joint steps until every agent sits on its target.

    Breadth-first search over the joint position tuple; agents move
    {stay, left, right} with walls at the corridor ends. Returns -1 if the
    goal is unreachable within the episode limit.
    """
    starts = tuple(int(s) for s in starts)
    targets = tuple(int(t) for t in targets)
    n = len(starts)
    if starts == targets:
        return 0
    frontier = {starts}
    seen = {starts}
    moves = (0, -1, 1)
    for depth in range(1, episode_limit + 1):
        nxt = set()
        for pos in frontier:
            options = []
            for a in range(n):
                opts = [pos[a] + d for d in moves
                        if 0 <= pos[a] + d < length]
                options.append(opts)
            for joint in itertools.product(*options):
                if joint == targets:
                    return depth
                if joint not in seen:
                    seen.add(joint)
                    nxt.add(joint)
        frontier = nxt
        if not frontier:
            break
    return -1


def enumerate_matrix_policies(payoff: np.ndarray) -> float:
    """Max shared payoff over all deterministic joint actions."""
    payoff = np.asarray(payoff, dtype=np.float64)
    best = -np.inf
    shape = payoff.shape
    for joint in itertools.product(*(range(k) for k in shape)):
        best = max(best, payoff[joint])
    return float(best)


def enumerate_two_step_policies(payoff_a, payoff_b) -> float:
    """Max return over branch choice x joint second action."""
    payoff_a = np.asarray(payoff_a, dtype=np.float64)
    payoff_b = np.asarray(payoff_b, dtype=np.float64)
    best = -np.inf
    for branch in (payoff_a, payoff_b):
        for joint in itertools.product(range(2), repeat=2):
            best = max(best, branch[joint])
    return float(best)
