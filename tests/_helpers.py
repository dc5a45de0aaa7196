"""Shared test utilities: gradient checking, tiny model setups and spoiled
checkpoints."""

import json
from pathlib import Path

import numpy as np

from hypermix import agents, autodiff as ad, mixers, nn
from hypermix.rng import Rng

GRAD_RTOL = 1e-4
GRAD_H = 1e-5


def assert_grad_close(analytic, fd, rtol=GRAD_RTOL, label=""):
    """Relative comparison with a unit floor for near-zero coordinates."""
    analytic = np.zeros_like(fd) if analytic is None else analytic
    err = np.abs(analytic - fd)
    tol = rtol * np.maximum(1.0, np.abs(fd))
    assert (err <= tol).all(), (
        f"gradient mismatch {label}: max err {err.max():.3e} vs fd"
        f" {np.abs(fd).max():.3e}"
    )


def total(x):
    """Sum of every entry of the Var ``x``, as one (1 x 1) ``block_sum``."""
    return ad.block_sum(ad.reshape(x, x.value.size, 1), x.value.size)


def leaf_grads(build, *inputs):
    """``build`` over one traced leaf ``Var(value, tape)`` per input, seeded
    with ones: its output and each input's gradient (None if unreached)."""
    tape = ad.Tape()
    leaves = [ad.Var(x, tape) for x in inputs]
    out = build(*leaves)
    grads = ad.gradient(tape, out)
    return out, [grads.get(v) for v in leaves]


def check_gradients(build, inputs, rtol=GRAD_RTOL, h=GRAD_H, label=""):
    """Compare reverse-mode gradients of a scalar-valued build against
    central finite differences, for every input."""
    out, grads = leaf_grads(build, *inputs)
    assert out.value.shape == (1, 1), "gradient check needs a scalar output"
    inputs = [ad.as_matrix(x) for x in inputs]
    for i, grad in enumerate(grads):
        def f(x, i=i):
            vals = list(inputs)
            vals[i] = x
            return float(build(*map(ad.Var, vals)).value[0, 0])

        fd = ad.finite_diff(f, inputs[i], h)
        assert_grad_close(grad, fd, rtol, label=f"{label} input {i}")


def shift_from_kinks(x, threshold=1e-3, amount=0.5):
    """Move coordinates away from nondifferentiable points near zero."""
    x = np.asarray(x, dtype=np.float64).copy()
    near = np.abs(x) < threshold
    x[near] = x[near] + np.where(x[near] >= 0, amount, -amount)
    return x


def tiny_mixer_store(kind, seed=0, n=2, obs_dim=3, state_dim=2, n_actions=2,
                     hyperedges=2, embed=3, agent_hidden=4, hypernet_hidden=4):
    """Small full model (agent nets + mixer) for end-to-end checks."""
    rng = Rng(seed).split("tiny")
    store = nn.ParameterStore()
    agents.init_agent_params(store, obs_dim, n_actions, n, rng.split("agent"),
                             hidden=agent_hidden)
    mixers.init_mixer_params(store, kind, n, obs_dim, state_dim,
                             rng.split("mixer"), hyperedges=hyperedges,
                             embed=embed, hypernet_hidden=hypernet_hidden)
    dims = dict(n=n, obs_dim=obs_dim, state_dim=state_dim, n_actions=n_actions,
                hyperedges=hyperedges, embed=embed, agent_hidden=agent_hidden)
    return store, dims


def composite_qtot(pv, kind, Z, s, actions, dims):
    """Traced agent forward + mixer for one sample; returns the 1x1 joint value."""
    n, n_actions = dims["n"], dims["n_actions"]
    inputs = agents.build_agent_inputs(Z, np.full(n, -1), n_actions)
    hidden = np.zeros((n, dims["agent_hidden"]))
    q, _ = agents.agent_forward(pv, ad.Var(inputs), hidden)
    chosen = ad.select_rows(ad.reshape(q, n * n_actions, 1),
                            np.arange(n) * n_actions + np.asarray(actions))
    return mixers.mix_batch(kind, pv, chosen, np.asarray(Z, dtype=np.float64),
                            np.atleast_2d(s))


def composite_qtot_value(store, kind, Z, s, actions, dims) -> float:
    pv = store.bind(None)
    return float(composite_qtot(pv, kind, Z, s, actions, dims).value[0, 0])


def composite_param_grads(store, kind, Z, s, actions, dims):
    """Analytic parameter gradients of the composite joint value."""
    tape = ad.Tape()
    pv = store.bind(tape)
    grads = ad.gradient(tape, composite_qtot(pv, kind, Z, s, actions, dims))
    return {name: grads.get(pv[name]) for name in store.names()}


BAD_MANIFEST_ENTRIES = ("missing rows", "negative rows", "float rows",
                        "int name", "list entry", "repeated name")


def break_manifest(directory, case):
    """Spoil the first entry of a saved checkpoint's manifest (one of
    ``BAD_MANIFEST_ENTRIES``); the blob keeps the size the manifest implies."""
    path = Path(directory) / nn.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    entry = manifest["params"][0]
    if case == "missing rows":
        del entry["rows"]
    elif case == "negative rows":
        # rows * cols becomes 0, so drop the entry's bytes from the blob
        blob = Path(directory) / nn.BLOB_NAME
        blob.write_bytes(blob.read_bytes()[8 * entry["rows"] * entry["cols"]:])
        entry["rows"], entry["cols"] = -1, 0
    elif case == "float rows":
        entry["rows"] = float(entry["rows"])
    elif case == "int name":
        entry["name"] = 5
    elif case == "repeated name":
        manifest["params"][1]["name"] = entry["name"]
    else:
        assert case == "list entry", case
        manifest["params"][0] = [entry["name"], entry["rows"], entry["cols"]]
    path.write_text(json.dumps(manifest))
