"""Acceptance gate: one test per criterion, printing a PASS line with its
measured quantity and runtime. Tolerances are pinned here, not configurable.

The hypergraph criteria run the batched functions that training runs: each
instance stacks one to three samples, each with its own incidence, and every
block is checked on its own.
"""

import time

import numpy as np
import pytest

from hypermix import autodiff as ad
from hypermix import training
from hypermix.autodiff import hgcn_conv
from hypermix.config import Config
from hypermix.envs import make_env
from hypermix.hypergraph import build_hypergraph_rows, hgcn_transform_rows
from hypermix.mixers import (igm_check, init_mixer_params, make_qtot_fn,
                             state_module)
from hypermix.nn import (ParameterStore, gru_fwd, init_gru, init_mlp,
                         load_checkpoint, mlp_fwd)
from hypermix.rng import Rng
from hypermix.training import (_agent_pass, _joint_values, _steps,
                               collect_episode, init_run_stores, run_training,
                               stack_episodes, td_targets, train_step)

from _helpers import (assert_grad_close, check_gradients,
                      composite_param_grads, composite_qtot_value,
                      shift_from_kinks, tiny_mixer_store, total)
from _oracles import hgcn_layer_dense

pytestmark = pytest.mark.acceptance


def _report(criterion, detail, elapsed, budget):
    print(f"\n[criterion {criterion}] PASS {detail} ({elapsed:.1f}s,"
          f" budget {budget:.0f}s)")


def test_criterion_1_hypergraph_identity():
    """Zeroed learned block: the transform is the identity to 1e-12."""
    rng = Rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = 2 + rng.integers(7)   # n <= 8
        m = 1 + rng.integers(6)
        S = 1 + rng.integers(3)
        H = np.concatenate([
            np.concatenate([np.zeros((n, m)),
                            float(rng.uniform(0.1, 3.0)) * np.eye(n)], axis=1)
            for _ in range(S)])
        q = rng.normal((S * n, 1)) * 5.0
        w1 = rng.uniform(0.1, 2.0, (m + n, 1))
        w2 = rng.uniform(0.1, 2.0, (m + n, 1))
        out = hgcn_transform_rows(q, H, w1, w2, n)
        worst = max(worst, float(np.abs(out.value - q).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"identity violated: {worst:.2e}"
    assert elapsed < 5.0
    _report(1, f"max deviation {worst:.1e} over 1000 instances", elapsed, 5)


def test_criterion_2_mean_pooling():
    """A single uniform hyperedge reproduces row means to 1e-12."""
    rng = Rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = 2 + rng.integers(7)
        S = 1 + rng.integers(3)
        x = rng.normal((S * n, 1)) * 4.0
        w = rng.uniform(0.1, 3.0, (1, 1))
        out = hgcn_conv(x, np.ones((S * n, 1)), w, n)
        means = x.reshape(S, n).mean(axis=1).repeat(n).reshape(-1, 1)
        worst = max(worst, float(np.abs(out.value - means).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"mean pooling violated: {worst:.2e}"
    assert elapsed < 5.0
    _report(2, f"max deviation {worst:.1e} over 1000 instances", elapsed, 5)


def test_criterion_3_oracle_equivalence():
    """Layer output matches the dense-product oracle to 1e-9."""
    rng = Rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = 2 + rng.integers(7)
        m = 1 + rng.integers(8)   # m <= 8
        S = 1 + rng.integers(3)
        H = np.abs(rng.normal((S * n, m)))
        if trial % 3 == 0:
            k = rng.integers(S)
            H[k * n:(k + 1) * n, rng.integers(m)] = 0.0  # safe-inverse path
        w = rng.normal((m, 1))
        x = rng.normal((S * n, 1))
        got = hgcn_conv(x, H, w, n).value
        for k in range(0, S * n, n):
            ref = hgcn_layer_dense(x[k:k + n], H[k:k + n], w)
            worst = max(worst, float(np.abs(got[k:k + n] - ref).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"oracle mismatch: {worst:.2e}"
    assert elapsed < 10.0
    _report(3, f"max |layer - oracle| {worst:.1e} over 1000 instances",
            elapsed, 10)


def test_criterion_4_gradient_suite():
    """Every layer and the full joint-value composite match central finite
    differences (h = 1e-5, relative error <= 1e-4) at 100 points each, and
    the gradient a train step applies matches the central difference of its
    TD loss at every parameter coordinate for vdn, qmix and hgcn-mix
    (h = 1e-6, scale-free error <= 1e-4)."""
    rng = Rng(1004)
    start = time.perf_counter()

    # linear layer, plain and rectified; a rectified point is redrawn until
    # every pre-activation is at least 1e-3 from the kink
    kinks = rng.split("linear kinks")
    for _ in range(100):
        args = [rng.normal((2, 3)), rng.normal((3, 2)), rng.normal((1, 2))]
        check_gradients(lambda x, w, b: total(ad.linear(x, w, b)), args,
                        label="linear")
        while (np.abs(args[0] @ args[1] + args[2]) < 1e-3).any():
            args = [kinks.normal(a.shape) for a in args]
        check_gradients(
            lambda x, w, b: total(ad.linear(x, w, b, rectify=True)),
            args, label="rectified linear")

    # mlp layer (relu hidden, shifted off kinks)
    store = ParameterStore()
    init_mlp(store, "m", 3, 4, 2, Rng(7))
    names = store.names()
    for _ in range(100):
        args = [shift_from_kinks(rng.normal((2, 3)))] + \
               [store[n] + 0.01 * rng.normal(store[n].shape)
                for n in names]
        check_gradients(
            lambda x, *ps: total(mlp_fwd(x, dict(zip(names, ps)), "m")),
            args, label="mlp")

    # gru cell layer
    gstore = ParameterStore()
    init_gru(gstore, "g", 3, 4, Rng(8))
    gnames = gstore.names()
    for _ in range(100):
        args = [rng.normal((2, 3)), rng.normal((2, 4))] + \
               [gstore[n] + 0.01 * rng.normal(gstore[n].shape)
                for n in gnames]
        check_gradients(
            lambda x, h, *ps: total(
                gru_fwd(x, h, dict(zip(gnames, ps)), "g")),
            args, label="gru")

    # hypergraph convolution layer (positive H away from the pseudo-inverse
    # threshold, weights away from abs kink)
    for _ in range(100):
        H = np.abs(rng.normal((6, 2))) + 0.1
        w = shift_from_kinks(rng.normal((2, 1)))
        x = rng.normal((6, 1))
        check_gradients(
            lambda xv, hv, wv: total(hgcn_conv(xv, hv, wv, 3)),
            [x, H, w], label="hgcn layer")

    # full composite: agent nets -> convolution -> state module, for the
    # hypergraph mixer; finite differences over every parameter coordinate
    store, dims = tiny_mixer_store("hgcn-mix", seed=1004)
    h = 1e-5
    for point in range(100):
        Z = rng.normal((dims["n"], dims["obs_dim"]))
        s = rng.normal((1, dims["state_dim"]))
        actions = [rng.integers(dims["n_actions"]) for _ in range(dims["n"])]
        for v in store.views(store.value).values():
            v += 0.02 * rng.normal(v.shape)
        grads = composite_param_grads(store, "hgcn-mix", Z, s, actions, dims)
        name = store.names()[point % len(store.names())]
        base = store[name]
        fd = np.zeros_like(base)
        flat, fd_flat = base.ravel(), fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = composite_qtot_value(store, "hgcn-mix", Z, s, actions, dims)
            flat[i] = orig - h
            down = composite_qtot_value(store, "hgcn-mix", Z, s, actions, dims)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * h)
        assert_grad_close(grads[name], fd, label=f"composite:{name}")

    # the gradient a whole train step applies, every coordinate of the store
    whole = {}
    for kind in ("vdn", "qmix", "hgcn-mix"):
        err = _train_step_gradient_errors(kind)
        whole[kind] = (err.max(), err.size)
        assert err.max() <= 1e-4, (
            f"train_step gradient of {kind}: worst error {err.max():.2e} on"
            f" {(err > 1e-4).sum()} of {err.size} coordinates")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, "linear/mlp/gru/hgcn layers + full composite, 100 points each;"
               " train_step worst error " + ", ".join(
                   f"{k} {w:.1e} over {c}" for k, (w, c) in whole.items()),
            elapsed, 120)


def _train_step_gradient_errors(kind):
    """|fd - g| / max(1e-6, |fd| + |g|) per store coordinate, where g is the
    gradient that :func:`train_step` passes to ``clip_grad_norm`` and fd the
    central difference (h = 1e-6) of half the mean squared TD error of the
    joint values at the taken actions against the same targets. Corridor
    n=3, length 3, small widths, one batch of 6 episodes at epsilon 1; the
    online store sits 0.05 N(0, 1) off the target store, so the targets
    bootstrap from another network."""
    cfg = Config(env={"name": "grid", "n_agents": 3, "length": 3}, mixer=kind,
                 agent_hidden=5, embed=3, hypernet_hidden=4, hyperedges=3)
    env = make_env(cfg.env)
    store, target_store = init_run_stores(cfg, env, 1004)
    rng = Rng(1004).split(f"td_loss {kind}")
    batch = stack_episodes([
        collect_episode(env, target_store, 1.0, rng.split("env"),
                        rng.split("explore"))
        for _ in range(6)])
    targets = td_targets(batch, target_store, kind, cfg.gamma)
    store.value = store.value + 0.05 * rng.normal(store.value.shape)
    t, e = _steps(batch)
    taken = batch["actions"][e, t].ravel()

    def loss():
        qtot = _joint_values(store.bind(None), batch, t, e, kind, taken)
        delta = qtot.value[:, 0] - targets[t, e]
        return float((delta * delta).sum() * (0.5 / t.size))

    # the gradient as train_step applies it, copied before the clip scales
    # it in place; the step runs on a clone, so the point does not move
    applied, clip = [], training.clip_grad_norm

    def spy(owner, grad, max_norm):
        applied.append(grad.copy())
        return clip(owner, grad, max_norm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "clip_grad_norm", spy)
        step_loss = train_step(batch, store.clone(), target_store, kind,
                               cfg.gamma)
    assert loss() == step_loss, (loss(), step_loss)
    (g,) = applied
    flat, h = store.value, 1e-6
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss()
        flat[i] = orig - h
        down = loss()
        flat[i] = orig
        fd[i] = (up - down) / (2 * h)
    return np.abs(fd - g) / np.maximum(1e-6, np.abs(fd) + np.abs(g))


def test_criterion_5_monotonicity_and_igm():
    """dQtot/dQ_a >= -1e-9 on 1000 instances; IGM via 27-point enumeration
    on 1000 random n=3, 3-action instances, for every monotone mixer."""
    rng = Rng(1005)
    start = time.perf_counter()
    h = 1e-6
    kinds = ("qmix", "hgcn-mix")
    stores = {}
    for kind in kinds:
        store = ParameterStore()
        init_mixer_params(store, kind, 3, 4, 3, Rng(50 + len(kind)),
                          hyperedges=2, embed=4, hypernet_hidden=8)
        stores[kind] = store
    worst_partial = np.inf
    for trial in range(1000):
        kind = kinds[trial % len(kinds)]
        Z = rng.normal((3, 4))
        s = rng.normal((1, 3))
        chosen = rng.normal((3,)).ravel() * 2.0
        fn = make_qtot_fn(kind, stores[kind], Z, s)
        base = fn(chosen)
        for i in range(3):
            up = chosen.copy()
            up[i] += h
            partial = (fn(up) - base) / h
            worst_partial = min(worst_partial, partial)
            assert partial >= -1e-9, f"{kind}: partial {partial:.2e}"
    igm_passes = 0
    for trial in range(1000):
        kind = kinds[trial % len(kinds)]
        tables = rng.normal((3, 3)) * 3.0
        Z = rng.normal((3, 4))
        s = rng.normal((1, 3))
        fn = make_qtot_fn(kind, stores[kind], Z, s)
        assert igm_check(fn, tables, tol=1e-9), f"IGM failed: {kind} #{trial}"
        igm_passes += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"worst partial {worst_partial:+.1e}, IGM {igm_passes}/1000",
            elapsed, 120)


def test_criterion_6_ablation_equivalence():
    """With the identity incidence [0 | c*I] (c > 0) and positive edge
    weights the state module sees the raw agent values: its joint values
    equal the plain state-conditioned mixer's to 1e-12. So hgcn-mix without
    learned hyperedges is qmix, and runs as qmix."""
    rng = Rng(1006)
    start = time.perf_counter()
    store = ParameterStore()
    init_mixer_params(store, "qmix", 4, 5, 6, Rng(60), embed=8,
                      hypernet_hidden=16)
    pv = store.bind(None)
    worst = 0.0
    for _ in range(1000):
        m = 1 + rng.integers(6)
        S = 1 + rng.integers(3)
        H = np.tile(np.concatenate([np.zeros((4, m)),
                                    float(rng.uniform(0.1, 3.0)) * np.eye(4)],
                                   axis=1), (S, 1))
        q = rng.normal((S * 4, 1)) * 3.0
        s = rng.normal((S, 6))
        w1 = rng.uniform(0.1, 2.0, (m + 4, 1))
        w2 = rng.uniform(0.1, 2.0, (m + 4, 1))
        a = state_module(hgcn_transform_rows(q, H, w1, w2, 4), s, pv)
        b = state_module(q, s, pv)
        worst = max(worst, float(np.abs(a.value - b.value).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"ablation gap {worst:.2e}"
    assert elapsed < 10.0
    _report(6, f"max |Qtot gap| {worst:.1e} over 1000 instances", elapsed, 10)


def test_criterion_9_trained_monotonicity_and_igm(tmp_path):
    """A trained hgcn-mix (corridor n=3, length 4, desk widths, seed 0,
    400 episodes) keeps dQtot/dQ_a >= -1e-9 and passes the exhaustive IGM
    check (3^3 joint actions) at every state of 8 of its greedy episodes,
    where ReLU leaves some learned incidence columns all zero."""
    start = time.perf_counter()
    cfg = Config(env={"name": "grid", "n_agents": 3, "length": 4},
                 mixer="hgcn-mix", agent_hidden=16, embed=8, hypernet_hidden=8,
                 hyperedges=8, lr=5e-3, anneal_steps=2000, eval_interval=50,
                 episodes=400)
    summary = run_training(cfg, 0, tmp_path)
    env = make_env(cfg.env)
    store = init_run_stores(cfg, env, 0)[0]
    load_checkpoint(store, summary["checkpoint"])
    n, n_actions = env.spec.n_agents, env.spec.n_actions
    pv = store.bind(None)
    rng = Rng(0).split("criterion 9")
    h = 1e-6
    worst_partial, states, zero_columns = np.inf, 0, 0
    for k in range(8):
        ep = collect_episode(env, store, 0.0, rng.split(f"env{k}"), None)
        steps = ep.length
        q = _agent_pass(pv, stack_episodes([ep]), steps)
        tables = q.value.reshape(steps, n, n_actions)
        for t in range(steps):
            H, _ = build_hypergraph_rows(ep.obs[t], pv["mix.gen.w"],
                                         pv["mix.gen.b"], n)
            zero_columns += int((H.value[:, :cfg.hyperedges] == 0.0)
                                .all(axis=0).sum())
            fn = make_qtot_fn("hgcn-mix", store, ep.obs[t], ep.state[t])
            chosen = tables[t].max(axis=1)
            base = fn(chosen)
            for i in range(n):
                up = chosen.copy()
                up[i] += h
                partial = (fn(up) - base) / h
                worst_partial = min(worst_partial, partial)
                assert partial >= -1e-9, f"state {k}.{t}: partial {partial:.2e}"
            assert igm_check(fn, tables[t], tol=1e-9), f"IGM failed: {k}.{t}"
            states += 1
    elapsed = time.perf_counter() - start
    assert zero_columns > 0
    assert elapsed < 10.0
    _report(9, f"worst partial {worst_partial:+.1e}, IGM {states}/{states}"
               f" states, {zero_columns} all-zero learned columns", elapsed, 10)
