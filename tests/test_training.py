"""Episode collection, replay, TD targets, training steps, evaluation."""

import ctypes
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hypermix import agents as ag
from hypermix import mixers as mx
from hypermix import training
from hypermix.autodiff import Tape, add, block_sum, gradient, mul
from hypermix.config import Config, load_config
from hypermix.envs import (LazyCoordinationGrid, OneStepMatrixGame,
                           TwoStepGame, draw_layouts, make_env)
from hypermix.nn import load_checkpoint, rmsprop_step, save_checkpoint
from hypermix.rng import Rng
from hypermix.training import (Episode, ReplayBuffer, collect_episode,
                               epsilon, evaluate_policy, init_run_stores,
                               run_training, stack_episodes, td_targets,
                               train_step, update_target)

from _helpers import tiny_mixer_store
from _oracles import (agent_forward_reference, clip_rmsprop_reference,
                      hgcn_mix_reference, state_module_reference, store_values,
                      td_targets_loop)

ROOT = Path(__file__).resolve().parent.parent


def _episode_arrays(limit, n, obs_dim, state_dim, n_actions):
    """The arrays of an episode of length 0: zeros, and -1 in ``actions``;
    filled in before the (read-only) episode is built from them."""
    return dict(obs=np.zeros((limit + 1, n, obs_dim)),
                state=np.zeros((limit + 1, state_dim)),
                avail=np.zeros((limit + 1, n, n_actions), dtype=bool),
                actions=np.full((limit, n), -1, dtype=np.intp),
                reward=np.zeros(limit), terminated=np.zeros(limit, dtype=bool))


def _zeroed(store):
    store.value = np.zeros_like(store.value)
    return store


def _grid_cfg(**overrides):
    base = dict(env={"name": "grid", "n_agents": 2, "length": 3},
                mixer="vdn", agent_hidden=8, embed=4, hypernet_hidden=4,
                hyperedges=2, episodes=10, eval_interval=5, eval_episodes=2,
                buffer_capacity=50, batch_size=4, seeds=[0])
    base.update(overrides)
    return Config(**base)


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        assert epsilon(0, 50_000) == 1.0
        assert epsilon(25_000, 50_000) == pytest.approx(0.525)
        assert epsilon(50_000, 50_000) == 0.05
        assert epsilon(80_000, 50_000) == 0.05

    def test_monotone_nonincreasing(self):
        values = [epsilon(t, 50_000) for t in range(0, 60_000, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestReplayBuffer:
    def _ep(self, tag):
        arrays = _episode_arrays(1, 1, 1, 1, 2)
        arrays["reward"][0] = tag
        return Episode(**arrays, length=1)

    def test_ring_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(5):
            buf.add(self._ep(i))
        assert len(buf) == 3 and buf.inserted == 5
        rewards = sorted(e.reward[0] for e in buf._episodes)
        assert rewards == [2.0, 3.0, 4.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.add(self._ep(i))
        batch = buf.sample(10, Rng(0))
        assert sorted(batch["reward"][:, 0]) == list(range(10))

    def test_refuses_underfull_sampling(self):
        buf = ReplayBuffer(capacity=10)
        buf.add(self._ep(0))
        with pytest.raises(ValueError):
            buf.sample(2, Rng(0))


class TestCollectEpisode:
    def test_matrix_game_episode_length_one(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        env = OneStepMatrixGame()
        ep = collect_episode(env, store, 0.5, Rng(0).split("env"),
                             Rng(0).split("x"))
        assert ep.length == 1
        assert ep.terminated[0]

    def test_deterministic_repeat_with_fixed_seed(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=6, n_actions=3)
        eps = []
        for _ in range(2):
            env = make_env({"name": "grid", "n_agents": 2, "length": 3})
            ep = collect_episode(env, store, 0.0, Rng(5).split("env"),
                                 Rng(5).split("x"))
            eps.append(ep)
        assert eps[0].length == eps[1].length
        np.testing.assert_array_equal(eps[0].actions, eps[1].actions)
        np.testing.assert_array_equal(eps[0].obs, eps[1].obs)

    def test_length_bounded_by_episode_limit(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=6, n_actions=3)
        env = make_env({"name": "grid", "n_agents": 2, "length": 3})
        for k in range(10):
            ep = collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x"))
            assert 1 <= ep.length <= env.spec.episode_limit

    def test_trailing_slot_holds_final_observation(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        env = OneStepMatrixGame()
        ep = collect_episode(env, store, 0.0, Rng(1).split("env"),
                             Rng(1).split("x"))
        assert ep.avail[1].all()
        np.testing.assert_array_equal(ep.obs[1], np.eye(2))

    def test_greedy_episode_draws_no_exploration(self):
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=8, n_actions=3)
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        explore = Rng(6).split("x")
        drawn = collect_episode(env, store, 0.0, Rng(6).split("env"), explore)
        undrawn = collect_episode(env, store, 0.0, Rng(6).split("env"), None)
        for name in ("obs", "state", "avail", "actions", "reward", "terminated"):
            np.testing.assert_array_equal(getattr(drawn, name),
                                          getattr(undrawn, name))
        assert explore.random() == Rng(6).split("x").random()

    def test_equal_episodes_have_equal_record_bytes(self):
        # the record's dtype is aligned; its padding bytes are zero, not
        # whatever the reused memory held: here a freed block of 0xAB bytes
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        differ = 0
        for k in range(50):
            records = []
            for _ in range(2):
                junk = np.full(4096, 0xAB, np.uint8)
                del junk
                ep = collect_episode(env, store, 1.0, Rng(k).split("env"),
                                     Rng(k).split("x"))
                records.append(ep.record.tobytes())
            differ += records[0] != records[1]
        assert ep.record.dtype.itemsize > sum(
            f.itemsize for f, _ in ep.record.dtype.fields.values())
        assert differ == 0

    def test_replayed_inputs_are_the_collector_inputs(self, monkeypatch):
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        spec = env.spec
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=spec.obs_dim,
                                    n_actions=spec.n_actions)
        used = []
        build = ag.build_agent_inputs
        monkeypatch.setattr(ag, "build_agent_inputs",
                            lambda *a: used.append(build(*a)) or used[-1])
        ep = collect_episode(env, store, 1.0, Rng(3).split("env"),
                             Rng(3).split("x"))
        assert ep.length > 1 and len(used) == ep.length
        training._agent_pass(store.bind(None), stack_episodes([ep]),
                             ep.length + 1)
        replayed = used[-1][:, 0]  # (steps, episode, n, d): one episode
        for t in range(ep.length):
            # the collector's rows are (episode, n, d): one running episode
            assert used[t].shape == (1,) + replayed[t].shape
            np.testing.assert_array_equal(replayed[t], used[t][0])
        np.testing.assert_array_equal(
            replayed[ep.length],
            build(ep.obs[ep.length], ep.actions[ep.length - 1],
                  spec.n_actions))


def _reference_q(params, ep, t, dims):
    """Agent values at step t of one episode, by the reference network."""
    hidden = np.zeros((dims["n"], dims["agent_hidden"]))
    for step in range(t + 1):
        last = ep.actions[step - 1] if step > 0 else np.full(dims["n"], -1)
        inputs = ag.build_agent_inputs(ep.obs[step], last, dims["n_actions"])
        q, hidden = agent_forward_reference(params, inputs, hidden)
    return q


def _reference_qtot(params, kind, chosen, ep, t, dims):
    """Joint value of one sample by the reference mixers."""
    n, embed = dims["n"], dims["embed"]
    if kind == "vdn":
        return float(chosen.sum())
    if kind == "qmix":
        return state_module_reference(params, chosen, ep.state[t], n, embed)
    return hgcn_mix_reference(params, chosen, ep.obs[t], ep.state[t], n, embed)


def _reference_td_targets(batch, target_store, kind, gamma, dims):
    """Slow per-episode loop with the straight-line reference networks."""
    params = store_values(target_store)

    def qtot_next(ep, t):
        q = _reference_q(params, ep, t, dims)
        greedy = np.where(ep.avail[t], q, -np.inf).argmax(axis=1)
        chosen = q[np.arange(dims["n"]), greedy]
        return _reference_qtot(params, kind, chosen, ep, t, dims)

    return td_targets_loop(batch, qtot_next, gamma)


def _reference_loss(batch, store, kind, gamma, dims):
    """Mean half squared TD error, one (episode, step) sample at a time."""
    params = store_values(store)
    targets = _reference_td_targets(batch, store, kind, gamma, dims)
    total, count = 0.0, 0
    for ep, y in zip(batch, targets):
        for t in range(ep.length):
            q = _reference_q(params, ep, t, dims)
            chosen = q[np.arange(dims["n"]), ep.actions[t]]
            qtot = _reference_qtot(params, kind, chosen, ep, t, dims)
            total += 0.5 * (qtot - y[t]) ** 2
            count += 1
    return total / count


def _mixed_length_batch(dims, seed=0):
    """Episodes that end at different steps: terminated at lengths 1, 2, 3
    and 5, and one cut by the time limit of 5 without terminating."""
    rng = Rng(seed)
    n, n_actions, limit = dims["n"], dims["n_actions"], 5
    batch = []
    for length, terminated in ((5, False), (3, True), (1, True), (5, True),
                               (2, True)):
        ep = _episode_arrays(limit, n, dims["obs_dim"], dims["state_dim"],
                             n_actions)
        ep["obs"][:length + 1] = rng.normal((length + 1, n, dims["obs_dim"]))
        ep["state"][:length + 1] = rng.normal((length + 1, dims["state_dim"]))
        ep["avail"][:length + 1] = rng.uniform(0.0, 1.0,
                                               (length + 1, n, n_actions)) < 0.6
        ep["avail"][:length + 1, :, 0] = True
        for t in range(length):
            for a in range(n):
                options = np.flatnonzero(ep["avail"][t, a])
                ep["actions"][t, a] = options[rng.integers(options.size)]
        ep["reward"][:length] = rng.normal((length,))
        ep["terminated"][length - 1] = terminated
        batch.append(Episode(**ep, length=length))
    return batch


def _swept_step(batch, store, target, kind, gamma):
    """A :func:`train_step` on a clone of ``store``: its loss, and the
    gradient map its sweep returned as bytes by parameter name (None where
    the sweep did not reach)."""
    online, bound, swept = store.clone(), [], []
    bind = online.bind

    def spy(tape):
        bound.append(bind(tape))
        return bound[-1]

    def sweep(tape, seeds):
        swept.append(gradient(tape, seeds))
        return swept[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(online, "bind", spy)
        patch.setattr(training, "gradient", sweep)
        loss = train_step(batch, online, target, kind, gamma)
    (pv,), (grads,) = bound, swept
    return loss, {name: grads[v].tobytes() if v in grads else None
                  for name, v in pv.items()}


def _columns(targets, batch):
    """Per-episode target vectors of a (T x B) target array, checking that
    it is zero past each episode's length."""
    assert targets.shape == (max(ep.length for ep in batch), len(batch))
    for k, ep in enumerate(batch):
        assert not targets[ep.length:, k].any()
    return [targets[:ep.length, k] for k, ep in enumerate(batch)]


class TestStackEpisodes:
    @staticmethod
    def _check(episodes):
        # each field as np.array over the episodes' fields would stack it
        want = {name: np.array([getattr(ep, name) for ep in episodes])
                for name in episodes[0].record.dtype.names}
        batch = stack_episodes(episodes)
        assert set(batch) == set(want) | {"length", "stamp"}
        for name, value in want.items():
            got = batch[name]
            assert got.flags.c_contiguous, name
            assert (got.dtype, got.shape) == (value.dtype, value.shape), name
            np.testing.assert_array_equal(got, value)
        np.testing.assert_array_equal(batch["length"],
                                      [ep.length for ep in episodes])
        np.testing.assert_array_equal(batch["stamp"],
                                      [ep.stamp for ep in episodes])

    def test_float64_fields_and_intp_actions(self):
        _, dims = tiny_mixer_store("qmix", n=2, obs_dim=6, n_actions=3,
                                   state_dim=12, embed=3)
        episodes = _mixed_length_batch(dims, seed=45)
        assert episodes[0].obs.dtype == np.float64
        assert episodes[0].actions.dtype == np.intp
        self._check(episodes)

    def test_collected_int8_episodes(self):
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        episodes = [collect_episode(env, store, 1.0, Rng(k).split("env"),
                                    Rng(k).split("x"))
                    for k in range(6)]
        assert episodes[0].obs.dtype == np.int8
        self._check(episodes)


class TestTdTargets:
    def _batch(self, store, env_name, count, seed=0):
        batch = []
        for k in range(count):
            env = make_env(env_name)
            batch.append(collect_episode(env, store, 1.0,
                                         Rng(seed + k).split("env"),
                                         Rng(seed + k).split("x")))
        return batch

    def test_terminal_step_takes_raw_reward(self):
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        env = OneStepMatrixGame()
        ep = collect_episode(env, store, 0.0, Rng(2).split("env"),
                             Rng(2).split("x"))
        y = td_targets(stack_episodes([ep]), store, "vdn", gamma=0.99)
        assert y[0, 0] == ep.reward[0]

    def test_bootstrap_arithmetic(self):
        # terminal-free step: y = r + gamma * next joint value
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=3, n_actions=2)
        env = TwoStepGame()
        ep = collect_episode(env, store, 1.0, Rng(3).split("env"),
                             Rng(3).split("x"))
        assert ep.length == 2
        y = td_targets(stack_episodes([ep]), store, "vdn", gamma=0.99)
        ref = _reference_td_targets([ep], store, "vdn", 0.99, dims)
        np.testing.assert_allclose(_columns(y, [ep])[0], ref[0], atol=1e-10)
        assert y[0, 0] != ep.reward[0]  # really bootstrapped

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_matches_slow_loop_oracle(self, kind):
        store, dims = tiny_mixer_store(kind, n=2, obs_dim=6, n_actions=3,
                                       state_dim=12, hyperedges=2, embed=3)
        batch = self._batch(store, {"name": "grid", "n_agents": 2,
                                    "length": 3}, count=4, seed=10)
        got = td_targets(stack_episodes(batch), store, kind, gamma=0.9)
        want = _reference_td_targets(batch, store, kind, 0.9, dims)
        for g, w in zip(_columns(got, batch), want):
            np.testing.assert_allclose(g, w, atol=1e-9)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_mixed_episode_lengths_match_slow_loop_oracle(self, kind):
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        batch = _mixed_length_batch(dims, seed=40)
        got = td_targets(stack_episodes(batch), store, kind, gamma=0.9)
        want = _reference_td_targets(batch, store, kind, 0.9, dims)
        for g, w in zip(_columns(got, batch), want):
            np.testing.assert_allclose(g, w, atol=1e-9)

    def test_mixes_only_bootstrapping_steps(self, monkeypatch):
        store, dims = tiny_mixer_store("qmix", n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, embed=3)
        batch = _mixed_length_batch(dims, seed=42)
        samples = []
        mix_batch = mx.mix_batch

        def spy(*args):
            samples.append(len(args[4]))
            return mix_batch(*args)

        monkeypatch.setattr(mx, "mix_batch", spy)
        td_targets(stack_episodes(batch), store, "qmix", gamma=0.9)
        # four of the five episodes end terminated
        assert samples == [sum(ep.length for ep in batch) - 4]

    def test_all_terminal_batch_runs_no_target_pass(self, monkeypatch):
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, embed=3)
        batch = [collect_episode(OneStepMatrixGame(), store, 1.0,
                                 Rng(k).split("env"), Rng(k).split("x"))
                 for k in range(3)]

        def unexpected(*args, **kwargs):
            raise AssertionError("no step bootstraps")

        monkeypatch.setattr(ag, "agent_forward", unexpected)
        monkeypatch.setattr(mx, "mix_batch", unexpected)
        y = td_targets(stack_episodes(batch), store, "qmix", gamma=0.9)
        np.testing.assert_array_equal(y, [[ep.reward[0] for ep in batch]])

    def test_time_limit_step_takes_raw_reward(self):
        # the corridor marks its time-limit step terminated: no bootstrap
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=6, n_actions=3,
                                       state_dim=12)
        batch = self._batch(store, {"name": "grid", "n_agents": 2,
                                    "length": 3}, count=20, seed=60)
        limit = 6
        cut = [ep for ep in batch
               if ep.length == limit and ep.reward[limit - 1] == 0.0]
        assert cut, "no episode reached the time limit"
        y = td_targets(stack_episodes(cut), store, "qmix", gamma=0.9)
        for k, ep in enumerate(cut):
            assert ep.terminated[limit - 1]
            assert y[limit - 1, k] == 0.0
            assert (y[:limit - 1, k] != 0.0).all()  # earlier steps bootstrap


def _spy_target_pass(monkeypatch):
    """Count calls of the target agents and mixer."""
    calls = {"agent_forward": 0, "mix_batch": 0}
    for module, name in ((ag, "agent_forward"), (mx, "mix_batch")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


class TestStoreFixesWidths:
    """The grid3-solve stores are 16 wide in the agent GRU and 8 in the
    mixer embedding; every call reads those widths from the stores."""

    @staticmethod
    def _run(kind):
        cfg = load_config(ROOT / "configs" / "grid3_solve.json").replace(
            mixer=kind)
        assert (cfg.agent_hidden, cfg.embed) == (16, 8)
        env = make_env(cfg.env)
        return cfg, env, init_run_stores(cfg, env, 0)

    def test_collect_episode_takes_the_store_width(self):
        _, env, (store, _) = self._run("hgcn-mix")
        alone, given = (collect_episode(env, store, 0.5, Rng(1).split("env"),
                                        Rng(1).split("x"), *width)
                        for width in ((), (16,)))
        assert alone.record.dtype == given.record.dtype
        assert alone.length == given.length
        for field in alone.record.dtype.names:  # not the padding between
            assert alone.record[field].tobytes() == given.record[field].tobytes()

    @pytest.mark.parametrize("kind", ["qmix", "hgcn-mix"])
    def test_td_targets_match_slow_loop_oracle(self, kind):
        cfg, env, (store, target) = self._run(kind)
        store.value = store.value + 0.1 * Rng(2).normal(store.value.shape)
        target.copy_from(store)
        batch = [collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x")) for k in range(4)]
        dims = dict(n=3, n_actions=3, embed=cfg.embed,
                    agent_hidden=cfg.agent_hidden)
        got = td_targets(stack_episodes(batch), target, kind, cfg.gamma)
        want = _reference_td_targets(batch, target, kind, cfg.gamma, dims)
        for g, w in zip(_columns(got, batch), want):
            np.testing.assert_allclose(g, w, atol=1e-9)


class TestTargetMemo:
    """td_targets computes each episode's targets once per target sync."""

    def _setup(self, kind):
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        return store, dims, _mixed_length_batch(dims, seed=40)

    def _targets(self, batch, store, dims, kind="hgcn-mix", gamma=0.9):
        if isinstance(batch, list):
            batch = stack_episodes(batch)
        return td_targets(batch, store, kind, gamma=gamma)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_memoized_and_new_episodes_match_oracle(self, kind, sampled):
        # the batch is stacked in a chosen order, or drawn from a replay
        # buffer in the order its sampler picks; the stamps name its episodes
        store, dims, old = self._setup(kind)
        self._targets(old[:3], store, dims, kind)
        new = _mixed_length_batch(dims, seed=41)
        batch = [new[0], old[1], new[1], old[0], new[3], old[2], new[4]]
        if sampled:
            buf = ReplayBuffer(capacity=len(batch))
            for ep in batch:
                buf.add(ep)
            stacked = buf.sample(len(batch), Rng(0))
            by_stamp = {ep.stamp: ep for ep in batch}
            batch = [by_stamp[stamp] for stamp in stacked["stamp"]]
        else:
            stacked = stack_episodes(batch)
        got = self._targets(stacked, store, dims, kind)
        want = _reference_td_targets(batch, store, kind, 0.9, dims)
        for g, w in zip(_columns(got, batch), want):
            np.testing.assert_allclose(g, w, atol=1e-9)
        fresh = self._targets(batch, store.clone(), dims, kind)
        np.testing.assert_allclose(got, fresh, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_repeat_call_runs_no_target_pass(self, kind, monkeypatch):
        store, dims, batch = self._setup(kind)
        first = self._targets(batch, store, dims, kind)
        calls = _spy_target_pass(monkeypatch)
        again = self._targets(batch[::-1], store, dims, kind)
        assert calls == {"agent_forward": 0, "mix_batch": 0}
        np.testing.assert_array_equal(again, first[:, ::-1])

    def _online(self, target):
        online = target.clone()
        online.value = online.value + 0.25
        return online

    @pytest.mark.parametrize("event", ["update_target", "rmsprop_step",
                                       "load_checkpoint", "rebind"])
    def test_recomputed_after_parameter_change(self, event, monkeypatch,
                                               tmp_path):
        store, dims, batch = self._setup("hgcn-mix")
        before = self._targets(batch, store, dims)
        if event == "update_target":
            update_target(self._online(store), store)
        elif event == "rmsprop_step":
            rmsprop_step(store, np.ones_like(store.value), lr=0.05)
        elif event == "load_checkpoint":
            save_checkpoint(self._online(store), tmp_path / "ckpt")
            load_checkpoint(store, tmp_path / "ckpt")
        else:
            value = store.value.copy()
            store.views(value)["mix.v.fc2.b"][...] += 1.0
            store.value = value
        calls = _spy_target_pass(monkeypatch)
        after = self._targets(batch, store, dims)
        assert calls == {"agent_forward": 1, "mix_batch": 1}
        assert (after != before).any()
        np.testing.assert_array_equal(
            after, self._targets(batch, store.clone(), dims))

    @pytest.mark.parametrize("change", [{"gamma": 0.5}, {"kind": "qmix"},
                                        {"kind": "vdn"}])
    def test_recomputed_after_key_change(self, change, monkeypatch):
        store, dims, batch = self._setup("hgcn-mix")
        before = self._targets(batch, store, dims)
        calls = _spy_target_pass(monkeypatch)
        after = self._targets(batch, store, dims, **change)
        assert calls == {"agent_forward": 1, "mix_batch": 1}
        assert (after != before).any()
        np.testing.assert_array_equal(
            after, self._targets(batch, store.clone(), dims, **change))

    def test_in_place_writes_raise(self):
        # episodes are read-only once built, and memoizing guards the target
        # parameters
        store, dims, batch = self._setup("hgcn-mix")
        buf = ReplayBuffer(capacity=2)
        buf.add(batch[2])
        buf.add(batch[3])
        with pytest.raises(ValueError, match="read-only"):
            batch[2].actions[0, 0] = 1
        stack_episodes(batch[:2])
        with pytest.raises(ValueError, match="read-only"):
            batch[0].reward[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            batch[1].obs[0, 0, 0] = 1.0
        buf.sample(2, Rng(0))
        with pytest.raises(ValueError, match="read-only"):
            batch[3].terminated[0] = True
        store.memo(("hgcn-mix", 0.9))
        with pytest.raises(ValueError, match="read-only"):
            store["agent.fc1.w"][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store.value += 1.0

    def test_field_views_taken_before_buffering_are_read_only(self):
        # a view taken before ``add`` cannot change the buffered episode
        # behind the memo's back
        store, dims, batch = self._setup("hgcn-mix")
        r = batch[0].reward
        ReplayBuffer(capacity=2).add(batch[0])
        with pytest.raises(ValueError, match="read-only"):
            r[0] = 5.0

    def test_evicted_episodes_and_replaced_arrays_are_freed(self):
        store, dims, batch = self._setup("hgcn-mix")
        buf = ReplayBuffer(capacity=len(batch))
        for ep in batch:
            buf.add(ep)
        sample = buf.sample(len(batch), Rng(0))
        self._targets(sample, store, dims)
        key = ("hgcn-mix", 0.9)
        entries = len(store.memo(key))
        assert entries == len(batch)
        episode = weakref.ref(batch[0])
        array = weakref.ref(store.value)
        for ep in _mixed_length_batch(dims, seed=43):
            buf.add(ep)  # evicts every episode of the first batch
        del batch, sample, ep
        gc.collect()
        # the memo holds stamps, not episodes: its entries stay until the
        # next change of target parameters drops them
        assert episode() is None and len(store.memo(key)) == entries
        update_target(self._online(store), store)
        gc.collect()
        assert array() is None and len(store.memo(key)) == 0

    def test_episodes_never_share_a_stamp(self):
        # two buffers' episodes and hand-built ones on one target store: a
        # shared stamp would hand one episode another's memoized targets
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=6, n_actions=3,
                                       state_dim=12, embed=3)
        env = make_env({"name": "grid", "n_agents": 2, "length": 3})
        buffers = [ReplayBuffer(capacity=4), ReplayBuffer(capacity=4)]
        for k in range(8):
            buffers[k % 2].add(collect_episode(env, store, 1.0,
                                               Rng(k).split("env"),
                                               Rng(k).split("x")))
        batches = [buf.sample(4, Rng(0)) for buf in buffers]
        batches.append(stack_episodes(_mixed_length_batch(dims)))
        stamps = np.concatenate([b["stamp"] for b in batches]).tolist()
        assert len(set(stamps)) == len(stamps) == 13
        for b in batches:
            np.testing.assert_array_equal(
                self._targets(b, store, dims, "qmix"),
                self._targets(b, store.clone(), dims, "qmix"))

    def test_fresh_store_starts_empty(self):
        store, dims, batch = self._setup("qmix")
        key = ("qmix", 0.9)
        self._targets(batch, store, dims, "qmix")
        assert len(store.memo(key)) == len(batch)
        assert len(store.clone().memo(key)) == 0


class TestTrainStep:
    def test_exact_fit_gives_zero_loss_and_frozen_params(self):
        # all-zero payoff, zero networks: y == Qtot == 0 everywhere
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=2)
        _zeroed(store)
        target = store.clone()
        env = OneStepMatrixGame(np.zeros((2, 2)))
        batch = stack_episodes([collect_episode(env, store, 1.0,
                                                Rng(k).split("env"),
                                                Rng(k).split("x"))
                                for k in range(4)])
        before = store_values(store)
        loss = train_step(batch, store, target, "vdn", 0.99)
        assert loss == 0.0
        for name in store.names():
            np.testing.assert_array_equal(store[name], before[name])

    def test_single_step_half_squared_error(self):
        # y = 1 (terminal unit payoff), Qtot = 0 -> loss = 0.5
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=2)
        _zeroed(store)
        target = store.clone()
        env = OneStepMatrixGame(np.ones((2, 2)))
        batch = stack_episodes([collect_episode(env, store, 1.0,
                                                Rng(7).split("env"),
                                                Rng(7).split("x"))])
        loss = train_step(batch, store, target, "vdn", 0.99)
        assert loss == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_loss_decreases_on_fixed_buffer(self, kind):
        store, dims = tiny_mixer_store(kind, n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, hyperedges=2, embed=3)
        target = store.clone()
        env = OneStepMatrixGame()
        batch = stack_episodes([collect_episode(env, store, 1.0,
                                                Rng(k).split("env"),
                                                Rng(k).split("x"))
                                for k in range(8)])
        losses = []
        for step in range(60):
            losses.append(train_step(batch, store, target, kind, 0.99, lr=5e-3))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert all(np.isfinite(losses))

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_mixed_episode_lengths_first_loss_matches_reference(self, kind):
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        batch = _mixed_length_batch(dims, seed=41)
        want = _reference_loss(batch, store, kind, 0.9, dims)
        loss = train_step(stack_episodes(batch), store, store.clone(), kind, 0.9)
        assert loss == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_int8_batch_computes_as_its_float64_cast(self, kind):
        # stored episodes keep the envs' int8 observations, states and
        # actions; the learner must read them as the float64 and intp values
        # they hold, so every result is the cast batch's, byte for byte
        env = make_env({"name": "grid", "n_agents": 3, "length": 3,
                        "freeze": True})
        spec = env.spec
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=spec.obs_dim,
                                       state_dim=spec.state_dim, n_actions=3,
                                       hyperedges=2, embed=3)
        store.value = store.value + Rng(1).normal(store.value.shape)
        stored = stack_episodes([collect_episode(env, store, 0.7,
                                                 Rng(k).split("env"),
                                                 Rng(k).split("x"))
                                 for k in range(6)])
        assert {stored[f].dtype for f in ("obs", "state", "actions")} == {
            np.dtype(np.int8)}
        assert (stored["obs"] == -1).any()  # a frozen agent's mask value
        cast = dict(stored, obs=stored["obs"].astype(np.float64),
                    state=stored["state"].astype(np.float64),
                    actions=stored["actions"].astype(np.intp))
        results = []
        for batch in (stored, cast):
            # fresh clones per side: the memo does not carry over
            targets = td_targets(batch, store.clone(), kind, 0.9)
            loss, grads = _swept_step(batch, store, store.clone(), kind, 0.9)
            results.append([targets.tobytes(), np.float64(loss).tobytes()]
                           + list(grads.values()))
        assert results[0] == results[1]
        assert all(g is not None for g in results[0][2:])

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix"])
    def test_seed_gives_the_taped_loss_bits(self, kind):
        # the oracle is the loss on the tape: d = qtot - y, then half the
        # mean of d * d as three more records. train_step's return and the
        # map its sweep returns from the seed at the joint values equal that
        # loss's value and gradient map, byte for byte. 14 samples: a power
        # of two would give delta / S the same bits as delta * (1 / S)
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        target = store.clone()
        store.value = store.value + 0.1 * Rng(2).normal(store.value.shape)
        batch = stack_episodes(_mixed_length_batch(dims, seed=46)[:4])
        targets = td_targets(batch, target, kind, 0.9)
        tape = Tape()
        pv = store.bind(tape)
        t, e = training._steps(batch)
        assert t.size == 14
        qtot = training._joint_values(pv, batch, t, e, kind,
                                      batch["actions"][e, t].ravel())
        d = add(qtot, -targets[t, e].reshape(-1, 1))
        loss = mul(block_sum(mul(d, d), t.size), np.array([[0.5 / t.size]]))
        grads = gradient(tape, loss)
        want = {name: grads[v].tobytes() if v in grads else None
                for name, v in pv.items()}
        assert _swept_step(batch, store, target, kind, 0.9) == (
            float(loss.value[0, 0]), want)

    def test_flat_optimizer_matches_per_parameter_reference(self,
                                                            monkeypatch):
        # 50 hgcn-mix steps, the clip active on even steps and not on odd
        # ones; "spare" is bound but no forward reads it, so the sweep never
        # reaches it and its gradient is zero
        store, dims = tiny_mixer_store("hgcn-mix", n=3, obs_dim=4,
                                       n_actions=3, state_dim=5, embed=3)
        store.add("spare", Rng(1).normal((2, 3)))
        target = store.clone()
        batch = stack_episodes(_mixed_length_batch(dims, seed=44))
        bound, bind = [], store.bind

        def spy(tape):
            bound.append(bind(tape))
            return bound[-1]

        def sweep(tape, seeds):
            swept.append(gradient(tape, seeds))
            return swept[-1]

        swept = []
        monkeypatch.setattr(store, "bind", spy)
        monkeypatch.setattr(training, "gradient", sweep)
        clipped = []
        for step in range(50):
            values = store_values(store)
            sq_avgs = store.views(store.sq_avg.copy())
            clip = 1e-3 if step % 2 == 0 else 1e6
            train_step(batch, store, target, "hgcn-mix", 0.9, lr=5e-3,
                       clip_norm=clip)
            grads = {name: swept[-1].get(var) for name, var in bound[-1].items()}
            assert grads["spare"] is None
            want_values, want_sq, norm = clip_rmsprop_reference(
                values, sq_avgs, grads, clip, 5e-3, 0.99, 1e-5)
            clipped.append(norm > clip)
            for name in store.names():
                assert store[name].tobytes() == want_values[name].tobytes()
                assert store.views(store.sq_avg)[name].tobytes() \
                    == want_sq[name].tobytes()
        assert clipped == [step % 2 == 0 for step in range(50)]

    @staticmethod
    def _paper_width_step(kind, episodes, spy, monkeypatch):
        """One grid4 train step at the paper's widths, with ``spy`` in place
        of ``training.gradient``."""
        cfg = Config(env={"name": "grid", "n_agents": 4, "length": 6},
                     mixer=kind)
        env = make_env(cfg.env)
        store, target = init_run_stores(cfg, env, 0)
        batch = stack_episodes([collect_episode(env, store, 1.0,
                                                Rng(k).split("env"),
                                                Rng(k).split("x"))
                                for k in range(episodes)])
        monkeypatch.setattr(training, "gradient", spy)
        train_step(batch, store, target, kind, cfg.gamma)

    @pytest.mark.parametrize("kind,total", [("hgcn-mix", 32), ("qmix", 23)])
    def test_tape_records_per_step_at_paper_widths(self, kind, total,
                                                   monkeypatch):
        # each hypergraph convolution layer is one hgcn_conv record, and each
        # affine layer, with its ReLU if it has one, one linear record: the
        # agent's fc1 and fc2, the generator, and the seven hypernetwork
        # layers
        counts = []

        def spy(tape, seeds):
            counts.append(Counter(r.name for r in tape.records))
            return gradient(tape, seeds)

        self._paper_width_step(kind, 4, spy, monkeypatch)
        (count,) = counts
        assert count["hgcn_conv"] == (2 if kind == "hgcn-mix" else 0)
        assert count["linear"] == (10 if kind == "hgcn-mix" else 9)
        assert not {"safe_rsqrt", "safe_recip", "repeat_rows", "relu",
                    "matmul"} & set(count)
        assert sum(count.values()) == total

    def test_backward_frees_the_tape_as_it_sweeps(self, monkeypatch):
        # a paper-width hgcn-mix step on 32 episodes: the sweep's traced peak
        # stays within 2 MB of the memory live at its entry. Holding every
        # record and every intermediate gradient to the end of the sweep
        # rose 6.8 MB
        rises = []

        def spy(tape, seeds):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            grads = gradient(tape, seeds)
            rises.append(tracemalloc.get_traced_memory()[1] - entry)
            return grads

        tracemalloc.start()
        try:
            self._paper_width_step("hgcn-mix", 32, spy, monkeypatch)
        finally:
            tracemalloc.stop()
        (rise,) = rises
        assert rise <= 2 * 2 ** 20, rise

    def test_targets_not_touched_by_training(self):
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, embed=3)
        target = store.clone()
        frozen = store_values(target)
        env = OneStepMatrixGame()
        batch = stack_episodes([collect_episode(env, store, 1.0,
                                                Rng(k).split("env"),
                                                Rng(k).split("x"))
                                for k in range(4)])
        for _ in range(5):
            train_step(batch, store, target, "qmix", 0.99)
        for name in target.names():
            np.testing.assert_array_equal(target[name], frozen[name])

    # grid4 paper-width hgcn-mix and qmix steps, alternating on one replay:
    # with the heap top trimmed after each step, the next one faults about
    # 950 pages back in; with it kept, a step takes a handful
    FAULT_SCRIPT = """
import resource, statistics
from hypermix import training
from hypermix.config import Config, load_config
from hypermix.envs import make_env
from hypermix.rng import Rng

cfg = Config(env={"name": "grid", "n_agents": 4, "length": 6})
env = make_env(cfg.env)
stores = {m: training.init_run_stores(cfg.replace(mixer=m), env, 0)
          for m in ("hgcn-mix", "qmix")}
root = Rng(0)
env_rng, explore_rng, buffer_rng = (root.split(k)
                                    for k in ("env", "explore", "buffer"))
buffer = training.ReplayBuffer(cfg.buffer_capacity)
for _ in range(64):
    buffer.add(training.collect_episode(env, stores["hgcn-mix"][0], 1.0,
                                        env_rng, explore_rng))
faults = []
for step in range(20):
    for mixer, (store, target) in stores.items():
        batch = buffer.sample(cfg.batch_size, buffer_rng)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        training.train_step(batch, store, target, mixer, cfg.gamma)
        if mixer == "hgcn-mix":
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        if (step + 1) % 5 == 0:
            training.update_target(store, target)
print(statistics.median(faults[4:]))
"""

    def test_steady_train_steps_take_no_page_fault_storm(self):
        try:
            ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):
            pytest.skip("the C library has no mallopt")
        # a fresh process, so the rest of the suite does not shape its heap
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
        done = subprocess.run([sys.executable, "-c", self.FAULT_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert float(done.stdout) <= 100


class TestRollout:
    # K greedy episodes in lockstep against K one-episode calls on the same
    # streams, in frozen corridors of n agents and in the two games, at GRU
    # width H, with parameters moved off their initial values. Every Episode
    # field, the actions included, is compared byte for byte. Each agent
    # call's Q values are compared within a tolerance only: a product over
    # the rows of all running episodes may round a row differently from one
    # over an episode's rows alone. Prints the episode lengths per env, the
    # number of (episode, step) blocks compared, the mismatches, and the
    # largest Q difference.
    LOCKSTEP_SCRIPT = """
import json
import numpy as np
from hypermix import agents as ag
from hypermix import training
from hypermix.envs import draw_layouts, make_env
from hypermix.nn import ParameterStore
from hypermix.rng import Rng

K = 12
recorded = []
forward = ag.agent_forward


def recording_forward(*args):
    q, h = forward(*args)
    recorded.append(q.value)
    return q, h


ag.agent_forward = recording_forward
ENVS = [(f"grid{n}", {"name": "grid", "n_agents": n, "length": 3,
                     "freeze": True}, hidden, n)
        for n, hidden in ((3, 16), (4, 64), (5, 16), (8, 64))]
ENVS += [("matrix_game", {"name": "matrix_game"}, 16, 10),
         ("two_step", {"name": "two_step"}, 64, 11)]
lengths, blocks, mismatched, q_diff = {}, 0, [], 0.0
for label, cfg, hidden, seed in ENVS:
    env = make_env(cfg)
    spec, rng, n = env.spec, Rng(seed), env.spec.n_agents
    store = ParameterStore()
    ag.init_agent_params(store, spec.obs_dim, spec.n_actions, n,
                         rng.split("agent"), hidden)
    store.value = store.value + 0.5 * rng.split("moved").normal(store.value.shape)
    recorded.clear()
    layouts = draw_layouts(env, [rng.split(f"ep{k}") for k in range(K)])
    together = training.rollout(env, store, 0.0, layouts, None)
    stepped = list(recorded)
    lengths[label] = together["length"].tolist()
    for k in range(K):
        recorded.clear()
        alone = training.collect_episode(env, store, 0.0, rng.split(f"ep{k}"),
                                         None)
        for name in ("obs", "state", "avail", "actions", "reward",
                     "terminated", "length"):
            mine = np.asarray(together[name][k])
            theirs = np.asarray(getattr(alone, name))
            if (mine.dtype, mine.shape, mine.tobytes()) != (
                    theirs.dtype, theirs.shape, theirs.tobytes()):
                mismatched.append(f"{label} episode {k}: {name}")
        for t, q in enumerate(recorded):
            # episode k's rows: after the running episodes before it
            b = np.count_nonzero(together["length"][:k] > t)
            blocks += 1
            mine = stepped[t][b * n:(b + 1) * n]
            if mine.shape != q.shape:
                mismatched.append(f"{label} episode {k} step {t}: Q rows")
            else:
                q_diff = max(q_diff, float(np.abs(mine - q).max()))
print(json.dumps({"lengths": lengths, "blocks": blocks,
                  "mismatched": mismatched, "q_diff": q_diff}))
"""

    @pytest.mark.parametrize("kernel", ["SkylakeX", "Sandybridge", "Haswell",
                                        "Prescott"])
    def test_lockstep_equals_one_episode_calls(self, kernel):
        # BLAS may round a row by the rows stacked around it, differently
        # per kernel, so each kernel runs in a fresh process
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
        done = subprocess.run([sys.executable, "-c", self.LOCKSTEP_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode == -signal.SIGILL:
            pytest.skip(f"this CPU cannot run the {kernel} kernel")
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout)
        assert result["mismatched"] == []
        assert result["q_diff"] <= 1e-12, result["q_diff"]
        # corridor episodes end at different steps, so running episodes drop
        # out; the games' episodes all take their fixed length
        for label, lengths in result["lengths"].items():
            if label.startswith("grid"):
                assert len(set(lengths)) > 2, (label, lengths)
        assert set(result["lengths"]["matrix_game"]) == {1}
        assert set(result["lengths"]["two_step"]) == {2}
        assert result["blocks"] > 200

    def test_one_lockstep_env_call_per_step(self, monkeypatch):
        # K = 8 corridor episodes: one reset, and one observe and one step
        # for every step of the longest episode, not one per episode
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        calls = Counter()
        for name in ("reset", "observe", "step"):
            method = getattr(env, name)
            monkeypatch.setattr(env, name, lambda *a, m=method, k=name:
                                calls.update([k]) or m(*a))
        rng = Rng(8)
        layouts = draw_layouts(env, [rng.split(f"ep{k}") for k in range(8)])
        lengths = training.rollout(env, store, 0.5, layouts,
                                   rng.split("x"))["length"]
        longest = lengths.max()
        assert len(set(lengths.tolist())) > 1
        assert calls == {"reset": 1, "observe": longest + 1, "step": longest}

    def test_all_layouts_roll_from_one_array(self):
        # n = 2, length 2: 2^4 = 16 layouts, one episode each, from plain
        # numpy; each episode starts at its own row, and the rollout leaves
        # the rows as they were
        env = LazyCoordinationGrid(n_agents=2, length=2)
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=4, n_actions=3)
        layouts = np.indices((2,) * 4).reshape(4, -1).T.reshape(-1, 2, 2)
        kept = layouts.copy()
        batch = training.rollout(env, store, 0.0, layouts, None)
        assert len(batch["length"]) == 16
        assert len({row.tobytes() for row in layouts}) == 16
        np.testing.assert_array_equal(layouts, kept)
        eye = np.eye(2, dtype=np.int8)
        for k, (pos, target) in enumerate(layouts):
            first = np.concatenate((eye[pos], eye[target]), axis=1)
            np.testing.assert_array_equal(batch["obs"][k, 0], first)
            np.testing.assert_array_equal(batch["state"][k, 0], first.ravel())

    def test_layout_array_rollout_draws_nothing(self, monkeypatch):
        # every layout at n = 3, length 4, greedy: no stream is made or read
        env = LazyCoordinationGrid(n_agents=3, length=4)
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=8, n_actions=3)
        layouts = np.indices((4,) * 6).reshape(6, -1).T.reshape(-1, 2, 3)

        def refuse(*args):
            raise AssertionError("a random stream was used")

        for name in ("split", "integers", "random"):
            monkeypatch.setattr(Rng, name, refuse)
        batch = training.rollout(env, store, 0.0, layouts, None)
        assert batch["length"].shape == (4096,)
        assert ((batch["length"] >= 1)
                & (batch["length"] <= env.spec.episode_limit)).all()

    def test_episodes_own_their_arrays(self):
        # a collected episode holds only its own rows, in its own record,
        # not the rollout's blocks; its fields are views of that record
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        rng = Rng(9)
        for k in range(4):
            ep = collect_episode(env, store, 0.0, rng.split(f"ep{k}"), None)
            assert ep.record.base is None and ep.record.flags.owndata
            assert ep.record.shape == ()
            for name in ep.record.dtype.names:
                assert getattr(ep, name).base is ep.record

    def test_stored_episode_holds_int8_rows(self):
        # at n = 3, length 4: (9, 3, 8) int8 observations, (9, 24) int8
        # states, (9, 3, 3) masks, (8, 3) int8 actions, (8,) float64 rewards
        # and (8,) flags, 609 bytes, and 7 bytes of padding that align the
        # rewards; float64 observations and states and intp actions took
        # 3,801 bytes
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        ep = collect_episode(env, store, 1.0, Rng(5).split("env"),
                             Rng(5).split("x"))
        names = ("obs", "state", "avail", "actions", "reward", "terminated")
        assert ep.record.dtype.names == names
        arrays = [getattr(ep, name) for name in names]
        assert [a.dtype for a in arrays] == [np.int8, np.int8, bool, np.int8,
                                            np.float64, bool]
        assert sum(a.nbytes for a in arrays) == 609
        ends = [ep.record.dtype.fields[name][1] + a.nbytes
                for name, a in zip(names, arrays)]
        starts = [ep.record.dtype.fields[name][1] for name in names]
        assert [s - e for e, s in zip(ends, starts[1:])] == [0, 0, 0, 7, 0]
        assert ep.record.nbytes == ends[-1] == 616

    def test_buffered_episode_takes_under_1000_bytes(self):
        # one record, one ndarray header and a three-slot object per
        # episode; six arrays and a dataclass took about 1,600 bytes here
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        rng = Rng(10)
        buf = ReplayBuffer(capacity=201)
        buf.add(collect_episode(env, store, 1.0, rng.split("warm"), rng))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for k in range(200):
                buf.add(collect_episode(env, store, 1.0, rng.split(f"ep{k}"),
                                        rng))
            gc.collect()
            per_episode = (tracemalloc.get_traced_memory()[0] - before) / 200
        finally:
            tracemalloc.stop()
        assert len(buf) == 201
        assert per_episode < 1000, per_episode

    def test_episodes_of_one_layout_share_a_record_dtype(self):
        env = make_env({"name": "grid", "n_agents": 3, "length": 4})
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        a, b = (collect_episode(env, store, 1.0, Rng(k).split("env"),
                                Rng(k).split("x"))
                for k in range(2))
        assert a.record.dtype is b.record.dtype

    def test_evaluation_returns_are_the_episodes_returns(self, monkeypatch):
        # evaluate_policy reads the returns from the reward block and builds
        # no Episode, yet gives what its streams' collected episodes give
        cfg = {"name": "grid", "n_agents": 3, "length": 4, "freeze": True}
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=8, n_actions=3)
        store.value = store.value + Rng(6).normal(store.value.shape)
        rng, env = Rng(7), make_env(cfg)
        returns = np.array([collect_episode(env, store, 0.0, rng.split(f"ep{k}"),
                                            None).episode_return
                            for k in range(40)])
        assert 0.0 < returns.mean() < 1.0
        monkeypatch.setattr(training, "Episode", None)
        assert evaluate_policy(make_env(cfg), store, 40, rng) == {
            "mean_return": float(returns.mean()),
            "success_rate": float((np.abs(returns - 1.0) <= 1e-9).mean())}

    def test_one_env_object_serves_every_k(self):
        # evaluation (K = 32), one training episode (K = 1) and evaluation
        # again in one env object give what a fresh env gives each time
        cfg = {"name": "grid", "n_agents": 3, "length": 4, "freeze": True}
        env = make_env(cfg)
        store, _ = tiny_mixer_store("vdn", n=3, obs_dim=env.spec.obs_dim,
                                    n_actions=3)
        store.value = store.value + Rng(1).normal(store.value.shape)
        calls = [
            lambda e: evaluate_policy(e, store, 32, Rng(2)),
            lambda e: collect_episode(e, store, 0.5, Rng(3).split("env"),
                                      Rng(3).split("x")),
            lambda e: evaluate_policy(e, store, 32, Rng(4)),
        ]
        for call in calls:
            reused, fresh = call(env), call(make_env(cfg))
            if isinstance(fresh, dict):
                assert reused == fresh
                continue
            for name in ("obs", "state", "avail", "actions", "reward",
                         "terminated", "length"):
                np.testing.assert_array_equal(getattr(reused, name),
                                              getattr(fresh, name))


class TestUpdateTarget:
    def test_hard_copy_bit_exact_and_frozen_between_updates(self):
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, embed=3)
        target = store.clone()
        env = OneStepMatrixGame()
        batch = stack_episodes([collect_episode(env, store, 1.0,
                                                Rng(k).split("env"),
                                                Rng(k).split("x"))
                                for k in range(4)])
        train_step(batch, store, target, "qmix", 0.99)
        assert any(not np.array_equal(store[n], target[n])
                   for n in store.names())
        update_target(store, target)
        for name in store.names():
            assert np.array_equal(store[name], target[name])

    @pytest.mark.parametrize("kind", ["hgcn-mix", "qmix"])
    def test_target_store_holds_its_values_only(self, kind):
        # RMSProp updates the online store alone, so the paper-width target
        # copy carries no moment through steps and syncs: dropping it frees
        # one parameter-sized array (and its few-KB memo), not two
        cfg = Config(env={"name": "grid", "n_agents": 4, "length": 6},
                     mixer=kind)
        env = make_env(cfg.env)
        tracemalloc.start()
        try:
            store, target = init_run_stores(cfg, env, 0)
            batch = stack_episodes([collect_episode(env, store, 1.0,
                                                    Rng(k).split("env"),
                                                    Rng(k).split("x"))
                                    for k in range(8)])
            for step in range(4):
                train_step(batch, store, target, kind, cfg.gamma)
                if step % 2 == 1:
                    update_target(store, target)
            assert store.sq_avg.any() and not target.sq_avg.any()
            assert target.sq_avg.shape == target.value.shape
            size = target.value.nbytes
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del target
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size <= freed < 2 * size, (freed, size)


class TestEvaluatePolicy:
    def test_constructed_optimum_has_success_one(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        _zeroed(store)
        # bias the head toward action 0 for every agent: joint (0,0) pays 11
        store["agent.fc2.b"][...] = [[10.0, 0.0, 0.0]]
        env = OneStepMatrixGame()
        stats = evaluate_policy(env, store, 8, Rng(0))
        assert stats["success_rate"] == 1.0
        assert stats["mean_return"] == 11.0

    def test_uniform_random_policy_matches_enumeration_mean(self):
        payoff = np.asarray(
            [[11.0, -30.0, 0.0], [-30.0, 7.0, 6.0], [0.0, 0.0, 5.0]])
        exact = payoff.mean()  # 9-point enumeration: -31/9
        assert exact == pytest.approx(-31.0 / 9.0)
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        env = OneStepMatrixGame()
        rng = Rng(123)
        returns = [collect_episode(env, store, 1.0, rng.split(f"e{k}"),
                                   rng.split(f"x{k}")).episode_return
                   for k in range(2000)]
        sigma = np.sqrt(((payoff - exact) ** 2).mean())
        bound = 3 * sigma / np.sqrt(len(returns))
        assert abs(np.mean(returns) - exact) <= bound

    def test_zero_episodes_is_an_error(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        with pytest.raises(ValueError, match="episodes"):
            evaluate_policy(OneStepMatrixGame(), store, 0, Rng(0))

    def test_zero_params_deterministic_return(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        _zeroed(store)
        env = OneStepMatrixGame()
        a = evaluate_policy(env, store, 4, Rng(3))
        b = evaluate_policy(env, store, 4, Rng(3))
        assert a == b


class TestRunTraining:
    def test_writes_metrics_and_checkpoint(self, tmp_path):
        cfg = _grid_cfg()
        summary = run_training(cfg, seed=0, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"step", "episode", "mixer", "seed",
                               "mean_return", "success_rate", "loss_ma",
                               "epsilon"}
        assert (tmp_path / "run" / "checkpoint" / "params.bin").exists()
        assert (tmp_path / "run" / "config.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _grid_cfg(mixer="qmix", episodes=12, eval_interval=4)
        run_training(cfg, seed=1, out_dir=tmp_path / "a")
        run_training(cfg, seed=1, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b and len(a) > 0

    def test_wall_seconds_ignore_a_system_clock_set_back(self, tmp_path,
                                                         monkeypatch):
        # each read of the system clock is an hour before the last
        clock = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(training.time, "time", lambda: float(next(clock)))
        summary = run_training(_grid_cfg(), seed=0, out_dir=tmp_path / "run")
        assert summary["wall_seconds"] >= 0

    def test_different_seeds_diverge(self, tmp_path):
        cfg = _grid_cfg(episodes=12, eval_interval=4)
        run_training(cfg, seed=1, out_dir=tmp_path / "a")
        run_training(cfg, seed=2, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a != b

    def test_init_stores_depend_only_on_seed(self):
        cfg = _grid_cfg(mixer="hgcn-mix")
        env = make_env(cfg.env)
        s1, t1 = init_run_stores(cfg, env, seed=4)
        s2, _ = init_run_stores(cfg, env, seed=4)
        for name in s1.names():
            np.testing.assert_array_equal(s1[name], s2[name])
            np.testing.assert_array_equal(s1[name], t1[name])

    # sha256 over each parameter's name bytes then value bytes, in store
    # order, at paper widths: a renamed parameter, a changed shape or a
    # changed order of random draws changes the digest
    INIT_DIGESTS = {"vdn": "da52c78bcd65212d", "qmix": "55dc5e302c1fb1b5",
                    "hgcn-mix": "f4d71e084ff95b42"}

    @pytest.mark.parametrize("mixer", sorted(INIT_DIGESTS))
    def test_init_stores_golden_digest(self, mixer):
        cfg = Config(env={"name": "grid", "n_agents": 4, "length": 6},
                     mixer=mixer)
        store, _ = init_run_stores(cfg, make_env(cfg.env), 0)
        digest = hashlib.sha256()
        for name in store.names():
            digest.update(name.encode())
            digest.update(store[name].tobytes())
        assert digest.hexdigest()[:16] == self.INIT_DIGESTS[mixer]
