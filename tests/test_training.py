"""Episode collection, replay, TD targets, training steps, evaluation."""

import gc
import json
import weakref

import numpy as np
import pytest

from hypermix import agents as ag
from hypermix import mixers as mx
from hypermix.config import Config
from hypermix.envs import OneStepMatrixGame, TwoStepGame, make_env
from hypermix.nn import load_checkpoint_into, rmsprop_step, save_checkpoint
from hypermix.rng import Rng
from hypermix.training import (Episode, ReplayBuffer, Schedule, _batch_inputs,
                               collect_episode, evaluate_policy,
                               init_run_stores, run_training, td_targets,
                               train_step, update_target)

from _helpers import tiny_mixer_store
from _oracles import (agent_forward_reference, hgcn_mix_reference,
                      state_module_reference, store_values, td_targets_loop)


def _zeroed(store):
    for _, p in store.items():
        p.value = np.zeros_like(p.value)
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
        sched = Schedule()
        assert sched.value(0) == 1.0
        assert sched.value(50_000) == 0.05
        assert sched.value(25_000) == pytest.approx(0.525)
        assert sched.value(80_000) == 0.05

    def test_monotone_nonincreasing(self):
        sched = Schedule()
        values = [sched.value(t) for t in range(0, 60_000, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestReplayBuffer:
    def _ep(self, tag):
        ep = Episode.empty(1, 1, 1, 1, 2)
        ep.reward[0] = tag
        ep.length = 1
        return ep

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
        assert sorted(e.reward[0] for e in batch) == list(range(10))

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
                             Rng(0).split("x"), agent_hidden=4)
        assert ep.length == 1
        assert ep.terminated[0]

    def test_deterministic_repeat_with_fixed_seed(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=6, n_actions=3)
        eps = []
        for _ in range(2):
            env = make_env({"name": "grid", "n_agents": 2, "length": 3})
            ep = collect_episode(env, store, 0.0, Rng(5).split("env"),
                                 Rng(5).split("x"), agent_hidden=4)
            eps.append(ep)
        assert eps[0].length == eps[1].length
        np.testing.assert_array_equal(eps[0].actions, eps[1].actions)
        np.testing.assert_array_equal(eps[0].obs, eps[1].obs)

    def test_length_bounded_by_episode_limit(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=6, n_actions=3)
        env = make_env({"name": "grid", "n_agents": 2, "length": 3})
        for k in range(10):
            ep = collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x"), agent_hidden=4)
            assert 1 <= ep.length <= env.spec.episode_limit

    def test_trailing_slot_holds_final_observation(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        env = OneStepMatrixGame()
        ep = collect_episode(env, store, 0.0, Rng(1).split("env"),
                             Rng(1).split("x"), agent_hidden=4)
        assert ep.avail[1].all()
        np.testing.assert_array_equal(ep.obs[1], np.eye(2))

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
                             Rng(3).split("x"), agent_hidden=4)
        assert ep.length > 1 and len(used) == ep.length
        replayed = _batch_inputs([ep], spec.n_actions)
        for t in range(ep.length):
            np.testing.assert_array_equal(replayed[t], used[t])
        np.testing.assert_array_equal(
            replayed[ep.length],
            build(ep.obs[ep.length], ep.actions[ep.length - 1],
                  spec.n_actions))


def _reference_q(params, ep, t, dims):
    """Agent values at step t of one episode, by the reference network."""
    hidden = np.zeros((dims["n"], dims["agent_hidden"]))
    for step in range(t + 1):
        last = ep.actions[step - 1] if step > 0 else None
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
    return hgcn_mix_reference(params, chosen, ep.obs[t], ep.state[t], n,
                              embed, onehot=kind == "hgcn-mix-oh")


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
        ep = Episode.empty(limit, n, dims["obs_dim"], dims["state_dim"],
                           n_actions)
        ep.obs[:length + 1] = rng.normal((length + 1, n, dims["obs_dim"]))
        ep.state[:length + 1] = rng.normal((length + 1, dims["state_dim"]))
        ep.avail[:length + 1] = rng.uniform(0.0, 1.0,
                                            (length + 1, n, n_actions)) < 0.6
        ep.avail[:length + 1, :, 0] = True
        for t in range(length):
            for a in range(n):
                options = np.flatnonzero(ep.avail[t, a])
                ep.actions[t, a] = options[rng.integers(options.size)]
        ep.reward[:length] = rng.normal((length,))
        ep.terminated[length - 1] = terminated
        ep.length = length
        batch.append(ep)
    return batch


def _columns(targets, batch):
    """Per-episode target vectors of a (T x B) target array, checking that
    it is zero past each episode's length."""
    assert targets.shape == (max(ep.length for ep in batch), len(batch))
    for k, ep in enumerate(batch):
        assert not targets[ep.length:, k].any()
    return [targets[:ep.length, k] for k, ep in enumerate(batch)]


class TestTdTargets:
    def _batch(self, store, env_name, count, seed=0):
        batch = []
        for k in range(count):
            env = make_env(env_name)
            batch.append(collect_episode(env, store, 1.0,
                                         Rng(seed + k).split("env"),
                                         Rng(seed + k).split("x"),
                                         agent_hidden=4))
        return batch

    def test_terminal_step_takes_raw_reward(self):
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        env = OneStepMatrixGame()
        ep = collect_episode(env, store, 0.0, Rng(2).split("env"),
                             Rng(2).split("x"), agent_hidden=4)
        y = td_targets([ep], store, "vdn", gamma=0.99, embed=dims["embed"],
                       agent_hidden=4)
        assert y[0, 0] == ep.reward[0]

    def test_bootstrap_arithmetic(self):
        # terminal-free step: y = r + gamma * next joint value
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=3, n_actions=2)
        env = TwoStepGame()
        ep = collect_episode(env, store, 1.0, Rng(3).split("env"),
                             Rng(3).split("x"), agent_hidden=4)
        assert ep.length == 2
        y = td_targets([ep], store, "vdn", gamma=0.99, embed=dims["embed"],
                       agent_hidden=4)
        ref = _reference_td_targets([ep], store, "vdn", 0.99, dims)
        np.testing.assert_allclose(_columns(y, [ep])[0], ref[0], atol=1e-10)
        assert y[0, 0] != ep.reward[0]  # really bootstrapped

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix", "hgcn-mix-oh"])
    def test_matches_slow_loop_oracle(self, kind):
        store, dims = tiny_mixer_store(kind, n=2, obs_dim=6, n_actions=3,
                                       state_dim=12, hyperedges=2, embed=3)
        batch = self._batch(store, {"name": "grid", "n_agents": 2,
                                    "length": 3}, count=4, seed=10)
        got = td_targets(batch, store, kind, gamma=0.9, embed=dims["embed"],
                         agent_hidden=4)
        want = _reference_td_targets(batch, store, kind, 0.9, dims)
        for g, w in zip(_columns(got, batch), want):
            np.testing.assert_allclose(g, w, atol=1e-9)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix", "hgcn-mix-oh"])
    def test_mixed_episode_lengths_match_slow_loop_oracle(self, kind):
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        batch = _mixed_length_batch(dims, seed=40)
        got = td_targets(batch, store, kind, gamma=0.9, embed=dims["embed"],
                         agent_hidden=dims["agent_hidden"])
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
        td_targets(batch, store, "qmix", gamma=0.9, embed=dims["embed"],
                   agent_hidden=dims["agent_hidden"])
        # four of the five episodes end terminated
        assert samples == [sum(ep.length for ep in batch) - 4]

    def test_all_terminal_batch_runs_no_target_pass(self, monkeypatch):
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, embed=3)
        batch = [collect_episode(OneStepMatrixGame(), store, 1.0,
                                 Rng(k).split("env"), Rng(k).split("x"),
                                 agent_hidden=4)
                 for k in range(3)]

        def unexpected(*args, **kwargs):
            raise AssertionError("no step bootstraps")

        monkeypatch.setattr(ag, "agent_forward", unexpected)
        monkeypatch.setattr(mx, "mix_batch", unexpected)
        y = td_targets(batch, store, "qmix", gamma=0.9, embed=dims["embed"],
                       agent_hidden=4)
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
        y = td_targets(cut, store, "qmix", gamma=0.9, embed=dims["embed"],
                       agent_hidden=4)
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


class TestTargetMemo:
    """td_targets computes each episode's targets once per target sync."""

    def _setup(self, kind):
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        return store, dims, _mixed_length_batch(dims, seed=40)

    def _targets(self, batch, store, dims, kind="hgcn-mix", gamma=0.9):
        return td_targets(batch, store, kind, gamma=gamma, embed=dims["embed"],
                          agent_hidden=dims["agent_hidden"])

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix", "hgcn-mix-oh"])
    @pytest.mark.parametrize("pass_inputs", [False, True])
    def test_memoized_and_new_episodes_match_oracle(self, kind, pass_inputs):
        store, dims, old = self._setup(kind)
        self._targets(old[:3], store, dims, kind)
        new = _mixed_length_batch(dims, seed=41)
        batch = [new[0], old[1], new[1], old[0], new[3], old[2], new[4]]
        inputs = _batch_inputs(batch, dims["n_actions"]) if pass_inputs else None
        got = td_targets(batch, store, kind, gamma=0.9, embed=dims["embed"],
                         agent_hidden=dims["agent_hidden"], inputs=inputs)
        want = _reference_td_targets(batch, store, kind, 0.9, dims)
        for g, w in zip(_columns(got, batch), want):
            np.testing.assert_allclose(g, w, atol=1e-9)
        fresh = self._targets(batch, store.clone(), dims, kind)
        np.testing.assert_allclose(got, fresh, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix", "hgcn-mix-oh"])
    def test_repeat_call_runs_no_target_pass(self, kind, monkeypatch):
        store, dims, batch = self._setup(kind)
        first = self._targets(batch, store, dims, kind)
        calls = _spy_target_pass(monkeypatch)
        again = self._targets(batch[::-1], store, dims, kind)
        assert calls == {"agent_forward": 0, "mix_batch": 0}
        np.testing.assert_array_equal(again, first[:, ::-1])

    def _online(self, target):
        online = target.clone()
        for _, p in online.items():
            p.value = p.value + 0.25
        return online

    @pytest.mark.parametrize("event", ["update_target", "rmsprop_step",
                                       "load_checkpoint_into", "rebind"])
    def test_recomputed_after_parameter_change(self, event, monkeypatch,
                                               tmp_path):
        store, dims, batch = self._setup("hgcn-mix")
        before = self._targets(batch, store, dims)
        if event == "update_target":
            update_target(self._online(store), store)
        elif event == "rmsprop_step":
            for _, p in store.items():
                p.grad = np.ones_like(p.value)
            rmsprop_step(store, lr=0.05)
        elif event == "load_checkpoint_into":
            save_checkpoint(self._online(store), tmp_path / "ckpt")
            load_checkpoint_into(store, tmp_path / "ckpt")
        else:
            store["mix.v.fc2.b"].value = store["mix.v.fc2.b"].value + 1.0
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
        store, dims, batch = self._setup("hgcn-mix")
        self._targets(batch, store, dims)
        with pytest.raises(ValueError, match="read-only"):
            batch[0].reward[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            batch[1].obs[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store["agent.fc1.w"].value[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store["mix.edge_w1"].value += 1.0

    def test_evicted_episodes_and_replaced_arrays_are_freed(self):
        store, dims, batch = self._setup("hgcn-mix")
        buf = ReplayBuffer(capacity=len(batch))
        for ep in batch:
            buf.add(ep)
        sample = buf.sample(len(batch), Rng(0))
        self._targets(sample, store, dims)
        memo = store.memo(("hgcn-mix", 0.9, dims["embed"],
                           dims["agent_hidden"]))
        assert len(memo) == len(batch)
        episode = weakref.ref(batch[0])
        array = weakref.ref(store["mix.gen.w"].value)
        for ep in _mixed_length_batch(dims, seed=43):
            buf.add(ep)  # evicts every episode of the first batch
        del batch, sample, ep
        gc.collect()
        assert episode() is None and len(memo) == 0
        update_target(self._online(store), store)
        gc.collect()
        assert array() is None

    def test_fresh_store_starts_empty(self):
        store, dims, batch = self._setup("qmix")
        key = ("qmix", 0.9, dims["embed"], dims["agent_hidden"])
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
        batch = [collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x"), agent_hidden=4)
                 for k in range(4)]
        before = store_values(store)
        loss = train_step(batch, store, target, "vdn", 0.99, dims["embed"],
                          agent_hidden=4)
        assert loss == 0.0
        for name, p in store.items():
            np.testing.assert_array_equal(p.value, before[name])

    def test_single_step_half_squared_error(self):
        # y = 1 (terminal unit payoff), Qtot = 0 -> loss = 0.5
        store, dims = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=2)
        _zeroed(store)
        target = store.clone()
        env = OneStepMatrixGame(np.ones((2, 2)))
        batch = [collect_episode(env, store, 1.0, Rng(7).split("env"),
                                 Rng(7).split("x"), agent_hidden=4)]
        loss = train_step(batch, store, target, "vdn", 0.99, dims["embed"],
                          agent_hidden=4)
        assert loss == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix", "hgcn-mix-oh"])
    def test_loss_decreases_on_fixed_buffer(self, kind):
        store, dims = tiny_mixer_store(kind, n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, hyperedges=2, embed=3)
        target = store.clone()
        env = OneStepMatrixGame()
        batch = [collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x"), agent_hidden=4)
                 for k in range(8)]
        losses = []
        for step in range(60):
            losses.append(train_step(batch, store, target, kind, 0.99,
                                     dims["embed"], agent_hidden=4, lr=5e-3))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert all(np.isfinite(losses))

    @pytest.mark.parametrize("kind", ["vdn", "qmix", "hgcn-mix", "hgcn-mix-oh"])
    def test_mixed_episode_lengths_first_loss_matches_reference(self, kind):
        store, dims = tiny_mixer_store(kind, n=3, obs_dim=4, n_actions=3,
                                       state_dim=5, hyperedges=2, embed=3)
        batch = _mixed_length_batch(dims, seed=41)
        want = _reference_loss(batch, store, kind, 0.9, dims)
        loss = train_step(batch, store, store.clone(), kind, 0.9,
                          dims["embed"], agent_hidden=dims["agent_hidden"])
        assert loss == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_targets_not_touched_by_training(self):
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, embed=3)
        target = store.clone()
        frozen = store_values(target)
        env = OneStepMatrixGame()
        batch = [collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x"), agent_hidden=4)
                 for k in range(4)]
        for _ in range(5):
            train_step(batch, store, target, "qmix", 0.99, dims["embed"],
                       agent_hidden=4)
        for name, p in target.items():
            np.testing.assert_array_equal(p.value, frozen[name])


class TestUpdateTarget:
    def test_hard_copy_bit_exact_and_frozen_between_updates(self):
        store, dims = tiny_mixer_store("qmix", n=2, obs_dim=2, n_actions=3,
                                       state_dim=1, embed=3)
        target = store.clone()
        env = OneStepMatrixGame()
        batch = [collect_episode(env, store, 1.0, Rng(k).split("env"),
                                 Rng(k).split("x"), agent_hidden=4)
                 for k in range(4)]
        train_step(batch, store, target, "qmix", 0.99, dims["embed"],
                   agent_hidden=4)
        assert any(not np.array_equal(store[n].value, target[n].value)
                   for n in store.names())
        update_target(store, target)
        for name in store.names():
            assert np.array_equal(store[name].value, target[name].value)


class TestEvaluatePolicy:
    def test_constructed_optimum_has_success_one(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        _zeroed(store)
        # bias the head toward action 0 for every agent: joint (0,0) pays 11
        store["agent.fc2.b"].value = np.array([[10.0, 0.0, 0.0]])
        env = OneStepMatrixGame()
        stats = evaluate_policy(env, store, 8, Rng(0), agent_hidden=4)
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
                                   rng.split(f"x{k}"),
                                   agent_hidden=4).episode_return
                   for k in range(2000)]
        sigma = np.sqrt(((payoff - exact) ** 2).mean())
        bound = 3 * sigma / np.sqrt(len(returns))
        assert abs(np.mean(returns) - exact) <= bound

    def test_zero_episodes_is_an_error(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        with pytest.raises(ValueError, match="episodes"):
            evaluate_policy(OneStepMatrixGame(), store, 0, Rng(0),
                            agent_hidden=4)

    def test_zero_params_deterministic_return(self):
        store, _ = tiny_mixer_store("vdn", n=2, obs_dim=2, n_actions=3)
        _zeroed(store)
        env = OneStepMatrixGame()
        a = evaluate_policy(env, store, 4, Rng(3), agent_hidden=4)
        b = evaluate_policy(env, store, 4, Rng(3), agent_hidden=4)
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
            np.testing.assert_array_equal(s1[name].value, s2[name].value)
            np.testing.assert_array_equal(s1[name].value, t1[name].value)
