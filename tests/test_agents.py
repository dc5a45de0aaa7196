"""Agent network forward pass and action selection."""

import numpy as np
import pytest

from hypermix import agents as ag
from hypermix.autodiff import Var
from hypermix.errors import ContractError
from hypermix.nn import ParameterStore
from hypermix.rng import Rng

from _oracles import (agent_forward_reference, select_action_reference,
                      store_values)


def _store(obs_dim=3, n_actions=2, n=2, hidden=4, seed=0):
    store = ParameterStore()
    ag.init_agent_params(store, obs_dim, n_actions, n, Rng(seed), hidden=hidden)
    return store


class TestAgentForward:
    def test_zero_params_give_zero_q(self):
        store = _store()
        store.value = np.zeros_like(store.value)
        inputs = ag.build_agent_inputs(np.ones((2, 3)), [-1, -1], 2)
        q, h = ag.agent_forward(store.bind(None), Var(inputs),
                                np.zeros((2, 4)))
        np.testing.assert_array_equal(q.value, np.zeros((2, 2)))
        assert np.isfinite(h.value).all()

    def test_deterministic_repeat(self):
        store = _store(seed=3)
        inputs = ag.build_agent_inputs(Rng(1).normal((2, 3)), [1, 0], 2)
        hidden = np.zeros((2, 4))
        q1, h1 = ag.agent_forward(store.bind(None), Var(inputs), hidden)
        q2, h2 = ag.agent_forward(store.bind(None), Var(inputs), hidden)
        np.testing.assert_array_equal(q1.value, q2.value)
        np.testing.assert_array_equal(h1.value, h2.value)

    def test_matches_straight_line_reference(self):
        rng = Rng(7)
        store = _store(obs_dim=4, n_actions=3, n=2, hidden=5, seed=11)
        params = store_values(store)
        hidden = rng.normal((2, 5))
        inputs = ag.build_agent_inputs(rng.normal((2, 4)), [2, 0], 3)
        q, h = ag.agent_forward(store.bind(None), Var(inputs), Var(hidden))
        q_ref, h_ref = agent_forward_reference(params, inputs, hidden)
        np.testing.assert_allclose(q.value, q_ref, atol=1e-12)
        np.testing.assert_allclose(h.value, h_ref, atol=1e-12)

    def test_no_state_is_the_zero_state_of_the_store_width(self):
        store = _store(hidden=5, seed=4)
        pv = store.bind(None)
        inputs = Var(Rng(3).normal((3 * 2, 3 + 2 + 2)))
        q, h = ag.agent_forward(pv, inputs, steps=3)
        q0, h0 = ag.agent_forward(pv, inputs, np.zeros((2, 5)), 3)
        assert q.value.tobytes() == q0.value.tobytes()
        assert h.value.shape == (6, 5)
        assert h.value.tobytes() == h0.value.tobytes()

    def test_hidden_state_carries_history(self):
        store = _store(seed=5)
        pv = store.bind(None)
        inputs = ag.build_agent_inputs(np.ones((2, 3)), [-1, -1], 2)
        _, h1 = ag.agent_forward(pv, Var(inputs), np.zeros((2, 4)))
        q_a, _ = ag.agent_forward(pv, Var(inputs), h1)
        q_b, _ = ag.agent_forward(pv, Var(inputs), np.zeros((2, 4)))
        assert not np.array_equal(q_a.value, q_b.value)

    @pytest.mark.parametrize("rows,hidden", [(1, 4), (3, 64), (6, 64),
                                             (128, 64)])
    def test_sequence_call_matches_chained_steps(self, rows, hidden):
        # the agent that learns (one T-step call) and the agent that acts
        # (one call per step) are the same network: a product over T*R rows
        # may round a row differently from one over R rows, by far less than
        # this tolerance
        steps, obs_dim, n_actions = 5, 4, 3
        store = _store(obs_dim=obs_dim, n_actions=n_actions, n=rows,
                       hidden=hidden, seed=9)
        pv = store.bind(None)
        inputs = Rng(2).normal((steps * rows, obs_dim + n_actions + rows))
        q, h = ag.agent_forward(pv, Var(inputs), np.zeros((rows, hidden)),
                                steps)
        carried = np.zeros((rows, hidden))
        for t in range(steps):
            q_t, carried = ag.agent_forward(
                pv, Var(inputs[t * rows:(t + 1) * rows]), carried)
            np.testing.assert_allclose(q.value[t * rows:(t + 1) * rows],
                                       q_t.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h.value[-rows:], carried.value, rtol=0,
                                   atol=1e-12)


class TestBuildInputs:
    def test_layout_obs_lastaction_id(self):
        obs = np.array([[0.1, 0.2], [0.3, 0.4]])
        rows = ag.build_agent_inputs(obs, [1, 0], 3)
        np.testing.assert_array_equal(rows[0], [0.1, 0.2, 0, 1, 0, 1, 0])
        np.testing.assert_array_equal(rows[1], [0.3, 0.4, 1, 0, 0, 0, 1])

    def test_episode_start_has_zero_action_block(self):
        rows = ag.build_agent_inputs(np.zeros((2, 2)), [-1, -1], 3)
        assert rows[:, 2:5].sum() == 0.0
        assert rows[0, 5] == 1.0 and rows[1, 6] == 1.0

    def test_leading_axes_stack_the_rows_of_each_index(self):
        obs = Rng(4).normal((3, 2, 2, 5))
        last = np.array([-1, 0, 2, 1, -1, 2, 0, 0, 1, -1, -1, 2]).reshape(3, 2, 2)
        rows = ag.build_agent_inputs(obs, last, 3)
        assert rows.shape == (3, 2, 2, 10) and rows.flags.c_contiguous
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(
                rows[idx], ag.build_agent_inputs(obs[idx], last[idx], 3))


def _rows(*rows):
    return np.array(rows, dtype=np.float64)


def _all_available(rows, actions=3):
    return np.ones((rows, actions), dtype=bool)


class TestSelectAction:
    def test_greedy_argmax(self):
        assert ag.select_action(_rows([1.0, 5.0, 3.0]), _all_available(1),
                                0.0).tolist() == [1]

    def test_masked_argmax(self):
        mask = np.array([[True, False, True]])
        assert ag.select_action(_rows([1.0, 5.0, 3.0]), mask,
                                0.0).tolist() == [2]

    def test_unavailable_never_chosen_under_full_exploration(self):
        mask = np.tile([True, False, True, True], (500, 1))
        picks = set(ag.select_action(np.zeros((500, 4)), mask, 1.0,
                                     Rng(8)).tolist())
        assert 1 not in picks and picks == {0, 2, 3}

    def test_uniform_exploration_frequencies_within_3_sigma(self):
        draws = 100_000
        q = np.tile([9.0, 1.0, 1.0], (draws, 1))
        picks = ag.select_action(q, _all_available(draws), 1.0, Rng(9))
        counts = np.bincount(picks, minlength=3)
        p = 1.0 / 3.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert (np.abs(counts - draws * p) <= 3 * sigma).all()

    def test_empty_mask_is_contract_error(self):
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(ContractError):
            ag.select_action(np.zeros((2, 3)), mask, 0.0)

    def test_tie_breaks_to_lowest_index(self):
        assert ag.select_action(_rows([2.0, 2.0, 1.0]), _all_available(1),
                                0.0).tolist() == [0]

    def test_greedy_is_permutation_equivariant(self):
        rng = Rng(10)
        rows = 200
        q = rng.normal((rows, 5))
        mask = rng.uniform(0, 1, (rows, 5)) > 0.3
        mask[~mask.any(axis=1), 0] = True
        # make each masked argmax unique so the permuted pick must follow it
        q[np.arange(rows), mask.argmax(axis=1)] += 10.0
        pick = ag.select_action(q, mask, 0.0)
        perm = np.array([rng.permutation(5) for _ in range(rows)])
        pick_p = ag.select_action(np.take_along_axis(q, perm, axis=1),
                                  np.take_along_axis(mask, perm, axis=1), 0.0)
        np.testing.assert_array_equal(perm[np.arange(rows), pick_p], pick)


class TestSelectActionMatchesReference:
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_rows_match_per_agent_chooser_and_its_draws(self, epsilon):
        data = Rng(12)
        for trial in range(60):
            rows = 1 + data.integers(8)
            # integer values make ties common
            q = np.round(2.0 * data.normal((rows, 4)))
            mask = data.uniform(0, 1, (rows, 4)) > 0.4
            mask[~mask.any(axis=1), data.integers(4)] = True
            rng, ref_rng = Rng(trial).split("x"), Rng(trial).split("x")
            want = [select_action_reference(q[r], mask[r], epsilon, ref_rng)
                    for r in range(rows)]
            got = ag.select_action(q, mask, epsilon, rng)
            assert got.tolist() == want
            assert rng.random() == ref_rng.random()
            if epsilon == 0.0:
                assert ag.select_action(q, mask, 0.0).tolist() == want


class TestGreedyActions:
    def test_rowwise_masked_argmax(self):
        q = np.array([[1.0, 5.0, 3.0], [9.0, 0.0, 2.0]])
        avail = np.array([[True, False, True], [False, True, True]])
        np.testing.assert_array_equal(ag.select_action(q, avail, 0.0), [2, 2])


class TestMaskDeadAgent:
    def test_two_dead_agents_have_identical_generator_rows(self):
        from hypermix.hypergraph import build_hypergraph_rows
        rng = Rng(11)
        gen_w = rng.normal((4, 3))
        gen_b = rng.normal((1, 3))
        obs = rng.normal((3, 4))
        obs[[0, 2]] = -1.0  # the corridor's dead-agent mask value
        H, _ = build_hypergraph_rows(obs, gen_w, gen_b, 3)
        np.testing.assert_array_equal(H.value[0, :3], H.value[2, :3])
