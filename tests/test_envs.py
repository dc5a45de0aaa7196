"""Environment contracts, dynamics, and brute-force optimal returns."""

import hashlib

import numpy as np
import pytest

from hypermix.envs import (BRANCH_A_PAYOFF, BRANCH_B_PAYOFF, CLIMBING_PAYOFF,
                           LazyCoordinationGrid, OneStepMatrixGame,
                           TwoStepGame, brute_force_optimal, draw_layouts,
                           make_env)
from hypermix.errors import ConfigError, ContractError
from hypermix.rng import Rng
from hypermix.training import collect_episode

from _helpers import tiny_mixer_store
from _oracles import (enumerate_matrix_policies, enumerate_two_step_policies,
                      grid_joint_bfs)


def assert_step_refuses_masked_actions(env, avail):
    """The next step enforces ``avail``, the masks of every episode, all of
    them running: each action it rules out is refused, naming its episode
    and agent, with every other agent of every episode on STAY, which is
    always available. A refused step changes no episode, so the caller's
    trajectories go on unaltered."""
    before = env.observe()
    for episode, agent, action in zip(*np.nonzero(~avail)):
        acts = np.zeros(avail.shape[:2], dtype=int)
        acts[episode, agent] = action
        with pytest.raises(ContractError,
                           match=f"^episode {episode} agent {agent} chose"
                                 f" unavailable action {action}$"):
            env.step(acts)
    for seen, now in zip(before, env.observe()):
        np.testing.assert_array_equal(seen, now)


ENV_CONFIGS = {
    "matrix_game": {"name": "matrix_game"},
    "two_step": {"name": "two_step"},
    "frozen_grid": {"name": "grid", "n_agents": 3, "length": 4,
                    "freeze": True},
}


@pytest.mark.parametrize("name", sorted(ENV_CONFIGS))
class TestContract:
    """reset(layouts) -> None starts K = len(layouts) episodes, observe() ->
    (obs, state, avail) of all K and step(actions) -> (reward, terminated)
    of the R running ones, the same for every environment."""

    def check_observation(self, env, k):
        spec = env.spec
        obs, state, avail = env.observe()
        # int8 entries of -1, 0 or 1: the learner computes in float64
        assert obs.dtype == np.int8 and obs.shape == (k, spec.n_agents,
                                                       spec.obs_dim)
        assert state.dtype == np.int8 and state.shape == (k, spec.state_dim)
        assert np.isin(obs, (-1, 0, 1)).all() and np.isin(state, (-1, 0, 1)).all()
        assert avail.dtype == bool and avail.shape == (k, spec.n_agents,
                                                       spec.n_actions)
        assert avail.any(axis=2).all()
        return avail

    def test_observe_and_step_types_match_the_spec(self, name):
        env = make_env(ENV_CONFIGS[name])
        rng = Rng(11)
        for k in (1, 5):
            layouts = draw_layouts(env, [rng.split(f"reset{k}.{e}")
                                         for e in range(k)])
            assert env.reset(layouts) is None
            running = np.arange(k)
            while running.size:
                avail = self.check_observation(env, k)[running]
                acts = [[int(np.flatnonzero(row)[-1]) for row in agents]
                        for agents in avail]
                reward, terminated = env.step(acts)
                assert reward.dtype == np.float64 and terminated.dtype == bool
                assert reward.shape == terminated.shape == running.shape
                running = running[~terminated]
            self.check_observation(env, k)

    def test_draw_layouts_gives_one_row_per_stream(self, name):
        # the corridor's rows are n positions then n targets; the games have
        # one layout each and leave the streams unread
        env = make_env(ENV_CONFIGS[name])
        streams = [Rng(k) for k in range(4)]
        layouts = draw_layouts(env, streams)
        if isinstance(env, LazyCoordinationGrid):
            assert layouts.shape == (4, 2, env.spec.n_agents)
            assert ((0 <= layouts) & (layouts < env.length)).all()
        else:
            assert layouts.shape == (4, 0)
            assert [r.random() for r in streams] == [Rng(k).random()
                                                     for k in range(4)]

    def test_trailing_slot_is_observe_after_the_last_step(self, name):
        env = make_env(ENV_CONFIGS[name])
        spec = env.spec
        store, _ = tiny_mixer_store("vdn", n=spec.n_agents,
                                    obs_dim=spec.obs_dim,
                                    state_dim=spec.state_dim,
                                    n_actions=spec.n_actions)
        ep = collect_episode(env, store, 1.0, Rng(4).split("env"),
                             Rng(4).split("explore"))
        assert ep.terminated[ep.length - 1]
        (obs,), (state,), (avail,) = env.observe()
        np.testing.assert_array_equal(ep.obs[ep.length], obs)
        np.testing.assert_array_equal(ep.state[ep.length], state)
        np.testing.assert_array_equal(ep.avail[ep.length], avail)
        if name == "two_step":
            # the episode is over: no phase is tagged
            assert not obs.any() and not state.any()

    def test_step_after_the_end_is_contract_error(self, name):
        env = make_env(ENV_CONFIGS[name])
        n = env.spec.n_agents
        with pytest.raises(ContractError, match="finished episode"):
            env.step([0] * n)  # before any reset
        env.reset(draw_layouts(env, [Rng(2), Rng(3)]))
        running = 2
        while running:
            _, terminated = env.step(np.zeros((running, n), dtype=int))
            running -= int(terminated.sum())
        with pytest.raises(ContractError, match="finished episode"):
            env.step([0] * n)


class TestMatrixGame:
    def test_reset_gives_id_onehots_and_unit_state(self):
        env = OneStepMatrixGame()
        env.reset(draw_layouts(env, [Rng(0), Rng(1)]))
        obs, state, _ = env.observe()
        np.testing.assert_array_equal(obs, [np.eye(2), np.eye(2)])
        np.testing.assert_array_equal(state, [[1.0], [1.0]])

    def test_climbing_payoff_step(self):
        env = OneStepMatrixGame()
        env.reset(draw_layouts(env, [Rng(0)]))
        reward, terminated = env.step([[0, 0]])
        assert reward.tolist() == [11.0] and terminated.tolist() == [True]

    def test_all_cells_match_configured_payoff(self):
        payoff = np.asarray(CLIMBING_PAYOFF)
        env = OneStepMatrixGame()
        env.reset(draw_layouts(env, [Rng(k) for k in range(9)]))
        cells = [[a0, a1] for a0 in range(3) for a1 in range(3)]
        np.testing.assert_array_equal(env.step(cells)[0], payoff.ravel())

    def test_step_after_done_is_contract_error(self):
        env = OneStepMatrixGame()
        env.reset(draw_layouts(env, [Rng(0)]))
        env.step([[0, 0]])
        with pytest.raises(ContractError):
            env.step([[0, 0]])

    def test_three_agent_payoff_tensor(self):
        payoff = np.arange(8.0).reshape(2, 2, 2)
        env = OneStepMatrixGame(payoff)
        assert env.spec.n_agents == 3
        env.reset(draw_layouts(env, [Rng(0)]))
        assert env.step([[1, 0, 1]])[0].tolist() == [payoff[1, 0, 1]]

    def test_rejects_ragged_payoff(self):
        with pytest.raises(ConfigError):
            OneStepMatrixGame(np.zeros((3, 2)))

    def test_one_agent_game_is_valid(self):
        env = OneStepMatrixGame([1, 2])
        assert (env.spec.n_agents, env.spec.n_actions) == (1, 2)
        assert brute_force_optimal(env) == 2.0

    @pytest.mark.parametrize("payoff", [
        [[1, True], [0, 0]], [[1.0, "2"], [0, 0]], np.eye(2, dtype=bool),
        np.array([[1.0, -np.inf], [0.0, 0.0]]), [[1, None], [0, 0]],
    ])
    def test_rejects_entries_that_are_not_finite_numbers(self, payoff):
        with pytest.raises(ConfigError,
                           match="^payoff entries must be finite numbers"):
            OneStepMatrixGame(payoff)

    def test_integer_payoff_loads_as_floats(self):
        env = OneStepMatrixGame(np.array([[1, 2], [3, 4]]))
        assert env.payoff.dtype == np.float64
        assert brute_force_optimal(env) == 4.0


class TestTwoStepGame:
    def test_reset_state_tag_is_first(self):
        env = TwoStepGame()
        env.reset(draw_layouts(env, [Rng(0)]))
        (obs,), (state,), _ = env.observe()
        np.testing.assert_array_equal(state, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(obs[0], obs[1])

    def test_branch_a_pays_seven(self):
        env = TwoStepGame()
        env.reset(draw_layouts(env, [Rng(0)]))
        reward, terminated = env.step([[0, 1]])
        assert (reward.tolist(), terminated.tolist()) == ([0.0], [False])
        np.testing.assert_array_equal(env.observe()[1], [[0.0, 1.0, 0.0]])
        reward, terminated = env.step([[1, 0]])
        assert (reward.tolist(), terminated.tolist()) == ([7.0], [True])

    def test_branch_b_payoff_matrix(self):
        expected = [[0.0, 1.0], [1.0, 8.0]]
        env = TwoStepGame()
        env.reset(draw_layouts(env, [Rng(k) for k in range(4)]))
        env.step([[1, 0]] * 4)  # agent 0 commits to branch B
        cells = [[a0, a1] for a0 in range(2) for a1 in range(2)]
        np.testing.assert_array_equal(env.step(cells)[0],
                                      np.ravel(expected))

    def test_second_agent_cannot_pick_branch(self):
        env = TwoStepGame()
        env.reset(draw_layouts(env, [Rng(0), Rng(1)]))
        env.step([[0, 1], [1, 0]])  # agent 1's action must not matter
        np.testing.assert_array_equal(env.observe()[1], [[0.0, 1.0, 0.0],
                                                         [0.0, 0.0, 1.0]])


class TestGrid:
    def test_fixed_seed_identical_start_layout(self):
        layouts = []
        for _ in range(2):
            env = LazyCoordinationGrid(n_agents=3, length=5)
            env.reset(draw_layouts(env, [Rng(99).split("env")]))
            obs, state, _ = env.observe()
            layouts.append((obs.copy(), state.copy()))
        np.testing.assert_array_equal(layouts[0][0], layouts[1][0])
        np.testing.assert_array_equal(layouts[0][1], layouts[1][1])

    def test_reset_draws_each_layout_from_its_own_stream(self):
        # five streams drawn together give the layouts of five one-stream
        # draws, and leave each stream where a lone draw leaves it
        env = LazyCoordinationGrid(n_agents=3, length=5)
        together = [Rng(7).split(f"ep{k}") for k in range(5)]
        env.reset(draw_layouts(env, together))
        layouts = env.observe()[1]
        alone = [Rng(7).split(f"ep{k}") for k in range(5)]
        for k, rng in enumerate(alone):
            env.reset(draw_layouts(env, [rng]))
            np.testing.assert_array_equal(env.observe()[1], layouts[k:k + 1])
        assert [r.random() for r in together] == [r.random() for r in alone]

    @pytest.mark.parametrize("layouts, message", [
        # a negative position wrapped round to the last cell, with the
        # frozen agent's STAY-only mask
        ([[[-1], [0]]], r"episode 0 agent 0: position -1 is outside \[0, 3\)"),
        # a position past the corridor failed only at observe, as IndexError
        ([[[3], [0]]], r"episode 0 agent 0: position 3 is outside \[0, 3\)"),
        (np.zeros((1, 2, 1)), r"integer \(K, 2, 1\) array, got float64"),
        (np.zeros((1, 2, 2), dtype=int), r"\(K, 2, 1\) array, got int64 \(1, 2, 2\)"),
        (np.zeros((2, 1), dtype=int), r"\(K, 2, 1\) array, got int64 \(2, 1\)"),
    ], ids=["negative", "past-the-end", "float", "two-agents", "flat"])
    def test_reset_refuses_layouts_off_the_corridor(self, layouts, message):
        env = LazyCoordinationGrid(n_agents=1, length=3)
        with pytest.raises(ContractError, match=message):
            env.reset(np.array(layouts))

    def test_reset_names_the_first_bad_episode_and_agent(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        layouts = np.zeros((3, 2, 2), dtype=np.int8)
        layouts[2, 1, 1] = layouts[2, 0, 0] = 4
        with pytest.raises(ContractError, match=r"^episode 2 agent 0: position 4"):
            env.reset(layouts)
        layouts[2, 0, 0] = 3
        with pytest.raises(ContractError, match=r"^episode 2 agent 1: target 4"):
            env.reset(layouts)
        # every layout of the corridor, and drawn ones, pass
        env = LazyCoordinationGrid(n_agents=3, length=4)
        env.reset(np.indices((4,) * 6).reshape(6, -1).T.reshape(-1, 2, 3))
        assert env.observe()[1].shape == (4 ** 6, 3 * 2 * 4)
        env.reset(draw_layouts(env, [Rng(k) for k in range(50)]))

    def test_observation_is_own_position_and_target(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        env.reset(draw_layouts(env, [Rng(1), Rng(2)]))
        obs = env.observe()[0]
        for e in range(2):
            for a in range(2):
                row = obs[e, a]
                assert row[:4].sum() == 1.0 and row[4:].sum() == 1.0
                assert row[env._pos[e, a]] == 1.0
                assert row[4 + env._target[e, a]] == 1.0

    def test_boundary_moves_masked(self):
        env = LazyCoordinationGrid(n_agents=1, length=3)
        env.reset(draw_layouts(env, [Rng(0)]))
        env._pos[0, 0] = 0
        avail = env.observe()[2][0]
        assert avail[0, env.STAY] and not avail[0, env.LEFT] and avail[0, env.RIGHT]
        with pytest.raises(ContractError):
            env.step([[env.LEFT]])

    def test_step_without_observe_checks_the_current_mask(self):
        # with no observe() since reset, step builds the mask of the
        # position it moves from
        env = LazyCoordinationGrid(n_agents=1, length=3)
        env.reset(draw_layouts(env, [Rng(0)]))
        env._pos[0, 0] = 0
        with pytest.raises(ContractError,
                           match="^episode 0 agent 0 chose unavailable"
                                 " action 1$"):
            env.step([[env.LEFT]])
        # the same holds after a step: it drops the mask it checked
        env._target[0, 0] = 2
        env.observe()
        env.step([[env.RIGHT]])
        env._pos[0, 0] = 2
        with pytest.raises(ContractError,
                           match="^episode 0 agent 0 chose unavailable"
                                 " action 2$"):
            env.step([[env.RIGHT]])

    def test_bad_actions_name_the_first_bad_agent(self):
        # out-of-range actions are caught before they index the mask
        env = LazyCoordinationGrid(n_agents=3, length=3)
        env.reset(draw_layouts(env, [Rng(0)]))
        env._pos[:] = 0
        env.observe()
        for acts, bad in (([0, 5, -1], (1, 5)), ([2, 0, -1], (2, -1)),
                          ([1, 3, 0], (0, 1)), ([0, 2, 1], (2, 1))):
            with pytest.raises(ContractError,
                               match=f"^episode 0 agent {bad[0]} chose"
                                     f" unavailable action {bad[1]}$"):
                env.step([acts])
        with pytest.raises(ContractError, match="expected 3 actions, got 2"):
            env.step([[0, 0]])
        reward, terminated = env.step([[0, 2, 2]])
        assert (reward.tolist(), terminated.tolist()) in (([0.0], [False]),
                                                          ([1.0], [True]))
        assert env.observe()[0].shape == (1, 3, 6)

    def test_refusal_names_the_episode_among_all_k(self):
        # episode 0 solves its layout at the first step; at the second, the
        # running episodes are 1 and 2, and a refusal in the second of them
        # names episode 2
        env = LazyCoordinationGrid(n_agents=2, length=3)
        env.reset(draw_layouts(env, [Rng(k) for k in range(3)]))
        env._pos[:] = [[0, 2], [0, 0], [0, 0]]
        env._target[:] = [[1, 2], [2, 2], [2, 2]]
        _, terminated = env.step([[env.RIGHT, env.STAY]] * 3)
        assert terminated.tolist() == [True, False, False]
        env._pos[2, 1] = 2
        with pytest.raises(ContractError,
                           match="^episode 2 agent 1 chose unavailable"
                                 " action 2$"):
            env.step([[env.STAY, env.STAY], [env.STAY, env.RIGHT]])
        reward, terminated = env.step([[env.RIGHT, env.RIGHT],
                                       [env.RIGHT, env.STAY]])
        assert (reward.tolist(), terminated.tolist()) == ([0.0, 1.0],
                                                          [False, True])

    def test_refused_step_at_k3_names_the_middle_episode(self):
        # the masked action sits in the middle episode only: every agent of
        # episodes 0 and 2 can move both ways
        env = LazyCoordinationGrid(n_agents=2, length=4, freeze=True)
        env.reset(draw_layouts(env, [Rng(k) for k in range(3)]))
        env._pos[:] = [[1, 2], [0, 3], [2, 1]]
        env._target[:] = [[0, 0], [2, 1], [3, 3]]
        env._frozen[:] = False
        avail = env.observe()[2]
        assert avail[[0, 2]].all() and not avail[1].all()
        assert_step_refuses_masked_actions(env, avail)

    def test_masks_always_admit_an_action(self):
        rng = Rng(2)
        env = LazyCoordinationGrid(n_agents=3, length=4, freeze=True)
        for _ in range(20):
            env.reset(draw_layouts(env, [rng.split("r")]))
            done = False
            while not done:
                avail = env.observe()[2][0]
                assert avail.any(axis=1).all()
                acts = [int(np.flatnonzero(avail[a])[rng.integers(
                    int(avail[a].sum()))]) for a in range(3)]
                _, (done,) = env.step([acts])

    def test_reward_only_on_simultaneous_targets(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        env.reset(draw_layouts(env, [Rng(3)]))
        env._pos = np.array([[0, 0]])
        env._target = np.array([[1, 0]])
        reward, terminated = env.step([[env.RIGHT, env.STAY]])
        assert (reward.tolist(), terminated.tolist()) == ([1.0], [True])

    def test_partial_arrival_gives_zero(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        env.reset(draw_layouts(env, [Rng(3)]))
        env._pos = np.array([[0, 0]])
        env._target = np.array([[1, 3]])
        reward, terminated = env.step([[env.RIGHT, env.STAY]])
        assert (reward.tolist(), terminated.tolist()) == ([0.0], [False])

    def test_episode_limit_respected(self):
        env = LazyCoordinationGrid(n_agents=2, length=3)
        env.reset(draw_layouts(env, [Rng(4)]))
        env._target = np.array([[0, 2]])
        env._pos = np.array([[2, 0]])
        steps = 0
        done = False
        while not done:
            _, (done,) = env.step([[env.STAY, env.STAY]])  # never succeed
            steps += 1
        assert steps == env.spec.episode_limit

    def test_greedy_policy_reaches_target_within_max_distance(self):
        # joint-state BFS certifies the greedy bound for n<=3, L<=6
        rng = Rng(5)
        for _ in range(30):
            n = 1 + rng.integers(3)
            length = 3 + rng.integers(4)
            env = LazyCoordinationGrid(n_agents=n, length=length)
            env.reset(draw_layouts(env, [rng.split("layout")]))
            pos, target = env._pos[0], env._target[0]
            dist = grid_joint_bfs(length, pos, target, env.spec.episode_limit)
            assert 0 <= dist <= max(abs(p - t) for p, t
                                    in zip(pos, target)) or dist == 0
            steps = 0
            done = False
            while not done:
                acts = []
                for a in range(n):
                    if pos[a] < target[a]:
                        acts.append(env.RIGHT)
                    elif pos[a] > target[a]:
                        acts.append(env.LEFT)
                    else:
                        acts.append(env.STAY)
                (reward,), (done,) = env.step([acts])
                steps += 1
            assert reward == 1.0
            assert steps == max(1, dist)

    def test_freeze_variant_locks_and_masks(self):
        env = LazyCoordinationGrid(n_agents=2, length=4, freeze=True)
        env.reset(draw_layouts(env, [Rng(6)]))
        env._pos = np.array([[1, 0]])
        env._target = np.array([[2, 3]])
        env._frozen = np.zeros((1, 2), dtype=bool)
        env.step([[env.RIGHT, env.STAY]])  # agent 0 arrives and freezes
        (obs,), _, (avail,) = env.observe()
        np.testing.assert_array_equal(obs[0], np.full(8, -1.0))
        assert (obs[1] != -1.0).all()
        assert avail[0].tolist() == [True, False, False]
        # frozen agents ignore nothing: only stay is available
        env.step([[env.STAY, env.RIGHT]])
        assert env._pos[0, 0] == 2

    # sha256 prefixes of 30 episodes' bytes under a fixed random-action
    # stream, taken from the per-agent loop code before the array corridor
    TRAJECTORY_DIGESTS = {
        (3, False): "cea15841ff6e15e3",
        (3, True): "97a222de1a67251f",
        (8, False): "cf82183ad20d0b89",
        (8, True): "b879036e3b3bfa74",
    }

    @pytest.mark.parametrize("n,freeze", sorted(TRAJECTORY_DIGESTS))
    def test_trajectory_bytes_match_golden(self, n, freeze):
        env = LazyCoordinationGrid(n_agents=n, length=4, freeze=freeze)
        reset_rng, act_rng = Rng(5).split("reset"), Rng(5).split("act")
        h = hashlib.sha256()

        def feed(*arrays):
            for a in map(np.asarray, arrays):
                h.update(f"{a.dtype}{a.shape}".encode())
                h.update(a.tobytes())

        def observe():
            # the digests hash float64 observations and states: the values
            # stay checked against the per-agent reference
            (obs,), (state,), (avail,) = env.observe()
            assert obs.dtype == state.dtype == np.int8
            return obs.astype(np.float64), state.astype(np.float64), avail

        for _ in range(30):
            env.reset(draw_layouts(env, [reset_rng]))
            obs, state, avail = observe()
            feed(obs, state, avail)
            terminated = False
            while not terminated:
                assert_step_refuses_masked_actions(env, avail[None])
                acts = [int(np.flatnonzero(row)[act_rng.integers(int(row.sum()))])
                        for row in avail]
                (reward,), (terminated,) = env.step([acts])
                obs, state, avail = observe()
                feed(obs, state, avail, reward, terminated)
        assert h.hexdigest()[:16] == self.TRAJECTORY_DIGESTS[n, freeze]


class TestBruteForceOptimal:
    def test_matrix_game_matches_enumeration(self):
        env = OneStepMatrixGame()
        assert brute_force_optimal(env) == enumerate_matrix_policies(
            CLIMBING_PAYOFF)
        assert brute_force_optimal(env) == 11.0

    def test_all_zero_payoff_is_zero(self):
        env = OneStepMatrixGame(np.zeros((2, 2)))
        assert brute_force_optimal(env) == 0.0

    def test_two_step_matches_policy_enumeration(self):
        # the first step pays 0 whichever branch agent 0 picks
        cases = [
            (BRANCH_A_PAYOFF, BRANCH_B_PAYOFF, 8.0),
            (((9.0, 0.0), (2.0, 3.0)), ((1.0, 4.0), (5.0, 8.5)), 9.0),
            (((-5.0, -3.0), (-4.0, -7.0)), ((-2.5, -6.0), (-9.0, -8.0)), -2.5),
        ]
        for payoff_a, payoff_b, best in cases:
            env = TwoStepGame(payoff_a, payoff_b)
            assert brute_force_optimal(env) == enumerate_two_step_policies(
                payoff_a, payoff_b)
            assert brute_force_optimal(env) == best

    def test_grid_always_reachable_at_desk_scale(self):
        env = LazyCoordinationGrid(n_agents=4, length=6)
        assert brute_force_optimal(env) == 1.0

    def test_grid_product_form_agrees_with_joint_bfs(self):
        # every layout solvable within the limit <=> optimum 1.0
        length, n = 4, 2
        env = LazyCoordinationGrid(n_agents=n, length=length)
        limit = env.spec.episode_limit
        all_ok = all(
            0 <= grid_joint_bfs(length, (p0, p1), (t0, t1), limit) <= limit
            or (p0, p1) == (t0, t1)
            for p0 in range(length) for p1 in range(length)
            for t0 in range(length) for t1 in range(length))
        assert all_ok and brute_force_optimal(env) == 1.0

    def test_grid_closed_form_has_no_size_cap(self):
        # 64^9 layouts: the oracle enumerates none of them
        env = LazyCoordinationGrid(n_agents=9, length=8)
        assert brute_force_optimal(env) == 1.0

    def test_one_step_optimum_has_no_size_cap(self):
        # 10^7 joint actions: the optimum is one max over the payoff
        env = OneStepMatrixGame(np.zeros((10,) * 7))
        assert brute_force_optimal(env) == 0.0


class TestSharedRewardContract:
    def test_single_scalar_reward_per_step(self):
        env = TwoStepGame()
        env.reset(draw_layouts(env, [Rng(0), Rng(1)]))
        reward, _ = env.step([[0, 0], [1, 1]])
        assert reward.shape == (2,) and np.isfinite(reward).all()

    def test_determinism_seed_plus_actions(self):
        results = []
        for _ in range(2):
            env = LazyCoordinationGrid(n_agents=2, length=4)
            env.reset(draw_layouts(env, [Rng(77).split("env")]))
            trace = []
            done = False
            while not done:
                (reward,), (done,) = env.step(
                    [[env.STAY, env.RIGHT]] if env.observe()[2][0, 1, env.RIGHT]
                    else [[env.STAY, env.STAY]])
                obs, state, _ = env.observe()
                trace.append((reward, done, obs.copy(), state.copy()))
            results.append(trace)
        assert len(results[0]) == len(results[1])
        for (r1, d1, o1, s1), (r2, d2, o2, s2) in zip(*results):
            assert r1 == r2 and d1 == d2
            np.testing.assert_array_equal(o1, o2)
            np.testing.assert_array_equal(s1, s2)


class TestMakeEnv:
    def test_known_names(self):
        assert isinstance(make_env({"name": "matrix_game"}), OneStepMatrixGame)
        assert isinstance(make_env({"name": "two_step"}), TwoStepGame)
        grid = make_env({"name": "grid", "n_agents": 3, "length": 5})
        assert grid.spec.n_agents == 3

    def test_unknown_name_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown env"):
            make_env({"name": "chess"})

    def test_bad_option_is_config_error(self):
        with pytest.raises(ConfigError, match="grid"):
            make_env({"name": "grid", "n_agents": 3, "width": 9})

    def test_payoff_configurable_as_nested_arrays(self):
        env = make_env({"name": "matrix_game",
                        "payoff": [[1.0, 0.0], [0.0, 2.0]]})
        assert brute_force_optimal(env) == 2.0
