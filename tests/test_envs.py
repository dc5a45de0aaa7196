"""Environment contracts, dynamics, and brute-force optimal returns."""

import hashlib

import numpy as np
import pytest

from hypermix.envs import (BRANCH_A_PAYOFF, BRANCH_B_PAYOFF, CLIMBING_PAYOFF,
                           LazyCoordinationGrid, OneStepMatrixGame,
                           TwoStepGame, brute_force_optimal, make_env)
from hypermix.errors import ConfigError, ContractError
from hypermix.rng import Rng

from _oracles import (enumerate_matrix_policies, enumerate_two_step_policies,
                      grid_joint_bfs)


class TestMatrixGame:
    def test_reset_gives_id_onehots_and_unit_state(self):
        env = OneStepMatrixGame()
        obs, state = env.reset(Rng(0))
        np.testing.assert_array_equal(obs, np.eye(2))
        np.testing.assert_array_equal(state, [1.0])

    def test_climbing_payoff_step(self):
        env = OneStepMatrixGame()
        env.reset(Rng(0))
        res = env.step([0, 0])
        assert res.reward == 11.0 and res.terminated

    def test_all_cells_match_configured_payoff(self):
        payoff = np.asarray(CLIMBING_PAYOFF)
        for a0 in range(3):
            for a1 in range(3):
                env = OneStepMatrixGame()
                env.reset(Rng(0))
                assert env.step([a0, a1]).reward == payoff[a0, a1]

    def test_step_after_done_is_contract_error(self):
        env = OneStepMatrixGame()
        env.reset(Rng(0))
        env.step([0, 0])
        with pytest.raises(ContractError):
            env.step([0, 0])

    def test_three_agent_payoff_tensor(self):
        payoff = np.arange(8.0).reshape(2, 2, 2)
        env = OneStepMatrixGame(payoff)
        assert env.spec.n_agents == 3
        env.reset(Rng(0))
        assert env.step([1, 0, 1]).reward == payoff[1, 0, 1]

    def test_rejects_ragged_payoff(self):
        with pytest.raises(ConfigError):
            OneStepMatrixGame(np.zeros((3, 2)))


class TestTwoStepGame:
    def test_reset_state_tag_is_first(self):
        env = TwoStepGame()
        obs, state = env.reset(Rng(0))
        np.testing.assert_array_equal(state, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(obs[0], obs[1])

    def test_branch_a_pays_seven(self):
        env = TwoStepGame()
        env.reset(Rng(0))
        first = env.step([0, 1])
        assert first.reward == 0.0 and not first.terminated
        np.testing.assert_array_equal(first.state, [0.0, 1.0, 0.0])
        final = env.step([1, 0])
        assert final.reward == 7.0 and final.terminated

    def test_branch_b_payoff_matrix(self):
        expected = [[0.0, 1.0], [1.0, 8.0]]
        for a0 in range(2):
            for a1 in range(2):
                env = TwoStepGame()
                env.reset(Rng(0))
                env.step([1, 0])  # agent 0 commits to branch B
                assert env.step([a0, a1]).reward == expected[a0][a1]

    def test_second_agent_cannot_pick_branch(self):
        env = TwoStepGame()
        env.reset(Rng(0))
        res = env.step([0, 1])  # agent 1's action must not matter
        np.testing.assert_array_equal(res.state, [0.0, 1.0, 0.0])


class TestGrid:
    def test_fixed_seed_identical_start_layout(self):
        layouts = []
        for _ in range(2):
            env = LazyCoordinationGrid(n_agents=3, length=5)
            obs, state = env.reset(Rng(99).split("env"))
            layouts.append((obs.copy(), state.copy()))
        np.testing.assert_array_equal(layouts[0][0], layouts[1][0])
        np.testing.assert_array_equal(layouts[0][1], layouts[1][1])

    def test_observation_is_own_position_and_target(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        obs, _ = env.reset(Rng(1))
        for a in range(2):
            row = obs[a]
            assert row[:4].sum() == 1.0 and row[4:].sum() == 1.0
            assert row[env._pos[a]] == 1.0
            assert row[4 + env._target[a]] == 1.0

    def test_boundary_moves_masked(self):
        env = LazyCoordinationGrid(n_agents=1, length=3)
        env.reset(Rng(0))
        env._pos[0] = 0
        avail = env.avail_actions()
        assert avail[0, env.STAY] and not avail[0, env.LEFT] and avail[0, env.RIGHT]
        with pytest.raises(ContractError):
            env.step([env.LEFT])

    def test_bad_actions_name_the_first_bad_agent(self):
        # out-of-range actions are caught before they index the mask
        env = LazyCoordinationGrid(n_agents=3, length=3)
        env.reset(Rng(0))
        env._pos[:] = 0
        env.avail_actions()
        for acts, bad in (([0, 5, -1], (1, 5)), ([2, 0, -1], (2, -1)),
                          ([1, 3, 0], (0, 1)), ([0, 2, 1], (2, 1))):
            with pytest.raises(ContractError,
                               match=f"^agent {bad[0]} chose unavailable"
                                     f" action {bad[1]}$"):
                env.step(acts)
        with pytest.raises(ContractError, match="expected 3 actions, got 2"):
            env.step([0, 0])
        assert env.step([0, 2, 2]).obs.shape == (3, 6)

    def test_masks_always_admit_an_action(self):
        rng = Rng(2)
        env = LazyCoordinationGrid(n_agents=3, length=4, freeze=True)
        for _ in range(20):
            env.reset(rng.split("r"))
            done = False
            while not done:
                avail = env.avail_actions()
                assert avail.any(axis=1).all()
                acts = [int(np.flatnonzero(avail[a])[rng.integers(
                    int(avail[a].sum()))]) for a in range(3)]
                res = env.step(acts)
                done = res.terminated

    def test_reward_only_on_simultaneous_targets(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        env.reset(Rng(3))
        env._pos = np.array([0, 0])
        env._target = np.array([1, 0])
        res = env.step([env.RIGHT, env.STAY])
        assert res.reward == 1.0 and res.terminated

    def test_partial_arrival_gives_zero(self):
        env = LazyCoordinationGrid(n_agents=2, length=4)
        env.reset(Rng(3))
        env._pos = np.array([0, 0])
        env._target = np.array([1, 3])
        res = env.step([env.RIGHT, env.STAY])
        assert res.reward == 0.0 and not res.terminated

    def test_episode_limit_respected(self):
        env = LazyCoordinationGrid(n_agents=2, length=3)
        env.reset(Rng(4))
        env._target = np.array([0, 2])
        env._pos = np.array([2, 0])
        steps = 0
        done = False
        while not done:
            res = env.step([env.STAY, env.STAY])  # never succeed
            steps += 1
            done = res.terminated
        assert steps == env.spec.episode_limit

    def test_greedy_policy_reaches_target_within_max_distance(self):
        # joint-state BFS certifies the greedy bound for n<=3, L<=6
        rng = Rng(5)
        for _ in range(30):
            n = 1 + rng.integers(3)
            length = 3 + rng.integers(4)
            env = LazyCoordinationGrid(n_agents=n, length=length)
            env.reset(rng.split("layout"))
            dist = grid_joint_bfs(length, env._pos, env._target,
                                  env.spec.episode_limit)
            assert 0 <= dist <= max(abs(p - t) for p, t
                                    in zip(env._pos, env._target)) or dist == 0
            steps = 0
            done = False
            while not done:
                acts = []
                for a in range(n):
                    if env._pos[a] < env._target[a]:
                        acts.append(env.RIGHT)
                    elif env._pos[a] > env._target[a]:
                        acts.append(env.LEFT)
                    else:
                        acts.append(env.STAY)
                res = env.step(acts)
                steps += 1
                done = res.terminated
            assert res.reward == 1.0
            assert steps == max(1, dist)

    def test_freeze_variant_locks_and_masks(self):
        env = LazyCoordinationGrid(n_agents=2, length=4, freeze=True)
        env.reset(Rng(6))
        env._pos = np.array([1, 0])
        env._target = np.array([2, 3])
        env._frozen = np.zeros(2, dtype=bool)
        res = env.step([env.RIGHT, env.STAY])  # agent 0 arrives and freezes
        np.testing.assert_array_equal(res.obs[0], np.full(8, -1.0))
        assert (res.obs[1] != -1.0).all()
        avail = env.avail_actions()
        assert avail[0].tolist() == [True, False, False]
        # frozen agents ignore nothing: only stay is available
        res2 = env.step([env.STAY, env.RIGHT])
        assert env._pos[0] == 2

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

        for _ in range(30):
            obs, state = env.reset(reset_rng)
            avail = env.avail_actions()
            feed(obs, state, avail)
            terminated = False
            while not terminated:
                acts = [int(np.flatnonzero(row)[act_rng.integers(int(row.sum()))])
                        for row in avail]
                res = env.step(acts)
                feed(res.obs, res.state, res.avail, res.reward, res.terminated)
                np.testing.assert_array_equal(env.avail_actions(), res.avail)
                avail, terminated = res.avail, res.terminated
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
        env.reset(Rng(0))
        res = env.step([0, 0])
        assert np.isscalar(res.reward) and np.isfinite(res.reward)

    def test_determinism_seed_plus_actions(self):
        results = []
        for _ in range(2):
            env = LazyCoordinationGrid(n_agents=2, length=4)
            env.reset(Rng(77).split("env"))
            trace = []
            done = False
            while not done:
                res = env.step([env.STAY, env.RIGHT]
                               if env.avail_actions()[1, env.RIGHT]
                               else [env.STAY, env.STAY])
                trace.append((res.reward, res.terminated, res.obs.copy(),
                              res.state.copy()))
                done = res.terminated
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
