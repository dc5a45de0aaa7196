"""Mixing heads: values, monotonicity, IGM, ablation equivalence, gradients."""

import numpy as np
import pytest

import hypermix.autodiff as ad
import hypermix.hypergraph as hg
import hypermix.mixers as mx
from hypermix.autodiff import Var
from hypermix.errors import ConfigError
from hypermix.mixers import (MIXER_KINDS, igm_check,
                             init_mixer_params, make_qtot_fn, mix_batch,
                             state_module, validate_mixer_kind, vdn_mix)
from hypermix.nn import ParameterStore
from hypermix.rng import Rng

from _helpers import (assert_grad_close, composite_param_grads,
                      composite_qtot_value, tiny_mixer_store)
from _oracles import elu as elu_ref
from _oracles import hgcn_mix_reference, state_module_reference, store_values


def _mixer_store(kind, n=2, obs_dim=3, state_dim=2, m=2, embed=3, seed=0,
                 hypernet_hidden=4):
    store = ParameterStore()
    init_mixer_params(store, kind, n, obs_dim, state_dim, Rng(seed),
                      hyperedges=m, embed=embed,
                      hypernet_hidden=hypernet_hidden)
    return store


def _zero_state_module(store):
    for name, p in store.items():
        if name.startswith("mix.hyper") or name.startswith("mix.v"):
            p.value = np.zeros_like(p.value)


class TestVdn:
    def test_sum(self):
        out = vdn_mix(np.array([[1.0, 2.0, 3.0]]))
        assert out.value[0, 0] == 6.0

    def test_zeros(self):
        assert vdn_mix(np.zeros((1, 4))).value[0, 0] == 0.0

    def test_unit_partials(self):
        out, tape, (q,) = ad.evaluate(lambda v: vdn_mix(v), np.ones((1, 3)))
        ad.gradient(tape, out)
        np.testing.assert_array_equal(q.grad, np.ones((1, 3)))


class TestStateModule:
    def test_all_zero_hypernets_give_zero(self):
        store = _mixer_store("qmix")
        _zero_state_module(store)
        rng = Rng(1)
        for _ in range(10):
            out = state_module(Var(rng.normal((1, 2))), rng.normal((1, 2)),
                               store.bind(None), n_agents=2, embed=3)
            assert out.value[0, 0] == 0.0

    def test_forced_unit_weights_reduce_to_elu(self):
        # n = 1, embed = 1: generated w1 = w2 = 1, biases/V zero -> elu(q)
        store = _mixer_store("qmix", n=1, state_dim=2, embed=1)
        _zero_state_module(store)
        store["mix.hyper_w1.fc2.b"].value = np.ones((1, 1))
        store["mix.hyper_w2.fc2.b"].value = np.ones((1, 1))
        for q in (-2.0, -0.5, 0.0, 0.7, 3.0):
            out = state_module(Var([[q]]), np.zeros((1, 2)), store.bind(None),
                               n_agents=1, embed=1)
            assert out.value[0, 0] == pytest.approx(float(elu_ref(q)),
                                                    abs=1e-12)

    def test_matches_reference_implementation(self):
        rng = Rng(2)
        store = _mixer_store("qmix", n=3, state_dim=4, embed=5, seed=9)
        params = store_values(store)
        for _ in range(50):
            q = rng.normal((1, 3))
            s = rng.normal((1, 4))
            out = state_module(Var(q), s, store.bind(None), 3, 5)
            ref = state_module_reference(params, q.ravel(), s, 3, 5)
            assert out.value[0, 0] == pytest.approx(ref, abs=1e-10)

    def test_finite_difference_monotonicity(self):
        rng = Rng(3)
        h = 1e-6
        store = _mixer_store("qmix", n=3, state_dim=4, embed=5, seed=4)
        params = store_values(store)
        for _ in range(100):
            q = rng.normal((3,)).ravel()
            s = rng.normal((1, 4))
            base = state_module_reference(params, q, s, 3, 5)
            for i in range(3):
                qp = q.copy()
                qp[i] += h
                up = state_module_reference(params, qp, s, 3, 5)
                assert (up - base) / h >= -1e-9

    def test_batched_rows_match_per_sample(self):
        rng = Rng(4)
        store = _mixer_store("qmix", n=2, state_dim=3, embed=4, seed=5)
        q = rng.normal((6, 2))
        s = rng.normal((6, 3))
        batched = state_module(Var(q), s, store.bind(None), 2, 4)
        for i in range(6):
            single = state_module(Var(q[i:i + 1]), s[i:i + 1],
                                  store.bind(None), 2, 4)
            assert batched.value[i, 0] == pytest.approx(
                single.value[0, 0], abs=1e-12)


class TestHgcnMixHead:
    def test_onehot_variant_equals_state_module_on_raw_q(self):
        rng = Rng(5)
        store = _mixer_store("hgcn-mix-oh", n=3, state_dim=4, embed=4, seed=6)
        for _ in range(50):
            q = rng.normal((3, 1))
            s = rng.normal((1, 4))
            qtot = mix_batch("hgcn-mix-oh", store.bind(None), Var(q), None, s,
                             3, 4)
            direct = state_module(Var(q.T), s, store.bind(None), 3, 4)
            assert qtot.value[0, 0] == direct.value[0, 0]  # bit-exact

    def test_zero_q_zero_params_give_zero(self):
        store = _mixer_store("hgcn-mix", n=2, obs_dim=3, state_dim=2)
        _zero_state_module(store)
        qtot = mix_batch("hgcn-mix", store.bind(None), Var(np.zeros((2, 1))),
                         Rng(0).normal((2, 3)), np.zeros((1, 2)), 2, 3)
        assert qtot.value[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["hgcn-mix", "hgcn-mix-oh"])
    def test_no_cache_grows_with_sample_count(self, kind):
        store = _mixer_store(kind, n=3, obs_dim=4, state_dim=3, seed=8)
        caches = [f for module in (hg, mx) for f in vars(module).values()
                  if hasattr(f, "cache_info")]
        for f in caches:
            f.cache_clear()

        def sizes_after(counts):
            rng = Rng(9)
            for S in counts:
                mix_batch(kind, store.bind(None), Var(rng.normal((S * 3, 1))),
                          rng.normal((S * 3, 4)), rng.normal((S, 3)), 3, 3)
            return [f.cache_info().currsize for f in caches]

        assert sizes_after(range(1, 5)) == sizes_after(range(5, 80))

    def test_matches_component_oracle_composition(self):
        rng = Rng(6)
        store = _mixer_store("hgcn-mix", n=3, obs_dim=4, state_dim=3, m=2,
                             embed=4, seed=7)
        params = store_values(store)
        for _ in range(50):
            q = rng.normal((3, 1))
            Z = rng.normal((3, 4))
            s = rng.normal((1, 3))
            qtot = mix_batch("hgcn-mix", store.bind(None), Var(q), Z, s, 3, 4)
            ref = hgcn_mix_reference(params, q, Z, s, 3, 4)
            assert qtot.value[0, 0] == pytest.approx(ref, abs=1e-9)

    def test_mix_batch_matches_single_sample_head(self):
        rng = Rng(7)
        n, m, embed = 2, 2, 3
        for kind in MIXER_KINDS:
            store, dims = tiny_mixer_store(kind, n=n, hyperedges=m, embed=embed)
            S = 5
            chosen = rng.normal((S * n, 1))
            Z = rng.normal((S * n, dims["obs_dim"]))
            s = rng.normal((S, dims["state_dim"]))
            qtot = mix_batch(kind, store.bind(None), Var(chosen), Z, s, n,
                             embed)
            for i in range(S):
                fn = make_qtot_fn(kind, store, Z[i * n:(i + 1) * n], s[i], n,
                                  embed)
                assert qtot.value[i, 0] == pytest.approx(
                    fn(chosen[i * n:(i + 1) * n].ravel()), abs=1e-10)


class TestIgmCheck:
    def test_vdn_always_satisfies_igm(self):
        rng = Rng(9)
        for _ in range(100):
            tables = rng.normal((3, 3))
            fn = lambda chosen: float(np.sum(chosen))
            assert igm_check(fn, tables)

    def test_monotone_mixers_satisfy_igm_on_random_instances(self):
        rng = Rng(10)
        for kind in ("qmix", "hgcn-mix", "hgcn-mix-oh"):
            store, dims = tiny_mixer_store(kind, n=3, obs_dim=3, state_dim=2,
                                           n_actions=3, hyperedges=2, embed=3,
                                           seed=11)
            for trial in range(100):
                tables = rng.normal((3, 3)) * 3.0
                Z = rng.normal((3, 3))
                s = rng.normal((1, 2))
                fn = make_qtot_fn(kind, store, Z, s, 3, dims["embed"])
                assert igm_check(fn, tables), f"{kind} trial {trial}"

    def test_adversarial_negated_weight_fails(self):
        fn = lambda chosen: float(-np.sum(chosen))
        tables = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert not igm_check(fn, tables)

    def test_refuses_oversized_joint_space(self):
        with pytest.raises(ValueError, match="joint space"):
            igm_check(lambda c: 0.0, np.zeros((8, 9)))


class TestAblationEquivalence:
    def test_onehot_variant_equals_qmix_with_shared_state_params(self):
        # same init seed -> identical state-module parameters
        rng = Rng(12)
        qmix_store = _mixer_store("qmix", n=3, obs_dim=4, state_dim=3,
                                  embed=4, seed=13)
        oh_store = _mixer_store("hgcn-mix-oh", n=3, obs_dim=4, state_dim=3,
                                embed=4, seed=13)
        for name, p in qmix_store.items():
            np.testing.assert_array_equal(p.value, oh_store[name].value)
        for _ in range(200):
            q = rng.normal((3, 1))
            s = rng.normal((1, 3))
            qmix_fn = make_qtot_fn("qmix", qmix_store, None, s, 3, 4)
            oh_fn = make_qtot_fn("hgcn-mix-oh", oh_store, None, s, 3, 4)
            assert abs(qmix_fn(q.ravel()) - oh_fn(q.ravel())) <= 1e-12


class TestEndToEndGradients:
    @pytest.mark.parametrize("kind", MIXER_KINDS)
    def test_qtot_parameter_gradients_match_finite_diff(self, kind):
        rng = Rng(14)
        store, dims = tiny_mixer_store(kind, seed=15)
        Z = rng.normal((dims["n"], dims["obs_dim"]))
        s = rng.normal((1, dims["state_dim"]))
        actions = [rng.integers(dims["n_actions"]) for _ in range(dims["n"])]
        grads = composite_param_grads(store, kind, Z, s, actions, dims)
        h = 1e-5
        for name in store.names():
            base = store[name].value
            fd = np.zeros_like(base)
            flat = base.ravel()
            fd_flat = fd.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = composite_qtot_value(store, kind, Z, s, actions, dims)
                flat[i] = orig - h
                down = composite_qtot_value(store, kind, Z, s, actions, dims)
                flat[i] = orig
                fd_flat[i] = (up - down) / (2 * h)
            assert_grad_close(grads[name], fd, label=f"{kind}:{name}")


class TestKindValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown mixer"):
            validate_mixer_kind("qplex")

    def test_vdn_adds_no_parameters(self):
        store = _mixer_store("vdn")
        assert len(store) == 0
