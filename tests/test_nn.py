"""Layers, initialization, RMSProp, and checkpoint round-trips."""

from pathlib import Path

import numpy as np
import pytest

import hypermix.autodiff as ad
from hypermix.autodiff import reduce_sum
from hypermix.errors import CheckpointError, ConfigError, TrainingError
from hypermix.nn import (MANIFEST_NAME, ParameterStore, clip_grad_norm,
                         gru_fwd, init_gru, init_linear, init_mlp,
                         load_checkpoint, load_checkpoint_into, mlp_fwd,
                         rmsprop_step, save_checkpoint)
from hypermix.rng import Rng

from _helpers import BAD_MANIFEST_ENTRIES, break_manifest, check_gradients


class TestInitParams:
    def test_linear_shapes_and_bound(self):
        store = ParameterStore()
        init_linear(store, "fc", 4, 2, Rng(0))
        w, b = store["fc.w"].value, store["fc.b"].value
        assert w.shape == (4, 2) and b.shape == (1, 2)
        assert (np.abs(w) < 0.5).all()  # k = 1/sqrt(4)
        assert (b == 0).all()

    def test_same_seed_identical_values(self):
        stores = []
        for _ in range(2):
            s = ParameterStore()
            init_mlp(s, "fc", 5, 7, 3, Rng(42))
            stores.append(s)
        for name in stores[0].names():
            np.testing.assert_array_equal(stores[0][name].value,
                                          stores[1][name].value)

    def test_gru_gate_blocks(self):
        store = ParameterStore()
        init_gru(store, "rnn", 8, 16, Rng(1))
        # three stacked gate blocks per side: 8x16 each and 16x16 each
        assert store["rnn.w_ih"].value.shape == (8, 48)
        assert store["rnn.w_hh"].value.shape == (16, 48)
        assert store["rnn.b_ih"].value.shape == (1, 48)
        assert store["rnn.b_hh"].value.shape == (1, 48)

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        init_linear(store, "fc", 2, 2, Rng(0))
        with pytest.raises(ConfigError, match="duplicate"):
            init_linear(store, "fc", 2, 2, Rng(0))


class TestLayerGradients:
    def test_linear_matches_finite_diff(self):
        rng = Rng(2)
        for _ in range(20):
            x = rng.normal((3, 4))
            w = rng.normal((4, 2))
            b = rng.normal((1, 2))

            def build(xv, wv, bv):
                return reduce_sum(ad.add(ad.matmul(xv, wv), bv))

            check_gradients(build, [x, w, b], label="linear")

    def test_mlp_matches_finite_diff(self):
        rng = Rng(3)
        store = ParameterStore()
        init_mlp(store, "m", 3, 5, 2, Rng(9))
        x = rng.normal((2, 3))
        names = store.names()

        def build(xv, *param_vars):
            pv = dict(zip(names, param_vars))
            return reduce_sum(mlp_fwd(xv, pv, "m"))

        check_gradients(build, [x] + [store[n].value for n in names],
                        label="mlp")

    def test_gru_layer_matches_finite_diff(self):
        rng = Rng(4)
        store = ParameterStore()
        init_gru(store, "g", 3, 4, Rng(8))
        x = rng.normal((2, 3))
        h = rng.normal((2, 4))
        names = store.names()

        def build(xv, hv, *param_vars):
            pv = dict(zip(names, param_vars))
            return reduce_sum(gru_fwd(xv, hv, pv, "g"))

        check_gradients(build, [x, h] + [store[n].value for n in names],
                        label="gru layer")


class TestRmsprop:
    def _scalar_store(self, p, g, v=0.0):
        store = ParameterStore()
        store.add("p", [[p]])
        store["p"].grad = np.array([[g]])
        store["p"].sq_avg = np.array([[v]])
        return store

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = self._scalar_store(1.5, 0.0, v=0.3)
        rmsprop_step(store)
        assert store["p"].value[0, 0] == 1.5

    def test_one_step_arithmetic(self):
        store = self._scalar_store(1.0, 1.0)
        rmsprop_step(store, lr=5e-4, decay=0.99, eps=1e-5)
        assert store["p"].sq_avg[0, 0] == pytest.approx(0.01)
        assert store["p"].value[0, 0] == pytest.approx(0.995000499950005,
                                                       abs=1e-12)

    def test_monotone_descent_on_quadratic(self):
        store = ParameterStore()
        store.add("p", [[3.0]])
        last = 9.0
        for _ in range(100):
            p = store["p"].value[0, 0]
            store["p"].grad = np.array([[2.0 * p]])
            rmsprop_step(store, lr=5e-4)
            f = store["p"].value[0, 0] ** 2
            assert f < last
            last = f

    def test_nonfinite_gradient_names_parameter(self):
        store = self._scalar_store(1.0, np.nan)
        with pytest.raises(TrainingError, match="'p'"):
            rmsprop_step(store)

    def test_shapes_preserved_and_finite(self):
        rng = Rng(5)
        store = ParameterStore()
        store.add("w", rng.normal((4, 3)))
        for _ in range(50):
            store["w"].grad = rng.normal((4, 3)) * 100.0
            rmsprop_step(store)
            assert store["w"].value.shape == (4, 3)
            assert np.isfinite(store["w"].value).all()


class TestClipGradNorm:
    def test_scales_down_large_gradients(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2)))
        store["a"].grad = np.full((2, 2), 10.0)  # norm 20
        norm = clip_grad_norm(store, 10.0)
        assert norm == pytest.approx(20.0)
        assert np.sqrt((store["a"].grad ** 2).sum()) == pytest.approx(10.0)

    def test_leaves_small_gradients_alone(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2)))
        store["a"].grad = np.ones((2, 2))
        clip_grad_norm(store, 10.0)
        np.testing.assert_array_equal(store["a"].grad, np.ones((2, 2)))


class TestStoreLifecycle:
    def test_zero_grads_resets_exactly(self):
        store = ParameterStore()
        store.add("a", np.ones((2, 2)))
        store["a"].grad = np.ones((2, 2))
        store.zero_grads()
        assert (store["a"].grad == 0.0).all()

    def test_clone_and_copy_from_are_bit_exact(self):
        rng = Rng(6)
        store = ParameterStore()
        init_linear(store, "fc", 3, 3, rng)
        target = store.clone()
        store["fc.w"].value = store["fc.w"].value + 0.5
        assert not np.array_equal(store["fc.w"].value, target["fc.w"].value)
        target.copy_from(store)
        assert np.array_equal(store["fc.w"].value, target["fc.w"].value)


class TestCheckpoint:
    def _store(self):
        store = ParameterStore()
        init_mlp(store, "fc", 4, 3, 2, Rng(17))
        # exercise exact binary values, including negatives and tiny floats
        store["fc.fc1.w"].value[0, 0] = -1e-300
        return store

    def test_round_trip_bit_exact(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded[name].value, store[name].value)

    def test_load_into_checks_shapes(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        other = ParameterStore()
        init_mlp(other, "fc", 4, 5, 2, Rng(0))
        with pytest.raises(CheckpointError, match="fc.fc1.w"):
            load_checkpoint_into(other, tmp_path / "ckpt")

    def test_corrupted_blob_is_clean_error(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / "params.bin")
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(tmp_path / "ckpt")

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        old = {name: p.value.copy() for name, p in store.items()}
        for _, p in store.items():
            p.value = p.value + 1.0
        write_bytes = Path.write_bytes

        def fail_on_manifest(path, data):
            if path.name.startswith(MANIFEST_NAME):
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(store, tmp_path / "ckpt")
        monkeypatch.undo()
        loaded = load_checkpoint(tmp_path / "ckpt")
        for name in store.names():
            assert np.array_equal(loaded[name].value, old[name])
        save_checkpoint(store, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for name, p in store.items():
            assert np.array_equal(loaded[name].value, p.value)

    def test_missing_files_is_clean_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(tmp_path / "nope")

    @pytest.mark.parametrize("case", BAD_MANIFEST_ENTRIES)
    def test_malformed_manifest_entry_is_clean_error(self, tmp_path, case):
        save_checkpoint(self._store(), tmp_path / "ckpt")
        break_manifest(tmp_path / "ckpt", case)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(tmp_path / "ckpt")

    LOAD_INTO_ERRORS = {"missing": "missing parameter 'fc.fc2.b'",
                        "shape": "shape mismatch for parameter 'fc.fc2.b'",
                        "extra": r"unexpected parameters \['zz.w'\]",
                        "repeated": "name 'fc.fc1.w' is listed twice"}

    @pytest.mark.parametrize("case", sorted(LOAD_INTO_ERRORS))
    def test_failed_load_into_leaves_store_unchanged(self, tmp_path, case):
        store = self._store()
        arrays = {name: p.value for name, p in store.items()}
        before = {name: a.copy() for name, a in arrays.items()}
        values = {name: value + 1.0 for name, value in before.items()}
        # the mismatch is in the last parameter, after every other matched
        last = store.names()[-1]
        if case == "missing":
            del values[last]
        elif case == "shape":
            values[last] = np.ones((1, 3))
        elif case == "extra":
            values["zz.w"] = np.ones((1, 1))
        saved = ParameterStore()
        for name, value in values.items():
            saved.add(name, value)
        save_checkpoint(saved, tmp_path / "ckpt")
        if case == "repeated":
            break_manifest(tmp_path / "ckpt", "repeated name")
        with pytest.raises(CheckpointError, match=self.LOAD_INTO_ERRORS[case]):
            load_checkpoint_into(store, tmp_path / "ckpt")
        for name, p in store.items():
            assert p.value is arrays[name]
            assert np.array_equal(p.value, before[name])
