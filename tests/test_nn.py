"""Layers, initialization, RMSProp, and checkpoint round-trips."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hypermix.autodiff as ad
from hypermix.errors import CheckpointError, ConfigError, TrainingError
from hypermix.nn import (MANIFEST_NAME, ParameterStore, clip_grad_norm,
                         gru_fwd, init_gru, init_linear, init_mlp,
                         load_checkpoint, mlp_fwd, rmsprop_step,
                         save_checkpoint)
from hypermix.rng import Rng

from _helpers import (BAD_MANIFEST_ENTRIES, break_manifest, check_gradients,
                      total)


class TestInitParams:
    def test_linear_shapes_and_bound(self):
        store = ParameterStore()
        init_linear(store, "fc", 4, 2, Rng(0))
        w, b = store["fc.w"], store["fc.b"]
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
            np.testing.assert_array_equal(stores[0][name], stores[1][name])

    def test_gru_gate_blocks(self):
        store = ParameterStore()
        init_gru(store, "rnn", 8, 16, Rng(1))
        # three stacked gate blocks per side: 8x16 each and 16x16 each
        assert store["rnn.w_ih"].shape == (8, 48)
        assert store["rnn.w_hh"].shape == (16, 48)
        assert store["rnn.b_ih"].shape == (1, 48)
        assert store["rnn.b_hh"].shape == (1, 48)

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
                return total(ad.linear(xv, wv, bv))

            check_gradients(build, [x, w, b], label="linear")

    def test_mlp_matches_finite_diff(self):
        rng = Rng(3)
        store = ParameterStore()
        init_mlp(store, "m", 3, 5, 2, Rng(9))
        x = rng.normal((2, 3))
        names = store.names()

        def build(xv, *param_vars):
            pv = dict(zip(names, param_vars))
            return total(mlp_fwd(xv, pv, "m"))

        check_gradients(build, [x] + [store[n] for n in names],
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
            return total(gru_fwd(xv, hv, pv, "g"))

        check_gradients(build, [x, h] + [store[n] for n in names],
                        label="gru layer")


class TestRmsprop:
    def _scalar_store(self, p, v=0.0):
        store = ParameterStore()
        store.add("p", [[p]])
        store.sq_avg = np.array([v])
        return store

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = self._scalar_store(1.5, v=0.3)
        rmsprop_step(store, np.zeros(1))
        assert store["p"][0, 0] == 1.5

    def test_one_step_arithmetic(self):
        store = self._scalar_store(1.0)
        rmsprop_step(store, np.ones(1), lr=5e-4, decay=0.99, eps=1e-5)
        assert store.sq_avg[0] == pytest.approx(0.01)
        assert store["p"][0, 0] == pytest.approx(0.995000499950005, abs=1e-12)

    def test_monotone_descent_on_quadratic(self):
        store = ParameterStore()
        store.add("p", [[3.0]])
        last = 9.0
        for _ in range(100):
            rmsprop_step(store, 2.0 * store.value, lr=5e-4)
            f = store["p"][0, 0] ** 2
            assert f < last
            last = f

    def test_nonfinite_gradient_names_parameter(self):
        store = ParameterStore()
        for name in ("a", "b", "c"):
            store.add(name, np.ones((2, 2)))
        before = store.value
        grad = np.zeros(12)
        grad[[6, 11]] = [np.nan, np.inf]
        with pytest.raises(TrainingError, match="parameter 'b'"):
            rmsprop_step(store, grad)
        assert store.value is before and not store.sq_avg.any()

    def test_shapes_preserved_and_finite(self):
        rng = Rng(5)
        store = ParameterStore()
        store.add("w", rng.normal((4, 3)))
        for _ in range(50):
            rmsprop_step(store, rng.normal((4, 3)).ravel() * 100.0)
            assert store["w"].shape == (4, 3)
            assert np.isfinite(store["w"]).all()

    def test_update_assigns_new_arrays(self):
        # bound variables and the target memo hold the old value array
        store = ParameterStore()
        store.add("w", np.ones((2, 2)))
        value, sq_avg = store.value, store.sq_avg
        bound = store.bind(None)["w"].value
        rmsprop_step(store, np.ones(4))
        assert store.value is not value and store.sq_avg is not sq_avg
        assert (value == 1.0).all() and (bound == 1.0).all()
        assert (store["w"] < 1.0).all()

    def test_add_after_first_update_extends_the_moment_with_zeros(self):
        store = ParameterStore()
        store.add("a", np.ones((2, 2)))
        rmsprop_step(store, np.arange(4.0))
        moment = store.sq_avg.copy()
        store.add("b", np.ones((1, 3)))
        assert store.sq_avg.shape == store.value.shape == (7,)
        np.testing.assert_array_equal(store.sq_avg, np.append(moment, [0.0] * 3))
        rmsprop_step(store, np.ones(7))
        assert store.sq_avg.shape == (7,) and store.sq_avg.all()


class TestClipGradNorm:
    def test_scales_down_large_gradients(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2)))
        grad = np.full(4, 10.0)  # norm 20
        norm = clip_grad_norm(store, grad, 10.0)
        assert norm == pytest.approx(20.0)
        assert np.sqrt((grad ** 2).sum()) == pytest.approx(10.0)

    def test_leaves_small_gradients_alone(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2)))
        grad = np.ones(4)
        assert clip_grad_norm(store, grad, 10.0) == 2.0
        np.testing.assert_array_equal(grad, np.ones(4))


class TestStoreLayout:
    def test_named_views_of_one_flat_array_in_insertion_order(self):
        store = ParameterStore()
        store.add("a", np.arange(6.0).reshape(2, 3))
        store.add("b", [[7.0]])
        store.add("c", np.zeros((0, 4)))
        store.add("d", [[8.0], [9.0]])
        np.testing.assert_array_equal(store.value, [0, 1, 2, 3, 4, 5, 7, 8, 9])
        assert store.value.dtype == np.float64 and store.sq_avg.shape == (9,)
        assert store.names() == ["a", "b", "c", "d"]
        assert store["c"].shape == (0, 4) and store["d"].shape == (2, 1)
        store["a"][1, 2] = -1.0
        assert store.value[5] == -1.0
        views = store.views(np.arange(9.0))
        assert list(views) == store.names()
        np.testing.assert_array_equal(views["d"], [[7.0], [8.0]])

    def test_bind_wraps_views_in_store_order(self):
        store = ParameterStore()
        init_mlp(store, "fc", 3, 4, 2, Rng(0))
        bound = store.bind(ad.Tape())
        assert list(bound) == store.names()
        for name, var in bound.items():
            assert var.tape is not None
            assert np.shares_memory(var.value, store.value)
            np.testing.assert_array_equal(var.value, store[name])


class TestStoreLifecycle:
    def test_clone_and_copy_from_are_bit_exact(self):
        rng = Rng(6)
        store = ParameterStore()
        init_linear(store, "fc", 3, 3, rng)
        store.sq_avg = store.sq_avg + 0.25
        target = store.clone()
        np.testing.assert_array_equal(target.sq_avg, store.sq_avg)
        store.value = store.value + 0.5
        assert not np.array_equal(store["fc.w"], target["fc.w"])
        target.copy_from(store)
        assert np.array_equal(store.value, target.value)
        assert target.value is not store.value

    def test_clone_copies_the_moment_only_once_it_exists(self):
        # a store before its first update holds its values only, and so
        # does its clone; after the update the clone copies the moment too
        store = ParameterStore()
        store.add("w", np.ones((64, 64)))
        size = store.value.nbytes
        grown = []
        tracemalloc.start()
        try:
            for _ in range(2):
                before = tracemalloc.get_traced_memory()[0]
                clone = store.clone()
                grown.append(tracemalloc.get_traced_memory()[0] - before)
                np.testing.assert_array_equal(clone.sq_avg, store.sq_avg)
                del clone
                rmsprop_step(store, np.ones(store.value.size))
        finally:
            tracemalloc.stop()
        assert size <= grown[0] < 2 * size <= grown[1] < 3 * size, grown

    def test_copy_from_rejects_another_layout(self):
        store = ParameterStore()
        init_linear(store, "fc", 3, 3, Rng(0))
        other = ParameterStore()
        init_linear(other, "fc", 3, 2, Rng(0))
        with pytest.raises(ConfigError, match="layouts"):
            other.copy_from(store)


class TestCheckpoint:
    def _store(self):
        store = ParameterStore()
        init_mlp(store, "fc", 4, 3, 2, Rng(17))
        # exercise exact binary values, including negatives and tiny floats
        store["fc.fc1.w"][0, 0] = -1e-300
        return store

    def test_round_trip_bit_exact(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        loaded = store.clone()
        loaded.value = np.zeros_like(store.value)
        load_checkpoint(loaded, tmp_path / "ckpt")
        for name in store.names():
            assert np.array_equal(loaded[name], store[name])
        assert loaded.value.tobytes() == store.value.tobytes()

    def test_blob_is_the_flat_value_array(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
        assert blob == store.value.astype("<f8").tobytes()
        manifest = json.loads((tmp_path / "ckpt" / MANIFEST_NAME).read_text())
        assert [(e["name"], e["rows"], e["cols"]) for e in manifest["params"]] \
            == [(name, *store[name].shape) for name in store.names()]

    def test_load_into_follows_names_not_manifest_order(self, tmp_path):
        store = self._store()
        reordered = ParameterStore()
        for name in reversed(store.names()):
            reordered.add(name, store[name] * 2.0)
        save_checkpoint(reordered, tmp_path / "ckpt")
        load_checkpoint(store, tmp_path / "ckpt")
        for name in store.names():
            assert np.array_equal(store[name], reordered[name])
        assert not np.array_equal(store.value, reordered.value)

    def test_load_into_checks_shapes(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        other = ParameterStore()
        init_mlp(other, "fc", 4, 5, 2, Rng(0))
        with pytest.raises(CheckpointError, match="fc.fc1.w"):
            load_checkpoint(other, tmp_path / "ckpt")

    def test_corrupted_blob_is_clean_error(self, tmp_path):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / "params.bin")
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(store, tmp_path / "ckpt")

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        old = store.value.copy()
        store.value = store.value + 1.0
        write_bytes = Path.write_bytes

        def fail_on_manifest(path, data):
            if path.name.startswith(MANIFEST_NAME):
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(store, tmp_path / "ckpt")
        monkeypatch.undo()
        loaded = store.clone()
        load_checkpoint(loaded, tmp_path / "ckpt")
        assert np.array_equal(loaded.value, old)
        save_checkpoint(store, tmp_path / "ckpt")
        load_checkpoint(loaded, tmp_path / "ckpt")
        assert np.array_equal(loaded.value, store.value)

    def test_missing_files_is_clean_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(self._store(), tmp_path / "nope")

    @pytest.mark.parametrize("case", BAD_MANIFEST_ENTRIES)
    def test_malformed_manifest_entry_is_clean_error(self, tmp_path, case):
        store = self._store()
        save_checkpoint(store, tmp_path / "ckpt")
        break_manifest(tmp_path / "ckpt", case)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(store, tmp_path / "ckpt")

    LOAD_INTO_ERRORS = {"missing": "missing parameter 'fc.fc2.b'",
                        "shape": "shape mismatch for parameter 'fc.fc2.b'",
                        "extra": r"unexpected parameters \['zz.w'\]",
                        "repeated": "name 'fc.fc1.w' is listed twice",
                        "nonfinite": "non-finite values in parameter 'fc.fc2.b'"}

    @pytest.mark.parametrize("case", sorted(LOAD_INTO_ERRORS))
    def test_failed_load_into_leaves_store_unchanged(self, tmp_path, case):
        store = self._store()
        array = store.value
        before = array.copy()
        values = {name: value + 1.0
                  for name, value in store.views(before).items()}
        # the mismatch is in the last parameter, after every other matched
        last = store.names()[-1]
        if case == "missing":
            del values[last]
        elif case == "shape":
            values[last] = np.ones((1, 3))
        elif case == "extra":
            values["zz.w"] = np.ones((1, 1))
        elif case == "nonfinite":
            values[last][0, -1] = np.nan
        saved = ParameterStore()
        for name, value in values.items():
            saved.add(name, value)
        save_checkpoint(saved, tmp_path / "ckpt")
        if case == "repeated":
            break_manifest(tmp_path / "ckpt", "repeated name")
        with pytest.raises(CheckpointError, match=self.LOAD_INTO_ERRORS[case]):
            load_checkpoint(store, tmp_path / "ckpt")
        assert store.value is array
        assert np.array_equal(store.value, before)
