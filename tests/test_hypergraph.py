"""Hypergraph construction and spectral convolution against dense oracles.

The functions under test take samples stacked along rows. Oracle checks
stack one to three samples, each with its own incidence, and compare every
block with the single-sample oracles in ``_oracles``.
"""

import numpy as np
import pytest

from hypermix.autodiff import Var, hgcn_conv
from hypermix.hypergraph import (build_hypergraph_rows, hgcn_transform_rows,
                                 mixing_matrix, read_hypergraph_csv,
                                 write_hypergraph_csv)
from hypermix.rng import Rng

from _helpers import check_gradients, total
from _oracles import (build_hypergraph_dense, degrees_loop, hgcn_layer_dense,
                      hgcn_transform_dense)


def _blocks(a, n):
    """The per-sample blocks of ``n`` rows of a stacked array."""
    a = a.value if isinstance(a, Var) else a
    return [a[k:k + n] for k in range(0, a.shape[0], n)]


def _incidences(rng, S, n, m, zero_column=False):
    """S stacked nonnegative (n x m) incidences, different per block; with
    ``zero_column`` one block gets an all-zero hyperedge column."""
    H = np.abs(rng.normal((S * n, m)))
    if zero_column:
        k = rng.integers(S)
        H[k * n:(k + 1) * n, rng.integers(m)] = 0.0  # safe-inverse path
    return H


class TestBuildHypergraph:
    def test_zero_generator_gives_zero_matrix(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        H, mu = build_hypergraph_rows(Z, np.zeros((2, 3)), np.zeros((1, 3)), 2)
        assert mu.value[0, 0] == 0.0
        np.testing.assert_array_equal(H.value, np.zeros((2, 5)))

    def test_direct_substitution_example(self):
        # n=2, m=1, Z=((1),(2)), W=(1), b=0 -> learned column (1,2), mu=1.5
        H, mu = build_hypergraph_rows(np.array([[1.0], [2.0]]),
                                      np.array([[1.0]]), np.zeros((1, 1)), 2)
        assert mu.value[0, 0] == 1.5
        np.testing.assert_array_equal(H.value,
                                      [[1.0, 1.5, 0.0], [2.0, 0.0, 1.5]])

    def test_nonnegative_and_identity_block_property(self):
        rng = Rng(20)
        for _ in range(1000):
            n = 2 + rng.integers(5)
            m = 1 + rng.integers(4)
            d = 1 + rng.integers(4)
            S = 1 + rng.integers(3)
            Z = rng.normal((S * n, d))
            w = rng.normal((d, m))
            b = rng.normal((1, m))
            H, mu = build_hypergraph_rows(Z, w, b, n)
            assert H.value.shape == (S * n, m + n) and mu.value.shape == (S, 1)
            assert (H.value >= 0.0).all()
            for Hk, mk in zip(_blocks(H, n), mu.value[:, 0]):
                np.testing.assert_array_equal(Hk[:, m:], mk * np.eye(n))
                assert mk == pytest.approx(Hk[:, :m].mean())

    def test_matches_dense_oracle(self):
        rng = Rng(21)
        for _ in range(100):
            S = 1 + rng.integers(3)
            Z = rng.normal((S * 3, 4))
            w = rng.normal((4, 2))
            b = rng.normal((1, 2))
            H, mu = build_hypergraph_rows(Z, w, b, 3)
            for Zk, Hk, mk in zip(_blocks(Z, 3), _blocks(H, 3), mu.value[:, 0]):
                H_ref, mu_ref = build_hypergraph_dense(Zk, w, b)
                np.testing.assert_allclose(Hk, H_ref, atol=1e-14)
                assert mk == pytest.approx(mu_ref)

    def test_generator_receives_gradient(self):
        Z = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.2], [2.0, 1.5]])

        def build(w, b):
            H, _ = build_hypergraph_rows(Z, w, b, 2)
            return total(H)

        check_gradients(build, [np.array([[0.3, -0.2], [0.4, 0.9]]),
                                np.array([[0.1, -0.3]])], label="generator")


class TestDegrees:
    # the layer normalizes by vertex degrees d_i = sum_e |w_e| H_ie and by
    # hyperedge degrees b_e = sum_i H_ie, both taken per sample
    def test_identity_incidence(self):
        # d = |w| and b = 1 per sample: every vertex keeps its own value
        x = np.array([[1.0], [-2.0], [3.0], [0.5]])
        out = hgcn_conv(x, np.tile(np.eye(2), (2, 1)),
                        np.array([[3.0], [-0.5]]), 2)
        np.testing.assert_allclose(out.value, x, atol=1e-12)

    def test_hand_sum(self):
        # H = (1, 1)^T, w = 2: d = (2, 2), b = 2, so y_i = (x_1 + x_2) / 2
        for w in (2.0, -2.0):
            out = hgcn_conv(np.array([[1.0], [4.0]]),
                            np.array([[1.0], [1.0]]), np.array([[w]]), 2)
            np.testing.assert_allclose(out.value, [[2.5], [2.5]], atol=1e-12)

    def test_matches_loop_oracle(self):
        # with every hyperedge degree nonzero, x = sqrt(d) is a fixed point:
        # sum_e H_ie |w_e| b_e^{-1} sum_j H_je = d_i
        rng = Rng(22)
        for _ in range(200):
            n = 2 + rng.integers(4)
            m = 1 + rng.integers(5)
            S = 1 + rng.integers(3)
            H = np.abs(rng.normal((S * n, m)))
            w = rng.normal((m, 1))
            x = np.concatenate([np.sqrt(degrees_loop(H[k * n:(k + 1) * n], w)[0])
                                for k in range(S)]).reshape(-1, 1)
            out = hgcn_conv(x, H, w, n)
            np.testing.assert_allclose(out.value, x, atol=1e-12)


class TestHgcnLayer:
    GOLDEN_INPUT = dict(
        H=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]),
        w=np.array([[1.0], [1.0]]),
        x=np.array([[1.0], [2.0], [3.0]]),
    )
    # dense-product oracle output, frozen
    GOLDEN_OUTPUT = np.array([1.2071067811865475, 2.1868867239266074,
                              2.666666666666667])

    def test_scaled_identity_is_exact_identity(self):
        rng = Rng(23)
        for _ in range(100):
            n = 2 + rng.integers(4)
            S = 1 + rng.integers(3)
            H = np.concatenate([float(rng.uniform(0.1, 3.0)) * np.eye(n)
                                for _ in range(S)])
            w = rng.uniform(0.1, 2.0, (n, 1))
            x = rng.normal((S * n, 1))
            out = hgcn_conv(x, H, w, n)
            np.testing.assert_allclose(out.value, x, atol=1e-12)

    def test_single_uniform_hyperedge_is_mean_pooling(self):
        out = hgcn_conv(np.array([[1.0], [2.0], [3.0]]), np.ones((3, 1)),
                        np.array([[1.0]]), 3)
        np.testing.assert_allclose(out.value, np.full((3, 1), 2.0), atol=1e-12)

    def test_golden_value(self):
        out = hgcn_conv(self.GOLDEN_INPUT["x"], self.GOLDEN_INPUT["H"],
                        self.GOLDEN_INPUT["w"], 3)
        np.testing.assert_allclose(out.value.ravel(), self.GOLDEN_OUTPUT,
                                   atol=1e-9)

    def test_matches_dense_oracle_including_zero_columns(self):
        rng = Rng(24)
        for trial in range(500):
            n = 2 + rng.integers(7)
            m = 1 + rng.integers(8)
            S = 1 + rng.integers(3)
            H = _incidences(rng, S, n, m, zero_column=trial % 3 == 0)
            w = rng.normal((m, 1))
            x = rng.normal((S * n, 1))
            out = hgcn_conv(x, H, w, n)
            for xk, Hk, yk in zip(_blocks(x, n), _blocks(H, n),
                                  _blocks(out, n)):
                np.testing.assert_allclose(yk, hgcn_layer_dense(xk, Hk, w),
                                           atol=1e-9)

    def test_gradients_through_x_h_and_w(self):
        rng = Rng(25)
        for _ in range(20):
            H = np.abs(rng.normal((6, 2))) + 0.1
            w = rng.uniform(0.2, 2.0, (2, 1))
            x = rng.normal((6, 1))
            check_gradients(
                lambda xv, hv, wv: total(hgcn_conv(xv, hv, wv, 3)),
                [x, H, w], label="hgcn_conv")


class TestHgcnTransform:
    def test_onehot_block_only_is_identity(self):
        rng = Rng(26)
        for _ in range(50):
            n = 2 + rng.integers(4)
            S = 1 + rng.integers(3)
            H = np.concatenate([
                np.concatenate([np.zeros((n, 3)),
                                float(rng.uniform(0.2, 2.0)) * np.eye(n)],
                               axis=1)
                for _ in range(S)])
            q = rng.normal((S * n, 1))
            w1 = rng.uniform(0.1, 2.0, (n + 3, 1))
            w2 = rng.uniform(0.1, 2.0, (n + 3, 1))
            out = hgcn_transform_rows(q, H, w1, w2, n)
            np.testing.assert_allclose(out.value, q, atol=1e-12)

    def test_zero_signal_stays_zero(self):
        H = np.abs(Rng(27).normal((3, 5)))
        out = hgcn_transform_rows(np.zeros((3, 1)), H, np.ones((5, 1)),
                                  np.ones((5, 1)), 3)
        np.testing.assert_array_equal(out.value, np.zeros((3, 1)))

    def test_matches_composed_layer_oracle(self):
        rng = Rng(28)
        for _ in range(200):
            n = 2 + rng.integers(6)
            m = 1 + rng.integers(6)
            S = 1 + rng.integers(3)
            H = _incidences(rng, S, n, m)
            w1 = rng.normal((m, 1))
            w2 = rng.normal((m, 1))
            q = rng.normal((S * n, 1))
            out = hgcn_transform_rows(q, H, w1, w2, n)
            for qk, Hk, yk in zip(_blocks(q, n), _blocks(H, n),
                                  _blocks(out, n)):
                np.testing.assert_allclose(
                    yk, hgcn_transform_dense(qk, Hk, w1, w2), atol=1e-9)

    def test_monotone_in_every_input_value(self):
        rng = Rng(29)
        h = 1e-6
        for _ in range(100):
            n = 2 + rng.integers(4)
            m = 1 + rng.integers(4)
            H = np.abs(rng.normal((n, m)))
            w1 = rng.normal((m + 0, 1))
            w2 = rng.normal((m + 0, 1))
            q = rng.normal((n, 1))
            base = hgcn_transform_dense(q, H, w1, w2)
            for j in range(n):
                qp = q.copy()
                qp[j, 0] += h
                up = hgcn_transform_dense(qp, H, w1, w2)
                assert ((up - base) / h >= -1e-9).all()


class TestMixingMatrix:
    def test_entries_nonnegative_on_random_instances(self):
        rng = Rng(30)
        for _ in range(300):
            n = 2 + rng.integers(6)
            m = 1 + rng.integers(6)
            H = np.abs(rng.normal((n, m)))
            w = rng.normal((m, 1))
            A = mixing_matrix(H, w)
            assert (A >= 0.0).all()

    def test_is_the_layer_as_a_matrix(self):
        rng = Rng(31)
        H = np.abs(rng.normal((4, 3)))
        w = rng.normal((3, 1))
        x = rng.normal((8, 1))
        out = hgcn_conv(x, np.tile(H, (2, 1)), w, 4)
        A = mixing_matrix(H, w)
        for xk, yk in zip(_blocks(x, 4), _blocks(out, 4)):
            np.testing.assert_allclose(A @ xk, yk, atol=1e-12)


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        H = np.abs(Rng(32).normal((3, 4)))
        path = tmp_path / "h.csv"
        write_hypergraph_csv(path, H)
        header = path.read_text().splitlines()[0]
        assert header == "agent,hyperedge,weight"
        np.testing.assert_array_equal(read_hypergraph_csv(path), H)
