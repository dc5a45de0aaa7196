"""Hypergraph construction and spectral convolution against dense oracles."""

import numpy as np
import pytest

import hypermix.autodiff as ad
from hypermix.autodiff import Var, reduce_sum
from hypermix.hypergraph import (build_hypergraph, degree_matrices, hgcn_layer,
                                 hgcn_transform, mixing_matrix,
                                 onehot_hypergraph, read_hypergraph_csv,
                                 write_hypergraph_csv)
from hypermix.rng import Rng

from _helpers import check_gradients
from _oracles import (build_hypergraph_dense, degrees_loop, hgcn_layer_dense,
                      hgcn_transform_dense)


class TestBuildHypergraph:
    def test_zero_generator_gives_zero_matrix(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        hg = build_hypergraph(Var(Z), np.zeros((2, 3)), np.zeros((1, 3)))
        assert hg.mu.value[0, 0] == 0.0
        np.testing.assert_array_equal(hg.H.value, np.zeros((2, 5)))

    def test_direct_substitution_example(self):
        # n=2, m=1, Z=((1),(2)), W=(1), b=0 -> learned column (1,2), mu=1.5
        hg = build_hypergraph(Var([[1.0], [2.0]]), np.array([[1.0]]),
                              np.zeros((1, 1)))
        assert hg.mu.value[0, 0] == 1.5
        np.testing.assert_array_equal(hg.H.value,
                                      [[1.0, 1.5, 0.0], [2.0, 0.0, 1.5]])

    def test_nonnegative_and_identity_block_property(self):
        rng = Rng(20)
        for _ in range(1000):
            n = 2 + rng.integers(5)
            m = 1 + rng.integers(4)
            d = 1 + rng.integers(4)
            Z = rng.normal((n, d))
            w = rng.normal((d, m))
            b = rng.normal((1, m))
            hg = build_hypergraph(Var(Z), w, b)
            H = hg.H.value
            mu = hg.mu.value[0, 0]
            assert (H >= 0.0).all()
            np.testing.assert_array_equal(H[:, m:], mu * np.eye(n))
            assert mu == pytest.approx(H[:, :m].mean())

    def test_matches_dense_oracle(self):
        rng = Rng(21)
        for _ in range(100):
            Z = rng.normal((3, 4))
            w = rng.normal((4, 2))
            b = rng.normal((1, 2))
            hg = build_hypergraph(Var(Z), w, b)
            H_ref, mu_ref = build_hypergraph_dense(Z, w, b)
            np.testing.assert_allclose(hg.H.value, H_ref, atol=1e-14)
            assert hg.mu.value[0, 0] == pytest.approx(mu_ref)

    def test_generator_receives_gradient(self):
        Z = np.array([[1.0, -2.0], [0.5, 3.0]])

        def build(w, b):
            hg = build_hypergraph(Var(Z), w, b)
            return reduce_sum(hg.H)

        check_gradients(build, [np.array([[0.3, -0.2], [0.4, 0.9]]),
                                np.array([[0.1, -0.3]])], label="generator")


class TestDegrees:
    # degree_matrices takes the effective (nonnegative) edge weights and
    # returns vertex degrees as a column and hyperedge degrees as one row
    # per sample
    def test_identity_incidence(self):
        d, b = degree_matrices(Var(np.eye(2)), Var(np.ones((2, 1))), 2)
        np.testing.assert_array_equal(d.value, [[1.0], [1.0]])
        np.testing.assert_array_equal(b.value, [[1.0, 1.0]])

    def test_hand_sum(self):
        d, b = degree_matrices(Var([[1.0], [1.0]]), Var([[2.0]]), 2)
        np.testing.assert_array_equal(d.value, [[2.0], [2.0]])
        np.testing.assert_array_equal(b.value, [[2.0]])

    def test_matches_loop_oracle(self):
        rng = Rng(22)
        for _ in range(200):
            n = 2 + rng.integers(4)
            m = 1 + rng.integers(5)
            S = 1 + rng.integers(3)
            H = np.abs(rng.normal((S * n, m)))
            w = rng.normal((m, 1))
            d, b = degree_matrices(Var(H), Var(np.abs(w)), n)
            for k in range(S):
                d_ref, b_ref = degrees_loop(H[k * n:(k + 1) * n], w)
                np.testing.assert_allclose(d.value[k * n:(k + 1) * n].ravel(),
                                           d_ref, atol=1e-12)
                np.testing.assert_allclose(b.value[k], b_ref, atol=1e-12)


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
            c = float(rng.uniform(0.1, 3.0))
            w = rng.uniform(0.1, 2.0, (n, 1))
            x = rng.normal((n, 2))
            out = hgcn_layer(Var(x), Var(c * np.eye(n)), Var(w))
            np.testing.assert_allclose(out.value, x, atol=1e-12)

    def test_single_uniform_hyperedge_is_mean_pooling(self):
        out = hgcn_layer(Var([[1.0], [2.0], [3.0]]), Var(np.ones((3, 1))),
                         Var([[1.0]]))
        np.testing.assert_allclose(out.value, np.full((3, 1), 2.0), atol=1e-12)

    def test_golden_value(self):
        out = hgcn_layer(Var(self.GOLDEN_INPUT["x"]),
                         Var(self.GOLDEN_INPUT["H"]),
                         Var(self.GOLDEN_INPUT["w"]))
        np.testing.assert_allclose(out.value.ravel(), self.GOLDEN_OUTPUT,
                                   atol=1e-9)

    def test_matches_dense_oracle_including_zero_columns(self):
        rng = Rng(24)
        for trial in range(500):
            n = 2 + rng.integers(7)
            m = 1 + rng.integers(8)
            H = np.abs(rng.normal((n, m)))
            if trial % 3 == 0:
                H[:, rng.integers(m)] = 0.0  # exercise the safe-inverse path
            w = rng.normal((m, 1))
            x = rng.normal((n, 3))
            out = hgcn_layer(Var(x), Var(H), Var(w))
            ref = hgcn_layer_dense(x, H, w)
            np.testing.assert_allclose(out.value, ref, atol=1e-9)

    def test_gradients_through_x_h_and_w(self):
        rng = Rng(25)
        for _ in range(20):
            H = np.abs(rng.normal((3, 2))) + 0.1
            w = rng.uniform(0.2, 2.0, (2, 1))
            x = rng.normal((3, 2))
            check_gradients(
                lambda xv, hv, wv: reduce_sum(hgcn_layer(xv, hv, wv)),
                [x, H, w], label="hgcn_layer")


class TestHgcnTransform:
    def test_onehot_block_only_is_identity(self):
        rng = Rng(26)
        for _ in range(50):
            n = 2 + rng.integers(4)
            mu = float(rng.uniform(0.2, 2.0))
            H = np.concatenate([np.zeros((n, 3)), mu * np.eye(n)], axis=1)
            q = rng.normal((n, 1))
            w1 = rng.uniform(0.1, 2.0, (n + 3, 1))
            w2 = rng.uniform(0.1, 2.0, (n + 3, 1))
            out = hgcn_transform(Var(q), Var(H), Var(w1), Var(w2))
            np.testing.assert_allclose(out.value, q, atol=1e-12)

    def test_zero_signal_stays_zero(self):
        H = np.abs(Rng(27).normal((3, 5)))
        out = hgcn_transform(Var(np.zeros((3, 1))), Var(H),
                             Var(np.ones((5, 1))), Var(np.ones((5, 1))))
        np.testing.assert_array_equal(out.value, np.zeros((3, 1)))

    def test_matches_composed_layer_oracle(self):
        rng = Rng(28)
        for _ in range(200):
            n = 2 + rng.integers(6)
            m = 1 + rng.integers(6)
            H = np.abs(rng.normal((n, m)))
            w1 = rng.normal((m, 1))
            w2 = rng.normal((m, 1))
            q = rng.normal((n, 1))
            out = hgcn_transform(Var(q), Var(H), Var(w1), Var(w2))
            ref = hgcn_transform_dense(q, H, w1, w2)
            np.testing.assert_allclose(out.value, ref, atol=1e-9)

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
        x = rng.normal((4, 2))
        out = hgcn_layer(Var(x), Var(H), Var(w))
        np.testing.assert_allclose(mixing_matrix(H, w) @ x, out.value,
                                   atol=1e-12)


class TestOnehotHypergraph:
    def test_shape_and_values(self):
        hg = onehot_hypergraph(3)
        assert hg.m == 0
        np.testing.assert_array_equal(hg.H.value, np.eye(3))
        assert hg.mu.value[0, 0] == 1.0


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        H = np.abs(Rng(32).normal((3, 4)))
        path = tmp_path / "h.csv"
        write_hypergraph_csv(path, H)
        header = path.read_text().splitlines()[0]
        assert header == "agent,hyperedge,weight"
        np.testing.assert_array_equal(read_hypergraph_csv(path), H)
