import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sokd.errors import NonFiniteError, ShapeError
from sokd.tensor import (
    Rng,
    Tensor,
    _pool_raw,
    add,
    avg_pool2d,
    conv2d,
    elementwise,
    gumbel_from_uniform,
    matmul,
    relu,
    sigmoid,
    softmax_temp,
)


class TestTensor:
    def test_reshape_roundtrip_is_identity(self):
        rng = Rng(7)
        arr = rng.normal((2, 3, 4)).astype(np.float32)
        back = Tensor(arr).reshape((24,)).reshape((2, 3, 4))
        np.testing.assert_array_equal(back.data, arr)

    def test_flat_length_must_match_dims(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0, 3.0]).reshape((2, 2))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NonFiniteError):
            Tensor([float("inf")])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(eye, b).data, b.data)

    def test_zero(self):
        z = Tensor.zeros((2, 3))
        b = Tensor(np.arange(3, dtype=np.float32).reshape(3, 1))
        np.testing.assert_array_equal(matmul(z, b).data, np.zeros((2, 1)))

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor.zeros((2, 3)), Tensor.zeros((2, 3)))


class TestConv2d:
    def test_1x1_scaling_kernel(self):
        x = Tensor(np.arange(18, dtype=np.float32).reshape(2, 3, 3))
        w = Tensor(np.full((2, 2, 1, 1), 0.0, dtype=np.float32))
        w_arr = np.zeros((2, 2, 1, 1), dtype=np.float32)
        w_arr[0, 0, 0, 0] = 2.0
        w_arr[1, 1, 0, 0] = 2.0
        w = Tensor(w_arr)
        np.testing.assert_allclose(conv2d(x, w, "same").data, 2.0 * x.data)

    def test_identity_kernel_same_padding(self):
        rng = Rng(3)
        x = Tensor(rng.normal((1, 5, 5)).astype(np.float32))
        w_arr = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w_arr[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(w_arr), "same")
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_valid(self):
        x = Tensor(np.ones((1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, "valid")
        assert out.dims == (1, 1, 1)
        assert out.item() == 9.0

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor.zeros((2, 4, 4)), Tensor.zeros((1, 3, 3, 3)), "same")

    def test_batched_matches_per_image(self):
        rng = Rng(11)
        x = rng.normal((4, 3, 6, 6)).astype(np.float32)
        w = Tensor((rng.normal((5, 3, 3, 3)) * 0.2).astype(np.float32))
        batched = conv2d(Tensor(x), w, "same")
        for i in range(4):
            single = conv2d(Tensor(x[i]), w, "same")
            np.testing.assert_array_equal(batched.data[i], single.data)

    def test_kernel_too_large_for_valid(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor.zeros((1, 2, 2)), Tensor.zeros((1, 1, 3, 3)), "valid")


class TestSoftmaxTemp:
    def test_symmetry(self):
        out = softmax_temp(Tensor([4.2, 4.2, 4.2]), tau=0.7)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_direct_evaluation(self):
        out = softmax_temp(Tensor([math.log(2.0), 0.0]), tau=1.0)
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-6)

    def test_saturation(self):
        out = softmax_temp(Tensor([1000.0, 0.0]), tau=1.0)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_shift_invariance(self):
        rng = Rng(5)
        for trial in range(20):
            v = rng.normal(6)
            c = float(rng.normal()) * 10
            a = softmax_temp(Tensor(v), tau=0.5)
            b = softmax_temp(Tensor(v + c), tau=0.5)
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_sums_to_one(self):
        rng = Rng(6)
        for trial in range(20):
            out = softmax_temp(Tensor(rng.normal(8) * 5), tau=0.3)
            assert abs(float(out.data.sum()) - 1.0) < 1e-6

    def test_errors(self):
        with pytest.raises(ShapeError):
            softmax_temp(Tensor([1.0]), tau=0.0)
        with pytest.raises(ShapeError):
            softmax_temp(Tensor(np.zeros(0, dtype=np.float32)), tau=1.0)


class TestGumbel:
    def test_forced_half(self):
        g = gumbel_from_uniform(0.5)
        assert abs(float(g) - (-math.log(math.log(2.0)))) < 1e-12

    def test_monotone_in_u(self):
        us = np.linspace(0.01, 0.99, 50)
        gs = gumbel_from_uniform(us)
        assert np.all(np.diff(gs) > 0)


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry_point(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(Tensor([-200.0, 200.0]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_add_identity(self):
        x = Tensor([[1.5, -2.0]])
        np.testing.assert_array_equal(add(x, Tensor.zeros((1, 2))).data, x.data)

    def test_scalar_operand(self):
        out = elementwise("scale", Tensor([2.0, 4.0]), 0.5)
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise("add", Tensor.zeros((2,)), Tensor.zeros((3,)))

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            elementwise("pow", Tensor.zeros((2,)), 2.0)


class TestAvgPool:
    def test_mean_of_blocks(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 4, 4))
        out = avg_pool2d(x)
        np.testing.assert_array_equal(out.data, [[[2.5, 4.5], [10.5, 12.5]]])

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor.zeros((1, 3, 4)))

    @staticmethod
    def _six_d_mean(x, dtype=np.float32):
        """The reshape-and-mean pooling that _pool_raw replaced."""
        n, c, h, w = x.shape
        return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5), dtype=dtype)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 256), c=st.sampled_from([3, 8, 16, 32]),
           hw=st.sampled_from([16, 8, 4]), seed=st.integers(0, 2**32 - 1))
    def test_strided_adds_match_six_d_mean_bytes(self, n, c, hw, seed):
        x = Rng(seed).normal((n, c, hw, hw), np.float32) * np.float32(3)
        assert _pool_raw(x).tobytes() == self._six_d_mean(x).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), c=st.integers(1, 5), h=st.integers(1, 12),
           w=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_within_float32_of_float64_reference(self, n, c, h, w, seed):
        x = Rng(seed).normal((n, c, 2 * h, 2 * w), np.float32)
        ref = self._six_d_mean(x.astype(np.float64), np.float64)
        out = _pool_raw(x)
        assert out.dtype == np.float32 and out.shape == (n, c, h, w)
        np.testing.assert_allclose(out, ref, rtol=0, atol=4 * np.finfo(np.float32).eps
                                   * np.abs(x).max())


class TestRng:
    def test_same_stream_same_sequence(self):
        a = Rng(99, 7)
        b = Rng(99, 7)
        np.testing.assert_array_equal(a.uniform(100), b.uniform(100))
        np.testing.assert_array_equal(a.normal(50), b.normal(50))

    def test_child_independent_of_parent_call_order(self):
        p1 = Rng(42)
        p1.uniform(1000)
        c1 = p1.child("data")
        p2 = Rng(42)
        c2 = p2.child("data")
        np.testing.assert_array_equal(c1.uniform(64), c2.uniform(64))

    def test_children_with_distinct_labels_differ(self):
        r = Rng(42)
        a = r.child("a").uniform(32)
        b = r.child("b").uniform(32)
        assert not np.array_equal(a, b)

    def test_uniform_open_interval(self):
        u = Rng(0).uniform(200000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_normal_dtype(self):
        assert Rng(1).normal((3, 4), np.float32).dtype == np.float32
        assert Rng(1).normal((3, 4)).dtype == np.float64

    @pytest.mark.parametrize("n,k", [(0, 0), (10, 0), (10, 3), (10, 10), (20000, 2000),
                                     (20000, 20000)])
    def test_permutation_prefix(self, n, k):
        idx = Rng(5, 2).permutation(n, k)
        assert idx.shape == (k,)
        assert len(np.unique(idx)) == k
        if k:
            assert idx.min() >= 0 and idx.max() < n
        np.testing.assert_array_equal(idx, Rng(5, 2).permutation(n, k))

    def test_full_permutation_stream_pinned(self):
        # batch order and the train/val split draw from this stream
        assert Rng(3).permutation(12).tolist() == [6, 9, 4, 1, 3, 5, 10, 8, 7, 0, 2, 11]
