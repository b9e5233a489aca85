import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sokd import autodiff as ad
from sokd import tensor as tc
from sokd.autodiff import CustomBackward, Tape, backward, straight_through
from sokd.errors import ShapeError
from sokd.oracle import finite_diff_grad
from sokd.tensor import Rng, Tensor


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / scale).max())


def check_param_grad(build, x0: Tensor, tol=1e-3):
    """Compare autodiff gradient of build(param_node) against central differences."""
    tape = Tape()
    p = tape.param(x0)
    loss = build(tape, p)
    g_ad = backward(loss)[p]

    def f(x: Tensor) -> float:
        t2 = Tape()
        return build(t2, t2.param(x)).tensor.item()

    g_fd = finite_diff_grad(f, x0, eps=1e-3)
    assert rel_err(g_ad.data, g_fd.data) < tol, f"autodiff {g_ad.data} vs fd {g_fd.data}"


class TestBackwardContracts:
    def test_release_leaves_no_cycle(self):
        gc.collect()
        gc.disable()
        try:
            tape = Tape()
            x = tape.param(Tensor(np.ones((2, 3, 4, 4), dtype=np.float32)))
            w = tape.param(Tensor(np.ones((2, 3, 3, 3), dtype=np.float32)))
            loss = ad.sum_all(ad.conv2d(x, w, "same"))
            grads = backward(loss)
            tape.release()
            assert tape.nodes == [] and tape.params == []
            del tape, x, w, loss, grads
            # reference counting alone freed the graph
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sum_gives_ones(self):
        tape = Tape()
        x = tape.param(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        grads = backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[x].data, np.ones((2, 2)))

    def test_disconnected_param_gets_zeros(self):
        tape = Tape()
        x = tape.param(Tensor([1.0, 2.0]))
        c = tape.constant(Tensor([5.0]))
        grads = backward(ad.sum_all(c))
        np.testing.assert_array_equal(grads[x].data, np.zeros(2))
        assert c not in grads

    def test_mean_squared_error_analytic(self):
        tape = Tape()
        x = tape.param(Tensor([2.0, 0.0]))
        t = tape.constant(Tensor([0.0, 0.0]))
        d = ad.sub(x, t)
        loss = ad.mean_all(ad.mul(d, d))
        np.testing.assert_allclose(backward(loss)[x].data, [2.0, 0.0], atol=1e-6)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.param(Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            backward(ad.relu(x))

    def test_fan_out_accumulates(self):
        tape = Tape()
        x = tape.param(Tensor([3.0]))
        loss = ad.sum_all(ad.add(x, x))
        np.testing.assert_array_equal(backward(loss)[x].data, [2.0])

    def test_gradient_linearity(self):
        rng = Rng(17)
        x0 = Tensor(rng.normal(6))
        tape = Tape()
        x = tape.param(x0)
        l1 = ad.mean_all(ad.mul(x, x))
        l2 = ad.sum_all(ad.sigmoid(x))
        g_sum = backward(ad.add(l1, l2))[x].data
        tape2 = Tape()
        x2 = tape2.param(x0)
        g1 = backward(ad.mean_all(ad.mul(x2, x2)))[x2].data
        tape3 = Tape()
        x3 = tape3.param(x0)
        g2 = backward(ad.sum_all(ad.sigmoid(x3)))[x3].data
        np.testing.assert_allclose(g_sum, g1 + g2, atol=1e-6)

    def test_zero_upstream_zero_grads(self):
        tape = Tape()
        x = tape.param(Tensor([1.0, -2.0]))
        loss = ad.lin(ad.sum_all(ad.mul(x, x)), 0.0, 0.0)
        np.testing.assert_array_equal(backward(loss)[x].data, np.zeros(2))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.param(Tensor([1.0]))
        b = t2.param(Tensor([1.0]))
        with pytest.raises(ShapeError):
            ad.add(a, b)


class TestStraightThrough:
    def test_threshold_forward_identity_backward(self):
        fn = CustomBackward(
            forward_fn=lambda x: (x > 0.5).astype(np.float32),
            backward_fn=lambda up, x: (up,),
        )
        tape = Tape()
        x = tape.param(Tensor([0.7, 0.2]))
        out = straight_through(fn, x)
        np.testing.assert_array_equal(out.data, [1.0, 0.0])
        grads = backward(ad.sum_all(out))
        np.testing.assert_array_equal(grads[x].data, [1.0, 1.0])

    def test_identity_identity_degenerate(self):
        fn = CustomBackward(forward_fn=lambda x: x, backward_fn=lambda up, x: (up,))
        tape = Tape()
        x = tape.param(Tensor([1.5, -2.0]))
        out = straight_through(fn, x)
        np.testing.assert_array_equal(out.data, x.data)
        np.testing.assert_array_equal(backward(ad.sum_all(out))[x].data, [1.0, 1.0])

    def test_shape_contract_violation(self):
        fn = CustomBackward(
            forward_fn=lambda x: x,
            backward_fn=lambda up, x: (up[:1],),
        )
        tape = Tape()
        x = tape.param(Tensor([1.0, 2.0]))
        out = straight_through(fn, x)
        with pytest.raises(ShapeError):
            backward(ad.sum_all(out))


class TestFiniteDifferenceAgreement:
    """Every differentiable primitive against the central-difference oracle."""

    def test_add_sub_mul_chain(self):
        rng = Rng(1)
        x0 = Tensor(rng.normal(5))
        other = Tensor(rng.normal(5))

        def build(tape, p):
            c = tape.constant(other)
            return ad.mean_all(ad.mul(ad.add(p, c), ad.sub(p, c)))

        check_param_grad(build, x0)

    def test_scalar_broadcast_ops(self):
        rng = Rng(2)
        x0 = Tensor([0.7])
        field = Tensor(rng.normal((3, 4)))

        def build(tape, p):
            c = tape.constant(field)
            scaled = ad.mul(c, p)
            shifted = ad.add(scaled, p)
            return ad.mean_all(ad.mul(shifted, shifted))

        check_param_grad(build, x0)

    def test_lin_relu_sigmoid_exp_log(self):
        x0 = Tensor([0.8, -1.2, 2.0, 0.3])

        def build(tape, p):
            y = ad.lin(p, 1.7, 0.4)
            y = ad.relu(y)
            y = ad.add(y, tape.constant(Tensor([0.5] * 4)))
            y = ad.log(y)
            y = ad.sigmoid(y)
            y = ad.exp(y)
            return ad.mean_all(y)

        check_param_grad(build, x0)

    def test_matmul(self):
        rng = Rng(3)
        x0 = Tensor(rng.normal((3, 4)))
        w = Tensor(rng.normal((4, 2)))

        def build(tape, p):
            out = ad.matmul(p, tape.constant(w))
            return ad.mean_all(ad.mul(out, out))

        check_param_grad(build, x0)

    def test_matmul_weight_side(self):
        rng = Rng(4)
        x = Tensor(rng.normal((3, 4)))
        w0 = Tensor(rng.normal((4, 2)))

        def build(tape, p):
            out = ad.matmul(tape.constant(x), p)
            return ad.mean_all(ad.mul(out, out))

        check_param_grad(build, w0)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_conv2d_input(self, padding):
        rng = Rng(5)
        x0 = Tensor(rng.normal((2, 2, 5, 5)) * 0.5)
        w = Tensor(rng.normal((3, 2, 3, 3)) * 0.5)

        def build(tape, p):
            out = ad.conv2d(p, tape.constant(w), padding)
            return ad.mean_all(ad.mul(out, out))

        check_param_grad(build, x0)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_conv2d_weight(self, padding):
        rng = Rng(6)
        x = Tensor(rng.normal((2, 2, 5, 5)) * 0.5)
        w0 = Tensor(rng.normal((3, 2, 3, 3)) * 0.5)

        def build(tape, p):
            out = ad.conv2d(tape.constant(x), p, padding)
            return ad.mean_all(ad.mul(out, out))

        check_param_grad(build, w0)

    def test_conv2d_1x1(self):
        rng = Rng(7)
        x = Tensor(rng.normal((1, 3, 4, 4)) * 0.5)
        w0 = Tensor(rng.normal((2, 3, 1, 1)) * 0.5)

        def build(tape, p):
            out = ad.conv2d(tape.constant(x), p, "same")
            return ad.mean_all(ad.mul(out, out))

        check_param_grad(build, w0)

    def test_avg_pool_reshape(self):
        rng = Rng(8)
        x0 = Tensor(rng.normal((1, 2, 4, 4)))

        def build(tape, p):
            out = ad.avg_pool2d(p)
            flat = ad.reshape(out, (1, 8))
            return ad.mean_all(ad.mul(flat, flat))

        check_param_grad(build, x0)

    def test_softmax_temp_and_pick(self):
        rng = Rng(9)
        x0 = Tensor(rng.normal(5))

        def build(tape, p):
            w = ad.softmax_temp(p, tau=0.7)
            target = tape.constant(Tensor([0.3, 0.1, 0.2, 0.25, 0.15]))
            d = ad.sub(w, target)
            picked = ad.pick(w, 2)
            return ad.add(ad.mean_all(ad.mul(d, d)), ad.mul(picked, picked))

        check_param_grad(build, x0)

    def test_cross_entropy(self):
        rng = Rng(10)
        x0 = Tensor(rng.normal((4, 3)))
        labels = np.array([0, 2, 1, 2])

        def build(tape, p):
            return ad.cross_entropy(p, labels)

        check_param_grad(build, x0)

    def test_sum_and_mean(self):
        rng = Rng(11)
        x0 = Tensor(rng.normal((2, 3)))

        def build(tape, p):
            return ad.add(ad.sum_all(ad.mul(p, p)), ad.mean_all(ad.sigmoid(p)))

        check_param_grad(build, x0)


def _reference_conv(x, w, padding, up):
    """float64 direct loop over kernel taps: the output, and the input and
    weight gradients of sum(output * up)."""
    x, w, up = (a.astype(np.float64) for a in (x, w, up))
    k, c, kh, kw = w.shape
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((x.shape[0], k, oh, ow))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + oh, j:j + ow]
            out += np.einsum("kc,nchw->nkhw", w[:, :, i, j], window)
            gxp[:, :, i:i + oh, j:j + ow] += np.einsum("kc,nkhw->nchw", w[:, :, i, j], up)
            gw[:, :, i, j] = np.einsum("nkhw,nchw->kc", up, window)
    return out, gxp[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]], gw


def _tape_conv(x, w, padding, up):
    tape = Tape()
    xn, wn = tape.param(Tensor(x)), tape.param(Tensor(w))
    out = ad.conv2d(xn, wn, padding)
    grads = backward(ad.sum_all(ad.mul(out, tape.constant(Tensor(up)))))
    return out.data, grads[xn].data, grads[wn].data


@st.composite
def conv_case(draw, batches):
    n = draw(st.sampled_from(batches))
    kernel, padding = draw(st.sampled_from([(3, "same"), (3, "valid"), (1, "same")]))
    low = 3 if padding == "valid" else 1
    h, w = draw(st.integers(low, 6)), draw(st.integers(low, 6))
    c, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = rng.standard_normal((k, c, kernel, kernel)).astype(np.float32)
    return x, wt, padding, rng


class TestConvProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(conv_case([1, 63, 64, 65, 130]))
    def test_no_tape_batches_match_per_image_and_tape(self, case):
        x, w, padding, _ = case
        batched = tc._conv2d_raw(x, w, padding)
        per_image = np.concatenate([tc._conv2d_raw(x[i:i + 1], w, padding)
                                    for i in range(x.shape[0])])
        assert batched.tobytes() == per_image.tobytes()
        tape = Tape()
        taped = ad.conv2d(tape.constant(Tensor(x)), tape.constant(Tensor(w)), padding)
        assert batched.tobytes() == taped.data.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(conv_case([1, 2, 5]))
    def test_forward_and_gradients_match_float64_reference(self, case):
        x, w, padding, rng = case
        out_dims = tc._conv2d_raw(x, w, padding).shape
        up = rng.standard_normal(out_dims).astype(np.float32)
        got = _tape_conv(x, w, padding, up)
        ref = _reference_conv(x, w, padding, up)
        # float32 sums of m terms stay within m * eps32 of the sum of
        # their magnitudes; 1e-4 covers m up to ~800
        bound = _reference_conv(np.abs(x), np.abs(w), padding, np.abs(up))
        for g, r, b in zip(got, ref, bound):
            assert g.shape == r.shape
            assert np.all(np.abs(g - r) <= 1e-4 * b + 1e-12)
