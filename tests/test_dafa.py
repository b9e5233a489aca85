import numpy as np
import pytest

from sokd import autodiff as ad
from sokd.dafa import (
    BETA_MAX,
    BETA_MIN,
    AugPolicy,
    MixNoise,
    OpChoice,
    SubPolicy,
    _draw_op_noise,
    _relaxed_gate,
    apply_discrete,
    apply_op,
    apply_subpolicy,
    build_search_graph,
    consistency_loss,
    default_policy,
    discretize,
    draw_mix_noise,
    magnitude_grad,
    mix_subpolicies,
    policy_from_document,
    policy_to_document,
)
from sokd.errors import ConfigError, DataError, ShapeError
from sokd.oracle import finite_diff_grad
from sokd.tensor import Rng, Tensor


def feature(seed=0, dims=(4, 5, 5)):
    return Tensor(Rng(seed).normal(dims).astype(np.float32))


class TestApplyOp:
    def test_zero_magnitude_noise_is_identity(self):
        f = feature(1)
        out = apply_op("additive_gaussian_noise", f, 0.0, Rng(2))
        np.testing.assert_array_equal(out.data, f.data)

    def test_full_mask_zeroes_everything(self):
        out = apply_op("feature_mask", feature(1), 1.0, Rng(2))
        np.testing.assert_array_equal(out.data, np.zeros((4, 5, 5)))

    @pytest.mark.parametrize("m", [0.0, 0.1, 0.5, 1.0])
    def test_mask_zeroes_exact_count(self, m):
        f = Tensor(np.ones((4, 8, 6, 6), dtype=np.float32))
        out = apply_op("feature_mask", f, m, Rng(3))
        assert int((out.data == 0).sum()) == round(m * f.size)

    def test_gaussian_noise_drawn_in_float32(self):
        noise = _draw_op_noise("additive_gaussian_noise", (2, 3, 4, 4), 0.1, Rng(1))
        assert noise["eps"].dtype == np.float32

    def test_uniform_scale_arithmetic(self):
        out = apply_op("uniform_scale", Tensor([2.0, 4.0]), 0.5, Rng(0))
        np.testing.assert_array_equal(out.data, [3.0, 6.0])

    def test_channel_scale_matches_contract(self):
        f = feature(3)
        out = apply_op("channel_scale", f, 0.25, Rng(0))
        np.testing.assert_allclose(out.data, 1.25 * f.data, rtol=1e-6)

    def test_channel_shuffle_permutes_channels(self):
        f = feature(4, dims=(6, 3, 3))
        out = apply_op("channel_shuffle", f, 1.0, Rng(5))
        assert sorted(map(tuple, out.data.reshape(6, -1))) == sorted(
            map(tuple, f.data.reshape(6, -1)))

    def test_magnitude_out_of_range(self):
        with pytest.raises(ShapeError):
            apply_op("feature_mask", feature(1), 1.5, Rng(0))

    def test_noise_magnitude_scales_with_feature_std(self):
        f = feature(6, dims=(8, 8, 8))
        out = apply_op("additive_gaussian_noise", f, 0.5, Rng(7))
        delta_sd = float((out.data - f.data).std())
        expected = 0.5 * float(f.data.std())
        assert abs(delta_sd - expected) / expected < 0.15


class TestApplySubpolicy:
    def test_beta_min_hard_leaves_input_alone(self):
        sub = SubPolicy([OpChoice("feature_mask", BETA_MIN, 0.7),
                         OpChoice("uniform_scale", BETA_MIN, 1.0)])
        f = feature(1)
        for trial in range(20):
            out = apply_subpolicy(sub, f, lam=0.5, rng=Rng(trial), mode="hard")
            np.testing.assert_array_equal(out.data, f.data)

    def test_near_certain_scale_fires(self):
        sub = SubPolicy([OpChoice("uniform_scale", BETA_MAX, 1.0)])
        f = Tensor([1.0, 2.0])
        fired = 0
        for seed in range(50):
            out = apply_subpolicy(sub, f, lam=0.5, rng=Rng(seed), mode="hard")
            if np.array_equal(out.data, [2.0, 4.0]):
                fired += 1
            else:
                np.testing.assert_array_equal(out.data, f.data)
        assert fired >= 49  # beta = 1 - 1e-3

    def test_relaxed_gate_midpoint(self):
        for lam in (0.1, 0.5, 2.0):
            assert abs(_relaxed_gate(0.5, 0.5, lam) - 0.5) < 1e-12

    def test_relaxed_blend_formula(self):
        # one op, recompute the expected blend from the same stream draws
        sub = SubPolicy([OpChoice("uniform_scale", 0.5, 1.0)])
        f = Tensor([2.0])
        rng = Rng(9)
        out = apply_subpolicy(sub, f, lam=0.5, rng=rng, mode="relaxed")
        u = float(Rng(9).child("op").child(0).uniform())
        b = _relaxed_gate(0.5, u, 0.5)
        expected = b * 4.0 + (1 - b) * 2.0
        np.testing.assert_allclose(out.data, [expected], rtol=1e-6)

    def test_identity_ops_skipped_bit_exactly(self):
        sub = SubPolicy([OpChoice("identity", 0.9, 0.3)])
        f = feature(2)
        out = apply_subpolicy(sub, f, lam=0.5, rng=Rng(1), mode="relaxed")
        np.testing.assert_array_equal(out.data, f.data)


class TestMixSubpolicies:
    def test_singleton_ignores_alpha(self):
        for alpha in (-3.0, 0.0, 7.5):
            policy = AugPolicy(np.array([alpha]), [SubPolicy([OpChoice("uniform_scale", 0.7, 0.4)])])
            f = feature(3)
            mixed = mix_subpolicies(policy, f, Rng(11), mode="soft")
            direct = apply_subpolicy(policy.subpolicies[0], f, policy.lam,
                                     Rng(11).child("sub").child(0), mode="relaxed")
            np.testing.assert_allclose(mixed.data, direct.data, atol=1e-6)

    def test_equal_alpha_hand_mixture(self):
        # identity & a gate-certain doubling op, Gumbel noise zeroed: (2+4)/2 = 3
        policy = AugPolicy(np.zeros(2), [
            SubPolicy([OpChoice("identity", 0.5, 0.0)]),
            SubPolicy([OpChoice("uniform_scale", BETA_MAX, 1.0)]),
        ])
        f = Tensor([2.0])
        noise = MixNoise(np.zeros(2), [[0.5], [1.0 - 1e-9]], [[{}], [{}]])
        tape = ad.Tape()
        node, _ = build_search_graph(tape, policy, f, noise, mixture="soft")
        np.testing.assert_allclose(node.data, [3.0], atol=1e-3)

    def test_saturated_alpha_selects_first(self):
        policy = AugPolicy(np.array([50.0, 0.0]), [
            SubPolicy([OpChoice("identity", 0.5, 0.0)]),
            SubPolicy([OpChoice("uniform_scale", BETA_MAX, 1.0)]),
        ])
        f = Tensor([2.0])
        noise = MixNoise(np.zeros(2), [[0.5], [1.0 - 1e-9]], [[{}], [{}]])
        tape = ad.Tape()
        node, _ = build_search_graph(tape, policy, f, noise, mixture="soft")
        np.testing.assert_allclose(node.data, [2.0], atol=1e-6)

    def test_all_identity_policy_hard_bit_exact(self):
        policy = AugPolicy(np.zeros(3), [SubPolicy([OpChoice("identity", BETA_MIN, 0.0)])] * 3)
        f = feature(5)
        out = mix_subpolicies(policy, f, Rng(6), mode="hard")
        np.testing.assert_array_equal(out.data, f.data)

    def test_soft_matches_graph_forward(self):
        policy = default_policy()
        f = feature(7, dims=(2, 4, 6, 6))
        rng = Rng(13).child("mix")
        pure = mix_subpolicies(policy, f, rng, mode="soft")
        noise = draw_mix_noise(policy, f.dims, Rng(13).child("mix"))
        tape = ad.Tape()
        node, _ = build_search_graph(tape, policy, f, noise, mixture="soft")
        np.testing.assert_allclose(node.data, pure.data, atol=2e-5)

    def test_hard_mixture_forward_is_argmax_branch(self):
        policy = AugPolicy(np.array([0.0, 3.0]), [
            SubPolicy([OpChoice("identity", 0.5, 0.0)]),
            SubPolicy([OpChoice("uniform_scale", BETA_MAX, 1.0)]),
        ])
        f = Tensor([1.0, 2.0])
        noise = MixNoise(np.zeros(2), [[0.5], [1.0 - 1e-9]], [[{}], [{}]])
        tape = ad.Tape()
        node, _ = build_search_graph(tape, policy, f, noise, mixture="hard")
        np.testing.assert_allclose(node.data, [2.0, 4.0], atol=1e-3)

    def test_empty_policy_rejected(self):
        with pytest.raises(ConfigError):
            AugPolicy(np.zeros(0), []).validate()


class TestMagnitudeGrad:
    def test_unit_upstream(self):
        assert magnitude_grad(Tensor(np.ones((2, 2), dtype=np.float32))) == 4.0

    def test_hand_sum(self):
        assert magnitude_grad(Tensor([[1.0, -1.0], [2.0, 0.0]])) == 2.0

    def test_zero(self):
        assert magnitude_grad(Tensor.zeros((3, 3))) == 0.0


class TestDiscretize:
    def test_argmax(self):
        policy = AugPolicy(np.array([0.1, 2.0, -1.0]),
                           [SubPolicy([OpChoice("identity")]) for _ in range(3)])
        assert discretize(policy).index == 1

    def test_tie_takes_lowest_index(self):
        policy = AugPolicy(np.array([1.0, 1.0]),
                           [SubPolicy([OpChoice("identity")]) for _ in range(2)])
        assert discretize(policy).index == 0

    def test_singleton(self):
        policy = AugPolicy(np.zeros(1), [SubPolicy([OpChoice("feature_mask", 0.4, 0.2)])])
        dp = discretize(policy)
        assert dp.index == 0 and dp.sub.ops[0].kind == "feature_mask"

    def test_carries_beta_m_and_gates_hard(self):
        policy = AugPolicy(np.array([5.0, 0.0]), [
            SubPolicy([OpChoice("uniform_scale", BETA_MAX, 1.0)]),
            SubPolicy([OpChoice("identity")]),
        ])
        dp = discretize(policy)
        assert dp.sub.ops[0].beta == BETA_MAX and dp.sub.ops[0].m == 1.0
        out = apply_discrete(dp, Tensor([3.0]), Rng(1))
        assert float(out.data[0]) in (3.0, 6.0)


class TestConsistencyLoss:
    def test_equal_inputs(self):
        f = feature(8)
        assert consistency_loss(f, f) == 0.0

    def test_hand_value(self):
        assert consistency_loss(Tensor([2.0, 0.0]), Tensor([0.0, 0.0])) == 1.0

    def test_quadratic_scaling(self):
        a, b = Tensor([1.0, 3.0]), Tensor([0.0, 1.0])
        doubled = Tensor(2 * a.data - b.data)
        assert abs(consistency_loss(doubled, b) - 4 * consistency_loss(a, b)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            consistency_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestSearchGraphGradients:
    def _loss_for(self, policy, f, target, noise, mixture="soft"):
        tape = ad.Tape()
        node, params = build_search_graph(tape, policy, f, noise, mixture)
        diff = ad.sub(node, tape.constant(target))
        loss = ad.lin(ad.mean_all(ad.mul(diff, diff)), 0.5, 0.0)
        return loss, params

    def test_beta_gradient_matches_finite_difference(self):
        f = feature(21, dims=(3, 4, 4))
        target = feature(22, dims=(3, 4, 4))
        base = AugPolicy(np.zeros(1), [SubPolicy([OpChoice("uniform_scale", 0.6, 0.8)])])
        noise = draw_mix_noise(base, f.dims, Rng(23))
        loss, params = self._loss_for(base, f, target, noise)
        g_beta = ad.backward(loss)[params[("beta", 0, 0)]].data[0]

        def f_of_beta(beta_t):
            policy = AugPolicy(np.zeros(1), [SubPolicy([OpChoice("uniform_scale",
                                                                 float(beta_t.data[0]), 0.8)])])
            loss2, _ = self._loss_for(policy, f, target, noise)
            return loss2.tensor.item()

        g_fd = finite_diff_grad(f_of_beta, Tensor([0.6]), eps=1e-3).data[0]
        assert abs(g_beta - g_fd) / max(1.0, abs(g_fd)) < 1e-2

    def test_alpha_gradient_matches_finite_difference(self):
        f = feature(31, dims=(2, 4, 4))
        target = feature(32, dims=(2, 4, 4))
        subs = [SubPolicy([OpChoice("identity")]),
                SubPolicy([OpChoice("uniform_scale", 0.9, 1.0)])]
        base = AugPolicy(np.array([0.3, -0.2]), subs, tau=0.8)
        noise = draw_mix_noise(base, f.dims, Rng(33))
        loss, params = self._loss_for(base, f, target, noise)
        g_alpha = ad.backward(loss)[params["alpha"]].data

        def f_of_alpha(alpha_t):
            policy = AugPolicy(alpha_t.data.astype(np.float64), subs, tau=0.8)
            loss2, _ = self._loss_for(policy, f, target, noise)
            return loss2.tensor.item()

        g_fd = finite_diff_grad(f_of_alpha, Tensor([0.3, -0.2]), eps=1e-3).data
        np.testing.assert_allclose(g_alpha, g_fd, atol=2e-3)

    def test_magnitude_ste_vs_true_gradient_on_additive_noise(self):
        # with unit noise the true magnitude sensitivity is std(F) everywhere,
        # so finite differences must equal std(F) times the straight-through sum
        f = feature(41, dims=(3, 4, 4))
        target = feature(42, dims=(3, 4, 4))
        sub = [SubPolicy([OpChoice("additive_gaussian_noise", BETA_MAX, 0.3)])]
        base = AugPolicy(np.zeros(1), sub)
        noise = draw_mix_noise(base, f.dims, Rng(43))
        noise.op_noise[0][0]["eps"] = np.ones(f.dims, dtype=np.float32)
        noise.gates[0][0] = 1.0 - 1e-12
        loss, params = self._loss_for(base, f, target, noise)
        g_ste = ad.backward(loss)[params[("m", 0, 0)]].data[0]

        def f_of_m(m_t):
            policy = AugPolicy(np.zeros(1), [SubPolicy([OpChoice(
                "additive_gaussian_noise", BETA_MAX, float(m_t.data[0]))])])
            loss2, _ = self._loss_for(policy, f, target, noise)
            return loss2.tensor.item()

        g_fd = finite_diff_grad(f_of_m, Tensor([0.3]), eps=1e-3).data[0]
        sd = float(f.data.std(dtype=np.float64))
        assert abs(sd * g_ste - g_fd) / max(1.0, abs(g_fd)) < 2e-2

    def test_identity_policy_alpha_gradient_zero(self):
        f = feature(51, dims=(2, 3, 3))
        base = AugPolicy(np.zeros(1), [SubPolicy([OpChoice("identity")])])
        noise = draw_mix_noise(base, f.dims, Rng(52))
        loss, params = self._loss_for(base, f, feature(53, dims=(2, 3, 3)), noise)
        np.testing.assert_array_equal(ad.backward(loss)[params["alpha"]].data, [0.0])


class TestPolicyDocuments:
    def test_round_trip(self):
        policy = default_policy()
        policy.alpha[:] = [0.25, -1.5, 0.0, 3.0]
        policy.subpolicies[1].ops[0].beta = 0.75
        text = policy_to_document(policy)
        back = policy_from_document(text)
        assert policy_to_document(back) == text

    def test_byte_stable(self):
        assert policy_to_document(default_policy()) == policy_to_document(default_policy())

    def test_field_order_fixed(self):
        text = policy_to_document(default_policy())
        assert text.index('"alpha"') < text.index('"tau"') < text.index(
            '"lambda"') < text.index('"subpolicies"')

    def test_rejects_unknown_fields(self):
        text = policy_to_document(default_policy()).replace('"tau"', '"tau_extra"')
        with pytest.raises(DataError):
            policy_from_document(text)

    def test_rejects_bad_kind(self):
        text = policy_to_document(default_policy()).replace("feature_mask", "telekinesis")
        with pytest.raises(DataError):
            policy_from_document(text)
