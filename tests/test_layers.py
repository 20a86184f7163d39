import numpy as np
import pytest

from bisrnet import layers
from bisrnet.errors import DimensionError, StateError
from bisrnet.layers import (
    BinDownsample,
    BinFusionDown,
    BinFusionUp,
    BinUpsample,
    BiSRConv,
    Chain,
    Conv2dFP,
    ConvBlock,
    FPUp,
    NormalDown,
    NormalFuse,
    NormalUp,
    Pool2,
    Up2,
    VanillaBinConv,
    rprelu,
)
from bisrnet.tensor import avg_pool2x2, bilinear_up2, concat_channels, split_channels

from conftest import bisr_reference, finite_difference_check


def rand_pm1(rng, shape, dtype=np.float32):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(dtype)


def zero_weights(layer):
    for p in layer.params():
        if p.name.endswith(".weight"):
            p.value[...] = 0


class TestRPReLU:
    def test_continuity_at_pivot(self):
        gamma = np.array([0.3, -0.5])
        zeta = np.array([1.0, 2.0])
        beta = np.array([0.25, 0.7])
        y = np.broadcast_to(gamma[None, :, None, None], (1, 2, 2, 2)).copy()
        out = rprelu(y, beta, gamma, zeta)
        np.testing.assert_allclose(out, zeta[None, :, None, None] * np.ones_like(y))

    def test_negative_branch(self):
        y = np.full((1, 1, 1, 1), -2.0)
        out = rprelu(y, np.array([0.25]), np.array([0.0]), np.array([0.0]))
        assert out.item() == pytest.approx(-0.5)

    def test_unit_slope_is_identity(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((1, 3, 4, 4))
        out = rprelu(y, np.ones(3), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out, y)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rprelu(np.zeros((1, 3, 2, 2)), np.ones(2), np.zeros(2), np.zeros(2))


class TestBiSRConv:
    def test_zero_weights_is_identity(self):
        rng = np.random.default_rng(1)
        layer = BiSRConv(4, rng)
        zero_weights(layer)
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_unit_redistribution_keeps_pm1(self):
        rng = np.random.default_rng(2)
        layer = BiSRConv(3, rng)
        x = rand_pm1(rng, (1, 3, 5, 5))
        layer.forward(x)
        np.testing.assert_array_equal(layer._cache[2], x)  # cached x_b

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(3)
        layer = BiSRConv(4, rng)
        # Perturb every parameter away from its init.
        for p in layer.params():
            p.value += rng.standard_normal(p.value.shape).astype(np.float32) * 0.1
        x = rng.standard_normal((2, 4, 7, 7)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x), bisr_reference(x, layer))

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        layer = BiSRConv(4, rng)
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        layer.forward(x)
        gin = layer.backward(np.zeros_like(x))
        assert not gin.any()
        for p in layer.params():
            assert not p.grad.any(), p.name

    def test_residual_passes_gradient_with_dead_conv(self):
        rng = np.random.default_rng(5)
        layer = BiSRConv(4, rng)
        zero_weights(layer)
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        layer.forward(x)
        g = rng.standard_normal(x.shape).astype(np.float32)
        np.testing.assert_array_equal(layer.backward(g), g)

    def test_backward_before_forward(self):
        layer = BiSRConv(4, np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 4, 5, 5), dtype=np.float32))

    def test_surrogate_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        layer = BiSRConv(4, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4, 5, 5))
        probe = rng.standard_normal(x.shape)

        def loss():
            return float((layer.forward(x, surrogate=True) * probe).sum())

        layer.forward(x, surrogate=True)
        gin = layer.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in layer.params()]
        targets.append((x, gin, "input"))
        finite_difference_check(loss, targets, rng, rtol=1e-4)


class TestConvBlock:
    def test_zero_weights_is_identity(self):
        rng = np.random.default_rng(7)
        block = ConvBlock(3, rng)
        zero_weights(block)
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(block.forward(x), x)

    def test_inner_convs_linear(self):
        rng = np.random.default_rng(8)
        conv = Conv2dFP(3, 3, 3, 1, 1, rng)
        conv.bias.value[...] = 0
        x1 = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        x2 = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        lhs = conv.forward(x1 + x2)
        rhs = conv.forward(x1) + conv.forward(x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        block = ConvBlock(3, rng, dtype=np.float64)
        x = rng.standard_normal((1, 3, 6, 6)) + 0.3  # keep leaky kinks away
        probe = rng.standard_normal(x.shape)

        def loss():
            return float((block.forward(x) * probe).sum())

        block.forward(x)
        gin = block.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in block.params()]
        targets.append((x, gin, "input"))
        finite_difference_check(loss, targets, rng, rtol=1e-4)


class TestBinModules:
    def setup_module_input(self, seed, c=4, h=8, w=8):
        rng = np.random.default_rng(seed)
        return rng, rng.standard_normal((1, c, h, w)).astype(np.float32)

    def test_downsample_zero_weight_skeleton(self):
        rng, x = self.setup_module_input(10)
        mod = BinDownsample(4, rng)
        zero_weights(mod)
        u = avg_pool2x2(x)
        np.testing.assert_array_equal(mod.forward(x), concat_channels(u, u))

    def test_downsample_shape_contract(self):
        rng, x = self.setup_module_input(11)
        assert BinDownsample(4, rng).forward(x).shape == (1, 8, 4, 4)

    def test_downsample_composition(self):
        rng, x = self.setup_module_input(12)
        mod = BinDownsample(4, rng)
        u = avg_pool2x2(x)
        want = concat_channels(bisr_reference(u, mod.branch_a), bisr_reference(u, mod.branch_b))
        np.testing.assert_array_equal(mod.forward(x), want)

    def test_fusion_up_zero_weight_skeleton(self):
        rng, x = self.setup_module_input(13)
        mod = BinFusionUp(4, rng)
        zero_weights(mod)
        np.testing.assert_array_equal(mod.forward(x), concat_channels(x, x))

    def test_fusion_up_shape_and_composition(self):
        rng, x = self.setup_module_input(14)
        mod = BinFusionUp(4, rng)
        out = mod.forward(x)
        assert out.shape == (1, 8, 8, 8)
        want = concat_channels(bisr_reference(x, mod.branch_a), bisr_reference(x, mod.branch_b))
        np.testing.assert_array_equal(out, want)

    def test_fusion_down_zero_weight_skeleton(self):
        rng, x = self.setup_module_input(15)
        mod = BinFusionDown(4, rng)
        zero_weights(mod)
        a, b = split_channels(x, 2)
        np.testing.assert_array_equal(mod.forward(x), np.float32(0.5) * (a + b))

    def test_fusion_down_shape_and_composition(self):
        rng, x = self.setup_module_input(16)
        mod = BinFusionDown(4, rng)
        out = mod.forward(x)
        assert out.shape == (1, 2, 8, 8)
        a, b = split_channels(x, 2)
        want = np.float32(0.5) * (
            bisr_reference(a, mod.branch_a) + bisr_reference(b, mod.branch_b)
        )
        np.testing.assert_array_equal(out, want)

    def test_fusion_down_odd_channels_rejected(self):
        with pytest.raises(DimensionError):
            BinFusionDown(5, np.random.default_rng(0))

    def test_upsample_zero_weight_skeleton(self):
        rng, x = self.setup_module_input(17)
        mod = BinUpsample(4, rng)
        zero_weights(mod)
        up = bilinear_up2(x)
        a, b = split_channels(up, 2)
        np.testing.assert_array_equal(mod.forward(x), np.float32(0.5) * (a + b))

    def test_upsample_shape_contract(self):
        rng, x = self.setup_module_input(18)
        assert BinUpsample(4, rng).forward(x).shape == (1, 2, 16, 16)

    def test_zero_weight_input_gradient_is_adjoint(self):
        # With dead conv branches each module reduces to a linear map; its
        # backward must then be exactly that map's adjoint.
        rng, x = self.setup_module_input(19)
        g = np.random.default_rng(99)

        mod = BinDownsample(4, rng)
        zero_weights(mod)
        mod.forward(x)
        grad = g.standard_normal((1, 8, 4, 4)).astype(np.float32)
        got = mod.backward(grad)
        ga, gb = split_channels(grad, 4)
        from bisrnet.tensor import avg_pool2x2_backward

        want = avg_pool2x2_backward(ga + gb, x.shape)
        np.testing.assert_allclose(got, want, atol=1e-6)

        mod = BinFusionDown(4, rng)
        zero_weights(mod)
        mod.forward(x)
        grad = g.standard_normal((1, 2, 8, 8)).astype(np.float32)
        got = mod.backward(grad)
        want = concat_channels(np.float32(0.5) * grad, np.float32(0.5) * grad)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("cls", [BinDownsample, BinFusionUp, BinFusionDown, BinUpsample])
    def test_module_gradients_match_finite_differences(self, cls):
        rng = np.random.default_rng(20)
        mod = cls(4, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4, 6, 6))
        out = mod.forward(x, surrogate=True)
        probe = rng.standard_normal(out.shape)

        def loss():
            return float((mod.forward(x, surrogate=True) * probe).sum())

        mod.forward(x, surrogate=True)
        gin = mod.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in mod.params()]
        targets.append((x, gin, "input"))
        finite_difference_check(loss, targets, rng, n_coords=4, rtol=1e-4)


class TestNormalModules:
    def test_shape_contracts(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        assert NormalDown(4, rng).forward(x).shape == (1, 8, 4, 4)
        assert NormalUp(4, rng).forward(x).shape == (1, 2, 16, 16)
        assert NormalFuse(4, 2, rng).forward(x).shape == (1, 2, 8, 8)

    @pytest.mark.parametrize("build", [
        lambda rng: NormalDown(4, rng),
        lambda rng: NormalUp(4, rng),
        lambda rng: NormalFuse(4, 2, rng),
    ])
    def test_zero_weights_blocks_everything(self, build):
        # No identity path: dead weights annihilate the input entirely.
        rng = np.random.default_rng(22)
        mod = build(rng)
        zero_weights(mod)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        assert not mod.forward(x).any()

    def test_down_matches_reference(self):
        from bisrnet.binarize import sign
        from bisrnet.tensor import conv2d_ref

        rng = np.random.default_rng(23)
        mod = NormalDown(3, rng)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = mod.conv.weight.value
        scale = np.asarray(np.mean(np.abs(w)), np.float32)
        want = scale * conv2d_ref(sign(x), sign(w), stride=2, pad=1, pad_value=-1.0)
        np.testing.assert_array_equal(mod.forward(x), want)

    @pytest.mark.parametrize("build", [
        lambda rng: NormalDown(4, rng, dtype=np.float64),
        lambda rng: NormalUp(4, rng, dtype=np.float64),
        lambda rng: NormalFuse(4, 2, rng, dtype=np.float64),
    ])
    def test_gradients_match_finite_differences(self, build):
        rng = np.random.default_rng(24)
        mod = build(rng)
        x = rng.standard_normal((1, 4, 6, 6))
        out = mod.forward(x, surrogate=True)
        probe = rng.standard_normal(out.shape)

        def loss():
            return float((mod.forward(x, surrogate=True) * probe).sum())

        mod.forward(x, surrogate=True)
        gin = mod.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in mod.params()]
        targets.append((x, gin, "input"))
        finite_difference_check(loss, targets, rng, n_coords=4, rtol=1e-4)


class TestChainAndFPUp:
    def test_chain_composes(self):
        rng = np.random.default_rng(25)
        chain = Chain([ConvBlock(3, rng), ConvBlock(3, rng)])
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        y = chain.forward(x)
        assert y.shape == x.shape
        chain.backward(np.ones_like(y))

    def test_fpup_shape_and_fd(self):
        rng = np.random.default_rng(26)
        mod = FPUp(3, rng, dtype=np.float64)
        x = rng.standard_normal((1, 3, 4, 4))
        out = mod.forward(x)
        assert out.shape == (1, 3, 8, 8)
        probe = rng.standard_normal(out.shape)

        def loss():
            return float((mod.forward(x) * probe).sum())

        mod.forward(x)
        gin = mod.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in mod.params()]
        targets.append((x, gin, "input"))
        finite_difference_check(loss, targets, rng, rtol=1e-4)


class TestCounts:
    def test_bisr_param_count(self):
        layer = BiSRConv(4, np.random.default_rng(0))
        # weight 4*4*9, gain+shift 8, alpha 1, rprelu 12
        assert layer.param_count() == 144 + 8 + 1 + 12

    def test_bisr_without_extras(self):
        layer = BiSRConv(4, np.random.default_rng(0), ste="clip", redistribute=False)
        assert layer.param_count() == 144 + 12

    def test_macs(self):
        macs, h, w = Conv2dFP(1, 1, 3, 1, 1, np.random.default_rng(0)).count_macs(4, 4)
        assert (macs, h, w) == (9 * 16, 4, 4)
        macs, h, w = BinDownsample(4, np.random.default_rng(0)).count_macs(8, 8)
        assert (macs, h, w) == (2 * 4 * 4 * 9 * 16, 4, 4)


# One small instance and input shape per layer class, for the state guard.
GUARD_CASES = {
    VanillaBinConv: lambda r: VanillaBinConv(4, 6, 3, 1, 1, r),
    BiSRConv: lambda r: BiSRConv(4, r),
    Conv2dFP: lambda r: Conv2dFP(4, 6, 3, 1, 1, r),
    ConvBlock: lambda r: ConvBlock(4, r),
    Chain: lambda r: Chain([ConvBlock(4, r), BiSRConv(4, r)]),
    Pool2: lambda r: Pool2(),
    Up2: lambda r: Up2(),
    BinFusionUp: lambda r: BinFusionUp(4, r),
    BinFusionDown: lambda r: BinFusionDown(4, r),
    BinDownsample: lambda r: BinDownsample(4, r),
    BinUpsample: lambda r: BinUpsample(4, r),
    NormalDown: lambda r: NormalDown(4, r),
    NormalUp: lambda r: NormalUp(4, r),
    NormalFuse: lambda r: NormalFuse(4, 2, r),
    FPUp: lambda r: FPUp(4, r),
}


class TestStateGuard:
    def test_every_layer_class_has_a_case(self):
        classes = {
            cls for cls in vars(layers).values()
            if isinstance(cls, type) and issubclass(cls, layers.Layer) and hasattr(cls, "forward")
        }
        assert classes == set(GUARD_CASES)

    @pytest.mark.parametrize("cls", list(GUARD_CASES), ids=lambda cls: cls.__name__)
    def test_backward_needs_its_own_forward(self, cls):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        layer = GUARD_CASES[cls](rng)
        g = np.zeros_like(layer.forward(x))
        layer.backward(g)
        with pytest.raises(StateError):
            layer.backward(g)  # the forward's cache is already consumed
        with pytest.raises(StateError):
            GUARD_CASES[cls](rng).backward(g)  # no forward at all
