import re

import numpy as np
import pytest

from bisrnet import layers
from bisrnet.binarize import sign
from bisrnet.errors import ArgumentError, DimensionError, StateError
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

    def test_lists_give_the_bytes_of_arrays(self):
        y = np.random.default_rng(3).standard_normal((1, 2, 3, 3)).astype(np.float32)
        beta, gamma, zeta = [0.25, 0.5], [0.0, -0.1], [0.0, 0.3]
        got = rprelu(y, beta, gamma, zeta)
        want = rprelu(y, *(np.asarray(p) for p in (beta, gamma, zeta)))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_matches_where_form_bit_for_bit(self, dtype, channels_last):
        # The np.where form rprelu replaced, on signed zeros, infinities,
        # NaN and values at the pivot; the result keeps y's memory order.
        rng = np.random.default_rng(9)
        c = 6
        y = rng.standard_normal((2, 5, 7, c) if channels_last else (2, c, 5, 7)).astype(dtype)
        if channels_last:
            y = y.transpose(0, 3, 1, 2)
        beta, gamma, zeta = (rng.standard_normal(c).astype(dtype) for _ in range(3))
        beta[:3] = [-0.0, 0.0, np.inf]
        gamma[3] = 0.0
        y[0, 3, 0, :5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
        y[1, 4, 2, 3] = gamma[4]
        b, g, z = (p[None, :, None, None] for p in (beta, gamma, zeta))
        with np.errstate(invalid="ignore"):
            want = np.where(y > g, y - g, b * (y - g)) + z
            got = rprelu(y, beta, gamma, zeta)
        assert got.tobytes() == want.tobytes()
        assert got.strides == (y - g).strides


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
        # The signed input is sign(x_r), with x_r recomputed from the cache
        # as the backward recomputes it.
        np.testing.assert_array_equal(sign(layer._redistribute(layer._cache[0])), x)

    def test_cache_holds_input_and_int16_raw_sums(self):
        rng = np.random.default_rng(2)
        layer = BiSRConv(4, rng)
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        layer.forward(x)
        cached_x, _, _, _, raw, _ = layer._cache
        assert cached_x is x
        assert raw.dtype == np.int16

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(3)
        layer = BiSRConv(4, rng)
        # Perturb every parameter away from its init.
        for p in layer.params():
            p.value += rng.standard_normal(p.value.shape).astype(np.float32) * 0.1
        x = rng.standard_normal((2, 4, 7, 7)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x), bisr_reference(x, layer))

    @pytest.mark.parametrize("shape", [(2, 8, 16, 16), (1, 28, 64, 64)])
    def test_output_bytes_and_memory_order_match_reference(self, shape):
        # The larger output (448 KiB) takes the conv's channel-last order,
        # the smaller one x's order; the reference sums in the same form.
        rng = np.random.default_rng(6)
        layer = BiSRConv(shape[1], rng)
        for p in layer.params():
            p.value += rng.standard_normal(p.value.shape).astype(np.float32) * 0.1
        x = rng.standard_normal(shape).astype(np.float32)
        got, want = layer.forward(x), bisr_reference(x, layer)
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides

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
            with layers.surrogate():
                return float((layer.forward(x) * probe).sum())

        with layers.surrogate():
            layer.forward(x)
        gin = layer.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in layer.params()]
        targets.append((x, gin, "input"))
        finite_difference_check(loss, targets, rng, rtol=1e-4)


class TestConv2dFP:
    def test_cache_holds_input_not_columns(self):
        rng = np.random.default_rng(6)
        layer = Conv2dFP(3, 4, 3, 1, 1, rng)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        layer.forward(x)
        assert layer._cache is x


@pytest.mark.parametrize("build", [
    lambda rng, dt: Conv2dFP(4, 4, 3, 1, 1, rng, dt, name="fp"),
    lambda rng, dt: VanillaBinConv(4, 4, 3, 1, 1, rng, dt, name="bin"),
    lambda rng, dt: BiSRConv(4, rng, dt, name="bisr"),
], ids=["Conv2dFP", "VanillaBinConv", "BiSRConv"])
@pytest.mark.parametrize("layer_dtype,x_dtype", [("float32", "float64"), ("float64", "float32")])
@pytest.mark.parametrize("surrogate", [False, True])
def test_input_of_another_dtype_rejected(build, layer_dtype, x_dtype, surrogate):
    # A conv layer computes in its weights' dtype and names both on a mismatch.
    layer = build(np.random.default_rng(8), np.dtype(layer_dtype))
    x = np.zeros((1, 4, 6, 6), x_dtype)
    message = f"^{layer.name}: input dtype {x_dtype} != weight dtype {layer_dtype}$"
    with layers.surrogate(surrogate), pytest.raises(ArgumentError, match=message):
        layer.forward(x)
    assert layer._cache is None


@pytest.mark.parametrize("build", [
    lambda rng, dt: Conv2dFP(4, 4, 3, 1, 1, rng, dt, name="fp"),
    lambda rng, dt: VanillaBinConv(4, 4, 3, 1, 1, rng, dt, name="bin"),
    lambda rng, dt: BiSRConv(4, rng, dt, name="bisr"),
], ids=["Conv2dFP", "VanillaBinConv", "BiSRConv"])
@pytest.mark.parametrize("layer_dtype,g_dtype", [("float32", "float64"), ("float64", "float32")])
def test_grad_out_of_another_dtype_rejected(build, layer_dtype, g_dtype):
    # The backward keeps the forward's dtype rule, and raises before it
    # consumes the cache, so a backward with the right dtype still runs.
    layer = build(np.random.default_rng(9), np.dtype(layer_dtype))
    y = layer.forward(np.ones((1, 4, 6, 6), layer_dtype))
    message = f"^{layer.name}: grad_out dtype {g_dtype} != weight dtype {layer_dtype}$"
    with pytest.raises(ArgumentError, match=message):
        layer.backward(np.ones(y.shape, g_dtype))
    assert layer.backward(np.ones_like(y)).dtype == np.dtype(layer_dtype)


@pytest.mark.parametrize("build,out_shape", [
    (lambda rng: Conv2dFP(4, 6, 4, 2, 1, rng, name="fp"), (1, 6, 4, 4)),
    (lambda rng: VanillaBinConv(4, 6, 3, 1, 1, rng, name="bin"), (1, 6, 8, 8)),
    (lambda rng: BiSRConv(4, rng, name="bisr"), (1, 4, 8, 8)),
    (lambda rng: Pool2("pool"), (1, 4, 4, 4)),
    (lambda rng: Up2("up"), (1, 4, 16, 16)),
], ids=["Conv2dFP", "VanillaBinConv", "BiSRConv", "Pool2", "Up2"])
def test_grad_out_of_another_shape_rejected(build, out_shape):
    # A gradient that would broadcast against the output is refused, naming
    # the layer and both shapes.
    layer = build(np.random.default_rng(10))
    assert layer.forward(np.ones((1, 4, 8, 8), np.float32)).shape == out_shape
    g_shape = out_shape[:2] + (1, 1)
    message = re.escape(f"{layer.name}: grad shape {g_shape} != output {out_shape}")
    with pytest.raises(DimensionError, match=f"^{message}$"):
        layer.backward(np.ones(g_shape, np.float32))


def _with_sublayers(layer):
    yield layer
    for sub in layer.layers:
        yield from _with_sublayers(sub)


@pytest.mark.parametrize("build", [
    lambda rng: VanillaBinConv(4, 4, 3, 1, 1, rng, name="bin"),
    lambda rng: BiSRConv(4, rng, name="bisr"),
    lambda rng: BiSRConv(4, rng, redistribute=False, name="bisr"),
    lambda rng: NormalDown(4, rng, name="ndown"),
    lambda rng: NormalFuse(4, 2, rng, name="nfuse"),
    lambda rng: BinFusionDown(4, rng, name="bifd"),
], ids=["VanillaBinConv", "BiSRConv", "BiSRConv-no-sr", "NormalDown", "NormalFuse",
        "BinFusionDown"])
@pytest.mark.parametrize("shape, message", [
    ((4, 4, 8), r"\(4, 4, 8\)"),
    ((1, 4, 8, 8, 1), r"\(1, 4, 8, 8, 1\)"),
    ((1, 6, 8, 8), r"6 channels|\(1, 6, 8, 8\)"),
    # BinFusionDown names the half it convolves.
    ((0, 4, 8, 8), r"^input must hold at least one image, got shape \(0, [24], 8, 8\)$"),
], ids=["3-D", "5-D", "channels", "empty-batch"])
@pytest.mark.parametrize("surrogate", [False, True], ids=["sign", "surrogate"])
def test_1bit_input_of_another_shape_rejected(build, shape, message, surrogate):
    # One input rule on both paths: the 3-D and 5-D inputs hold 4 at axis 1,
    # so only a rank check refuses them, and nothing is cached.
    layer = build(np.random.default_rng(11))
    x = np.ones(shape, np.float32)
    with layers.surrogate(surrogate), pytest.raises(DimensionError, match=message):
        layer.forward(x)
    assert all(sub._cache is None for sub in _with_sublayers(layer))


class TestConvBlock:
    def test_zero_weights_is_identity(self):
        rng = np.random.default_rng(7)
        block = ConvBlock(3, rng)
        zero_weights(block)
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(block.forward(x), x)

    def test_cache_is_shared_with_conv2(self):
        rng = np.random.default_rng(7)
        block = ConvBlock(3, rng)
        block.forward(rng.standard_normal((1, 3, 6, 6)).astype(np.float32))
        assert block._cache is block.conv2._cache

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
        with layers.surrogate():
            out = mod.forward(x)
        probe = rng.standard_normal(out.shape)

        def loss():
            with layers.surrogate():
                return float((mod.forward(x) * probe).sum())

        with layers.surrogate():
            mod.forward(x)
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

    def test_wide_fan_in_keeps_float32_raw_sums(self):
        # 3 * 3 * 3641 = 32769 bits. With every sign +1, the centre output
        # of a 3x3 input sums all of them, one past int16's range.
        from bisrnet.tensor import conv2d_ref

        rng = np.random.default_rng(25)
        conv = VanillaBinConv(3641, 2, 3, 1, 1, rng)
        conv.weight.value[...] = np.abs(conv.weight.value) + 0.01
        x = rng.random((1, 3641, 3, 3)).astype(np.float32) + 0.01
        conv.forward(x)
        raw = conv._cache[4]
        assert raw.dtype == np.float32
        assert raw[0, 0, 1, 1] == 32769
        want = conv2d_ref(sign(x), sign(conv.weight.value), stride=1, pad=1, pad_value=-1.0)
        np.testing.assert_array_equal(raw, want)

    @pytest.mark.parametrize("build", [
        lambda rng: NormalDown(4, rng, dtype=np.float64),
        lambda rng: NormalUp(4, rng, dtype=np.float64),
        lambda rng: NormalFuse(4, 2, rng, dtype=np.float64),
    ])
    def test_gradients_match_finite_differences(self, build):
        rng = np.random.default_rng(24)
        mod = build(rng)
        x = rng.standard_normal((1, 4, 6, 6))
        with layers.surrogate():
            out = mod.forward(x)
        probe = rng.standard_normal(out.shape)

        def loss():
            with layers.surrogate():
                return float((mod.forward(x) * probe).sum())

        with layers.surrogate():
            mod.forward(x)
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

    @pytest.mark.parametrize("h,w", [(5, 4), (4, 5)])
    def test_pool_counts_only_what_it_pools(self, h, w):
        # avg_pool2x2 refuses an odd size, so its count does too.
        with pytest.raises(DimensionError, match=f"^p: 2x2 pooling needs even h, w; got {h}x{w}$"):
            Pool2("p").count_macs(h, w)
        with pytest.raises(DimensionError):
            Pool2("p").forward(np.ones((1, 1, h, w), np.float32))


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
