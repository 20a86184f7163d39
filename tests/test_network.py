import tracemalloc

import numpy as np
import pytest

from bisrnet.errors import ArgumentError, ConfigError, DimensionError, StateError
from bisrnet.network import (
    OPS_DIVISOR,
    PARAMS_DIVISOR,
    PART_NAMES,
    Accounting,
    NetworkConfig,
    PartCount,
    build,
)

from conftest import finite_difference_check
from test_golden import CONFIGS, digest


def tiny_cfg(**kw):
    kw.setdefault("base_channels", 4)
    kw.setdefault("n_wavelengths", 4)
    return NetworkConfig(**kw)


def tiny_inputs(rng, nl=4, h=16, w=16, n=1, dtype=np.float32):
    h_in = rng.random((n, nl, h, w)).astype(dtype)
    m_in = rng.random((n, nl, h, w)).astype(dtype)
    return h_in, m_in


class TestConfig:
    def test_channel_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(base_channels=6)
        with pytest.raises(ConfigError):
            NetworkConfig(base_channels=2)

    def test_ste_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(ste="sigmoid")

    def test_presets(self):
        assert all(NetworkConfig.bisrnet().binarize_flags.values())
        assert not any(NetworkConfig.base_model().binarize_flags.values())


class TestBuildAndForward:
    def test_same_seed_same_parameters(self):
        a = build(tiny_cfg(), seed=5)
        b = build(tiny_cfg(), seed=5)
        for pa, pb in zip(a.params(), b.params()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = build(tiny_cfg(), seed=5)
        b = build(tiny_cfg(), seed=6)
        assert any(
            not np.array_equal(pa.value, pb.value)
            for pa, pb in zip(a.params(), b.params())
            if pa.name.endswith("weight")
        )

    def test_output_shape(self):
        rng = np.random.default_rng(0)
        net = build(tiny_cfg(), seed=1)
        h_in, m_in = tiny_inputs(rng, n=2)
        assert net.forward(h_in, m_in).shape == (2, 4, 16, 16)

    def test_base_model_shape(self):
        rng = np.random.default_rng(0)
        net = build(tiny_cfg(binarize_encoder=False, binarize_bottleneck=False,
                             binarize_decoder=False), seed=1)
        h_in, m_in = tiny_inputs(rng)
        assert net.forward(h_in, m_in).shape == (1, 4, 16, 16)

    def test_normal_style_shape(self):
        rng = np.random.default_rng(0)
        net = build(tiny_cfg(module_style="normal"), seed=1)
        h_in, m_in = tiny_inputs(rng)
        assert net.forward(h_in, m_in).shape == (1, 4, 16, 16)

    def test_batch_independence(self):
        rng = np.random.default_rng(3)
        net = build(tiny_cfg(), seed=2)
        h_in, m_in = tiny_inputs(rng, n=2)
        both = net.forward(h_in, m_in)
        one = net.forward(h_in[:1], m_in[:1])
        two = net.forward(h_in[1:], m_in[1:])
        np.testing.assert_array_equal(both, np.concatenate([one, two], axis=0))

    def test_misaligned_inputs_rejected(self):
        net = build(tiny_cfg(), seed=0)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 4, 16, 16), np.float32), np.zeros((1, 4, 16, 12), np.float32))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 3, 16, 16), np.float32), np.zeros((1, 3, 16, 16), np.float32))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 4, 18, 18), np.float32), np.zeros((1, 4, 18, 18), np.float32))

    @pytest.mark.parametrize("binarized", [True, False], ids=["bisrnet", "base"])
    def test_empty_batch_rejected(self, binarized):
        # The base model used to return a (0, 4, 16, 16) output, and the
        # binarized one failed with ZeroDivisionError in its row blocks.
        net = build(tiny_cfg(binarize_encoder=binarized, binarize_bottleneck=binarized,
                             binarize_decoder=binarized), seed=0)
        h_in, m_in = tiny_inputs(np.random.default_rng(0), n=0)
        with pytest.raises(DimensionError, match="^input must hold at least one image"):
            net.forward(h_in, m_in)

    def test_input_of_another_dtype_rejected(self):
        net = build(tiny_cfg(), seed=0)
        h_in, m_in = tiny_inputs(np.random.default_rng(9), dtype=np.float64)
        message = "^embedding.proj: input dtype float64 != weight dtype float32$"
        with pytest.raises(ArgumentError, match=message):
            net.forward(h_in, m_in)

    @pytest.mark.parametrize("h,w", [(10, 10), (16, 18), (0, 16)])
    def test_count_rejects_the_sizes_forward_rejects(self, h, w):
        net = build(tiny_cfg(), seed=0)
        x = np.zeros((1, 4, h, w), np.float32)
        with pytest.raises(DimensionError) as from_forward:
            net.forward(x, x)
        with pytest.raises(DimensionError) as from_count:
            net.count(h, w)
        assert str(from_count.value) == str(from_forward.value)

    def test_zero_weight_network_is_linear(self):
        # Dead conv weights leave only identity paths, pooling, interpolation
        # and the (linear) 1x1 stages: the whole map must then be linear.
        rng = np.random.default_rng(4)
        net = build(tiny_cfg(), seed=3, dtype=np.float64)
        for p in net.params():
            if p.name.endswith("weight") and not p.name.startswith(("embedding.proj", "mapping")):
                p.value[...] = 0
            if p.name.endswith("bias"):
                p.value[...] = 0
        h1, m1 = tiny_inputs(rng, dtype=np.float64)
        h2, m2 = tiny_inputs(rng, dtype=np.float64)
        a, b = 0.6, -1.7
        lhs = net.forward(a * h1 + b * h2, a * m1 + b * m2)
        rhs = a * net.forward(h1, m1) + b * net.forward(h2, m2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_forward_regression_pin(self):
        # Frozen fingerprint of a seeded tiny forward; guards against silent
        # numeric drift in any stage.
        rng = np.random.default_rng(2024)
        net = build(tiny_cfg(), seed=11)
        h_in, m_in = tiny_inputs(rng)
        out = net.forward(h_in, m_in).astype(np.float64)
        got = np.array([out.mean(), out.std(), out[0, 2, 7, 9]])
        want = np.array(GOLDEN_FORWARD_FINGERPRINT)
        np.testing.assert_allclose(got, want, rtol=1e-6)


class TestBackward:
    def test_zero_loss_grad_gives_zero_param_grads(self):
        rng = np.random.default_rng(5)
        net = build(tiny_cfg(), seed=4)
        h_in, m_in = tiny_inputs(rng)
        out = net.forward(h_in, m_in)
        net.backward(np.zeros_like(out))
        for p in net.params():
            assert not p.grad.any(), p.name

    def test_backward_requires_forward(self):
        net = build(tiny_cfg(), seed=0)
        with pytest.raises(StateError):
            net.backward(np.zeros((1, 4, 16, 16), np.float32))
        rng = np.random.default_rng(0)
        h_in, m_in = tiny_inputs(rng)
        out = net.forward(h_in, m_in)
        net.backward(np.zeros_like(out))
        with pytest.raises(StateError):
            net.backward(np.zeros_like(out))  # cache already consumed

    @pytest.mark.parametrize("cfg", [NetworkConfig.bisrnet, NetworkConfig.base_model],
                             ids=["bisrnet", "base"])
    def test_grad_of_another_shape_rejected(self, cfg):
        net = build(cfg(base_channels=4, n_wavelengths=4))
        net.forward(*tiny_inputs(np.random.default_rng(0), h=8, w=8))
        message = r"^mapping\.proj: grad shape \(1, 4, 1, 1\) != output \(1, 4, 8, 8\)$"
        with pytest.raises(DimensionError, match=message):
            net.backward(np.ones((1, 4, 1, 1), np.float32))

    @staticmethod
    def held_after_forward(cfg):
        """Bytes a (1, 8, 64, 64) forward leaves held besides its output,
        as a multiple of one input's bytes."""
        net = build(cfg(base_channels=8, n_wavelengths=8), seed=0)
        h_in, m_in = tiny_inputs(np.random.default_rng(1), nl=8, h=64, w=64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = net.forward(h_in, m_in)
            held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
        finally:
            tracemalloc.stop()
        return held / h_in.nbytes

    def test_forward_caches_inputs_not_columns(self):
        # Layers cache their inputs, never im2col columns (9-16x an input):
        # what a forward leaves held for backward stays a small multiple
        # of the input.
        ratio = self.held_after_forward(NetworkConfig.base_model)
        assert ratio < 40, ratio

    def test_binarized_forward_caches_are_compact(self):
        # BiSRConv keeps x plus 2-byte raw sums and recomputes x_r, and
        # ConvBlock shares conv2's input: 26x the input here, where caching
        # x_r and float32 sums held 47x.
        ratio = self.held_after_forward(NetworkConfig.bisrnet)
        assert ratio < 32, ratio

    def test_grads_deterministic(self):
        rng = np.random.default_rng(6)
        h_in, m_in = tiny_inputs(rng)
        g = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
        grads = []
        for _ in range(2):
            net = build(tiny_cfg(), seed=7)
            net.forward(h_in, m_in)
            net.backward(g)
            grads.append([p.grad.copy() for p in net.params()])
        for ga, gb in zip(*grads):
            np.testing.assert_array_equal(ga, gb)

    @pytest.mark.slow
    def test_full_surrogate_network_finite_differences(self):
        rng = np.random.default_rng(7)
        net = build(tiny_cfg(), seed=8, dtype=np.float64)
        h_in, m_in = tiny_inputs(rng, dtype=np.float64)
        probe = rng.standard_normal((1, 4, 16, 16))

        def loss():
            return float((net.forward(h_in, m_in, surrogate=True) * probe).sum())

        net.forward(h_in, m_in, surrogate=True)
        net.zero_grads()
        gh, gm = net.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in net.params()]
        targets += [(h_in, gh, "h_input"), (m_in, gm, "m_input")]
        finite_difference_check(loss, targets, rng, n_coords=2, rtol=1e-3)


class TestCallOrder:
    """The benchmark's tracer times each ``part_layers`` instance as a span
    of its part, which holds only if one forward runs each of them once, in
    the order of the U, and one backward runs them once in reverse."""

    ORDER = ("embedding", "encoder.block1", "encoder.down1", "encoder.block2",
             "encoder.down2", "bottleneck.block", "decoder.up1", "decoder.fuse1",
             "decoder.block1", "decoder.up2", "decoder.fuse2", "decoder.block2", "mapping.proj")

    @staticmethod
    def run(net):
        """Digests of one forward and backward on inputs large enough for
        channel-last BiSRConv outputs."""
        rng = np.random.default_rng(9)
        h_in, m_in = tiny_inputs(rng, nl=8, h=96, w=96, n=2)
        out = net.forward(h_in, m_in)
        net.zero_grads()
        grad_in = net.backward(rng.standard_normal(out.shape).astype(np.float32))
        return digest(out), digest(*grad_in), digest(*(p.grad for p in net.params()))

    @pytest.mark.parametrize("name", ["bisrnet", "normal", "base"])
    def test_each_part_layer_runs_once_in_order(self, name):
        def cfg():
            return CONFIGS[name](base_channels=8, n_wavelengths=8)

        net = build(cfg(), seed=4)
        calls = []
        for part in PART_NAMES:
            for layer in net.part_layers(part):
                for meth in ("forward", "backward"):
                    def wrapped(*args, _call=getattr(layer, meth), _key=(meth, layer.name)):
                        calls.append(_key)
                        return _call(*args)
                    setattr(layer, meth, wrapped)
        traced = self.run(net)
        assert calls == ([("forward", n) for n in self.ORDER]
                         + [("backward", n) for n in reversed(self.ORDER)])
        assert traced == self.run(build(cfg(), seed=4))


class TestAccounting:
    def test_division_rule_reproduces_published_part_table(self):
        # (ops_f M, ops_b M, params_f, params_b) per binarized part.
        table = [
            (3390, 53, 177878, 5559),
            (1096, 17, 278889, 8715),
            (5005, 78, 186562, 5830),
        ]
        for ops_f, ops_b, params_f, params_b in table:
            assert round(ops_f / OPS_DIVISOR) == ops_b
            assert round(params_f / PARAMS_DIVISOR) == params_b

    def test_single_conv_hand_count(self):
        from bisrnet.layers import Conv2dFP

        conv = Conv2dFP(1, 1, 3, 1, 1, np.random.default_rng(0))
        assert conv.param_count() == 10  # 9 weights + bias
        macs, _, _ = conv.count_macs(4, 4)
        assert macs == 144

    def test_totals_are_sum_of_parts(self):
        net = build(NetworkConfig.bisrnet(), seed=0)
        acc = net.count(256, 256)
        assert acc.total_params == sum(p.params_b for p in acc.parts)
        assert acc.total_ops == sum(p.ops_b for p in acc.parts)
        assert [p.name for p in acc.parts] == [
            "embedding", "encoder", "bottleneck", "decoder", "mapping",
        ]

    def test_binarizing_any_part_strictly_reduces_cost(self):
        base = build(NetworkConfig.base_model(), seed=0).count(128, 128)
        for flag in ("encoder", "bottleneck", "decoder"):
            cfg = NetworkConfig.base_model(**{f"binarize_{flag}": True})
            acc = build(cfg, seed=0).count(128, 128)
            assert acc.total_params < base.total_params, flag
            assert acc.total_ops < base.total_ops, flag

    def test_shape_round_trip_various_sizes(self):
        rng = np.random.default_rng(8)
        net = build(tiny_cfg(), seed=9)
        for h, w in [(16, 16), (16, 24), (32, 16)]:
            h_in = rng.random((1, 4, h, w)).astype(np.float32)
            m_in = rng.random((1, 4, h, w)).astype(np.float32)
            assert net.forward(h_in, m_in).shape == (1, 4, h, w)

    def test_accounting_row_labels(self):
        acc = Accounting(parts=[PartCount("x", True, 320, 6400)])
        (name, pf, pb, of, ob), total = acc.rows()
        assert (name, pf, pb, of, ob) == ("x", 320, 10, 6400, 100)


GOLDEN_FORWARD_FINGERPRINT = [
    -0.056618747007405545,
    0.708733471581254,
    0.05397949740290642,
]
