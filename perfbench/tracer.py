"""Spans recorded from outside the program, around calls into its layers.

``rebind`` replaces a function in every ``bisrnet`` module that holds it,
because modules import one another's functions by name (``layers`` calls
its own ``conv2d_forward`` binding, not ``tensor.conv2d_forward``).
``Tracer`` wraps the primitive functions, every layer class's forward and
backward, and each network's parts, and keeps one span per call in memory:
name, parent span, op id, start, end and, for convolutions, the call's
shape, MACs and computed bytes.
"""

import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import bench  # first: puts this checkout's src/ first on sys.path)
from bisrnet import binarize, bitpack, cassi, checkpoint, layers, network, tensor, train

PRIMITIVES = {
    bitpack: ("bit_conv2d", "pack"),
    binarize: ("sign", "ste_grad"),
    tensor: (
        "conv2d_forward",
        "conv2d_backward",
        "conv2d_vjp",
        "bilinear_up2",
        "bilinear_up2_backward",
        "avg_pool2x2",
    ),
    cassi: ("forward_capture", "shift_back", "shift_mask", "crop_augment"),
    train: ("make_sample", "rmse_loss", "adam_step", "psnr", "ssim"),
    checkpoint: ("save_checkpoint", "load_checkpoint"),
}


def rebind(original, replacement):
    """Point every ``bisrnet`` module binding of ``original`` at ``replacement``.

    Returns the list of (module, attribute) pairs changed; pass it to
    ``restore`` to undo.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bisrnet" or name.startswith("bisrnet.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr, original))
    return changed


def restore(changed):
    for module, attr, original in changed:
        setattr(module, attr, original)


def layer_classes():
    """Every class in ``bisrnet.layers`` that follows the layer protocol."""
    return [
        cls
        for cls in vars(layers).values()
        if isinstance(cls, type) and cls.__module__ == layers.__name__
        and "forward" in vars(cls) and "backward" in vars(cls)
    ]


def _conv_out(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def bit_conv2d_shape(x, w, scale=1.0, stride=1, pad=1, out_dtype=np.float32):
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    ho, wo = _conv_out(h, wd, k, stride, pad)
    macs = n * c_out * c_in * k * k * ho * wo
    nbytes = x.packed_bytes + w.packed_bytes + n * c_out * ho * wo * np.dtype(out_dtype).itemsize
    return (tuple(x.shape), tuple(w.shape), stride, pad), macs, nbytes


def conv2d_forward_shape(x, weight, bias=None, stride=1, pad=0, pad_value=0.0):
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = weight.shape
    ho, wo = _conv_out(h, wd, k, stride, pad)
    macs = n * c_out * c_in * k * k * ho * wo
    nbytes = x.nbytes + weight.nbytes + n * c_out * ho * wo * x.dtype.itemsize
    if bias is not None:
        nbytes += np.asarray(bias).nbytes
    return (tuple(x.shape), tuple(weight.shape), stride, pad), macs, nbytes


SHAPED = {"bitpack.bit_conv2d": bit_conv2d_shape, "tensor.conv2d_forward": conv2d_forward_shape}


class Tracer(bench.Hooks):
    """Records spans while installed; ``uninstall`` puts every binding back."""

    def __init__(self):
        self.spans = []  # [name, parent index, op id, start, end, shape info]
        self._stack = []
        self._undo = []
        self.op = 0

    def wrap(self, name, fn):
        shaped = SHAPED.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            info = shaped(*args, **kwargs) if shaped else None
            rec = [name, stack[-1] if stack else -1, self.op, time.perf_counter(), 0.0, info]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.tracer = self
        return traced

    def install(self):
        for module, names in PRIMITIVES.items():
            prefix = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(module, fname)
                self._undo += rebind(original, self.wrap(f"{prefix}.{fname}", original))
        for cls in layer_classes():
            for meth in ("forward", "backward"):
                original = vars(cls)[meth]
                setattr(cls, meth, self.wrap(f"layers.{cls.__name__}.{meth}", original))
                self._undo.append((cls, meth, original))

    def uninstall(self):
        restore(reversed(self._undo))
        self._undo = []

    # Hooks called by the measurement loop.
    def on_op(self):
        self.op += 1

    def on_net(self, net):
        """Wrap a network's own forward/backward and each part's layers."""
        if getattr(net.forward, "tracer", None) is self:
            return
        net.forward = self.wrap("network.forward", net.forward)
        net.backward = self.wrap("network.backward", net.backward)
        for part in network.PART_NAMES:
            for layer in net.part_layers(part):
                layer.forward = self.wrap(f"network.{part}.forward", layer.forward)
                layer.backward = self.wrap(f"network.{part}.backward", layer.backward)

    def summary(self):
        """Aggregate spans per name.

        Returns {name: {"calls", "busy_s", "self_s", "macs", "bytes"}} and
        {(name, shape): {"calls", "busy_s", "macs", "bytes"}}. ``busy_s`` is
        inclusive time, counting a span only when no ancestor has the same
        name; ``self_s`` is a span's time minus the time its children cover.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[4] - rec[3]
        per_name = defaultdict(lambda: defaultdict(float))
        per_shape = defaultdict(lambda: defaultdict(float))
        for i, (name, parent, _op, start, end, info) in enumerate(self.spans):
            dur = end - start
            row = per_name[name]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                row["busy_s"] += dur
            if info is not None:
                key, macs, nbytes = info
                row["macs"] += macs
                row["bytes"] += nbytes
                srow = per_shape[(name, key)]
                srow["calls"] += 1
                srow["busy_s"] += dur
                srow["macs"] += macs
                srow["bytes"] += nbytes
        return per_name, per_shape


class ForwardPeak(bench.Hooks):
    """Hooks that measure the peak traced heap growth of network forwards."""

    def __init__(self):
        self.peak_bytes = 0
        self._restore = []

    def on_net(self, net):
        forward = net.forward

        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return forward(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        net.forward = probed
        self._restore.append((net, forward))

    def remove(self):
        for net, forward in self._restore:
            net.forward = forward
