"""Tests of the benchmark itself: its output gate and its tracer.

    PYTHONPATH=src python -m pytest -q perfbench

The gate must pass the program as it is and fail it when the 1-bit kernel
is corrupted, both on a 256x256 reconstruction and on a training prefix.
"""

import json
import os
import shutil
import statistics
import tempfile
import time

import numpy as np
import pytest

import bench
import hostspeed
import run
import tracer
from bisrnet import bitpack, layers, tensor, train

RECON_SCENE = 3
TRAIN_POOL_ID = 5
TRAIN_PREFIX = 8


def flipped_weight_kernel(kernel):
    """bit_conv2d with one weight sign flipped, in its first call only."""
    calls = []

    def corrupted(x, w, *args, **kwargs):
        if not calls:
            words = w.words.copy()
            words.flat[0] ^= np.uint64(1)
            w = bitpack.BitTensor(shape=w.shape, words=words)
        calls.append(1)
        return kernel(x, w, *args, **kwargs)

    return corrupted


def plus_one_pad_kernel(kernel):
    """bit_conv2d that pads with +1 instead of -1."""

    def corrupted(x, w, scale=1.0, stride=1, pad=1, out_dtype=np.float32):
        dense = np.pad(bitpack.unpack(x), ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                       constant_values=1.0)
        return kernel(bitpack.pack(dense), w, scale=scale, stride=stride, pad=0,
                      out_dtype=out_dtype)

    return corrupted


CORRUPTIONS = {"clean": None, "flipped_weight": flipped_weight_kernel,
               "plus_one_pad": plus_one_pad_kernel}


@pytest.fixture(scope="module")
def refs():
    return bench.load_reference()


@pytest.fixture(scope="module")
def recon_state(refs):
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=bench.ROOT)
    try:
        yield bench.WORKLOADS["recon256_bin"].state_for([RECON_SCENE], workdir, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture
def kernel(request):
    make = CORRUPTIONS[request.param]
    original = bitpack.bit_conv2d
    changed = tracer.rebind(original, make(original)) if make else []
    try:
        yield request.param
    finally:
        tracer.restore(changed)


@pytest.mark.parametrize("kernel", list(CORRUPTIONS), indirect=True)
def test_recon_gate(kernel, recon_state):
    (result,) = bench.WORKLOADS["recon256_bin"].step(recon_state)
    if kernel == "clean":
        assert result.error == ""
    else:
        assert "projection" in result.error


class _Stop(Exception):
    pass


@pytest.mark.parametrize("kernel", list(CORRUPTIONS), indirect=True)
def test_train_gate(kernel, refs):
    workload = bench.WORKLOADS["train32_bin"]
    net, tcfg, stream = workload.build(TRAIN_POOL_ID)
    losses = []
    rmse = train.rmse_loss

    def recording_loss(pred, target):
        loss, grad = rmse(pred, target)
        losses.append(loss)
        return loss, grad

    def prefix(step):
        if step == TRAIN_PREFIX:
            raise _Stop
        return stream(step)

    changed = tracer.rebind(rmse, recording_loss)
    try:
        with pytest.raises(_Stop):
            train.train(net, tcfg, prefix)
    finally:
        tracer.restore(changed)
    ref = refs["train"]["train32_bin"][str(TRAIN_POOL_ID)]
    errors = [bench.loss_matches(loss, r) for loss, r in zip(losses, ref)]
    assert len(errors) == TRAIN_PREFIX
    if kernel == "clean":
        assert not any(errors)
    else:
        assert any(errors)


def test_gate_rejects_non_finite(refs):
    ref = refs["recon"]["recon256_bin"][str(RECON_SCENE)]
    cube = np.zeros((bench.RECON_BANDS, 8, 8), np.float32)
    cube[0, 0, 0] = np.nan
    assert bench.recon_matches(cube, ref["psnr"], ref["ssim"], ref) == "non-finite output"
    assert bench.loss_matches(float("nan"), 1.0) == "non-finite loss"


def test_rebind_reaches_names_imported_by_name():
    original = tensor.conv2d_forward
    marker = object()
    changed = tracer.rebind(original, marker)
    try:
        assert layers.conv2d_forward is marker
        assert tensor.conv2d_forward is marker
    finally:
        tracer.restore(changed)
    assert layers.conv2d_forward is original


def test_trace_records_by_name_bindings_and_checks_spans():
    workload = bench.WORKLOADS["train32_bin"]
    net, tcfg, stream = workload.build(TRAIN_POOL_ID)
    tcfg.steps = 2
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.on_net(net)
        trace.on_net(net)  # a second call must not wrap the network again
        train.train(net, tcfg, stream)
    finally:
        trace.uninstall()
    per_name, per_shape = trace.summary()
    assert per_name["network.forward"]["calls"] == 2
    assert per_name["bitpack.bit_conv2d"]["calls"] > 0
    assert per_name["tensor.conv2d_vjp"]["calls"] > 0
    assert per_name["binarize.ste_grad"]["calls"] > 0
    assert per_name["network.encoder.backward"]["busy_s"] > 0
    assert any(name == "bitpack.bit_conv2d" for name, _ in per_shape)
    assert layers.conv2d_vjp is tensor.conv2d_vjp
    problems = run.check_spans("recon256_base", per_name)
    assert "span bitpack.bit_conv2d must not occur on recon256_base" in problems
    assert "span train.ssim recorded no calls" in problems


class _SlowProbe(hostspeed.HostSpeed):
    """Host probe that takes at least 0.5 s, far longer than a training step."""

    def probe(self):
        time.sleep(0.5)
        return super().probe()


def test_host_probe_runs_outside_timed_steps():
    workload = bench.WORKLOADS["train32_bin"]
    net, tcfg, stream = workload.build(TRAIN_POOL_ID, steps=3)
    host = _SlowProbe(repeats=1)
    seconds, _ = workload.run_chunk(net, tcfg, stream, host)
    assert len(seconds) == len(host.times) == 3
    assert min(host.times) >= 0.5
    assert max(seconds) < 0.5
    assert host.factor() == host.reference_s / statistics.median(host.times)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        run.per_layer_metrics())
