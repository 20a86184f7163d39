"""The block runner and the 1-bit passes that use it.

``split.run_rows`` cuts a pass into row blocks and runs them in contiguous
chunks, one per CPU. These tests pin how it cuts and chunks, the cases it
runs inline, how errors and forks reach it, that it holds nothing once it
returns, how many blocks each benchmark shape takes, and that the bytes of
every split pass do not depend on the number of workers. Each test sets
that number by replacing ``split.cpu_count``, so none depends on the
host's CPUs.
"""

import ast
import multiprocessing
import pathlib
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from conftest import cached
from test_tensor import assert_gc_count_flat, channel_last

from bisrnet import bitpack, layers, split
from bisrnet.binarize import sign
from bisrnet.bitpack import bit_conv2d, pack
from bisrnet.errors import ArgumentError
from bisrnet.layers import BiSRConv
from bisrnet.network import NetworkConfig, build
from bisrnet.tensor import conv2d_forward
from bisrnet.train import ssim

WORKERS = (1, 2, 3)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bisrnet"


def set_workers(monkeypatch, k):
    monkeypatch.setattr(split, "cpu_count", lambda: k)


def record_blocks(h, rows):
    """Runs a split call over h rows in blocks of ``rows`` and returns its
    blocks as (r0, r1, thread, scratch), in row order, and the threads that
    made each scratch."""
    blocks, makers, lock = [], [], threading.Lock()

    def scratch():
        makers.append(threading.get_ident())
        return (object(),)

    def body(r0, r1, buf):
        time.sleep(0.01)  # long enough for every helper to take its chunk
        with lock:
            blocks.append((r0, r1, threading.get_ident(), buf))

    split.run_rows(body, h, rows, scratch)
    return sorted(blocks, key=lambda b: b[0]), makers


def chunks_of(blocks):
    """Groups recorded blocks into chunks: runs of blocks of one thread."""
    chunks = []
    for block in blocks:
        if chunks and chunks[-1][-1][2] == block[2]:
            chunks[-1].append(block)
        else:
            chunks.append([block])
    return chunks


@pytest.mark.parametrize("n_blocks", [1, 2, 5, 7])
@pytest.mark.parametrize("k", WORKERS)
def test_chunks_are_contiguous_one_per_worker(monkeypatch, k, n_blocks):
    set_workers(monkeypatch, k)
    # Blocks of 3 rows over 3 * n_blocks - 1 rows: the last one has 2.
    h = 3 * n_blocks - 1
    blocks, makers = record_blocks(h, 3)
    assert [b[:2] for b in blocks] == [(r, min(r + 3, h)) for r in range(0, h, 3)]
    chunks = chunks_of(blocks)
    me = threading.get_ident()
    assert len(chunks) == min(k, n_blocks)
    assert [len(c) for c in chunks] == [
        (i + 1) * n_blocks // len(chunks) - i * n_blocks // len(chunks) for i in range(len(chunks))]
    # The caller runs the first chunk and makes every chunk's own scratch,
    # which every block of the chunk shares.
    assert chunks[0][0][2] == me and makers == [me] * len(chunks)
    assert len({c[0][2] for c in chunks}) == len(chunks)
    assert all(len({id(b[3]) for b in c}) == 1 for c in chunks)
    assert len({id(c[0][3]) for c in chunks}) == len(chunks)


def test_nested_call_runs_inline(monkeypatch):
    set_workers(monkeypatch, 2)
    inner = []

    def body(r0, r1):
        split.run_rows(lambda a, b: inner.append((a, b, threading.get_ident())), 4, 1, tuple)
        inner.append(threading.get_ident())

    # A call that waited for the dispatch lock it holds would never end.
    outer = threading.Thread(target=split.run_rows, args=(body, 2, 1, tuple), daemon=True)
    outer.start()
    outer.join(timeout=30)
    assert not outer.is_alive()
    blocks = [c for c in inner if isinstance(c, tuple)]
    assert sorted(b[:2] for b in blocks) == sorted([(0, 1), (1, 2), (2, 3), (3, 4)] * 2)
    # Each inner call ran whole in the thread of the block that made it.
    outer_threads = [t for t in inner if not isinstance(t, tuple)]
    assert len(set(outer_threads)) == 2
    assert sorted(b[2] for b in blocks) == sorted(outer_threads * 4)


def test_concurrent_forwards_give_single_thread_bytes(monkeypatch):
    shape = (1, 28, 128, 128)
    x = np.random.default_rng(2).standard_normal(shape).astype(np.float32)
    set_workers(monkeypatch, 1)
    want = BiSRConv(28, np.random.default_rng(1)).forward(x)
    set_workers(monkeypatch, 3)
    got, barrier = {}, threading.Barrier(2)

    def run(i):
        layer = BiSRConv(28, np.random.default_rng(1))
        barrier.wait()
        got[i] = [layer.forward(x) for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for outs in got.values():
        for out in outs:
            assert out.strides == want.strides and out.tobytes() == want.tobytes()
    assert len(got) == 2


@pytest.mark.parametrize("bad", [0, 1], ids=["caller", "helper"])
def test_error_reaches_the_caller_after_every_chunk_ended(monkeypatch, bad):
    set_workers(monkeypatch, 3)
    ended = []

    def body(r0, r1):
        if r0 == bad:
            raise ValueError(f"chunk {bad}")
        if r0 == 2:
            time.sleep(0.05)
        ended.append(r0)

    with pytest.raises(ValueError, match=f"chunk {bad}"):
        split.run_rows(body, 3, 1, tuple)
    assert sorted(ended) == [c for c in (0, 1, 2) if c != bad]
    blocks, _ = record_blocks(3, 1)
    assert [b[:2] for b in blocks] == [(0, 1), (1, 2), (2, 3)]
    assert len({b[2] for b in blocks}) == 3


def test_nan_in_a_helper_chunk_raises_and_the_next_forward_works(monkeypatch):
    layer = BiSRConv(28, np.random.default_rng(3))
    x = np.random.default_rng(4).standard_normal((1, 28, 64, 64)).astype(np.float32)
    set_workers(monkeypatch, 1)
    want = layer.forward(x)
    set_workers(monkeypatch, 2)
    # Two row blocks: the helper's chunk is the second, rows 36 to 63.
    assert layers._block_rows(1, 64, 64 * 28) == 36
    bad = x.copy()
    bad[0, 5, 60, 10] = np.nan
    with pytest.raises(ArgumentError):
        layer.forward(bad)
    assert layer.forward(x).tobytes() == want.tobytes()


def fork_child(conn):
    """Reports the threads that ran the chunks of a two-chunk split call."""
    threads = set()
    split.run_rows(lambda r0, r1: threads.add(threading.get_ident()), 2, 1, tuple)
    conn.send(len(threads))


def test_fork_child_starts_its_own_helpers(monkeypatch):
    set_workers(monkeypatch, 2)
    record_blocks(2, 1)  # the parent now has a helper thread
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    with warnings.catch_warnings():
        # Newer Pythons warn that fork() in a threaded process may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        child = ctx.Process(target=fork_child, args=(send,))
        child.start()
    try:
        child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == 0 and recv.poll() and recv.recv() == 2
    finally:
        if child.is_alive():
            child.kill()
        recv.close()
        send.close()


def test_split_call_holds_no_reference_once_it_returns(monkeypatch):
    set_workers(monkeypatch, 2)
    layer = BiSRConv(28, np.random.default_rng(5))
    x = np.random.default_rng(6).standard_normal((1, 28, 64, 64)).astype(np.float32)
    with layers.inference():
        layer.forward(x)
    ref = weakref.ref(x)
    del x
    assert ref() is None
    # bit_conv2d's blocks write into the memory the returned view is of.
    xb = pack(sign(np.random.default_rng(7).standard_normal((1, 28, 128, 128))))
    y = bit_conv2d(xb, pack(sign(layer.weight.value)), out_dtype=np.int16)
    ref = weakref.ref(y.base)
    del y
    assert ref() is None


def test_no_module_imports_a_process_pool_or_executor():
    # Threads live in split.py alone.
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top not in ("concurrent", "multiprocessing"), path.name
                assert top not in ("threading", "_thread") or path.name == "split.py", path.name


# Every blocked-pass shape of the benchmark's workloads and its number of
# row blocks: the BiSRConv inputs of a 256x256, C=28 reconstruction, and
# of a C=8 training step on two 32x32 patches.
WORKLOAD_BLOCKS = [
    ((1, 28, 256, 256), 29), ((1, 56, 128, 128), 15), ((1, 28, 128, 128), 8),
    ((1, 112, 64, 64), 8), ((1, 56, 64, 64), 4),
    ((2, 8, 32, 32), 1), ((2, 8, 16, 16), 1), ((2, 16, 16, 16), 1), ((2, 16, 8, 8), 1),
    ((2, 32, 8, 8), 1),
]


@pytest.mark.parametrize("shape,n_blocks", WORKLOAD_BLOCKS, ids=str)
def test_blocked_passes_keep_their_block_count_at_workload_shapes(monkeypatch, shape, n_blocks):
    counts = []

    def counting_run_rows(body, h, rows, scratch):
        blocks = []

        def counted(r0, r1, *bufs):
            blocks.append(r0)
            body(r0, r1, *bufs)

        run_rows(counted, h, rows, scratch)
        counts.append(len(blocks))

    rng = np.random.default_rng(13)
    layer = BiSRConv(shape[1], rng)
    x = rng.standard_normal(shape).astype(np.float32)
    raw = bit_conv2d(layer._sign_pack(x), pack(sign(layer.weight.value)), out_dtype=np.int16)
    run_rows = split.run_rows
    monkeypatch.setattr(split, "run_rows", counting_run_rows)
    set_workers(monkeypatch, 2)
    layer._sign_pack(x)
    layer._residual_rprelu(x, np.asarray(0.5, np.float32), raw)
    assert counts == [n_blocks, n_blocks]


def bytes_at_each_worker_count(monkeypatch, call):
    """call() at 1, 2 and 3 workers; asserts the same bytes and strides."""
    outs = []
    for k in WORKERS:
        set_workers(monkeypatch, k)
        outs.append(call())
    for out in outs[1:]:
        assert out.strides == outs[0].strides and out.tobytes() == outs[0].tobytes()


# Every BiSRConv input shape of a 256x256, C=28 reconstruction.
RECON_BISR_SHAPES = [(1, 28, 256, 256), (1, 28, 128, 128), (1, 56, 128, 128),
                     (1, 56, 64, 64), (1, 112, 64, 64)]


@pytest.mark.parametrize("shape", RECON_BISR_SHAPES, ids=str)
def test_bit_conv2d_bytes_do_not_depend_on_workers(monkeypatch, shape):
    rng = np.random.default_rng(shape[1] + shape[2])
    x = pack(sign(rng.standard_normal(shape)))
    w = pack(sign(rng.standard_normal((shape[1], shape[1], 3, 3))))
    bytes_at_each_worker_count(monkeypatch, lambda: bit_conv2d(x, w, out_dtype=np.int16))
    bytes_at_each_worker_count(monkeypatch, lambda: bit_conv2d(x, w, scale=0.37))


# test_bitconv.py's TestPlaneBlocks shapes, with the same block rows.
PLANE_BLOCK_CASES = [
    (3, 28, 5, 3, 1, 1, 13, 11, 2),
    (3, 70, 5, 3, 1, 1, 13, 11, 4),
    (2, 28, 64, 3, 1, 1, 9, 10, None),
    (2, 65, 70, 3, 1, 1, 9, 10, 2),
    (3, 29, 6, 4, 2, 1, 14, 15, 2),
    (1, 28, 67, 4, 2, 1, 16, 16, 3),
]


@pytest.mark.parametrize("n,c_in,c_out,k,stride,pad,h,w,rows", PLANE_BLOCK_CASES)
def test_plane_block_bytes_do_not_depend_on_workers(monkeypatch, n, c_in, c_out, k, stride,
                                                    pad, h, w, rows):
    rng = np.random.default_rng(c_in * c_out + n)
    x = pack(sign(rng.standard_normal((n, c_in, h, w))))
    wt = pack(sign(rng.standard_normal((c_out, c_in, k, k))))
    if rows is not None:
        wo = (w + 2 * pad - k) // stride + 1
        monkeypatch.setattr(bitpack, "_BLOCK_OUTPUTS", rows * n * wo)
    bytes_at_each_worker_count(
        monkeypatch, lambda: bit_conv2d(x, wt, stride=stride, pad=pad, out_dtype=np.int16))


@pytest.mark.parametrize("channels_last", [False, True])
def test_large_bisr_forward_does_not_depend_on_workers(monkeypatch, channels_last):
    rng = np.random.default_rng(8)
    layer = BiSRConv(28, rng)
    for p in layer.params():
        p.value += (rng.standard_normal(p.value.shape) * 0.1).astype(p.value.dtype)
    x = rng.standard_normal((1, 256, 256, 28)).astype(np.float32).transpose(0, 3, 1, 2)
    if not channels_last:
        x = np.ascontiguousarray(x)
    with layers.inference():
        bytes_at_each_worker_count(monkeypatch, lambda: layer.forward(x))


def test_training_step_does_not_depend_on_workers(monkeypatch):
    # Two images of 64x64: the pack and epilogue blocks split, and so
    # does the kernel. The cached int16 sums and the gradients match.
    rng = np.random.default_rng(9)
    layer = BiSRConv(28, rng)
    x = rng.standard_normal((2, 28, 64, 64)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)

    def step():
        for p in layer.params():
            p.zero_grad()
        out = layer.forward(x)
        raw = cached(layer)[4]
        gx = layer.backward(g)
        return np.concatenate([a.ravel().view(np.uint8) for a in
                               [out, raw, gx] + [p.grad for p in layer.params()]])

    bytes_at_each_worker_count(monkeypatch, step)


def test_network_forward_does_not_depend_on_workers(monkeypatch):
    net = build(NetworkConfig.bisrnet(base_channels=8, n_wavelengths=8), seed=10)
    rng = np.random.default_rng(11)
    h_in, m_in = (rng.random((1, 8, 64, 64)).astype(np.float32) for _ in range(2))
    with layers.inference():
        bytes_at_each_worker_count(monkeypatch, lambda: net.forward(h_in, m_in))


def test_split_passes_leave_the_gc_allocation_count_flat(monkeypatch):
    set_workers(monkeypatch, 2)

    def assert_flat(call):
        # A fresh process's first hundred calls of bit_conv2d at 256x256
        # move the count by about 1950, before this runner too: the 1-tuples
        # of np.moveaxis fill the interpreter's free list for them, which
        # holds 2000. Once it is full the count stays flat.
        for _ in range(100):
            call()
        assert_gc_count_flat(call)

    rng = np.random.default_rng(12)
    for shape in [(1, 28, 256, 256), (1, 112, 64, 64)]:
        x = pack(sign(rng.standard_normal(shape)))
        w = pack(sign(rng.standard_normal((shape[1], shape[1], 3, 3))))
        assert_flat(lambda: bit_conv2d(x, w, out_dtype=np.int16))
    layer = BiSRConv(28, rng)
    x = rng.standard_normal((1, 28, 256, 256)).astype(np.float32)
    raw = bit_conv2d(layer._sign_pack(x), pack(sign(layer.weight.value)), out_dtype=np.int16)
    scale = np.asarray(0.5, np.float32)
    assert_flat(lambda: layer._sign_pack(x))
    assert_flat(lambda: layer._residual_rprelu(x, scale, raw))


# conv2d_forward cases large enough for row blocks (two or more per image),
# two images each: 3x3 stride 1 and 4x4 stride 2, whose blocks split, and a
# stride-1 1x1 conv, one GEMM on the input's own memory: (x shape, weight
# shape, stride, pad).
CONV_CASES = [
    ((2, 28, 64, 64), (28, 28, 3, 3), 1, 1),
    ((2, 28, 128, 128), (56, 28, 4, 4), 2, 1),
    ((2, 56, 128, 128), (28, 56, 1, 1), 1, 0),
]


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("x_channel_last", [False, True])
@pytest.mark.parametrize("x_shape,w_shape,stride,pad", CONV_CASES, ids=str)
def test_conv2d_forward_bytes_do_not_depend_on_workers(monkeypatch, x_shape, w_shape, stride,
                                                       pad, x_channel_last, bias):
    rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
    x = rng.standard_normal(x_shape).astype(np.float32)
    x = channel_last(x) if x_channel_last else x
    w = rng.standard_normal(w_shape).astype(np.float32)
    b = rng.standard_normal(w_shape[0]).astype(np.float32) if bias else None
    bytes_at_each_worker_count(monkeypatch, lambda: conv2d_forward(x, w, b, stride, pad))


def test_ssim_does_not_depend_on_workers(monkeypatch):
    rng = np.random.default_rng(14)
    pred, target = (rng.random((7, 40, 48)).astype(np.float32) for _ in range(2))
    got = []
    for k in WORKERS:
        set_workers(monkeypatch, k)
        got.append(ssim(pred, target))
    assert got == [got[0]] * len(WORKERS)


# The base model's blocked convs at 256x256, C=28, and their number of row
# blocks, n * nb: (x shape, weight shape, stride, pad, blocks).
CONV_BLOCKS = [
    ((1, 28, 256, 256), (28, 28, 3, 3), 1, 1, 51),
    ((1, 56, 256, 256), (56, 56, 3, 3), 1, 1, 128),
    ((1, 28, 256, 256), (56, 28, 4, 4), 2, 1, 32),
]


@pytest.mark.parametrize("x_shape,w_shape,stride,pad,n_blocks", CONV_BLOCKS, ids=str)
def test_conv2d_forward_keeps_its_block_count_at_workload_shapes(monkeypatch, x_shape, w_shape,
                                                                 stride, pad, n_blocks):
    calls = []
    monkeypatch.setattr(split, "run_rows", lambda body, h, rows, scratch: calls.append((h, rows)))
    conv2d_forward(np.zeros(x_shape, np.float32), np.zeros(w_shape, np.float32), None, stride, pad)
    assert calls == [(n_blocks, 1)]


def test_float_split_passes_leave_the_gc_allocation_count_flat(monkeypatch):
    set_workers(monkeypatch, 2)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 28, 128, 128)).astype(np.float32)
    w = rng.standard_normal((28, 28, 3, 3)).astype(np.float32)
    b = rng.standard_normal(28).astype(np.float32)
    pred, target = (rng.random((4, 64, 64)) for _ in range(2))
    assert_gc_count_flat(lambda: conv2d_forward(x, w, b, pad=1))
    assert_gc_count_flat(lambda: ssim(pred, target))


@pytest.mark.parametrize("w_shape,pad", [((28, 28, 3, 3), 1), ((28, 28, 1, 1), 0)])
def test_conv2d_forward_holds_one_tap_buffer_per_worker(monkeypatch, w_shape, pad):
    # Besides the output and the padded input, each worker's chunk holds
    # one tap buffer of ceil(ho / nb) output rows; a 1x1 conv copies none.
    rng = np.random.default_rng(16)
    x = rng.standard_normal((1, 28, 256, 256)).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    k = w_shape[2]
    padded = 28 * (256 + 2 * pad) ** 2 * 4 if pad else 0
    taps = 0 if k == 1 else -(-256 // 51) * 256 * 28 * k * k * 4
    for workers in WORKERS:
        set_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            y = conv2d_forward(x, w, pad=pad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes < padded + workers * taps + 2**16


# Every function under src/ that hands a pass to split.run_rows, and the
# test that checks its bytes at each worker count.
SPLIT_CALLERS = {
    "bitpack.bit_conv2d": "test_bit_conv2d_bytes_do_not_depend_on_workers",
    "layers.VanillaBinConv._sign_pack": "test_large_bisr_forward_does_not_depend_on_workers",
    "layers.BiSRConv._residual_rprelu": "test_large_bisr_forward_does_not_depend_on_workers",
    "tensor.conv2d_forward": "test_conv2d_forward_bytes_do_not_depend_on_workers",
    "train.ssim": "test_ssim_does_not_depend_on_workers",
}


def names_run_rows(tree):
    """The number of places in an ast tree that name ``run_rows``."""
    return sum(isinstance(n, ast.Attribute) and n.attr == "run_rows"
               or isinstance(n, ast.Name) and n.id == "run_rows" for n in ast.walk(tree))


def split_callers():
    """The qualified names of the functions and methods under src/ whose
    body, nested functions included, names ``run_rows``; a module that
    names it outside them appears by its own name."""
    found = set()
    for path in SRC.glob("*.py"):
        if path.name == "split.py":
            continue
        tree = ast.parse(path.read_text())
        defs = []
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defs.append((top.name, top))
            elif isinstance(top, ast.ClassDef):
                defs += [(f"{top.name}.{f.name}", f) for f in top.body
                         if isinstance(f, ast.FunctionDef)]
        counts = {name: names_run_rows(fn) for name, fn in defs}
        found |= {f"{path.stem}.{name}" for name, count in counts.items() if count}
        if sum(counts.values()) < names_run_rows(tree):
            found.add(path.stem)
    return found


def test_every_split_caller_has_a_worker_invariance_test():
    # A new caller of split.run_rows must join SPLIT_CALLERS with a test
    # that compares its bytes at 1, 2 and 3 workers.
    assert split_callers() == set(SPLIT_CALLERS)
    for test in SPLIT_CALLERS.values():
        assert callable(globals().get(test)), test
