"""Workloads, inputs and the output gate of the bisrnet benchmark.

The program under test is imported from this checkout's ``src/`` and from
nowhere else. Every input is generated: scenes, the coded aperture and the
network weights come from fixed pools of seeds, and the workload seed given
on the command line picks and orders pool members. Each pool member has a
stored reference output (``reference.json``, written by
``make_reference.py``), so every op is checked against it.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import bisrnet  # noqa: E402

if not os.path.abspath(bisrnet.__file__).startswith(SRC + os.sep):
    raise ImportError(f"bisrnet was imported from {bisrnet.__file__}, not from {SRC}")

from bisrnet import cassi, checkpoint, network, train  # noqa: E402

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Recon inputs: 256x256 scenes with 28 bands seen through one fixed coded
# aperture (a real instrument has one mask), dispersion step 2.
RECON_SIZE = 256
RECON_BANDS = 28
RECON_STEP = 2
MASK_SEED = 7_000
SCENE_SEED_BASE = 10_000
WEIGHT_SEED = 1
SCENE_POOL = 16
SCENES_PER_RUN = 4

# Training at the acceptance-suite size; one chunk is one 100-step run of
# train.train from a fresh network, as in criterion 8's ablation runs.
TRAIN_CHANNELS = 8
TRAIN_BANDS = 8
TRAIN_PATCH = 32
TRAIN_BATCH = 2
TRAIN_STEPS = 100
TRAIN_SEED_BASE = 20_000
TRAIN_POOL = 16

# Gate tolerances. Today recon outputs and losses are bit-identical from run
# to run, and differ across BLAS thread counts only at ~1e-9 relative (the
# full-precision GEMMs change summation order). The recon gate compares 8
# random projections of the output cube; for an output error e each
# projection moves by about ||e||_2, so the bound is a relative L2 error of
# 1e-5: 100x above summation-order noise in float32 and far below what one
# flipped weight sign or a wrong pad value causes (see test_gate.py).
RECON_PROJ_RTOL = 1e-5
PSNR_ATOL_DB = 1e-3
SSIM_ATOL = 1e-4
LOSS_RTOL = 1e-5
N_PROJ = 8
PROJ_SEED = 12_345


def src_sha256():
    """Hash of the program's Python sources, to tell builds apart without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def recon_digest(cube):
    """Norm and separable random projections of a (bands, h, w) output.

    Projection k is sum(cube[c, y, x] * a[c, k] * b[y, k] * d[x, k]) with
    standard-normal a, b, d drawn from a fixed seed, accumulated in float64.
    """
    c, h, w = cube.shape
    rng = np.random.default_rng(PROJ_SEED)
    a = rng.standard_normal((c, N_PROJ))
    b = rng.standard_normal((h, N_PROJ))
    d = rng.standard_normal((w, N_PROJ))
    o = np.asarray(cube, dtype=np.float64)
    proj = np.einsum("cyk,yk,ck->k", o @ d, b, a)
    return float(np.sqrt(np.sum(o * o))), [float(p) for p in proj]


def recon_matches(out, psnr_db, ssim_val, ref):
    """Gate for one reconstruction; returns "" or the reason it failed."""
    if not np.all(np.isfinite(out)):
        return "non-finite output"
    if not (np.isfinite(psnr_db) and np.isfinite(ssim_val)):
        return "non-finite psnr/ssim"
    _, proj = recon_digest(out)
    err = max(abs(p - r) for p, r in zip(proj, ref["proj"]))
    if err > RECON_PROJ_RTOL * ref["norm"]:
        return f"output projection off by {err / ref['norm']:.3g} of the norm"
    if abs(psnr_db - ref["psnr"]) > PSNR_ATOL_DB:
        return f"psnr {psnr_db!r} != reference {ref['psnr']!r}"
    if abs(ssim_val - ref["ssim"]) > SSIM_ATOL:
        return f"ssim {ssim_val!r} != reference {ref['ssim']!r}"
    return ""


def loss_matches(loss, ref_loss):
    if not np.isfinite(loss):
        return "non-finite loss"
    if abs(loss - ref_loss) > LOSS_RTOL * abs(ref_loss):
        return f"loss {loss!r} != reference {ref_loss!r}"
    return ""


class Hooks:
    """Callbacks into the measurement loop; the untraced run uses these no-ops."""

    def between_ops(self):
        """Called before each op and each set-up, outside the timed span."""

    def on_op(self):
        """Called as each op starts."""

    def on_net(self, net):
        """Called with each network before it runs ops."""


NO_HOOKS = Hooks()


@dataclass
class OpResult:
    seconds: float
    error: str = ""


@dataclass
class ReconState:
    net: object
    system: object
    scene_ids: list
    scenes: dict
    refs: dict  # the whole reference.json
    last_output: list = field(default_factory=list)
    done: int = 0


class Recon:
    """One op: one 256x256 scene through capture, shift-back, the network
    and PSNR/SSIM, via train.evaluate, with weights reloaded from a
    checkpoint written during set-up."""

    images_per_op = 1
    setup_repeats = 5
    probes_per_op = 16  # ~0.1 s of host-speed probes before each few-second op

    def __init__(self, name, binarized):
        self.name = name
        self.binarized = binarized
        self.size = (RECON_SIZE, RECON_SIZE)

    def config(self):
        if self.binarized:
            return network.NetworkConfig(n_wavelengths=RECON_BANDS)
        return network.NetworkConfig.base_model(n_wavelengths=RECON_BANDS)

    def scene(self, sid):
        return cassi.synth_scene(SCENE_SEED_BASE + sid, RECON_SIZE, RECON_SIZE, RECON_BANDS)

    def system(self):
        mask = cassi.random_mask(MASK_SEED, RECON_SIZE, RECON_SIZE)
        return cassi.CassiSystem(mask, step=RECON_STEP, n_bands=RECON_BANDS)

    def load_net(self, workdir):
        cfg = self.config()
        ckpt = os.path.join(workdir, "checkpoint")
        checkpoint.save_checkpoint(network.build(cfg, seed=WEIGHT_SEED), ckpt)
        net = network.build(cfg, seed=WEIGHT_SEED + 1)
        checkpoint.load_checkpoint(net, ckpt)
        shutil.rmtree(ckpt)
        return net

    def setup(self, seed, workdir, refs):
        rng = np.random.default_rng(seed)
        ids = [int(i) for i in rng.choice(SCENE_POOL, size=SCENES_PER_RUN, replace=False)]
        return self.state_for(ids, workdir, refs)

    def state_for(self, scene_ids, workdir, refs):
        state = ReconState(
            net=self.load_net(workdir),
            system=self.system(),
            scene_ids=scene_ids,
            scenes={sid: self.scene(sid) for sid in scene_ids},
            refs=refs,
        )
        forward = state.net.forward

        def capturing_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            state.last_output[:] = [out]
            return out

        state.net.forward = capturing_forward
        return state

    def evaluate(self, state, sid):
        """Run one scene; returns (seconds, output cube, psnr, ssim)."""
        t0 = time.perf_counter()
        rows, _ = train.evaluate(state.net, [state.scenes[sid]], state.system)
        seconds = time.perf_counter() - t0
        _, psnr_db, ssim_val = rows[0]
        return seconds, state.last_output[0][0], psnr_db, ssim_val

    def warmup(self, state, hooks=NO_HOOKS):
        hooks.on_net(state.net)
        self.evaluate(state, state.scene_ids[0])

    def step(self, state, hooks=NO_HOOKS):
        sid = state.scene_ids[state.done % len(state.scene_ids)]
        state.done += 1
        hooks.on_net(state.net)
        hooks.between_ops()
        hooks.on_op()
        seconds, out, psnr_db, ssim_val = self.evaluate(state, sid)
        ref = state.refs["recon"][self.name][str(sid)]
        return [OpResult(seconds, recon_matches(out, psnr_db, ssim_val, ref))]


@dataclass
class TrainState:
    seeds: list
    refs: dict  # the whole reference.json
    pending: tuple
    done: int = 0


class Train:
    """One op: one Adam step of train.train on synthetic_stream (C=8,
    8 bands, patch 32, batch 2, binarized, tanh STE). Ops run in chunks of
    100 steps, each from a fresh network, so every loss has a reference."""

    images_per_op = TRAIN_BATCH
    setup_repeats = 16  # one set-up takes ~5 ms; the median of many is steadier
    probes_per_op = 1

    def __init__(self, name):
        self.name = name
        self.size = (TRAIN_PATCH, TRAIN_PATCH)

    def config(self):
        return network.NetworkConfig(base_channels=TRAIN_CHANNELS, n_wavelengths=TRAIN_BANDS)

    def build(self, pool_id, steps=TRAIN_STEPS):
        seed = TRAIN_SEED_BASE + pool_id
        tcfg = train.TrainConfig(steps=steps, batch=TRAIN_BATCH, patch=TRAIN_PATCH, seed=seed)
        net = network.build(self.config(), seed=seed)
        return net, tcfg, train.synthetic_stream(TRAIN_BANDS, tcfg)

    def setup(self, seed, workdir, refs):
        rng = np.random.default_rng(seed)
        seeds = [int(i) for i in rng.permutation(TRAIN_POOL)]
        return TrainState(seeds=seeds, refs=refs, pending=self.build(seeds[0]))

    def warmup(self, state, hooks=NO_HOOKS):
        net, tcfg, stream = self.build(state.seeds[0], steps=1)
        hooks.on_net(net)
        train.train(net, tcfg, stream)

    def run_chunk(self, net, tcfg, stream, hooks=NO_HOOKS):
        """Train one chunk; returns (per-step seconds, history).

        A step's time runs from the start of its batch to the start of the
        next one; ``hooks.between_ops`` runs outside it.
        """
        seconds = []
        start = None

        def timed_batch(step):
            nonlocal start
            if start is not None:
                seconds.append(time.perf_counter() - start)
            hooks.between_ops()
            start = time.perf_counter()
            hooks.on_op()
            return stream(step)

        history = train.train(net, tcfg, timed_batch)
        seconds.append(time.perf_counter() - start)
        return seconds, history

    def step(self, state, hooks=NO_HOOKS):
        pool_id = state.seeds[state.done % len(state.seeds)]
        state.done += 1
        net, tcfg, stream = state.pending or self.build(pool_id)
        state.pending = None
        hooks.on_net(net)
        seconds, history = self.run_chunk(net, tcfg, stream, hooks)
        ref = state.refs["train"][self.name][str(pool_id)]
        return [
            OpResult(s, loss_matches(loss, ref[i]))
            for s, (i, _lr, loss) in zip(seconds, history)
        ]


WORKLOADS = {
    "recon256_bin": Recon("recon256_bin", binarized=True),
    "recon256_base": Recon("recon256_base", binarized=False),
    "train32_bin": Train("train32_bin"),
}


def timed_setup(workload, seed, refs, hooks=NO_HOOKS):
    """Set the workload up ``setup_repeats`` times; returns (last state, seconds each).

    Set-up covers building the network (and, for recon, the checkpoint round
    trip), the coded aperture and the generated inputs. The run calls this
    before and after its measured ops, so the reported median spans the run
    rather than one moment of a host whose speed drifts.
    """
    times = []
    state = None
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for _ in range(workload.setup_repeats):
            state = None  # free the previous set-up's inputs before the next
            hooks.between_ops()
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir, refs)
            times.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return state, times
