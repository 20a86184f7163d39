"""Write reference.json: the gate's expected outputs for every pool member.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
then fails every op whose output drifts from these values beyond the
tolerances in bench.py. Takes a few minutes on two cores.
"""

import json
import os
import shutil
import sys
import tempfile

import run

os.environ.update(run.PROCESS_ENV)

import bench  # noqa: E402


def recon_reference(workload):
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=bench.ROOT)
    try:
        state = workload.state_for(list(range(bench.SCENE_POOL)), workdir, refs=None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    for sid in state.scene_ids:
        _, cube, psnr_db, ssim_val = workload.evaluate(state, sid)
        norm, proj = bench.recon_digest(cube)
        out[str(sid)] = {"psnr": psnr_db, "ssim": ssim_val, "norm": norm, "proj": proj}
        print(f"{workload.name} scene {sid}: psnr {psnr_db:.6f} ssim {ssim_val:.6f}", flush=True)
    return out


def train_reference(workload):
    out = {}
    for pool_id in range(bench.TRAIN_POOL):
        _, history = workload.run_chunk(*workload.build(pool_id))
        out[str(pool_id)] = [loss for _step, _lr, loss in history]
        print(f"{workload.name} seed {pool_id}: loss {history[0][2]:.6f} -> {history[-1][2]:.6f}",
              flush=True)
    return out


def main():
    import numpy as np

    refs = {
        "src_sha256": bench.src_sha256(),
        "numpy": np.__version__,
        "blas_threads": run.BLAS_THREADS,
        "recon": {}, "train": {},
    }
    for name, workload in bench.WORKLOADS.items():
        if isinstance(workload, bench.Recon):
            refs["recon"][name] = recon_reference(workload)
        else:
            refs["train"][name] = train_reference(workload)
    with open(bench.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
