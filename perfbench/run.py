"""Benchmark of bisrnet: 256x256 reconstruction and small-patch training.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
One process, one client, a closed loop: each op starts when the previous
one has ended. BLAS runs on ``BLAS_THREADS`` threads, and numpy's
huge-page advice is off (see ``PROCESS_ENV``).

--trace 0 sets the workload up several times, runs one untimed warm-up op,
runs ops for S seconds, sets the workload up several times again, and
reports the end-to-end metrics (``setup_s`` is the median of all set-ups).
Before every op and set-up it times a fixed host-speed probe (see
``hostspeed.py``); the reported times are scaled by the run's host factor,
and the raw ones are printed next to them.
--trace 1 runs S/2 seconds untraced and S/2 seconds with spans recorded
around every call into the program's layers, and reports the per-layer
metrics. Both print tables first and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. Every op's output is checked
against ``reference.json``; an op that fails the check counts in "failed".
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREADS = 1  # at most nproc; one thread keeps GEMM times steadier on a shared host
# Set before numpy is imported. Whether the kernel grants numpy's huge-page
# advice depends on the host's memory fragmentation, which made peak RSS
# differ from run to run; without the advice it repeats.
PROCESS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
]

TRACED_LAYERS = ["BiSRConv", "Conv2dFP", "ConvBlock", "BinDownsample", "BinFusionDown",
                 "BinUpsample", "FPUp"]
PARTS = ["embedding", "encoder", "bottleneck", "decoder", "mapping"]
TENSOR_OPS = ["conv2d_forward", "conv2d_backward", "conv2d_vjp", "bilinear_up2",
              "bilinear_up2_backward", "avg_pool2x2"]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric; times are per op."""
    rows = [
        ("bitpack.bit_conv2d.calls", "calls/op", "lower"),
        ("bitpack.bit_conv2d.busy_s", "s/op", "lower"),
        ("bitpack.bit_conv2d.share", "fraction", "lower"),
        ("bitpack.bit_conv2d.gmac_per_s", "GMAC/s", "higher"),
        ("bitpack.bit_conv2d.bytes_computed", "B/op", "lower"),
        ("bitpack.pack.calls", "calls/op", "lower"),
        ("bitpack.pack.busy_s", "s/op", "lower"),
    ]
    for fn in ("sign", "ste_grad"):
        rows += [(f"binarize.{fn}.calls", "calls/op", "lower"),
                 (f"binarize.{fn}.busy_s", "s/op", "lower")]
    for fn in TENSOR_OPS:
        rows += [(f"tensor.{fn}.calls", "calls/op", "lower"),
                 (f"tensor.{fn}.busy_s", "s/op", "lower")]
    rows.append(("tensor.conv2d_forward.gmac_per_s", "GMAC/s", "higher"))
    for cls in TRACED_LAYERS:
        rows += [(f"layers.{cls}.fwd_self_s", "s/op", "lower"),
                 (f"layers.{cls}.bwd_self_s", "s/op", "lower")]
    for part in PARTS:
        rows += [(f"network.{part}.fwd_s", "s/op", "lower"),
                 (f"network.{part}.bwd_s", "s/op", "lower"),
                 (f"network.{part}.ops_b", "OP/image", "lower"),
                 (f"network.{part}.ns_per_op", "ns/OP", "lower")]
    rows.append(("network.forward.peak_rss_delta_mib", "MiB", "lower"))
    for fn in ("forward_capture", "shift_back", "shift_mask", "crop_augment"):
        rows.append((f"cassi.{fn}.busy_s", "s/op", "lower"))
    for fn in ("make_sample", "rmse_loss", "adam_step", "psnr", "ssim"):
        rows.append((f"train.{fn}.busy_s", "s/op", "lower"))
    for fn in ("save_checkpoint", "load_checkpoint"):
        rows.append((f"checkpoint.{fn}.busy_s", "s/setup", "lower"))
    rows.append(("trace.overhead_frac", "fraction", "lower"))
    return rows


# Spans each workload must record, and spans it must not: a trace that
# misses a binding or leaks into the wrong path fails the run.
_RECON_SPANS = {
    "cassi.forward_capture", "cassi.shift_back", "cassi.shift_mask", "train.psnr",
    "train.ssim", "tensor.conv2d_forward", "tensor.bilinear_up2", "network.forward",
    "layers.Conv2dFP.forward", "layers.ConvBlock.forward",
} | {f"network.{p}.forward" for p in PARTS}
_BIN_SPANS = {
    "bitpack.bit_conv2d", "bitpack.pack", "binarize.sign", "tensor.avg_pool2x2",
    "layers.BiSRConv.forward", "layers.BinDownsample.forward",
    "layers.BinFusionDown.forward", "layers.BinUpsample.forward",
}
_TRAIN_ONLY = {
    "binarize.ste_grad", "tensor.conv2d_backward", "tensor.conv2d_vjp",
    "tensor.bilinear_up2_backward", "train.make_sample", "train.rmse_loss",
    "train.adam_step", "cassi.crop_augment", "network.backward",
    "layers.BiSRConv.backward",
}
EXPECTED_SPANS = {
    "recon256_bin": (_RECON_SPANS | _BIN_SPANS, _TRAIN_ONLY | {"layers.FPUp.forward"}),
    "recon256_base": (_RECON_SPANS | {"layers.FPUp.forward"}, _TRAIN_ONLY | _BIN_SPANS),
    "train32_bin": (
        (_RECON_SPANS - {"train.psnr", "train.ssim"}) | _BIN_SPANS | _TRAIN_ONLY,
        {"train.psnr", "train.ssim", "layers.FPUp.forward"},
    ),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info(np):
    """OpenBLAS version from numpy's build config and the live thread count."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": threads}


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def provenance(bench, np):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_hugepage_advice": np._core.multiarray._get_madvise_hugepage(),
        **blas_info(np),
        "git_commit": git_commit(bench.ROOT),
        "src_sha256": bench.src_sha256(),
    }


def measure(bench, workload, state, seconds, hooks):
    """Closed loop for ``seconds``; returns the op results.

    An op that raises ends the loop and counts as failed.
    """
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        try:
            results += workload.step(state, hooks)
        except Exception as exc:  # report the failure, then stop measuring
            traceback.print_exc()
            results.append(bench.OpResult(float("nan"), f"{type(exc).__name__}: {exc}"))
            break
    return results


def op_seconds(results):
    return [r.seconds for r in results if r.seconds == r.seconds]


def throughput(results):
    """Ops per second of time spent in ops; the output checks are left out."""
    return len(results) / sum(op_seconds(results))


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_errors(results):
    errors = [r.error for r in results if r.error]
    for msg in sorted(set(errors)):
        print(f"FAILED ({errors.count(msg)} ops): {msg}")
    return len(errors)


def end_to_end(results, setup_times, host):
    """End-to-end metrics scaled by the host factor; prints raw and scaled."""
    secs = op_seconds(results)
    raw = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(secs),
        "ops_per_s": throughput(results),
        "peak_rss_mib": peak_rss_mib(),
    }
    if len(secs) >= P90_MIN_SAMPLES:
        raw["op_s_p90"] = statistics.quantiles(secs, n=10)[8]
    factor = host.factor()
    scale = {"s": factor, "1/s": 1.0 / factor}
    units = {name: unit for name, unit, _ in END_TO_END} | {"op_s_p90": "s"}
    values = {name: v * scale.get(units[name], 1.0) for name, v in raw.items()}
    print(f"host probe: median {statistics.median(host.times) * 1e3:.4f} ms over "
          f"{len(host.times)} probes, factor {factor:.4f} "
          f"(reference {host.reference_s * 1e3:g} ms)")
    print(f"{'metric':<14} {'value':>12} {'raw':>12}  unit   samples")
    samples = {"setup_s": len(setup_times), "op_s_p50": len(secs), "op_s_p90": len(secs)}
    for name in [n for n, _, _ in END_TO_END] + ["op_s_p90"]:
        n = samples.get(name, len(results))
        if name in values:
            print(f"{name:<14} {values[name]:>12.6g} {raw[name]:>12.6g}  {units[name]:<6} {n}")
        else:
            print(f"{name:<14} {'n/a':>12} {'n/a':>12}  {'s':<6} {n} (needs {P90_MIN_SAMPLES})")
    failed = sum(1 for r in results if r.error)
    print(f"{'error_rate':<14} {failed / len(results):>12.6g} {'':>12}  {'1':<6} {len(results)}")
    return values


def per_layer(workload, net, summary, setup_summary, n_ops, busy_ops_s, overhead):
    per_name, _ = summary
    setup_names, _ = setup_summary

    def get(name, key):
        return per_name.get(name, {}).get(key, 0.0)

    m = {}
    for name, unit, _ in per_layer_metrics():
        head, _, key = name.rpartition(".")
        if key == "calls":
            m[name] = get(head, "calls") / n_ops
        elif key == "busy_s" and head.startswith("checkpoint."):
            calls = setup_names.get(head, {}).get("calls", 0)
            m[name] = setup_names[head]["busy_s"] / calls if calls else 0.0
        elif key == "busy_s":
            m[name] = get(head, "busy_s") / n_ops
        elif key == "share":
            m[name] = get(head, "busy_s") / busy_ops_s
        elif key == "gmac_per_s":
            busy = get(head, "busy_s")
            m[name] = get(head, "macs") / busy / 1e9 if busy else 0.0
        elif key == "bytes_computed":
            m[name] = get(head, "bytes") / n_ops
        elif key in ("fwd_self_s", "bwd_self_s"):
            meth = "forward" if key == "fwd_self_s" else "backward"
            m[name] = get(f"{head}.{meth}", "self_s") / n_ops
    acc = {p.name: p for p in net.count(*workload.size).parts}
    for part in PARTS:
        fwd = get(f"network.{part}.forward", "busy_s") / n_ops
        m[f"network.{part}.fwd_s"] = fwd
        m[f"network.{part}.bwd_s"] = get(f"network.{part}.backward", "busy_s") / n_ops
        m[f"network.{part}.ops_b"] = acc[part].ops_b
        m[f"network.{part}.ns_per_op"] = fwd * 1e9 / (acc[part].ops_b * workload.images_per_op)
    m["trace.overhead_frac"] = overhead
    return m


def print_trace_tables(workload, net, values, summary, n_ops, busy_ops_s):
    per_name, per_shape = summary
    print(f"\naccounted vs measured, per forward of {workload.images_per_op} image(s) "
          f"at {workload.size[0]}x{workload.size[1]}")
    print(f"{'part':<11} {'binarized':>9} {'ops_f':>14} {'ops_b':>14} {'fwd s/op':>10} "
          f"{'bwd s/op':>10} {'ns/OP_b':>9} {'ns/OP_f':>9}")
    for p in net.count(*workload.size).parts:
        fwd, bwd, ns_b = (values[f"network.{p.name}.{k}"] for k in ("fwd_s", "bwd_s", "ns_per_op"))
        print(f"{p.name:<11} {str(p.binarized):>9} {p.ops_f:>14,} {p.ops_b:>14,} {fwd:>10.4f} "
              f"{bwd:>10.4f} {ns_b:>9.3f} {ns_b * p.ops_b / p.ops_f:>9.3f}")
    print("\nconvolutions by shape (bytes are computed from shapes, not measured)")
    print(f"{'kernel':<22} {'input':<18} {'weight':<16} {'s':>2} {'p':>2} {'calls/op':>8} "
          f"{'MMAC/call':>10} {'comp. KiB/call':>14} {'ms/call':>9} {'GMAC/s':>8}")
    for (name, key), row in sorted(per_shape.items(), key=lambda kv: kv[0]):
        xs, ws, stride, pad = key
        calls = row["calls"]
        print(f"{name:<22} {str(xs):<18} {str(ws):<16} {stride:>2} {pad:>2} "
              f"{calls / n_ops:>8.2f} {row['macs'] / calls / 1e6:>10.3f} "
              f"{row['bytes'] / calls / 1024:>14.1f} {row['busy_s'] / calls * 1e3:>9.3f} "
              f"{row['macs'] / row['busy_s'] / 1e9:>8.3f}")
    print(f"\nself time by span, per op (op time {busy_ops_s / n_ops:.4f} s)")
    rows = sorted(per_name.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"{name:<36} {row['self_s'] / n_ops:>10.5f} s  {row['calls'] / n_ops:>8.2f} calls")


def check_spans(workload_name, per_name):
    required, forbidden = EXPECTED_SPANS[workload_name]
    problems = [f"span {s} recorded no calls" for s in sorted(required) if s not in per_name]
    problems += [f"span {s} must not occur on {workload_name}"
                 for s in sorted(forbidden) if s in per_name]
    return problems


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PROCESS_ENV)
    try:
        import bench
        import hostspeed
        import numpy as np
        import tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    refs = bench.load_reference()
    print(json.dumps({"provenance": provenance(bench, np), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))

    if not args.trace:
        host = hostspeed.HostSpeed(workload.probes_per_op)
        for _ in range(8):  # untimed: the first probes of a process run slower
            host.probe()
        state, setup_times = bench.timed_setup(workload, args.seed, refs, host)
        t0 = time.perf_counter()
        workload.warmup(state)
        print(f"warm-up op: {time.perf_counter() - t0:.4f} s (untimed)")
        results = measure(bench, workload, state, args.seconds, host)
        state = None
        setup_times += bench.timed_setup(workload, args.seed, refs, host)[1]
        failed = report_errors(results)
        values = end_to_end(results, setup_times, host)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        setup_trace = tracer.Tracer()
        setup_trace.install()
        try:
            state, _ = bench.timed_setup(workload, args.seed, refs)
        finally:
            setup_trace.uninstall()
        probe = tracer.ForwardPeak()
        workload.warmup(state, probe)
        probe.remove()
        plain = measure(bench, workload, state, args.seconds / 2, bench.NO_HOOKS)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced = measure(bench, workload, state, args.seconds / 2, trace)
        finally:
            trace.uninstall()
        results = plain + traced
        failed = report_errors(results)
        summary = trace.summary()
        problems = check_spans(args.workload, summary[0])
        for msg in problems:
            print(f"perfbench: trace check failed: {msg}", file=sys.stderr)
        if problems:
            return 1
        net = bench.network.build(workload.config())
        n_ops = len(traced)
        busy_ops_s = sum(op_seconds(traced))
        overhead = 1.0 - throughput(traced) / throughput(plain)
        values = per_layer(workload, net, summary, setup_trace.summary(), n_ops, busy_ops_s,
                           overhead)
        print_trace_tables(workload, net, values, summary, n_ops, busy_ops_s)
        values["network.forward.peak_rss_delta_mib"] = probe.peak_bytes / 2**20
        print(f"\ntraced {n_ops} ops at {throughput(traced):.4g}/s, untraced {len(plain)} ops "
              f"at {throughput(plain):.4g}/s: overhead {overhead:.4f}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
