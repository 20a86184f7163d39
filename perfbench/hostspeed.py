"""Host-speed probe: a fixed numpy workload timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over minutes, with the load of other tenants. That drift
moves every timing of a run alike, so one run read alone cannot tell a
slower program from a slower host. The probe is a fixed piece of work that
does not touch the program: small elementwise float32 ops (per-call
overhead, as in training), an XNOR/popcount pass over packed words and a
float32 GEMM (the two kinds of convolution). ``HostSpeed`` times it before
every op and every set-up, outside their timed spans, and reports the run's
host factor: ``REFERENCE_S`` over the median probe time. Times scaled by
that factor read as seconds on a host where the probe takes ``REFERENCE_S``.
The program cannot change the probe, so a change to the program moves the
scaled times as much as the raw ones.
"""

import statistics
import time

import numpy as np

import bench

REFERENCE_S = 0.005  # the probe's median time on the 2-vCPU host the bounds were set on
PROBE_SEED = 4_242


class HostSpeed(bench.Hooks):
    """Hooks that time ``repeats`` probes before each op and set-up."""

    reference_s = REFERENCE_S

    def __init__(self, repeats):
        rng = np.random.default_rng(PROBE_SEED)
        self.repeats = repeats
        self.small = rng.standard_normal((2, 8, 34, 34)).astype(np.float32)
        self.words = rng.integers(0, 2**63, size=(65_536, 4), dtype=np.uint64)
        self.row = rng.integers(0, 2**63, size=(1, 4), dtype=np.uint64)
        self.cols = rng.standard_normal((4_096, 252)).astype(np.float32)
        self.weights = rng.standard_normal((252, 28)).astype(np.float32)
        self.times = []

    def probe(self):
        x = self.small
        for _ in range(20):
            y = np.tanh(x) * 0.5 + x[:, ::-1]
            x = x + 1e-3 * y
        counts = np.bitwise_count(~(self.words ^ self.row)).astype(np.int64).sum(axis=-1)
        out = self.cols @ self.weights
        return float(x[0, 0, 0, 0] + counts[0] + out[0, 0])

    def between_ops(self):
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.probe()
            self.times.append(time.perf_counter() - t0)

    def factor(self):
        """How much faster the reference host is than this run's host."""
        return self.reference_s / statistics.median(self.times)
