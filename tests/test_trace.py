"""The benchmark's per-layer trace still records every span it requires.

The trace (``perfbench/tracer.py``) wraps the ``forward``/``backward``
that each class in ``bisrnet.layers`` defines in its own body, and the
functions each module imports by name. A layer refactor that moves a
method into a base class, or calls a primitive through another binding,
drops spans that ``perfbench/run.py --trace 1`` requires; this test fails
first.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_train32_bin_trace_records_required_spans():
    workload = bench.WORKLOADS["train32_bin"]
    net, tcfg, stream = workload.build(0, steps=2)
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.on_net(net)
        seconds, _ = workload.run_chunk(net, tcfg, stream, trace)
    finally:
        trace.uninstall()
    assert len(seconds) == 2
    assert run.check_spans("train32_bin", trace.summary()[0]) == []
