"""Bit-exact pins of the network at sizes where BiSRConv outputs are large.

``test_golden.py`` runs (2, 8, 32, 32) batches, whose BiSRConv outputs
(64 KiB at the top level) keep the input's channel-first memory order.
From 256 KiB up, numpy's temporary elision in the residual add hands the
output the conv's channel-last order instead, and every later reduction
rounds in that order. Every 256x256 layer of a real scene takes that
path. These cases run (2, 8, 96, 96) batches at C=8, whose top-level
outputs hold 576 KiB, and compare SHA-256 digests of:

    out     the forward output bytes
    grad_in the bytes of both input gradients
    grads   the bytes of every ``Param.grad``, in ``params()`` order

Print fresh digests with ``PYTHONPATH=src python tests/test_golden_large.py``.
"""

import numpy as np
import pytest

from bisrnet.network import build

from test_golden import CONFIGS, digest

NAMES = ("bisrnet", "base")
CASES = [(name, surrogate) for name in NAMES for surrogate in (False, True)]
SHAPE = (2, 8, 96, 96)


def fingerprint(name, surrogate):
    seed = 200 + NAMES.index(name)
    net = build(CONFIGS[name](base_channels=8, n_wavelengths=8), seed=seed)
    rng = np.random.default_rng(seed)
    h_in = rng.random(SHAPE).astype(np.float32)
    m_in = rng.random(SHAPE).astype(np.float32)
    out = net.forward(h_in, m_in, surrogate=surrogate)
    net.zero_grads()
    gh, gm = net.backward(rng.standard_normal(out.shape).astype(np.float32))
    return {
        "out": digest(out),
        "grad_in": digest(gh, gm),
        "grads": digest(*(p.grad for p in net.params())),
    }


@pytest.mark.parametrize("name,surrogate", CASES)
def test_large_forward_backward_bit_exact(name, surrogate):
    assert fingerprint(name, surrogate) == GOLDEN[f"{name}/{'surrogate' if surrogate else 'sign'}"]


GOLDEN = {
    "bisrnet/sign": {
        "out": "65ef22e509536073d9c7688ad194125a37d651e37ce9fbe527c7c724f910d462",
        "grad_in": "332821f564692affbd9670d42b50edf53e938fec6e5579ab5ceba18edad0d1a0",
        "grads": "3d6719f6e9e4d8aeb03dfaf15ac8da159128699307799ee707d38ce77098d1ae",
    },
    "bisrnet/surrogate": {
        "out": "ebc7ef60002d15f5e0e84dc7d3b1e294fd16236fc8e7a9c98b5c7114141ac3d8",
        "grad_in": "27fd9f66ca74631a56bb4b1ff4cbf2e963aed14ac8113c6d73011d927e82f670",
        "grads": "809f98a2489296e53fd3d2102f8ff16e17d5ac7598864f51920129d9a418b4f0",
    },
    "base/sign": {
        "out": "6e1d75f45c175b573bd2b6af345f48d87a81c4486ade9d924fa19815089261b2",
        "grad_in": "9eec1b23c2544c111ba75d566fdf8e3c6484c828324074d7ea0016e90bb6a7ff",
        "grads": "eba925f70d7d57710156d31374807d80823e730d9a25d1314d55c8fe048e0956",
    },
    "base/surrogate": {
        "out": "6e1d75f45c175b573bd2b6af345f48d87a81c4486ade9d924fa19815089261b2",
        "grad_in": "9eec1b23c2544c111ba75d566fdf8e3c6484c828324074d7ea0016e90bb6a7ff",
        "grads": "eba925f70d7d57710156d31374807d80823e730d9a25d1314d55c8fe048e0956",
    },
}


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, surrogate in CASES:
        print(f"    \"{name}/{'surrogate' if surrogate else 'sign'}\": {{")
        for key, value in fingerprint(name, surrogate).items():
            print(f"        \"{key}\": \"{value}\",")
        print("    },")
    print("}")
