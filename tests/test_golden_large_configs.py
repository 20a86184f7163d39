"""Bit-exact pins, at channel-last sizes, of the configs that
``test_golden_large.py`` leaves out.

``test_golden_large.py`` pins ``bisrnet`` and ``base`` on (2, 8, 96, 96)
batches, where BiSRConv outputs take the conv's channel-last memory order.
These cases pin the module style ``normal`` and the two mixed configs the
same way, with the same three SHA-256 digests:

    out     the forward output bytes
    grad_in the bytes of both input gradients
    grads   the bytes of every ``Param.grad``, in ``params()`` order

Print fresh digests with ``PYTHONPATH=src python tests/test_golden_large_configs.py``.
"""

import numpy as np
import pytest

from bisrnet.network import build

from test_golden import CONFIGS, digest

NAMES = ("normal", "mixed_dec", "mixed_enc_dec")
CASES = [(name, surrogate) for name in NAMES for surrogate in (False, True)]
SHAPE = (2, 8, 96, 96)


def fingerprint(name, surrogate):
    seed = 300 + NAMES.index(name)
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
    "normal/sign": {
        "out": "783ba71a05e124c4daf44d1dbca2c5269eb162d4c794ae92477c6cacbd2aaa2b",
        "grad_in": "8ab4550fec750837614d0e86028771c3fd1d2d5c08817d7d756964862dd3ed10",
        "grads": "2dd6629a41c8f79a55870a8f94ce42e6d8305f2114474395f93eb1d3ccf6b0d2",
    },
    "normal/surrogate": {
        "out": "fb364792e0489c80d3039f97531228dd8a76a8df31d24252307c68282f806824",
        "grad_in": "662de14fd6dcfd4f392ab30405fe073b79981c567cf70aee04eaa052f9c8e13c",
        "grads": "52fb9ca6da7b968bdb42474f026b35699b97270ef15224ff7dbf658546eca6a1",
    },
    "mixed_dec/sign": {
        "out": "808da4eaebc8cbb3a98daf11a1335195815f44cabf18f01119976f3b40062d93",
        "grad_in": "1793e20121cf2d093e376f41f54043ce2b4d2c0fb8b2c9c81053cbfac3941c8f",
        "grads": "095e55a55da9ba448810a4981e69e2e16dadaf4aa417bb98b39f8d69517ff86a",
    },
    "mixed_dec/surrogate": {
        "out": "379183e342615bc63f8c38dcbd341892f60905eee0f78893695930d303881790",
        "grad_in": "129d547c5817ece37333ca767499c0ac065ae45dc6fa878c9406d49fb527cd7b",
        "grads": "82a26e1ffda3e18f44913e3aafa91a10065771c6c9c56ae3114468ccb757312b",
    },
    "mixed_enc_dec/sign": {
        "out": "0f6ec23fc722c7b72551ff1af2d9cfbf76a42996e1f607703dcb9704aa1ab741",
        "grad_in": "ea4234227080e0d22ab2cdc3382a26dd465a2d1ca9e84de5932bb16aecd63323",
        "grads": "30305a562adc0eb8c1225eca91e76b42f2173b6ef1a31a5d1947edc25530c47a",
    },
    "mixed_enc_dec/surrogate": {
        "out": "0fe9584ced1f6fa0d09101ea228f5f1cdae6deac57ed4f7a23cc04c1136a8f30",
        "grad_in": "a5bef3b675e1576345c09fa0b54d1ed0c4ed7358ad6b1b236db05a160cd59b34",
        "grads": "6e4c0b85c61e50dc18dad90e9a59c731d1b6739fa01f51cfab25f7cf63767a4a",
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
