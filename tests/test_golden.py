"""Bit-exact pins of the network's forward and backward for every config kind.

Each case builds a C=8 network on 8 bands, runs one forward on a seeded
(2, 8, 32, 32) batch and one backward from a seeded output gradient, and
compares SHA-256 digests of:

    names   the parameter names and shapes, in ``params()`` order (the
            checkpoint layout)
    out     the forward output bytes
    grad_in the bytes of both input gradients
    grads   the bytes of every ``Param.grad``, in ``params()`` order

The digests were recorded from the code before the layer classes were
collapsed onto a shared base; a refactor must reproduce them bit for bit.
Print fresh digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from bisrnet.network import NetworkConfig, build

CONFIGS = {
    "bisrnet": NetworkConfig.bisrnet,
    "normal": lambda **kw: NetworkConfig.bisrnet(module_style="normal", **kw),
    "base": NetworkConfig.base_model,
    "mixed_enc_dec": lambda **kw: NetworkConfig.bisrnet(binarize_bottleneck=False, **kw),
    "mixed_dec": lambda **kw: NetworkConfig.base_model(binarize_decoder=True, **kw),
    "ste_clip": lambda **kw: NetworkConfig.bisrnet(ste="clip", **kw),
    "ste_quad": lambda **kw: NetworkConfig.bisrnet(ste="quad", **kw),
    "no_redistribution": lambda **kw: NetworkConfig.bisrnet(redistribution=False, **kw),
}
CASES = [(name, surrogate) for name in CONFIGS for surrogate in (False, True)]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def fingerprint(name, surrogate):
    seed = 100 + list(CONFIGS).index(name)
    net = build(CONFIGS[name](base_channels=8, n_wavelengths=8), seed=seed)
    rng = np.random.default_rng(seed)
    h_in = rng.random((2, 8, 32, 32)).astype(np.float32)
    m_in = rng.random((2, 8, 32, 32)).astype(np.float32)
    out = net.forward(h_in, m_in, surrogate=surrogate)
    net.zero_grads()
    gh, gm = net.backward(rng.standard_normal(out.shape).astype(np.float32))
    params = net.params()
    layout = "\n".join(f"{p.name}:{p.value.shape}" for p in params)
    return {
        "names": hashlib.sha256(layout.encode()).hexdigest(),
        "out": digest(out),
        "grad_in": digest(gh, gm),
        "grads": digest(*(p.grad for p in params)),
    }


@pytest.mark.parametrize("name,surrogate", CASES)
def test_forward_backward_bit_exact(name, surrogate):
    assert fingerprint(name, surrogate) == GOLDEN[f"{name}/{'surrogate' if surrogate else 'sign'}"]


GOLDEN = {
    "bisrnet/sign": {
        "names": "7ae2c776b124d2de59a5c33eebd6fb8aa5bec0e3cc6a8b03b2f57dcb34fe6c81",
        "out": "f5c2706d4af2cf7c21b1276dccb3c21e457b4bb69f4243b96e73e68d9e749fdd",
        "grad_in": "4621c088d8785d824d0c7dc0e6f0d61230f4834ba765bff9bcd47dbb026bb4de",
        "grads": "20ba18d0b5014ed7a39607bf0ef2ce840104307c059255ae3c44170e19264f10",
    },
    "bisrnet/surrogate": {
        "names": "7ae2c776b124d2de59a5c33eebd6fb8aa5bec0e3cc6a8b03b2f57dcb34fe6c81",
        "out": "ab2e7cdc74b446ca1e366be402f74eb478552fcacdc9039b2a7710ce50001c31",
        "grad_in": "096b1e9f98b6094124f53784f69c677f28a151ae454c5b5871ea5a8cd637e1ac",
        "grads": "496775c4fe97337d781a0cb791fd614313a4f606ba0c2fd09909ea05c4761d90",
    },
    "normal/sign": {
        "names": "04dcb3ffb26836976b3b097ebfeed15ae2ddcdb8968c25c0fc600b9da5631b8c",
        "out": "beae96e1f1b5f7482c29d7e4b997701bb29000411befa38d8747e13f2ab4036d",
        "grad_in": "cada4038051fcdfd97c6356ec913b805d06d3050068db4261d48249855030fc8",
        "grads": "628e3967b53a96db95badd585c345b768cba243ba0ce5979c3b96737416244dd",
    },
    "normal/surrogate": {
        "names": "04dcb3ffb26836976b3b097ebfeed15ae2ddcdb8968c25c0fc600b9da5631b8c",
        "out": "ae9c847bcd045047dd09974821696e3194ae4b4f4ff0d398e90037f8979f8662",
        "grad_in": "f265513c64830b05c0306dff28cd447b34bdff47c15fb429b08aaff579be1e33",
        "grads": "4efad4ae1937cb6d717c3016ab84e098ef167bf2e58fe0c4f935f2ece9608c03",
    },
    "base/sign": {
        "names": "591fe86c9a9e2cc0e3c10722d704ee269879e76fb222fc2d1f2073ddb320f1f8",
        "out": "0dafd6b9b934daee93b8d867d20e1f115463e6f5778d5ea0a641afc8ce9c6319",
        "grad_in": "5a178720e870293520da8c90c8133d2ed477c570d6752aa43674f253b4d7f38c",
        "grads": "9f28e6dcfe7c23b3953a6db1e36fdc1f4b75873b96240d18f106709c77a454b7",
    },
    "base/surrogate": {
        "names": "591fe86c9a9e2cc0e3c10722d704ee269879e76fb222fc2d1f2073ddb320f1f8",
        "out": "0dafd6b9b934daee93b8d867d20e1f115463e6f5778d5ea0a641afc8ce9c6319",
        "grad_in": "5a178720e870293520da8c90c8133d2ed477c570d6752aa43674f253b4d7f38c",
        "grads": "9f28e6dcfe7c23b3953a6db1e36fdc1f4b75873b96240d18f106709c77a454b7",
    },
    "mixed_enc_dec/sign": {
        "names": "2a5b945ae36c3ca89820c3fc0b96e9253fbf8e5a598195aae14c6d943d0f6731",
        "out": "74b0f5d70bcbd67782ae712a6f57e71faaf3d10ccd8d716f80e26abb0063d1d2",
        "grad_in": "104b14ac7e725fa2185092f055f1310154c22601737a7b2fc4c30a5372428b75",
        "grads": "6ee1e7e31614f77992fbf58a0239173e0e691bf2aac9ccc3b5d0d910d5c15527",
    },
    "mixed_enc_dec/surrogate": {
        "names": "2a5b945ae36c3ca89820c3fc0b96e9253fbf8e5a598195aae14c6d943d0f6731",
        "out": "15e8e0cadd54ac5cc9cce1a9e6e028c3ea4fea1a9416b23d3edf280285110ae7",
        "grad_in": "41abf172a0851469185bcf66bfa3e40b0b585e53ac9087092bebd61b686dfdd1",
        "grads": "5b041b8f3ed49615dca65100d745481f7297f4cef24d2fdbe05c33dfde102eb8",
    },
    "mixed_dec/sign": {
        "names": "a48e19a253bfbb27386c203a7f380511c4c7ba21bddf7c9416a0584bcf9f87c4",
        "out": "c1afc787ce562cca9da8437cb759bcb957533e631379a6368220a77797e2d5b8",
        "grad_in": "d9007b02fd5f47010abafd3566c91c461b435f2f4c55c8d391904225466c2fc5",
        "grads": "04ea73f1eb3a824e5c40b678be2571e30ddf835e3f5656a7d236dc0e4c6599ab",
    },
    "mixed_dec/surrogate": {
        "names": "a48e19a253bfbb27386c203a7f380511c4c7ba21bddf7c9416a0584bcf9f87c4",
        "out": "a4b248ab19fc827d5f2b61bbe6453e9c9bc2ad48f8487cf822481512e6c02906",
        "grad_in": "8d28d400fa9da8c7d76e5bb960decf85a412b92c4ef7f7d6982c4c4a68c93708",
        "grads": "0a97bf1ab8b61e70f799022297fa312652b81915c68b244d569a9c2983a1bc29",
    },
    "ste_clip/sign": {
        "names": "22f0751f99c7b77eafde1cc49711b7f5ed75c09ef461465fb753b15d05036158",
        "out": "0f1d722875bce33256a89775136ae027a7d1c9f4d227627b0459994b60cd28ef",
        "grad_in": "1a209e9e431f21c39992927aeded00c6d8540f9c605f95e520537ba354063e68",
        "grads": "385e5f207852a5d82f8c2e3e02ca3bbf4dce7ded53cf881d84d7f51e2d98bf08",
    },
    "ste_clip/surrogate": {
        "names": "22f0751f99c7b77eafde1cc49711b7f5ed75c09ef461465fb753b15d05036158",
        "out": "b0acc7a92d8b14d921ffe30e9561e7786ad83b01aa5f544f04def345da8529a9",
        "grad_in": "a1c8c28490696c654076d127ed3073497365c616c71e9ae67a26bac6a7316a14",
        "grads": "f692330260df37124b1aa539343a592ea917fcea574148c4f62c0e6b5c492bde",
    },
    "ste_quad/sign": {
        "names": "22f0751f99c7b77eafde1cc49711b7f5ed75c09ef461465fb753b15d05036158",
        "out": "cec493daa2c32607049addd23c79c48f1348b6fc4606209e0450cf7b00f22700",
        "grad_in": "5946c55f81475f8a82626686ec69f939bec9c50bcb3b0c42005c5edecbc91d38",
        "grads": "47d8c20464a6000ebbae03b7d245a99800dacaeaeb2f39fa52cd16e43ba055a9",
    },
    "ste_quad/surrogate": {
        "names": "22f0751f99c7b77eafde1cc49711b7f5ed75c09ef461465fb753b15d05036158",
        "out": "d397b1722394f9bb38d216f876cc854f52442042576cea14c46b736c39a62ef7",
        "grad_in": "7b759a8efe8c0518dd966c5e4645e23bdcf64337e8c4187787b128a1e7032489",
        "grads": "735d8722bf79521ff23e59444f02eacdc3b94009efde39fd76ac2c3b08afbcd1",
    },
    "no_redistribution/sign": {
        "names": "427b1e2d3a20152e8ab2511726218c20d3e47ae4e15a76645a2fab76ac6a8f26",
        "out": "ad4410d4165f5fa09a9bafd012f5baec8621dda630cbabf1192483ff674c7784",
        "grad_in": "9f1145a97711e5f8a086236fdc6d8c4e4c92cd605d8a40d1e9f67497c7469bea",
        "grads": "f4990a79a30e9997332fed99916a3f72fb6632966a9e547776df4eca80c98209",
    },
    "no_redistribution/surrogate": {
        "names": "427b1e2d3a20152e8ab2511726218c20d3e47ae4e15a76645a2fab76ac6a8f26",
        "out": "dab8125c8a72d596385a2c133100c9c1ef047d916922acb90bb4482edfe1b020",
        "grad_in": "bbc58911b1d86c6dbb768f421a6180fb2bba4d7f773e617ae4d511819591d96b",
        "grads": "83361ac263283be5904d1f2b3b25405aa74c5ab570f1c7a5b2939a4c4bdc9ca3",
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
