"""The forward switches: ``layers.inference()`` and ``layers.surrogate()``.

Inside ``layers.inference()`` every cache write stores None, so an
evaluation forward holds nothing for a backward. These tests check that
such a forward gives the bytes of a caching one, leaves the heap holding
little more than its output, makes a later backward fail loudly, and that
``train.evaluate`` runs under it. A static check keeps ``Layer._save_cache``
the only code in the package that assigns ``_cache``, so a layer added
later cannot write a cache that the switch does not see.

Inside ``layers.surrogate()`` the 1-bit forwards replace sign() by its
surrogate. ``Network.forward`` sets it from its keyword, whatever encloses
the call, and static checks keep every layer's forward taking only its
input and the switch read and set in one place each.

Both switches restore their setting on exit and stay in the calling thread.
"""

import ast
import inspect
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest

import bisrnet
from bisrnet import layers
from bisrnet.cassi import CassiSystem, random_mask, synth_scene
from bisrnet.errors import StateError
from bisrnet.network import PART_NAMES, NetworkConfig, build
from bisrnet.train import evaluate

from test_golden import CASES, CONFIGS


def golden_inputs(seed):
    rng = np.random.default_rng(seed)
    return (rng.random((2, 8, 32, 32)).astype(np.float32),
            rng.random((2, 8, 32, 32)).astype(np.float32))


def all_layers(net):
    """Every layer of a network, composites and their sub-layers alike."""
    todo = [layer for part in PART_NAMES for layer in net.part_layers(part)]
    found = []
    while todo:
        layer = todo.pop()
        found.append(layer)
        todo.extend(layer.layers)
    return found


@pytest.mark.parametrize("name,surrogate", CASES)
def test_cache_free_forward_gives_the_same_bytes(name, surrogate):
    net = build(CONFIGS[name](base_channels=8, n_wavelengths=8), seed=300)
    h_in, m_in = golden_inputs(301)
    want = net.forward(h_in, m_in, surrogate=surrogate)
    with layers.inference():
        got = net.forward(h_in, m_in, surrogate=surrogate)
    assert got.dtype == want.dtype and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def held_after_forward(cfg, cache_free):
    """Bytes a (1, 8, 64, 64) forward leaves held besides its output, in
    units of one input's bytes (which equal the output's)."""
    net = build(cfg(base_channels=8, n_wavelengths=8), seed=0)
    rng = np.random.default_rng(1)
    h_in, m_in = (rng.random((1, 8, 64, 64)).astype(np.float32) for _ in range(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if cache_free:
            with layers.inference():
                out = net.forward(h_in, m_in)
        else:
            out = net.forward(h_in, m_in)
        held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
    finally:
        tracemalloc.stop()
    return held / h_in.nbytes


# A cache-free forward leaves less than one input's bytes held besides its
# output. Caching forwards hold 26x (binarized) and 21x (base).
HELD_BOUND = 1.0


@pytest.mark.parametrize("cfg", [NetworkConfig.bisrnet, NetworkConfig.base_model],
                         ids=["bisrnet", "base"])
def test_cache_free_forward_holds_little_more_than_its_output(cfg):
    assert held_after_forward(cfg, cache_free=True) < HELD_BOUND
    assert held_after_forward(cfg, cache_free=False) > HELD_BOUND


LAYERS = {
    "BiSRConv": lambda rng: layers.BiSRConv(4, rng),
    "VanillaBinConv": lambda rng: layers.VanillaBinConv(4, 6, 3, 1, 1, rng),
    "Conv2dFP": lambda rng: layers.Conv2dFP(4, 4, 3, 1, 1, rng),
    "ConvBlock": lambda rng: layers.ConvBlock(4, rng),
    "Pool2": lambda rng: layers.Pool2(),
    "Up2": lambda rng: layers.Up2(),
}


@pytest.mark.parametrize("name", LAYERS)
@pytest.mark.parametrize("trained_first", [False, True])
def test_backward_after_cache_free_forward_raises(name, trained_first):
    rng = np.random.default_rng(310)
    layer = LAYERS[name](rng)
    x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
    if trained_first:
        layer.forward(x)
    with layers.inference():
        y = layer.forward(x)
    with pytest.raises(StateError):
        layer.backward(np.ones_like(y))


def drops_cache():
    layer = layers.Conv2dFP(2, 2, 1, 1, 0, np.random.default_rng(330))
    layer.forward(np.ones((1, 2, 2, 2), np.float32))
    return layer._cache is None


def uses_surrogate():
    """Whether a 1-bit forward ran its surrogate, as its cache records."""
    layer = layers.VanillaBinConv(2, 2, 1, 1, 0, np.random.default_rng(331))
    layer.forward(np.ones((1, 2, 2, 2), np.float32))
    return layer._cache[1]


# Each switch with a probe that tells whether it is on.
SWITCHES = {"inference": (layers.inference, drops_cache),
            "surrogate": (layers.surrogate, uses_surrogate)}


@pytest.mark.parametrize("switch", SWITCHES)
def test_switch_is_restored_after_an_exception_and_nests(switch):
    enter, is_on = SWITCHES[switch]
    assert not is_on()
    with pytest.raises(RuntimeError):
        with enter():
            raise RuntimeError("inside")
    assert not is_on()
    with enter():
        with enter():
            assert is_on()
        assert is_on()
    assert not is_on()


@pytest.mark.parametrize("switch", SWITCHES)
def test_switch_belongs_to_the_calling_thread(switch):
    enter, is_on = SWITCHES[switch]
    seen = []
    with enter():
        worker = threading.Thread(target=lambda: seen.append(is_on()))
        worker.start()
        worker.join(timeout=60)
        assert is_on()
    assert not worker.is_alive() and seen == [False]


def test_network_keyword_decides_inside_the_surrogate_switch():
    net = build(NetworkConfig.bisrnet(base_channels=4, n_wavelengths=8), seed=350)
    h_in, m_in = golden_inputs(351)
    want = net.forward(h_in, m_in)
    with layers.surrogate():
        got = net.forward(h_in, m_in, surrogate=False)
        assert uses_surrogate()
    assert got.tobytes() == want.tobytes()
    assert net.forward(h_in, m_in, surrogate=True).tobytes() != want.tobytes()


def test_network_surrogate_forward_leaves_the_switch_off():
    net = build(NetworkConfig.bisrnet(base_channels=4, n_wavelengths=8), seed=352)
    h_in, m_in = golden_inputs(353)
    net.forward(h_in, m_in, surrogate=True)
    assert not uses_surrogate()


def test_evaluate_leaves_no_cache():
    net = build(NetworkConfig.bisrnet(base_channels=4, n_wavelengths=8), seed=340)
    h_in, m_in = (np.random.default_rng(341).random((1, 8, 16, 16)).astype(np.float32)
                  for _ in range(2))
    net.forward(h_in, m_in)  # a training forward's caches, which evaluate must clear
    cached = [layer for layer in all_layers(net) if layer._cache is not None]
    assert len(cached) > 20
    evaluate(net, [synth_scene(342, 16, 16, 8)], CassiSystem(random_mask(343, 16, 16), 2, 8))
    assert [layer.name for layer in all_layers(net) if layer._cache is not None] == []


def scopes_where(source, module, matches):
    """Qualified names of the scopes of ``source`` that hold a node for
    which ``matches`` is true, once per such node."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if matches(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def package_scopes_where(matches):
    package = pathlib.Path(bisrnet.__file__).parent
    return [scope for path in sorted(package.glob("*.py"))
            for scope in scopes_where(path.read_text(), path.stem, matches)]


def writes_cache(node):
    """A store to or delete of an attribute named ``_cache``, or a setattr
    or delattr call naming it."""
    stores = (isinstance(node, ast.Attribute) and node.attr == "_cache"
              and isinstance(node.ctx, (ast.Store, ast.Del)))
    sets = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr") and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "_cache")
    return stores or sets


def cache_writers(source, module):
    return scopes_where(source, module, writes_cache)


def test_only_the_layer_writer_assigns_a_cache():
    assert package_scopes_where(writes_cache) == ["layers.Layer._save_cache"]


def touches_surrogate_switch(node):
    """A use of the switch's variable, or a call of anything named
    ``surrogate``."""
    if isinstance(node, ast.Name) and node.id == "_use_surrogate":
        return True
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None)) == "surrogate"


def test_surrogate_switch_is_read_and_set_in_one_place_each():
    # Defined at module level, wrapped by layers.surrogate, read by
    # _binconv, entered by Network.forward.
    assert package_scopes_where(touches_surrogate_switch) == [
        "layers", "layers.surrogate", "layers.VanillaBinConv._binconv", "network.Network.forward",
    ]


def test_every_layer_forward_takes_only_its_input():
    forwards = {name: str(inspect.signature(cls.forward)) for name, cls in vars(layers).items()
                if isinstance(cls, type) and "forward" in vars(cls)}
    assert "BiSRConv" in forwards and "Chain" in forwards
    assert {name: sig for name, sig in forwards.items() if sig != "(self, x)"} == {}


def test_cache_writer_check_sees_every_form_of_write():
    source = """
class Sneaky:
    def a(self):
        self._cache = 1
    def b(self):
        y, self._cache = 1, 2
    def c(self):
        self._cache += 1
    def d(self):
        setattr(self, "_cache", 1)
    def e(self):
        del self._cache
    def f(self, other):
        for other._cache in ():
            pass
    def g(self):
        _cache = 1
        return self._cache
"""
    assert cache_writers(source, "m") == [f"m.Sneaky.{f}" for f in "abcdef"]
