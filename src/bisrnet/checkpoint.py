"""Parameter checkpoints: one ``.hst`` file per parameter plus an index.

The index file lists, one line per parameter in network order:

    <name>\t<logical shape>\t<role>\t<filename>

Arrays are stored flattened as (1, 1, 1, size) .hst tensors; the logical
shape in the index restores them. Round trips are bit exact for float32
networks (the working precision).
"""

import os

import numpy as np

from .errors import StateError
from .hst import read_hst, write_hst

INDEX_NAME = "index.txt"


def _role(name):
    suffix = name.rsplit(".", 1)[-1]
    return {
        "weight": "conv_weight",
        "bias": "conv_bias",
        "gain": "redistribution_gain",
        "shift": "redistribution_shift",
        "alpha": "ste_sharpness",
        "beta": "rprelu_slope",
        "gamma": "rprelu_pivot",
        "zeta": "rprelu_offset",
    }.get(suffix, "other")


def save_checkpoint(net, directory):
    """Write the network's parameters to ``directory``.

    An existing index is removed before the first ``.hst`` file is written,
    and the new index is renamed into place only after the last one, so a
    save that fails partway leaves no index for ``load_checkpoint`` to
    follow into a mix of old and new files.
    """
    os.makedirs(directory, exist_ok=True)
    index_path = os.path.join(directory, INDEX_NAME)
    if os.path.exists(index_path):
        os.remove(index_path)
    lines = []
    for i, p in enumerate(net.params()):
        fname = f"{i:04d}.hst"
        flat = np.ascontiguousarray(p.value, dtype=np.float32).reshape(1, 1, 1, -1)
        write_hst(os.path.join(directory, fname), flat)
        shape = ",".join(str(s) for s in p.value.shape) or "scalar"
        lines.append(f"{p.name}\t{shape}\t{_role(p.name)}\t{fname}")
    tmp_path = index_path + ".tmp"
    with open(tmp_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp_path, index_path)


def _parse_shape(field, where):
    """The logical shape an index line records: () for "scalar", else its
    comma-separated sizes."""
    if field == "scalar":
        return ()
    sizes = field.split(",")
    if not all(s.isascii() and s.isdigit() for s in sizes):
        raise StateError(
            f"{where}: shape {field!r} is neither 'scalar' nor comma-separated sizes"
        )
    return tuple(int(s) for s in sizes)


def load_checkpoint(net, directory):
    """Fill an already-built network's parameters from a checkpoint.

    Every parameter's name, size and shape is checked, and every file read,
    before the first parameter is assigned, so a load that raises leaves
    the network as it was. An index line without four tab-separated
    fields, with a shape that is neither "scalar" nor comma-separated
    sizes, or naming a parameter listed before raises StateError naming
    the index file and the line.
    """
    index_path = os.path.join(directory, INDEX_NAME)
    if not os.path.exists(index_path):
        raise IOError(f"{index_path}: checkpoint index not found")
    entries = {}
    with open(index_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{index_path}, line {lineno}"
            fields = line.split("\t")
            if len(fields) != 4:
                raise StateError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
            name, shape_str, _role_, fname = fields
            if name in entries:
                raise StateError(f"{where}: parameter {name} is listed twice")
            entries[name] = (_parse_shape(shape_str, where), fname)
    loaded = []
    for p in net.params():
        if p.name not in entries:
            raise StateError(f"checkpoint is missing parameter {p.name}")
        shape, fname = entries.pop(p.name)
        data = read_hst(os.path.join(directory, fname)).reshape(-1)
        if int(np.prod(shape, dtype=np.int64)) != data.size:
            raise StateError(
                f"{p.name}: checkpoint holds {data.size} values, parameter needs shape {shape}"
            )
        if shape != p.value.shape:
            raise StateError(
                f"{p.name}: checkpoint shape {shape} != built shape {p.value.shape}"
            )
        loaded.append((p, data.reshape(shape)))
    if entries:
        raise StateError(f"checkpoint has extra parameters: {sorted(entries)}")
    for p, data in loaded:
        p.value[...] = data.astype(p.value.dtype)
