"""Reading and writing the ``.hst`` tensor file format.

An ``.hst`` file holds one 4-D single-precision tensor:

    bytes 0..3    magic ``b"HST1"``
    bytes 4..19   four little-endian uint32: n, c, h, w
    bytes 20..    n*c*h*w little-endian IEEE-754 float32, row-major (n, c, h, w)
"""

import os
import struct

import numpy as np

from .errors import DimensionError

MAGIC = b"HST1"


def write_hst(path, array):
    """Write a 4-D array as float32. Non-float32 input is cast."""
    a = np.asarray(array)
    if a.ndim != 4:
        raise DimensionError(f"expected a 4-D array, got shape {a.shape}")
    a = np.ascontiguousarray(a, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<4I", *a.shape))
        fh.write(a.tobytes())


def read_hst(path):
    """Read a ``.hst`` file into a float32 array of shape (n, c, h, w)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise IOError(f"{path}: not an .hst file (bad magic {magic!r})")
        header = fh.read(16)
        if len(header) != 16:
            raise IOError(f"{path}: truncated header")
        n, c, h, w = struct.unpack("<4I", header)
        # Check the size before reading, so a bad header never sizes a read.
        expected = 20 + 4 * n * c * h * w
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise IOError(
                f"{path}: file is {size} bytes; the header and a ({n}, {c}, {h}, {w}) "
                f"float32 payload need {expected}"
            )
        payload = fh.read()
    data = np.frombuffer(payload, dtype="<f4")
    return data.reshape(n, c, h, w).copy()
