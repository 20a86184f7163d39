import re
import struct

import numpy as np
import pytest

from bisrnet.errors import DimensionError
from bisrnet.hst import MAGIC, read_hst, write_hst


class TestHstFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.hst"
        write_hst(path, arr)
        np.testing.assert_array_equal(read_hst(path), arr)

    def test_header_layout(self, tmp_path):
        arr = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        path = tmp_path / "t.hst"
        write_hst(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<4I", raw[4:20]) == (1, 2, 2, 2)
        assert len(raw) == 20 + 8 * 4
        np.testing.assert_array_equal(
            np.frombuffer(raw[20:], dtype="<f4"), np.arange(8, dtype=np.float32)
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hst"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(IOError, match="bad.hst"):
            read_hst(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.hst"
        path.write_bytes(MAGIC + struct.pack("<4I", 1, 1, 2, 2) + b"\x00" * 8)
        with pytest.raises(IOError, match="payload"):
            read_hst(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.hst"
        path.write_bytes(MAGIC + struct.pack("<4I", 65535, 65535, 65535, 65535) + b"\x00" * 16)
        expected = 20 + 4 * 65535**4
        with pytest.raises(IOError, match=rf"huge\.hst: file is 36 bytes.* need {expected}"):
            read_hst(path)

    def test_non_4d_rejected(self, tmp_path):
        path = tmp_path / "x.hst"
        for shape in [(2, 2), (1, 1, 2, 2, 1)]:
            with pytest.raises(DimensionError, match=re.escape(f"got shape {shape}")):
                write_hst(path, np.zeros(shape))
            assert not path.exists()
