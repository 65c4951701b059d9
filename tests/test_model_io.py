"""Binary model container: round-trips and corruption handling."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from canids.model_io import FORMAT_VERSION, MAGIC, load_arrays, save_arrays


def _sample_blocks():
    rng = np.random.default_rng(0)
    return {
        "weights": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=5),
        "scalarish": np.array(3.14159),
    }


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        path = tmp_path / "m.canids"
        blocks = _sample_blocks()
        meta = {"alpha": 1, "name": "x"}
        save_arrays(path, "predictor", meta, blocks)
        got_meta, got = load_arrays(path)
        assert got_meta == meta
        assert set(got) == set(blocks)
        for name in blocks:
            assert got[name].shape == np.asarray(blocks[name]).shape
            assert np.array_equal(got[name], blocks[name])
            assert got[name].dtype == np.float64

    def test_identical_inputs_give_identical_bytes(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_arrays(a, "detector", {"k": 2}, _sample_blocks())
        save_arrays(b, "detector", {"k": 2}, _sample_blocks())
        assert a.read_bytes() == b.read_bytes()

    def test_empty_block_dict(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_arrays(path, "detector", {"threshold": 0.5}, {})
        meta, blocks = load_arrays(path, expected_type="detector")
        assert meta == {"threshold": 0.5}
        assert blocks == {}

    def test_expected_type_enforced(self, tmp_path):
        path = tmp_path / "m.bin"
        save_arrays(path, "predictor", {}, {})
        with pytest.raises(ValueError, match="expected 'detector'"):
            load_arrays(path, expected_type="detector")

    def test_special_float_values_survive(self, tmp_path):
        path = tmp_path / "s.bin"
        vals = np.array([0.0, -0.0, np.pi, 1e-300, 1e300, np.inf, -np.inf])
        save_arrays(path, "predictor", {}, {"v": vals})
        _, got = load_arrays(path)
        assert np.array_equal(got["v"], vals)
        # signed zero preserved
        assert np.signbit(got["v"][1])


class TestCorruption:
    def _write_good(self, path):
        save_arrays(path, "predictor", {"k": 1}, {"w": np.arange(6.0)})
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        raw = bytearray(self._write_good(path))
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a recognized model file"):
            load_arrays(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.bin"
        raw = bytearray(self._write_good(path))
        raw[8:12] = np.array(FORMAT_VERSION + 7, dtype="<u4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_arrays(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(ValueError, match="truncated"):
            load_arrays(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.bin"
        raw = self._write_good(path)
        path.write_bytes(raw[:25])
        with pytest.raises(ValueError, match="truncated header"):
            load_arrays(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        raw = self._write_good(path)
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated payload"):
            load_arrays(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        raw = self._write_good(path)
        path.write_bytes(raw + b"extra")
        with pytest.raises(ValueError, match="trailing"):
            load_arrays(path)

    def test_corrupt_json_header(self, tmp_path):
        path = tmp_path / "m.bin"
        save_arrays(path, "predictor", {}, {})
        raw = bytearray(path.read_bytes())
        header_len = int(np.frombuffer(bytes(raw), dtype="<u8", count=1,
                                       offset=12)[0])
        raw[20:20 + header_len] = b"{" * header_len
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="corrupt header"):
            load_arrays(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_arrays(tmp_path / "absent.bin")


def _container(header, payload: bytes = b"") -> bytes:
    """A container around an arbitrary JSON header."""
    text = json.dumps(header).encode("utf-8")
    return (MAGIC + np.array(FORMAT_VERSION, dtype="<u4").tobytes()
            + np.array(len(text), dtype="<u8").tobytes() + text + payload)


_GOOD = {"model_type": "predictor", "meta": {"k": 1},
         "blocks": [{"name": "w", "shape": [2]}]}


class TestHeaderSchema:
    def test_well_formed_header_loads(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(_container(_GOOD, np.arange(2.0).tobytes()))
        meta, blocks = load_arrays(path)
        assert meta == {"k": 1}
        assert np.array_equal(blocks["w"], [0.0, 1.0])

    @pytest.mark.parametrize("header, match", [
        ([1, 2], "header is not a JSON object"),
        ("predictor", "header is not a JSON object"),
        ({**_GOOD, "meta": [1]}, "meta is not a JSON object"),
        ({"model_type": "predictor", "blocks": []},
         "meta is not a JSON object"),
        ({**_GOOD, "blocks": {"w": [2]}}, "blocks is not a JSON list"),
        ({"model_type": "predictor", "meta": {}}, "blocks is not a JSON list"),
        ({**_GOOD, "blocks": [{"shape": [2]}]}, "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": 3, "shape": [2]}]},
         "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w"}]}, "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w", "shape": 2}]},
         "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w", "shape": [-2]}]},
         "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w", "shape": [2.0]}]},
         "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w", "shape": [True]}]},
         "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w", "shape": [2], "dtype": "f8"}]},
         "malformed block descriptor"),
        ({**_GOOD, "blocks": ["w"]}, "malformed block descriptor"),
        ({**_GOOD, "blocks": [{"name": "w", "shape": [1]},
                              {"name": "w", "shape": [1]}]},
         "duplicate block 'w'"),
    ])
    def test_malformed_header_rejected_naming_the_file(self, tmp_path,
                                                       header, match):
        path = tmp_path / "m.bin"
        path.write_bytes(_container(header, np.arange(2.0).tobytes()))
        with pytest.raises(ValueError, match=match) as exc:
            load_arrays(path)
        assert str(exc.value).startswith(f"{path}: ")


@functools.cache
def _valid_file() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.bin"
        save_arrays(path, "predictor", {"k": 2, "hyper": {"a": [1, 2.5]}},
                    {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3),
                     "s": np.array(0.5), "e": np.zeros((0, 2))})
        return path.read_bytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(flips=hs.lists(hs.tuples(hs.integers(0, 2**16), hs.integers(0, 255)),
                      max_size=4),
       cut=hs.one_of(hs.none(), hs.integers(0, 2**16)))
def test_corrupted_container_raises_only_value_error(flips, cut):
    # positions and cuts are taken modulo the file length
    raw = bytearray(_valid_file())
    for pos, byte in flips:
        raw[pos % len(raw)] = byte
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.bin"
        path.write_bytes(bytes(raw))
        try:
            load_arrays(path, expected_type="predictor")
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            assert "\n" not in str(exc)


def test_header_is_sorted_json(tmp_path):
    # canonical key order keeps identical saves byte-identical
    path = tmp_path / "m.bin"
    save_arrays(path, "predictor", {"b": 1, "a": 2}, {})
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw, dtype="<u8", count=1, offset=12)[0])
    header = raw[20:20 + header_len].decode()
    assert header == json.dumps(json.loads(header), sort_keys=True)
