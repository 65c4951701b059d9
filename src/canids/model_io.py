"""Versioned binary container for trained model weights.

One format family serves the predictor, the one-class SVM, and the static
threshold. Layout:

    8 bytes   magic  b"CANIDSMF"
    4 bytes   format version, uint32 little-endian
    8 bytes   header length H, uint64 little-endian
    H bytes   UTF-8 JSON header, an object: model_type, meta (an object),
              and blocks, the ordered block descriptors
              [{"name": str, "shape": [int >= 0, ...]}, ...], names unique
    payload   the blocks' float64 values, little-endian, C order,
              concatenated in descriptor order

The header fully describes the payload, so loads are validated byte-for-
byte and round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MAGIC = b"CANIDSMF"
FORMAT_VERSION = 1


def save_arrays(path: str | Path, model_type: str, meta: dict,
                blocks: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays plus JSON metadata under `model_type`."""
    descriptors = []
    payload = bytearray()
    for name, arr in blocks.items():
        arr = np.asarray(arr, dtype="<f8")
        # record the shape before ascontiguousarray, which promotes 0-d
        # arrays to (1,)
        descriptors.append({"name": name, "shape": list(arr.shape)})
        payload += np.ascontiguousarray(arr).tobytes(order="C")
    header = json.dumps(
        {"model_type": model_type, "meta": meta, "blocks": descriptors},
        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(FORMAT_VERSION, dtype="<u4").tobytes())
        fh.write(np.array(len(header), dtype="<u8").tobytes())
        fh.write(header)
        fh.write(bytes(payload))


def load_arrays(path: str | Path, expected_type: str | None = None
                ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back as (meta, name->array). Raises ValueError
    naming the file on a bad magic, an unsupported version, a header that
    breaks the layout above, truncation, or trailing garbage."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 12:
        raise ValueError(f"{path}: truncated file")
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic, not a recognized model file")
    off = len(MAGIC)
    version = int(np.frombuffer(raw, dtype="<u4", count=1, offset=off)[0])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version} unsupported "
            f"(expected {FORMAT_VERSION})")
    off += 4
    header_len = int(np.frombuffer(raw, dtype="<u8", count=1, offset=off)[0])
    off += 8
    if len(raw) < off + header_len:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off: off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt header: {exc}") from None
    off += header_len
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if not isinstance(header.get("meta"), dict):
        raise ValueError(f"{path}: header meta is not a JSON object")
    if not isinstance(header.get("blocks"), list):
        raise ValueError(f"{path}: header blocks is not a JSON list")
    model_type = header.get("model_type")
    if expected_type is not None and model_type != expected_type:
        raise ValueError(
            f"{path}: holds a {model_type!r} model, expected {expected_type!r}")
    blocks: dict[str, np.ndarray] = {}
    for desc in header["blocks"]:
        if not (isinstance(desc, dict) and set(desc) == {"name", "shape"}
                and isinstance(desc["name"], str)
                and isinstance(desc["shape"], list)
                and all(type(n) is int and n >= 0 for n in desc["shape"])):
            raise ValueError(f"{path}: malformed block descriptor {desc!r}")
        name = desc["name"]
        if name in blocks:
            raise ValueError(f"{path}: duplicate block {name!r}")
        shape = tuple(desc["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if len(raw) < off + nbytes:
            raise ValueError(f"{path}: truncated payload in block {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        blocks[name] = arr.reshape(shape).astype(np.float64)
        off += nbytes
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return header["meta"], blocks
