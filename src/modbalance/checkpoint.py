"""Binary checkpoints: a JSON header followed by raw little-endian float64.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON
header, then the concatenated tensor payloads. The header records tensor
names, shapes, and byte offsets into the payload plus arbitrary metadata,
so files are self-describing and round-trip bit-exactly.
"""

import json
import math
import struct

import numpy as np

from .errors import CheckpointError
from .files import replacing

MAGIC = b"MBCK0001"


def save_checkpoint(path, tensors, meta=None):
    """Write named arrays (dict name -> ndarray) plus a metadata dict."""
    entries = []
    chunks = []
    offset = 0
    for name, array in tensors.items():
        data = np.asarray(array, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape),
                        "offset": offset})
        chunk = data.tobytes(order="C")
        chunks.append(chunk)
        offset += len(chunk)
    header = json.dumps({"meta": meta or {}, "tensors": entries},
                        sort_keys=True).encode("utf-8")
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk)


def load_checkpoint(path):
    """Read back ``(meta, tensors)``; raises CheckpointError on bad files."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: file ends inside the header length")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if 16 + header_len > len(blob):
        raise CheckpointError(
            f"{path}: header length {header_len} runs past end of file")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors"),
                                                      list):
        raise CheckpointError(f"{path}: header has no tensor list")
    payload = blob[16 + header_len:]
    tensors = {}
    for entry in header["tensors"]:
        try:
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"{path}: malformed tensor entry {entry!r} ({exc!r})") from exc
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(_is_count(s) for s in shape) and _is_count(start)):
            raise CheckpointError(
                f"{path}: tensor entry {entry!r} needs a string name, a list "
                "of non-negative integer dims and a non-negative integer "
                "offset")
        end = start + math.prod(shape) * 8
        if end > len(payload):
            raise CheckpointError(
                f"{path}: tensor {name!r} runs past end of file")
        tensors[name] = np.frombuffer(
            payload[start:end], dtype="<f8").reshape(shape).copy()
    return header.get("meta", {}), tensors


def _is_count(value):
    return type(value) is int and value >= 0
