"""Binary checkpoints: a JSON header followed by raw little-endian float64.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON
header, then the payload: a model's flat parameter vector ``theta`` as one
block of float64. The header holds metadata and the tensor list, which is
``Model.layout``: the name, shape and byte offset of each parameter block
in ``theta``. This module checks the file itself; ``Model.load`` checks
the tensor list against the layout of the model the metadata describes.
Files round-trip bit-exactly.
"""

import json
import struct

import numpy as np

from .errors import CheckpointError
from .files import replacing

MAGIC = b"MBCK0001"


def save_checkpoint(path, values, tensors, meta):
    """Write the float64 vector ``values`` under a header of ``meta`` and
    the tensor list ``tensors`` that describes it."""
    header = json.dumps({"meta": meta, "tensors": tensors},
                        sort_keys=True).encode("utf-8")
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(np.asarray(values, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read back ``(meta, tensors, values)``, ``values`` being the payload
    as one read-only float64 vector; raises CheckpointError on bad files."""
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
    start = 16 + header_len
    if start > len(blob):
        raise CheckpointError(
            f"{path}: header length {header_len} runs past end of file")
    try:
        header = json.loads(blob[16:start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors"),
                                                      list):
        raise CheckpointError(f"{path}: header has no tensor list")
    if (len(blob) - start) % 8:
        raise CheckpointError(f"{path}: payload of {len(blob) - start} bytes "
                              "is not a whole number of float64 values")
    values = np.frombuffer(blob, dtype="<f8", offset=start)
    return header.get("meta", {}), header["tensors"], values
