"""Versioned, checksummed binary checkpoints that round-trip bit-exactly.

Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
(sorted keys) with shape metadata and byte offsets, raw C-order float64
payload, then a trailing CRC32 of everything before it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .autodiff import Tensor

MAGIC = b"CCCKPT01"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: dict[str, Tensor], opt_state, step: int,
                    meta: dict) -> None:
    """Write params, optimizer state, step counter, and JSON-able metadata to a
    fsynced temp file beside `path`, then rename it over `path`: a failed write
    leaves the previous checkpoint as it was."""
    arrays = {name: t.value for name, t in params.items()}
    for name, a in opt_state.m.items():
        arrays[f"adam.m.{name}"] = a
    for name, a in opt_state.v.items():
        arrays[f"adam.v.{name}"] = a
    entries, payload = [], bytearray()
    for name in sorted(arrays):
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        a = np.asarray(arrays[name], dtype=np.float64, order="C")
        entries.append({"name": name, "shape": list(a.shape),
                        "offset": len(payload), "nbytes": a.nbytes})
        payload += a.tobytes()
    header = {
        "version": VERSION,
        "step": step,
        "has_opt_state": True,
        "opt_step": opt_state.step,
        "meta": meta,
        "arrays": entries,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    head = MAGIC + struct.pack("<Q", len(hbytes)) + hbytes
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            f.write(payload)
            f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Return (params, opt_state_arrays, step, meta); verifies checksum and version.

    Optimizer arrays come back as ``(m: dict, v: dict, opt_step: int)`` raw
    material; the training engine rebuilds its state object from them.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 12 or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError("checkpoint corrupted (checksum mismatch)")
    hlen = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16:16 + hlen].decode())
    if header["version"] != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header['version']}")
    if not header["has_opt_state"]:
        raise CheckpointError("checkpoint carries no optimizer state")
    payload = blob[16 + hlen:-4]
    params: dict[str, Tensor] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for e in header["arrays"]:
        raw = payload[e["offset"]:e["offset"] + e["nbytes"]]
        a = np.frombuffer(raw, dtype=np.float64).reshape(e["shape"]).copy()
        name = e["name"]
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m."):]] = a
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v."):]] = a
        else:
            params[name] = Tensor(a)
    return params, (adam_m, adam_v, header["opt_step"]), header["step"], header["meta"]

