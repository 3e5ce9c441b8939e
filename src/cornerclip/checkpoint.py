"""Versioned, checksummed binary checkpoints that round-trip bit-exactly.

Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
(sorted keys) with shape metadata and byte offsets, raw C-order float64
payload, then a trailing CRC32 of everything before it.

The state is never copied as a whole: a save streams each array's own buffer
to the file, and a load checks the CRC in fixed-size chunks before it reads
each array straight into a new array of its own (the parameters alone, for a
model that is only run).
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
CHUNK = 1 << 16          # bytes per read of the load's checksum pass


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
    # note: ascontiguousarray would promote 0-d arrays to 1-d
    arrays = {name: np.asarray(arrays[name], dtype=np.float64, order="C")
              for name in sorted(arrays)}
    entries, offset = [], 0
    for name, a in arrays.items():
        entries.append({"name": name, "shape": list(a.shape), "offset": offset,
                        "nbytes": a.nbytes})
        offset += a.nbytes
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
            crc = zlib.crc32(head)
            for a in arrays.values():
                buf = memoryview(a).cast("B")
                f.write(buf)
                crc = zlib.crc32(buf, crc)
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _verify(f, size: int) -> None:
    """Check the magic and the trailing CRC of the open file `f` of `size` bytes,
    reading it CHUNK bytes at a time into one buffer."""
    if size < len(MAGIC) + 12 or f.read(len(MAGIC)) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    f.seek(0)
    buf = memoryview(bytearray(CHUNK))
    crc, left = 0, size - 4
    while left:
        n = f.readinto(buf[:min(left, CHUNK)])
        if not n:
            break
        crc, left = zlib.crc32(buf[:n], crc), left - n
    if left or struct.unpack("<I", f.read(4))[0] != crc:
        raise CheckpointError("checkpoint corrupted (checksum mismatch)")


def _read(path, optimizer: bool):
    """(params, adam m arrays, adam v arrays, header) of a checkpoint, the moments
    read only given `optimizer`, after the checksum pass over the whole file. Each
    array is its own allocation, aligned as numpy aligns it, so every later sum
    over it runs in the order it ran before the save."""
    params: dict[str, Tensor] = {}
    moments: dict[str, dict[str, np.ndarray]] = {"adam.m.": {}, "adam.v.": {}}
    with open(path, "rb") as f:
        _verify(f, os.fstat(f.fileno()).st_size)
        f.seek(len(MAGIC))
        hlen = struct.unpack("<Q", f.read(8))[0]
        header = json.loads(f.read(hlen).decode())
        if header["version"] != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header['version']}")
        if not header["has_opt_state"]:
            raise CheckpointError("checkpoint carries no optimizer state")
        base = len(MAGIC) + 8 + hlen
        for e in header["arrays"]:
            kind, name = e["name"][:len("adam.m.")], e["name"]
            if kind in moments and not optimizer:
                continue
            a = np.empty(e["shape"], dtype=np.float64)
            f.seek(base + e["offset"])
            if f.readinto(memoryview(a).cast("B")) != e["nbytes"]:
                raise CheckpointError("checkpoint corrupted (checksum mismatch)")
            if kind in moments:
                moments[kind][name[len(kind):]] = a
            else:
                params[name] = Tensor(a)
    return params, moments["adam.m."], moments["adam.v."], header


def load_checkpoint(path):
    """Return (params, opt_state_arrays, step, meta); verifies checksum and version.

    Optimizer arrays come back as ``(m: dict, v: dict, opt_step: int)`` raw
    material; the training engine rebuilds its state object from them.
    """
    params, m, v, header = _read(path, optimizer=True)
    return params, (m, v, header["opt_step"]), header["step"], header["meta"]


def load_parameters(path):
    """Return (params, step, meta): `load_checkpoint` without reading the optimizer
    state, for a model that is only run; the file is verified as a whole."""
    params, _, _, header = _read(path, optimizer=False)
    return params, header["step"], header["meta"]
