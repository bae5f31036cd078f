"""Versioned binary checkpoint files.

Layout: 8-byte magic, u32 version, u32 header length, JSON header (model
kind, dimensions, segment order), then the flat parameter buffer as
little-endian float64 in declared segment order. Version 2 headers also
record the payload's byte count and sha256, checked on load; version 1 files,
which lack them, still load. A checkpoint is written to a temporary file
beside it and renamed into place, so a crash never leaves half a file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

from .numerics import ParamVector

MAGIC = b"RIFFCKPT"
VERSION = 2


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Write `<path>.tmp` and rename it over `path` on a clean exit. On any
    error the temporary file is removed and `path` keeps its old contents."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_segments(path, header: dict, pv: ParamVector) -> None:
    payload = pv.values.astype("<f8").tobytes()
    meta = dict(header)
    meta["segments"] = [[name, list(shape)] for name, shape in pv.segments()]
    meta["payload_bytes"] = len(payload)
    meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(payload)


def _read(f, n: int, path, what: str) -> bytes:
    # read(n) allocates n bytes up front, so ask for no more than the file holds
    data = f.read(min(n, os.fstat(f.fileno()).st_size - f.tell()))
    if len(data) != n:
        raise ValueError(f"truncated checkpoint {path}: {what} needs {n} bytes, found {len(data)}")
    return data


def load_segments(path, kind: str, build):
    """build(header, parameters) of a checkpoint whose header names `kind`; a header
    that does not parse (nested too deep for the parser included) or build, or a
    parameter that is NaN or infinite, raises a ValueError naming the file."""
    with open(path, "rb") as f:
        magic = _read(f, 8, path, "magic")
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file {path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read(f, 4, path, "version"))
        if version not in (1, VERSION):
            raise ValueError(f"unsupported checkpoint version {version} in {path}")
        (hlen,) = struct.unpack("<I", _read(f, 4, path, "header length"))
        blob = _read(f, hlen, path, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
            segments = [(name, tuple(shape)) for name, shape in header["segments"]]
            for name, shape in segments:
                if any(type(dim) is not int or dim < 0 for dim in shape):
                    raise ValueError(f"segment {name!r} has a dimension that is not a count: {list(shape)}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"corrupt checkpoint {path}: unreadable header: {exc!r}") from exc
        if header.get("kind") != kind:
            raise ValueError(f"expected a {kind} checkpoint in {path}, got {header.get('kind')!r}")
        count = sum(math.prod(shape) for _, shape in segments)
        raw = _read(f, 8 * count, path, "parameter payload")
        if f.read(1):
            raise ValueError(f"checkpoint {path} has bytes past its {count}-value payload")
    if version >= 2:
        if header.get("payload_bytes") != len(raw):
            raise ValueError(
                f"corrupt checkpoint {path}: header records {header.get('payload_bytes')} "
                f"payload bytes, its segments hold {len(raw)}"
            )
        if hashlib.sha256(raw).hexdigest() != header.get("payload_sha256"):
            raise ValueError(f"corrupt checkpoint {path}: payload sha256 does not match its header")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    ends = np.cumsum([math.prod(shape) for _, shape in segments], dtype=np.intp)
    for (name, shape), part in zip(segments, np.split(values, ends[:-1])):
        for index in np.argwhere(~np.isfinite(part.reshape(shape)))[:1].tolist():
            value = part.reshape(shape)[tuple(index)]
            raise ValueError(f"corrupt checkpoint {path}: segment {name!r} holds {value} at index {tuple(index)}")
    try:
        return build(header, ParamVector(segments, values))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt checkpoint {path}: header does not describe its parameters: {exc!r}") from exc


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def params_hash(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]
