"""Binary section container shared by all asset files.

Layout: 8-byte magic, u32 version, u32 section count, then sections.
Each section is [u16 name length][name utf-8][u8 dtype code][u8 ndim]
[u32 x ndim dims][raw payload]. All multi-byte values little-endian,
payloads row-major. Arrays round-trip bit-for-bit.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<i4"): 2,
    np.dtype("<u4"): 3,
    np.dtype("u1"): 4,
    np.dtype("<f2"): 5,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class ContainerError(ValueError):
    """Malformed container file. Carries the byte offset of the failure."""

    def __init__(self, message, offset=None, path=None):
        self.offset = offset
        self.path = path
        parts = [message]
        if offset is not None:
            parts.append(f"at byte {offset}")
        if path is not None:
            parts.append(f"in {path}")
        super().__init__(" ".join(parts))


def atomic_write(path, payload: bytes) -> None:
    """Write ``payload`` to a temp file in the same directory and rename
    it over ``path``, so readers never observe a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_sections(path, magic: bytes, sections: dict[str, np.ndarray]) -> None:
    """Serialize named arrays under the given 8-byte magic, atomically
    (``atomic_write``)."""
    if len(magic) != 8:
        raise ValueError(f"magic must be 8 bytes, got {len(magic)}")
    blob = bytearray()
    blob += magic
    blob += struct.pack("<II", VERSION, len(sections))
    for name, arr in sections.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"section '{name}': unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        blob += struct.pack("<H", len(nb))
        blob += nb
        blob += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()

    atomic_write(path, blob)


def read_sections(path, magic: bytes) -> dict[str, np.ndarray]:
    """Load all sections, checking the magic and structural integrity."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8:
        raise ContainerError("file shorter than magic", offset=len(data), path=path)
    if data[:8] != magic:
        raise ContainerError(
            f"magic mismatch: expected {magic!r}, found {data[:8]!r}", offset=0, path=path
        )
    off = 8
    if len(data) < off + 8:
        raise ContainerError("truncated header", offset=len(data), path=path)
    version, count = struct.unpack_from("<II", data, off)
    off += 8
    if version != VERSION:
        raise ContainerError(f"unsupported version {version}", offset=8, path=path)

    sections: dict[str, np.ndarray] = {}
    for i in range(count):
        if len(data) < off + 2:
            raise ContainerError(
                f"truncated before section {i} name length", offset=off, path=path
            )
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if len(data) < off + name_len:
            raise ContainerError(f"truncated section {i} name", offset=off, path=path)
        name = data[off : off + name_len].decode("utf-8")
        off += name_len
        if len(data) < off + 2:
            raise ContainerError(f"truncated section '{name}' dtype/ndim", offset=off, path=path)
        code, ndim = struct.unpack_from("<BB", data, off)
        off += 2
        if code not in _CODE_DTYPES:
            raise ContainerError(f"section '{name}': unknown dtype code {code}", offset=off - 2, path=path)
        if len(data) < off + 4 * ndim:
            raise ContainerError(f"truncated section '{name}' dims", offset=off, path=path)
        shape = struct.unpack_from(f"<{ndim}I", data, off)
        off += 4 * ndim
        dtype = _CODE_DTYPES[code]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        if len(data) < off + nbytes:
            raise ContainerError(
                f"truncated section '{name}' payload (need {nbytes} bytes)", offset=off, path=path
            )
        arr = np.frombuffer(data[off : off + nbytes], dtype=dtype).reshape(shape)
        off += nbytes
        sections[name] = arr.copy()  # decouple from the file buffer
    return sections


def require(sections: dict[str, np.ndarray], name: str, path=None) -> np.ndarray:
    if name not in sections:
        raise ContainerError(f"missing section '{name}'", path=path)
    return sections[name]
