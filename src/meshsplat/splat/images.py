"""Image file IO: binary PPM (P6), PGM (P5), and a minimal PNG writer.

PPM is the bit-specified interchange format: 8-bit, gamma-less,
row-major, values quantized as round(clip(v, 0, 1) * 255).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..container import atomic_write


def quantize_u8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.clip(img, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def write_ppm(img: np.ndarray, path) -> None:
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] == 0 or img.shape[1] == 0:
        raise ValueError(f"PPM needs a non-empty [H,W,3] image, got {img.shape}")
    h, w = img.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write(path, header + quantize_u8(img).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    fields, offset = _read_header(data, b"P6", path)
    w, h = fields
    need = w * h * 3
    if len(data) - offset < need:
        raise ValueError(f"{path}: truncated PPM payload")
    arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)
    return (arr.reshape(h, w, 3).astype(np.float32)) / 255.0


def write_pgm(img: np.ndarray, path) -> None:
    if img.ndim != 2 or img.shape[0] == 0 or img.shape[1] == 0:
        raise ValueError(f"PGM needs a non-empty [H,W] image, got {img.shape}")
    h, w = img.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write(path, header + quantize_u8(img).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    fields, offset = _read_header(data, b"P5", path)
    w, h = fields
    if len(data) - offset < w * h:
        raise ValueError(f"{path}: truncated PGM payload")
    arr = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=offset)
    return arr.reshape(h, w).astype(np.float32) / 255.0


def _read_header(data: bytes, magic: bytes, path):
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} header")
    # header tokens: magic, width, height, maxval; comments start with '#'
    tokens = []
    i = len(magic)
    while len(tokens) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if i == j:
            raise ValueError(f"{path}: truncated header")
        tokens.append(data[i:j])
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    return (w, h), i


def write_png(img: np.ndarray, path) -> None:
    """Minimal RGB8 PNG (filter 0, single IDAT)."""
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] == 0 or img.shape[1] == 0:
        raise ValueError(f"PNG needs a non-empty [H,W,3] image, got {img.shape}")
    h, w = img.shape[:2]
    raw = quantize_u8(img)
    scanlines = b"".join(b"\x00" + raw[r].tobytes() for r in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(scanlines, 6))
        + chunk(b"IEND", b"")
    )
    atomic_write(path, payload)
