"""Minimal PNG/PPM output without image dependencies."""

from __future__ import annotations

import struct
import zlib

import numpy as np


def _to_u8(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def write_png(path, img: np.ndarray) -> None:
    """8-bit RGB PNG from an (H, W, 3) float image in [0, 1]."""
    data = _to_u8(img)
    h, w, _ = data.shape
    raw = b"".join(b"\x00" + data[y].tobytes() for y in range(h))  # filter 0 rows

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", ihdr))
        f.write(chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(chunk(b"IEND", b""))


def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6 PPM."""
    data = _to_u8(img)
    h, w, _ = data.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
