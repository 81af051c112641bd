"""Flat-file image I/O: binary PPM (P6) for RGB frames, PGM (P5) for masks.

Header is `magic\\nW H\\n255\\n` followed by raw bytes, row-major. Masks are
stored 0/255 and come back as boolean arrays.
"""

from __future__ import annotations

import numpy as np


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """rgb: HxWx3 uint8."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"write_ppm: need HxWx3, got {rgb.shape}")
    _write(path, "P6", rgb)


def read_ppm(path: str) -> np.ndarray:
    return _read(path, "P6", 3)


def write_pgm(path: str, mask: np.ndarray) -> None:
    """mask: HxW bool (or 0/1); stored as 0 / 255."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"write_pgm: need HxW, got {mask.shape}")
    _write(path, "P5", np.where(mask.astype(bool), 255, 0).astype(np.uint8))


def read_pgm(path: str) -> np.ndarray:
    """Returns HxW bool (any nonzero byte counts as foreground)."""
    return read_pgm_raw(path) > 0


def _write(path: str, magic: str, array: np.ndarray) -> None:
    """Header, then the row-major bytes of an HxW or HxWx3 uint8 array."""
    h, w = array.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        f.write(array.tobytes())


def _read(path: str, magic: str, channels: int) -> np.ndarray:
    """HxW (one channel) or HxWxchannels uint8 body; the header parse
    tolerates whitespace and comments."""
    with open(path, "rb") as f:
        found = f.read(2)
        if found != magic.encode("ascii"):
            raise ValueError(f"{path} is {found!r}, not {magic}")
        fields = []
        while len(fields) < 3:
            tok = b""
            c = f.read(1)
            while c.isspace():
                c = f.read(1)
            if c == b"#":
                while c not in (b"\n", b""):
                    c = f.read(1)
                continue
            while c and not c.isspace():
                tok += c
                c = f.read(1)
            if not tok:
                raise ValueError(f"{path}: truncated netpbm header")
            if not tok.isdigit():
                name = ("width", "height", "maxval")[len(fields)]
                raise ValueError(f"{path}: netpbm {name} {tok!r} is not a number")
            fields.append(int(tok))
        body = f.read()
    w, h, maxval = fields
    if not w or not h:
        raise ValueError(f"{path}: netpbm size {w}x{h} is empty")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    shape = (h, w) if channels == 1 else (h, w, channels)
    size = h * w * channels
    if len(body) < size:
        raise ValueError(f"{path}: body has {len(body)} bytes, expected {size}")
    return np.frombuffer(body, dtype=np.uint8, count=size).reshape(shape).copy()


def to_unit_float(rgb: np.ndarray) -> np.ndarray:
    """uint8 HxWx3 -> float64 in [0, 1]."""
    return np.asarray(rgb, dtype=np.float64) / 255.0


def write_pgm_prob(path: str, prob: np.ndarray) -> None:
    """Soft-mask dump: probabilities in [0,1] stored as round(p*255)."""
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ValueError(f"write_pgm_prob: need HxW, got {prob.shape}")
    _write(path, "P5", np.rint(np.clip(prob, 0.0, 1.0) * 255.0).astype(np.uint8))


def read_pgm_raw(path: str) -> np.ndarray:
    """Raw HxW uint8 payload of a P5 file (for golden-byte comparisons)."""
    return _read(path, "P5", 1)


def bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize an HxWxC float array by bilinear interpolation.

    Half-pixel-center sampling with edge clamping; a 1x1 source expands to a
    constant field.
    """
    src = np.asarray(src, dtype=np.float64)
    h, w = src.shape[:2]
    y = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    x = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(y).astype(np.int64)
    x0 = np.floor(x).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (y - y0)[:, None, None]
    wx = (x - x0)[None, :, None]
    top = src[y0][:, x0] * (1.0 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1.0 - wx) + src[y1][:, x1] * wx
    return top * (1.0 - wy) + bot * wy
