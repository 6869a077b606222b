"""File formats: tensors, kernels, masks, 8-bit images, and flat configs.

Tensor files (".pgt") carry a 16-byte header -- the magic b"PGT1"
followed by three little-endian uint32 fields (channels, height, width)
-- and a float32 little-endian body in row-major, channel-major order.

Kernel and mask files are plain text: a first line "H W", then H*W
whitespace-separated values in row-major order (reals for kernels, 0/1
for masks).

Images are binary 8-bit PGM (P5, grayscale) or PPM (P6, RGB), mapped to
and from float arrays on the [0, 1] scale.

Config files are flat "key=value" lines; a line whose first non-blank
character is "#" is a comment, and a "#" anywhere else is part of the
value (paths may contain it).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

__all__ = [
    "read_tensor",
    "write_tensor",
    "read_kernel",
    "write_kernel",
    "read_mask",
    "write_mask",
    "read_image",
    "write_image",
    "read_config",
    "write_config",
]

TENSOR_MAGIC = b"PGT1"


def write_tensor(path, array) -> None:
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"tensor files hold 3-D arrays, got shape {arr.shape}")
    c, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<III", c, h, w))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != TENSOR_MAGIC:
            raise ValueError(f"{path}: not a PGT1 tensor file")
        c, h, w = struct.unpack("<III", header[4:])
        if min(c, h, w) < 1:
            raise ValueError(f"{path}: non-positive tensor dimensions {(c, h, w)}")
        body = fh.read()
    expected = c * h * w * 4
    if len(body) != expected:
        raise ValueError(f"{path}: body has {len(body)} bytes, expected {expected}")
    data = np.frombuffer(body, dtype="<f4").astype(float)
    return data.reshape(c, h, w)


def _write_grid_text(path, array, fmt) -> None:
    arr = np.asarray(array)
    h, w = arr.shape
    lines = [f"{h} {w}"]
    lines += [" ".join(fmt(v) for v in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")


def _numbers(path, tokens, kind, what) -> list:
    """``tokens`` as ``kind`` (int or float); one that is not raises naming ``path``."""
    out = []
    for token in tokens:
        try:
            out.append(kind(token))
        except ValueError:
            raise ValueError(f"{path}: {what} {token!r} is not "
                             f"{'an integer' if kind is int else 'a number'}") from None
    return out


def _sizes(path, tokens, least) -> list[int]:
    """Header sizes, which must be integers of at least ``least``."""
    sizes = _numbers(path, tokens, int, "size")
    if min(sizes) < least:
        raise ValueError(f"{path}: sizes {' '.join(tokens)} must be at least {least}")
    return sizes


def _read_grid_text(path) -> np.ndarray:
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'H W' header")
    h, w = _sizes(path, tokens[:2], 0)  # an empty kernel is one with no nonzero tap
    values = tokens[2:]
    if len(values) != h * w:
        raise ValueError(f"{path}: expected {h * w} values, found {len(values)}")
    return np.array(_numbers(path, values, float, "value")).reshape(h, w)


def write_kernel(path, kernel) -> None:
    _write_grid_text(path, np.asarray(kernel, dtype=float), lambda v: repr(float(v)))


def read_kernel(path) -> np.ndarray:
    return _read_grid_text(path)


def write_mask(path, mask) -> None:
    _write_grid_text(path, np.asarray(mask, dtype=bool), lambda v: "1" if v else "0")


def read_mask(path) -> np.ndarray:
    grid = _read_grid_text(path)
    if not np.isin(grid, (0.0, 1.0)).all():
        raise ValueError(f"{path}: mask entries must be 0 or 1")
    return grid.astype(bool)


def _read_netpbm_tokens(path, data: bytes, count: int) -> tuple[list[str], int]:
    """First ``count`` whitespace-separated header tokens, skipping # comments."""
    tokens, pos = [], 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated image header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos].decode("latin-1"))
    return tokens, pos + 1  # single whitespace byte separates header from body


def read_image(path) -> np.ndarray:
    """Load a binary PGM/PPM file as a float (channels, height, width) array in [0, 1]."""
    data = Path(path).read_bytes()
    tokens, body_start = _read_netpbm_tokens(path, data, 4)
    magic = tokens[0]
    if magic not in ("P5", "P6"):
        raise ValueError(f"{path}: unsupported image magic {magic!r}")
    w, h = _sizes(path, tokens[1:3], 1)
    if _numbers(path, tokens[3:], int, "maxval") != [255]:
        raise ValueError(f"{path}: only 8-bit images (maxval 255) are supported")
    channels = 1 if magic == "P5" else 3
    body = data[body_start : body_start + w * h * channels]
    if len(body) != w * h * channels:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).astype(float) / 255.0
    return pixels.reshape(h, w, channels).transpose(2, 0, 1)


def write_image(path, image) -> None:
    """Write a float array as binary PGM (1 channel) or PPM (3 channels).

    Values are clamped to [0, 1] and rounded to 8 bits; clamping happens
    only here, at export.
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ValueError(f"expected a (1|3, height, width) array, got shape {arr.shape}")
    c, h, w = arr.shape
    quantized = np.clip(np.rint(np.clip(arr, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        fh.write(quantized.transpose(1, 2, 0).tobytes())


def write_config(path, mapping: dict) -> None:
    lines = [f"{key}={value}" for key, value in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_config(path) -> dict:
    """Parse flat key=value lines; blank lines and lines starting with '#' are skipped.

    A key given twice is an error, not a silent override.
    """
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"{path}: key {key!r} is given twice")
        out[key] = value
    return out
