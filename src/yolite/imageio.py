"""Image input for the CLI: binary PPM (P6) and the raw "YLTI" tensor format,
plus aspect-preserving letterbox resizing.

The raw format is magic b"YLTI", then u32 height, width, channels
(little-endian), then h*w*c float32 values interleaved row-major (h, w, c).
Raw tensors are taken as already normalized to [0, 1]; PPM pixels are
divided by 255.
"""

from __future__ import annotations

import struct

import numpy as np

from .detect import Box
from .errors import InputError
from .tensor import Tensor

RAW_MAGIC = b"YLTI"
PAD_VALUE = 127.5 / 255.0  # neutral gray


def read_ppm(path) -> np.ndarray:
    """Strict binary P6 reader (maxval 255); returns (h, w, 3) uint8."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise InputError(f"{path}: not a binary P6 PPM file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        # int() refuses more than 4300 digits; no real dimension needs 20
        if not token.isdigit() or len(token) > 20:
            raise InputError(f"{path}: malformed PPM header near byte {start}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise InputError(f"{path}: image has zero size ({width}x{height})")
    if maxval != 255:
        raise InputError(f"{path}: only maxval 255 supported, got {maxval}")
    need = width * height * 3
    pixels = data[pos:pos + need]
    if len(pixels) != need:
        raise InputError(f"{path}: expected {need} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary P6."""
    h, w, c = image.shape
    if c != 3 or image.dtype != np.uint8:
        raise ValueError("write_ppm needs an (h, w, 3) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_raw_tensor(path) -> np.ndarray:
    """Read a YLTI file; returns (h, w, c) float32 in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != RAW_MAGIC:
        raise InputError(f"{path}: not a YLTI raw tensor file")
    if len(data) < 16:
        raise InputError(f"{path}: truncated YLTI header")
    h, w, c = struct.unpack("<III", data[4:16])
    if min(h, w, c) == 0:
        raise InputError(f"{path}: raw tensor has a zero dimension ({h}x{w}x{c})")
    need = h * w * c * 4
    if len(data) != 16 + need:
        raise InputError(f"{path}: expected {need} data bytes, got {len(data) - 16}")
    arr = np.frombuffer(data[16:], dtype="<f4").reshape(h, w, c).astype(np.float32)
    if not np.isfinite(arr).all():
        raise InputError(f"{path}: raw tensor holds non-finite values")
    return arr


def write_raw_tensor(path, arr: np.ndarray) -> None:
    h, w, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<III", h, w, c))
        fh.write(arr.astype("<f4").tobytes())


def load_image(path) -> np.ndarray:
    """Read PPM or YLTI by magic sniffing; returns (h, w, 3) float32 in [0, 1]."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] == b"P6":
        return read_ppm(path).astype(np.float32) / np.float32(255.0)
    if magic == RAW_MAGIC:
        arr = read_raw_tensor(path)
        if arr.shape[2] != 3:
            raise InputError(f"{path}: detect needs 3 channels, got {arr.shape[2]}")
        return arr
    raise InputError(f"{path}: unrecognized image format")


class LetterboxTransform:
    """Remembers scale and padding so boxes can be mapped back."""

    def __init__(self, scale: float, pad_x: int, pad_y: int,
                 orig_w: int, orig_h: int):
        self.scale = scale
        self.pad_x = pad_x
        self.pad_y = pad_y
        self.orig_w = orig_w
        self.orig_h = orig_h

    def box_to_original(self, box: Box) -> Box:
        return Box((box.cx - self.pad_x) / self.scale,
                   (box.cy - self.pad_y) / self.scale,
                   box.w / self.scale, box.h / self.scale)


def letterbox(image: np.ndarray, size: int) -> tuple[Tensor, LetterboxTransform]:
    """Aspect-preserving nearest-neighbor resize onto a gray square canvas.

    Returns the (1, 3, size, size) network input and the inverse transform.
    """
    h, w, c = image.shape
    scale = min(size / w, size / h)
    new_w = max(1, min(size, round(w * scale)))
    new_h = max(1, min(size, round(h * scale)))
    src_x = np.minimum((np.arange(new_w) / scale).astype(np.int64), w - 1)
    src_y = np.minimum((np.arange(new_h) / scale).astype(np.int64), h - 1)
    resized = image[src_y][:, src_x]
    pad_x = (size - new_w) // 2
    pad_y = (size - new_h) // 2
    canvas = np.full((size, size, c), PAD_VALUE, dtype=np.float32)
    canvas[pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized
    tensor = Tensor(np.ascontiguousarray(canvas.transpose(2, 0, 1))[None, :, :, :])
    return tensor, LetterboxTransform(scale, pad_x, pad_y, w, h)
