"""Image input for the CLI: binary PPM (P6) and the raw "YLTI" tensor format,
plus aspect-preserving letterbox resizing.

The raw format is magic b"YLTI", then u32 height, width, channels
(little-endian), then h*w*c float32 values interleaved row-major (h, w, c).
Raw tensors are taken as already normalized to [0, 1]; PPM pixels are
divided by 255.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import InputError, ShapeError, integer
from .tensor import Tensor

RAW_MAGIC = b"YLTI"
PAD_VALUE = 127.5 / 255.0  # neutral gray


def _parse_ppm(data: bytes, path) -> np.ndarray:
    """Strict binary P6 parser (maxval 255); returns (h, w, 3) uint8."""
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
    if np.ndim(image) != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"write_ppm needs an (h, w, 3) uint8 array, got {image.dtype} {image.shape}")
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def _parse_raw_tensor(data: bytes, path) -> np.ndarray:
    """YLTI parser; returns (h, w, c) float32, as stored."""
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
    """Write an (h, w, c) array as YLTI, zero-sized and non-finite ones too."""
    if np.ndim(arr) != 3:
        raise ValueError(f"write_raw_tensor needs an (h, w, c) array, got {np.ndim(arr)}-D")
    h, w, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<III", h, w, c))
        fh.write(arr.astype("<f4").tobytes())


def load_image(path) -> np.ndarray:
    """Read PPM or YLTI by magic sniffing; returns (h, w, 3) float32 in [0, 1].

    The file is read once, so ``path`` may be a pipe such as /dev/stdin."""
    data = Path(path).read_bytes()
    if data.startswith(b"P6"):
        return _parse_ppm(data, path).astype(np.float32) / np.float32(255.0)
    if data.startswith(RAW_MAGIC):
        arr = _parse_raw_tensor(data, path)
        if arr.shape[2] != 3:
            raise InputError(f"{path}: detect needs 3 channels, got {arr.shape[2]}")
        return arr
    raise InputError(f"{path}: unrecognized image format")


class LetterboxTransform:
    """Remembers scale and padding so boxes can be mapped back."""

    def __init__(self, scale: float, pad_x: int, pad_y: int):
        self.scale = scale
        self.pad_x = pad_x
        self.pad_y = pad_y

    def box_to_original(self, box):
        """``box`` (a `detect.Box`) in original-image pixels, as the same type."""
        return type(box)((box.cx - self.pad_x) / self.scale,
                         (box.cy - self.pad_y) / self.scale,
                         box.w / self.scale, box.h / self.scale)


def letterbox(image: np.ndarray, size: int) -> tuple[Tensor, LetterboxTransform]:
    """Aspect-preserving nearest-neighbor resize onto a gray square canvas.

    Returns the (1, 3, size, size) network input and the inverse transform.
    Raises ShapeError for an image that is not 3-D or has a zero side, and
    for a size that is not an integer (``bool`` included; numpy integers
    are accepted) or is below 1.
    """
    if np.ndim(image) != 3:
        raise ShapeError(f"image must be 3-D (h, w, c), got {np.ndim(image)}-D")
    h, w, c = image.shape
    if min(h, w) == 0:
        raise ShapeError(f"image has a zero side ({h}x{w})")
    size = integer(size, "letterbox size", ShapeError)
    if size < 1:
        raise ShapeError(f"letterbox size must be >= 1, got {size}")
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
    return tensor, LetterboxTransform(scale, pad_x, pad_y)
