"""Dense NCHW float32 tensors and the numeric primitives the network composes.

Every operation here is a pure function with a pinned arithmetic contract:
single-precision IEEE arithmetic, one rounding per multiply and per add, and a
fixed accumulation order (input channel as the slow index, then kernel row,
then kernel column).  That makes results bit-identical to a naive scalar
reference loop, repeatable across runs, and independent of memory layout,
tiling and the optional thread-parallel execution mode, all of which only
decide *which* output elements are computed together, never how a single
element is accumulated.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NonFiniteError, ShapeError

BN_EPSILON = 1e-5

# Convolution schedule rule: output maps with more pixels than this run in
# NCHW layout over blocks of output channels; smaller maps run channel-last,
# so the innermost loop is a contiguous run over output channels.
CHANNEL_LAST_MAX_PIXELS = 26 * 26
# Byte size of one NCHW accumulator block; it and its product buffer stay in
# a core's L2 cache.
ACC_BLOCK_BYTES = 512 * 1024

_parallel_workers = 0  # 0 = serial execution
_pool: ThreadPoolExecutor | None = None


def set_parallel(workers: int) -> None:
    """Enable thread-parallel convolution on a persistent pool of ``workers``.

    ``workers=0`` restores serial execution.  Changing the count shuts the
    previous pool down and joins its threads.  Output is bit-identical either
    way; this only trades wall-clock time.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    global _parallel_workers, _pool
    if workers == _parallel_workers:
        return
    if _pool is not None:
        _pool.shutdown(wait=True)
    _pool = ThreadPoolExecutor(max_workers=workers) if workers else None
    _parallel_workers = workers


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Immutable 4-D (batch, channel, height, width) float32 array.

    ``data`` exposes the flat row-major buffer; ``array`` the shaped view.
    All construction paths validate dtype, rank, and finiteness.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray, _trusted: bool = False):
        if not _trusted:
            array = np.array(array, dtype=np.float32, order="C", copy=True)
            if array.ndim != 4:
                raise ShapeError(f"tensor must be 4-D (n, c, h, w), got {array.ndim}-D")
            if not np.isfinite(array).all():
                raise NonFiniteError("tensor holds non-finite values")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat (n*c*h*w,) row-major float32 view of the storage."""
        return self.array.reshape(-1)

    @classmethod
    def zeros(cls, n: int, c: int, h: int, w: int) -> "Tensor":
        return cls(np.zeros((n, c, h, w), dtype=np.float32), _trusted=True)

    @classmethod
    def full(cls, shape: tuple[int, int, int, int], value: float) -> "Tensor":
        arr = np.full(shape, value, dtype=np.float32)
        return cls(arr)

    @classmethod
    def from_flat(cls, shape: tuple[int, int, int, int], flat: np.ndarray) -> "Tensor":
        flat = np.asarray(flat, dtype=np.float32)
        n, c, h, w = shape
        if flat.size != n * c * h * w:
            raise ShapeError(f"flat data length {flat.size} != n*c*h*w = {n * c * h * w}")
        return cls(flat.reshape(shape).copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class BatchNorm:
    """Inference-mode per-channel affine using stored running statistics."""

    __slots__ = ("gamma", "beta", "running_mean", "running_var", "epsilon")

    def __init__(self, gamma, beta, running_mean, running_var, epsilon: float = BN_EPSILON):
        self.gamma = np.ascontiguousarray(gamma, dtype=np.float32)
        self.beta = np.ascontiguousarray(beta, dtype=np.float32)
        self.running_mean = np.ascontiguousarray(running_mean, dtype=np.float32)
        self.running_var = np.ascontiguousarray(running_var, dtype=np.float32)
        self.epsilon = float(epsilon)
        n = self.gamma.size
        for name, arr in (("beta", self.beta), ("running_mean", self.running_mean),
                          ("running_var", self.running_var)):
            if arr.size != n:
                raise ShapeError(f"batch-norm {name} length {arr.size} != gamma length {n}")
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"batch-norm {name} holds non-finite values")
        if not np.isfinite(self.gamma).all():
            raise NonFiniteError("batch-norm gamma holds non-finite values")
        if (self.running_var < 0).any():
            raise ValueError("batch-norm running_var entries must be >= 0")

    @classmethod
    def identity(cls, channels: int) -> "BatchNorm":
        return cls(np.ones(channels, np.float32), np.zeros(channels, np.float32),
                   np.zeros(channels, np.float32), np.ones(channels, np.float32))


class ConvParams:
    """Parameter bundle for one 2-D convolution.

    ``weights`` is stored flat in (out, in, ky, kx) row-major order; ``bias``
    always exists (zero-filled when the layer is batch-normalized).  Non-finite
    parameters are rejected at construction, never at apply time.
    """

    __slots__ = ("in_channels", "out_channels", "kernel_size", "stride", "padding",
                 "weights", "bias", "bn")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, weights=None, bias=None,
                 bn: BatchNorm | None = None):
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError("conv dimensions must be positive (padding >= 0)")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        n_w = out_channels * in_channels * kernel_size * kernel_size
        if weights is None:
            weights = np.zeros(n_w, dtype=np.float32)
        self.weights = np.ascontiguousarray(weights, dtype=np.float32).reshape(-1)
        if self.weights.size != n_w:
            raise ShapeError(
                f"weight length {self.weights.size} != out*in*k*k = {n_w}")
        if bias is None:
            bias = np.zeros(out_channels, dtype=np.float32)
        self.bias = np.ascontiguousarray(bias, dtype=np.float32).reshape(-1)
        if self.bias.size != out_channels:
            raise ShapeError(f"bias length {self.bias.size} != out_channels = {out_channels}")
        if not np.isfinite(self.weights).all():
            raise NonFiniteError("conv weights hold non-finite values")
        if not np.isfinite(self.bias).all():
            raise NonFiniteError("conv bias holds non-finite values")
        if bn is not None and bn.gamma.size != out_channels:
            raise ShapeError(f"batch-norm channel count {bn.gamma.size} != out_channels = {out_channels}")
        self.bn = bn

    @property
    def kernel(self) -> np.ndarray:
        """Weights viewed as (out, in, k, k)."""
        k = self.kernel_size
        return self.weights.reshape(self.out_channels, self.in_channels, k, k)

    def n_params(self) -> int:
        n = self.weights.size + self.bias.size
        if self.bn is not None:
            n += 4 * self.bn.gamma.size
        return n


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Direct 2-D convolution, plus bias, plus batch-norm affine if present.

    Each output element is accumulated in float32 with one rounding per
    product and per add, walking terms with the input channel as the slow
    index and the kernel window row-major within it.  The vectorization below
    applies one (channel, ky, kx) term to a block of output elements per
    step, so the per-element fold order equals the scalar reference exactly.
    Which elements form a block, and in what memory layout, depends only on
    the output shape (see ``CHANNEL_LAST_MAX_PIXELS``).
    """
    n, c, h, w = x.shape
    if c != params.in_channels:
        raise ShapeError(f"input channels {c} != conv in_channels {params.in_channels}")
    k, s, p = params.kernel_size, params.stride, params.padding
    if h + 2 * p < k:
        raise ShapeError(f"height {h} too small for kernel {k} with padding {p}")
    if w + 2 * p < k:
        raise ShapeError(f"width {w} too small for kernel {k} with padding {p}")
    oh, ow = conv_out_size(h, k, s, p), conv_out_size(w, k, s, p)
    oc = params.out_channels

    xp = x.array
    if p > 0:
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float32)
        xp[:, :, p:p + h, p:p + w] = x.array

    wt = np.ascontiguousarray(params.kernel.transpose(1, 2, 3, 0))  # (in, ky, kx, out)
    workers = max(_parallel_workers, 1)
    if oh * ow > CHANNEL_LAST_MAX_PIXELS:
        out = np.empty((n, oc, oh, ow), dtype=np.float32)
        step = min(max(1, ACC_BLOCK_BYTES // (4 * n * oh * ow)), -(-oc // workers))
        _run(_fill_blocked, oc, step, xp, wt, s, out)
    else:
        acc = np.empty((n, oh, ow, oc), dtype=np.float32)
        _run(_fill_channel_last, oh, -(-oh // workers), xp, wt, s, acc)
        out = np.ascontiguousarray(acc.transpose(0, 3, 1, 2))

    np.add(out, params.bias[None, :, None, None], out=out)
    if params.bn is not None:
        bn = params.bn
        scale = bn.gamma / np.sqrt(bn.running_var + np.float32(bn.epsilon))
        np.subtract(out, bn.running_mean[None, :, None, None], out=out)
        np.multiply(out, scale[None, :, None, None], out=out)
        np.add(out, bn.beta[None, :, None, None], out=out)
    _check_finite(out, "conv2d")
    return Tensor(out, _trusted=True)


def _run(fill, total: int, step: int, *args) -> None:
    """Call ``fill(lo, hi, *args)`` for each ``step``-wide range of [0, total),
    on the pool if there is one."""
    bounds = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    if _pool is not None and len(bounds) > 1:
        list(_pool.map(lambda b: fill(*b, *args), bounds))
    else:
        for lo, hi in bounds:
            fill(lo, hi, *args)


def _fill_blocked(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                  out: np.ndarray) -> None:
    """Output channels [lo, hi) in NCHW layout.

    Each input channel's k*k strided windows are first copied into a
    contiguous buffer, so every product runs over a whole (oh, ow) plane.
    """
    n, c = xp.shape[:2]
    k = wt.shape[1]
    oh, ow = out.shape[2:]
    acc = np.zeros((n, hi - lo, oh, ow), dtype=np.float32)
    tmp = np.empty_like(acc)
    cols = np.empty((k, k, n, 1, oh, ow), dtype=np.float32)
    for ci in range(c):
        for ky in range(k):
            for kx in range(k):
                cols[ky, kx, :, 0] = xp[:, ci, ky:ky + s * oh:s, kx:kx + s * ow:s]
        for ky in range(k):
            for kx in range(k):
                np.multiply(cols[ky, kx], wt[ci, ky, kx, lo:hi, None, None], out=tmp)
                np.add(acc, tmp, out=acc)
    out[:, lo:hi] = acc


def _fill_channel_last(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                       out: np.ndarray) -> None:
    """Output rows [lo, hi) of a channel-last (n, oh, ow, oc) accumulator."""
    n, c = xp.shape[:2]
    k = wt.shape[1]
    ow = out.shape[2]
    acc = np.zeros((n, hi - lo) + out.shape[2:], dtype=np.float32)
    tmp = np.empty_like(acc)
    for ci in range(c):
        for ky in range(k):
            band = xp[:, ci, ky + s * lo:ky + s * (hi - 1) + 1:s]
            for kx in range(k):
                np.multiply(band[:, :, kx:kx + s * ow:s, None], wt[ci, ky, kx], out=tmp)
                np.add(acc, tmp, out=acc)
    out[:, lo:hi] = acc


def pool2d(x: Tensor, kind: str, k: int, s: int) -> Tensor:
    """Windowed max or average pooling, no padding.

    Average accumulates the k*k window row-major in float32 and divides once.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pool kind {kind!r}")
    if k < 1 or s < 1:
        raise ValueError("pool kernel and stride must be >= 1")
    n, c, h, w = x.shape
    if h < k or w < k:
        raise ShapeError(f"spatial dims ({h}, {w}) smaller than pool kernel {k}")
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    first = x.array[:, :, 0:s * oh:s, 0:s * ow:s]
    if kind == "max":
        acc = first.copy()
        for ky in range(k):
            for kx in range(k):
                if ky == 0 and kx == 0:
                    continue
                np.maximum(acc, x.array[:, :, ky:ky + s * oh:s, kx:kx + s * ow:s], out=acc)
    else:
        acc = first.astype(np.float32, copy=True)
        for ky in range(k):
            for kx in range(k):
                if ky == 0 and kx == 0:
                    continue
                np.add(acc, x.array[:, :, ky:ky + s * oh:s, kx:kx + s * ow:s], out=acc)
        np.divide(acc, np.float32(k * k), out=acc)
    _check_finite(acc, "pool2d")
    return Tensor(np.ascontiguousarray(acc), _trusted=True)


def leaky_relu(x: Tensor, a: float = 10.0) -> Tensor:
    """Identity on non-negatives, x/a on negatives.  Requires a > 1."""
    if not a > 1:
        raise ValueError(f"leaky slope divisor a must exceed 1, got {a}")
    arr = x.array
    out = np.where(arr >= 0, arr, arr / np.float32(a))
    return Tensor(out, _trusted=True)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    return Tensor(np.maximum(x.array, np.float32(0)), _trusted=True)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, clamped into the open interval (0, 1).

    Evaluated in double precision for stability, rounded to float32, then
    nudged off the closed endpoints so downstream products stay in (0, 1).
    """
    out = _sigmoid_f32(x.array)
    return Tensor(out, _trusted=True)


_SIG_LO = np.float32(1e-45)          # smallest positive float32 subnormal
_SIG_HI = np.float32(1.0) - np.float32(2.0) ** -24


def _sigmoid_f32(arr: np.ndarray) -> np.ndarray:
    a64 = arr.astype(np.float64)
    out = np.empty_like(a64)
    pos = a64 >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a64[pos]))
    ez = np.exp(a64[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out.astype(np.float32), _SIG_LO, _SIG_HI)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Join two tensors along the channel axis, a's channels first."""
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(f"concat needs matching (n, h, w): {(na, ha, wa)} vs {(nb, hb, wb)}")
    return Tensor(np.concatenate([a.array, b.array], axis=1), _trusted=True)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Copy channels [start, stop) into a new tensor."""
    c = x.shape[1]
    if not (0 <= start <= stop <= c):
        raise ShapeError(f"channel slice [{start}, {stop}) out of range for {c} channels")
    return Tensor(np.ascontiguousarray(x.array[:, start:stop]), _trusted=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of identically shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs identical shapes: {a.shape} vs {b.shape}")
    out = a.array + b.array
    _check_finite(out, "add")
    return Tensor(out, _trusted=True)


def broadcast_mul(a: Tensor, m: Tensor) -> Tensor:
    """Elementwise product with a full-shape, per-channel (n,c,1,1), or
    per-pixel (n,1,h,w) multiplier."""
    n, c, h, w = a.shape
    mn, mc, mh, mw = m.shape
    ok = (m.shape == a.shape
          or (mn == n and mc == c and mh == 1 and mw == 1)
          or (mn == n and mc == 1 and mh == h and mw == w))
    if not ok:
        raise ShapeError(f"multiplier shape {m.shape} does not broadcast over {a.shape}")
    out = a.array * m.array
    _check_finite(out, "broadcast_mul")
    return Tensor(out, _trusted=True)


def channel_pool(x: Tensor, kind: str) -> Tensor:
    """Global spatial reduction per channel, to shape (n, c, 1, 1).

    The average folds pixels in row-major order in float32, matching the
    scalar reference bit for bit.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    n, c, h, w = x.shape
    if min(n, c, h, w) == 0:
        raise ShapeError("channel_pool needs a non-empty tensor")
    flat = x.array.reshape(n, c, h * w)
    acc = flat[:, :, 0].copy()
    for i in range(1, h * w):
        if kind == "max":
            np.maximum(acc, flat[:, :, i], out=acc)
        else:
            np.add(acc, flat[:, :, i], out=acc)
    if kind == "avg":
        np.divide(acc, np.float32(h * w), out=acc)
    return Tensor(acc.reshape(n, c, 1, 1), _trusted=True)


def spatial_pool(x: Tensor, kind: str) -> Tensor:
    """Across-channel reduction per pixel, to shape (n, 1, h, w)."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    n, c, h, w = x.shape
    if min(n, c, h, w) == 0:
        raise ShapeError("spatial_pool needs a non-empty tensor")
    acc = x.array[:, 0].copy()
    for ci in range(1, c):
        if kind == "max":
            np.maximum(acc, x.array[:, ci], out=acc)
        else:
            np.add(acc, x.array[:, ci], out=acc)
    if kind == "avg":
        np.divide(acc, np.float32(c), out=acc)
    return Tensor(acc.reshape(n, 1, h, w), _trusted=True)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Replicate every pixel into a 2x2 block: out[..., i, j] = in[..., i//2, j//2]."""
    out = np.repeat(np.repeat(x.array, 2, axis=2), 2, axis=3)
    return Tensor(out, _trusted=True)
