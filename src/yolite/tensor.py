"""Dense NCHW float32 tensors and the numeric primitives the network composes.

Every operation here is a pure function with a pinned arithmetic contract:
single-precision IEEE arithmetic, one rounding per multiply and per add, and a
fixed accumulation order (input channel as the slow index, then kernel row,
then kernel column).  That makes results bit-identical to a naive scalar
reference loop, repeatable across runs, and independent of memory layout,
tiling, the number of terms one numpy call adds, and the optional parallel
mode, in which forked helper processes fill shares of each convolution's
output: all of these only decide *which* output elements and terms are
computed together, and by which process, never how a single element is
accumulated.  The one exception to single precision is the
float64 ``exp``/``logistic`` pair, shared by the attention gates and head
decoding, which applies ``math.exp`` per element.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import mmap
import os
import signal
import struct
import threading

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError, YoliteError

BN_EPSILON = 1e-5
LEAKY_A = np.float32(10.0)  # leaky activation divisor, i.e. slope 0.1

# Convolution schedule rule: output maps with more pixels than this run in
# NCHW layout over blocks of output channels; smaller maps run channel-last,
# so the innermost loop is a contiguous run over output channels.
CHANNEL_LAST_MAX_PIXELS = 13 * 13
# Channel-last maps of at most this many pixels add a chunk of terms per
# numpy reduction instead of one term per multiply and add; a chunk's
# products fill about REDUCE_CHUNK_BYTES.  On larger maps each term's product
# is long enough that the chunk's extra memory traffic costs more than the
# calls it saves.
REDUCE_MAX_PIXELS = 8 * 8
REDUCE_CHUNK_BYTES = 1024 * 1024
# Byte size of one NCHW accumulator block; it and its product buffer stay in
# a core's L2 cache.
ACC_BLOCK_BYTES = 512 * 1024
# numpy's ufunc buffer size, in elements, while a conv runs (numpy asks for a
# multiple of 16).  Under numpy's default of 8,192 a broadcast product whose
# contiguous inner run is shorter than the buffer goes through the buffered
# iterator's copies and runs 3-5x slower.  Buffering only decides how numpy
# chunks a loop, never how one element is computed.  Pooling's strided folds
# run slower under a small buffer, so only conv2d and the conv helpers set it.
UFUNC_BUFSIZE = 16

# Parallel mode.  Each helper is (pid, request pipe write end, reply pipe read
# end); the arena is an anonymous shared mapping that the caller and every
# helper see, holding one conv's padded input, transposed weights and
# accumulator.  conv2d and set_parallel hold the lock, so the caller's
# threads take turns at them.
_helpers: list[tuple[int, int, int]] = []
_arena: mmap.mmap | None = None
_lock = threading.Lock()
# A fill request: schedule (an index into _fill's table), stride, the share
# [lo, hi), then the shapes of the padded input, weights and accumulator.
_REQUEST = struct.Struct("16q")
_BLOCKED, _CHANNEL_LAST, _FOLD = range(3)


def set_parallel(workers: int) -> None:
    """Split every convolution over ``workers`` processes: the caller and
    ``workers - 1`` helpers forked from it (POSIX only).

    ``workers`` of 0 or 1 is serial execution.  Repeating the count keeps the
    helpers; changing it reaps them and forks new ones, and 0 reaps them all
    and leaves the module's state as it was at import.  Output is
    bit-identical either way; this only trades wall-clock time.  A helper
    that dies makes the next conv raise ``YoliteError`` and ends parallel
    mode.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers >= 2 and not hasattr(os, "fork"):
        raise ConfigError("parallel convolution needs os.fork, which this platform lacks")
    with _lock:
        if len(_helpers) + 1 != max(workers, 1):
            _stop()
            if workers >= 2:
                _start(workers - 1, mmap.PAGESIZE)


atexit.register(set_parallel, 0)


def _start(count: int, size: int) -> None:
    """Map a ``size``-byte arena and fork ``count`` helpers that share it."""
    global _arena
    _arena = mmap.mmap(-1, size)
    for _ in range(count):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            _stop()
            raise
        if pid == 0:
            inherited = [req_w, rep_r] + [fd for _, *fds in _helpers for fd in fds]
            _serve(req_r, rep_w, inherited)
        os.close(req_r)
        os.close(rep_w)
        _helpers.append((pid, req_w, rep_r))


def _stop() -> list[tuple[int, int]]:
    """Reap every helper and drop the arena; return each helper's (pid,
    exit status), a negative status being the signal that ended it."""
    global _arena
    for _, requests, _ in _helpers:
        os.close(requests)  # the helper reads EOF and exits
    ended = []
    for pid, _, replies in _helpers:
        with contextlib.suppress(ChildProcessError):  # reaped elsewhere already
            ended.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
        os.close(replies)
    _helpers.clear()
    _arena = None  # unmapped once no array views it
    return ended


def _serve(requests: int, replies: int, inherited: list[int]) -> None:
    """A helper's whole life: fill each requested share in the arena and
    reply one byte, until the request pipe reads EOF.  It leaves only
    through ``os._exit``, so it never runs the caller's exit handlers, and it
    calls no public function of the package."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for fd in inherited:
            os.close(fd)
        np.setbufsize(UFUNC_BUFSIZE)
        while msg := os.read(requests, _REQUEST.size):
            schedule, s, lo, hi, *dims = _REQUEST.unpack(msg)
            xp, wt, acc = _carve(_arena, (dims[:4], dims[4:8], dims[8:]))
            _fill(schedule, lo, hi, xp, wt, s, acc)
            os.write(replies, b"\0")
        code = 0
    finally:
        os._exit(code)


def _carve(buf, shapes) -> list[np.ndarray]:
    """Float32 arrays of ``shapes`` laid end to end from the start of ``buf``."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(np.frombuffer(buf, np.float32, size, offset).reshape(shape))
        offset += 4 * size
    return views


@contextlib.contextmanager
def _small_ufunc_buffer():
    """Run the block with numpy's ufunc buffer at ``UFUNC_BUFSIZE``, then
    restore the caller's size, also when the block raises."""
    old = np.setbufsize(UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Immutable 4-D (batch, channel, height, width) float32 array.

    ``array`` is a read-only, C-contiguous (row-major) float32 array.  All
    construction paths validate dtype, rank, and finiteness.
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

    @classmethod
    def zeros(cls, n: int, c: int, h: int, w: int) -> "Tensor":
        return cls(np.zeros((n, c, h, w), dtype=np.float32), _trusted=True)

    @classmethod
    def full(cls, shape: tuple[int, int, int, int], value: float) -> "Tensor":
        arr = np.full(shape, value, dtype=np.float32)
        return cls(arr)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Meta:
    """Shape-only stand-in for a ``Tensor``: each op the network runs checks
    it as it checks a ``Tensor``, then returns a ``Meta`` of the output shape
    and does no arithmetic.  Values derived from one share its ``ledger``,
    where ``conv2d`` appends ("conv", params, output shape) and ``pool2d``
    ("pool", kernel, output shape) per call."""

    __slots__ = ("shape", "ledger")

    def __init__(self, shape, ledger: list | None = None):
        self.shape = tuple(shape)
        self.ledger = [] if ledger is None else ledger

    def derive(self, shape, *row) -> "Meta":
        """A ``Meta`` of ``shape`` on this ledger, which first gets the row
        ``row + (shape,)`` if ``row`` is given."""
        if row:
            self.ledger.append((*row, shape))
        return Meta(shape, self.ledger)


class BatchNorm:
    """Inference-mode per-channel affine using stored running statistics."""

    __slots__ = ("gamma", "beta", "running_mean", "running_var")

    def __init__(self, gamma, beta, running_mean, running_var):
        self.gamma = np.ascontiguousarray(gamma, dtype=np.float32)
        self.beta = np.ascontiguousarray(beta, dtype=np.float32)
        self.running_mean = np.ascontiguousarray(running_mean, dtype=np.float32)
        self.running_var = np.ascontiguousarray(running_var, dtype=np.float32)
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

    def arrays(self) -> list[np.ndarray]:
        """The parameter arrays in YLTW file order: weights, bias, gamma,
        beta, running_mean, running_var, the last four empty without batch
        norm."""
        bn = self.bn
        if bn is None:
            return [self.weights, self.bias] + [np.zeros(0, dtype=np.float32)] * 4
        return [self.weights, self.bias, bn.gamma, bn.beta, bn.running_mean, bn.running_var]

    def n_params(self) -> int:
        return sum(a.size for a in self.arrays())

    def output_shape(self, shape) -> tuple[int, int, int, int]:
        """The conv rule, which ``conv2d`` applies to tensors and shape-only
        values alike: an (n, c, h, w) input of ``in_channels`` channels whose
        padded sides are at least the kernel maps to (n, out_channels, oh, ow)."""
        n, c, h, w = shape
        if c != self.in_channels:
            raise ShapeError(f"input channels {c} != conv in_channels {self.in_channels}")
        k, s, p = self.kernel_size, self.stride, self.padding
        if h + 2 * p < k:
            raise ShapeError(f"height {h} too small for kernel {k} with padding {p}")
        if w + 2 * p < k:
            raise ShapeError(f"width {w} too small for kernel {k} with padding {p}")
        return n, self.out_channels, conv_out_size(h, k, s, p), conv_out_size(w, k, s, p)


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


@_small_ufunc_buffer()
def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Direct 2-D convolution, plus bias, plus batch-norm affine if present,
    with the output shape and input checks of ``ConvParams.output_shape``.

    Each output element is accumulated in float32 with one rounding per
    product and per add, walking terms with the input channel as the slow
    index and the kernel window row-major within it.  The vectorization below
    adds the (channel, ky, kx) terms to a block of output elements in that
    order, one term per multiply and add or, on small maps, a chunk of terms
    per reduction, so the per-element fold order equals the scalar reference
    exactly.  Which elements form a block, their memory layout and the
    terms per numpy call depend only on the output shape (see
    ``CHANNEL_LAST_MAX_PIXELS`` and ``REDUCE_MAX_PIXELS``); under
    ``set_parallel`` each process fills its own share of them.
    """
    shape = params.output_shape(x.shape)
    if isinstance(x, Meta):
        return x.derive(shape, "conv", params)
    _, oc, oh, ow = shape
    n, c, h, w = x.shape
    k, s, p = params.kernel_size, params.stride, params.padding
    blocked = oh * ow > CHANNEL_LAST_MAX_PIXELS
    # numpy sums a lone output element's terms pairwise, so a map whose rows
    # hold one element each stays on the per-term loop
    schedule = (_BLOCKED if blocked
                else _FOLD if oh * ow <= REDUCE_MAX_PIXELS and n * ow * oc > 1
                else _CHANNEL_LAST)
    shapes = ((n, c, h + 2 * p, w + 2 * p), (c, k, k, oc), shape if blocked else (n, oh, ow, oc))
    with _lock:
        if _helpers:
            xp, wt, acc = _carve(_arena_for(4 * sum(map(math.prod, shapes))), shapes)
        else:
            xp, wt, acc = (np.empty(dims, dtype=np.float32) for dims in shapes)
        if p > 0:
            xp.fill(0)
        xp[:, :, p:p + h, p:p + w] = x.array
        wt[...] = params.kernel.transpose(1, 2, 3, 0)  # (in, ky, kx, out)
        _split(schedule, oc if blocked else oh, xp, wt, s, acc)
        out = acc if blocked else acc.transpose(0, 3, 1, 2)
        if out.base is not None:  # channel-last, or in the arena the next conv reuses
            out = out.copy()

    np.add(out, params.bias[None, :, None, None], out=out)
    if params.bn is not None:
        bn = params.bn
        scale = bn.gamma / np.sqrt(bn.running_var + np.float32(BN_EPSILON))
        np.subtract(out, bn.running_mean[None, :, None, None], out=out)
        np.multiply(out, scale[None, :, None, None], out=out)
        np.add(out, bn.beta[None, :, None, None], out=out)
    _check_finite(out, "conv2d")
    return Tensor(out, _trusted=True)


def _arena_for(need: int) -> mmap.mmap:
    """The arena, grown to at least ``need`` bytes: a larger one (at least
    double) is mapped and the helpers are forked again."""
    if need > len(_arena):
        size = max(need, 2 * len(_arena))
        count = len(_helpers)
        _stop()
        _start(count, size)
    return _arena


def _split(schedule: int, total: int, xp: np.ndarray, wt: np.ndarray, s: int,
           acc: np.ndarray) -> None:
    """Fill units [0, total) of ``acc`` (output channels for ``_BLOCKED``,
    else output rows) with one fill call per process.

    The units split into one near-equal contiguous share per process; the
    caller fills the first and each helper one of the others, in the arena.
    With fewer units than processes the caller fills them all.
    """
    shares = len(_helpers) + 1 if total > len(_helpers) else 1
    bounds = [total * i // shares for i in range(shares + 1)]
    busy = _helpers[:shares - 1]
    replies = None
    try:
        for (_, requests, _), lo, hi in zip(busy, bounds[1:], bounds[2:]):
            os.write(requests, _REQUEST.pack(schedule, s, lo, hi,
                                             *xp.shape, *wt.shape, *acc.shape))
        _fill(schedule, 0, bounds[1], xp, wt, s, acc)
        replies = [os.read(fd, 1) for _, _, fd in busy]
    except BrokenPipeError:  # a helper is gone
        pass
    except BaseException:
        _stop()
        raise
    if replies != [b"\0"] * len(busy):
        ended = [f"{pid} ended with exit status {code}" for pid, code in _stop() if code]
        raise YoliteError("conv helper " + ("; ".join(ended) or "ended unexpectedly"))


def _fill(schedule: int, lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
          acc: np.ndarray) -> None:
    """Fill units [lo, hi) of ``acc`` with the fill ``schedule`` names, looked
    up in the module when called."""
    (_fill_blocked, _fill_channel_last, _fold_terms)[schedule](lo, hi, xp, wt, s, acc)


def _fill_blocked(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                  out: np.ndarray) -> None:
    """Output channels [lo, hi) in NCHW layout, in blocks of channels whose
    accumulator fills about ``ACC_BLOCK_BYTES``.

    Each input channel's k*k strided windows are copied in turn into a
    contiguous buffer, so every product runs over a whole (oh, ow) plane.
    """
    n, c = xp.shape[:2]
    k = wt.shape[1]
    oh, ow = out.shape[2:]
    step = max(1, ACC_BLOCK_BYTES // (4 * n * oh * ow))
    col = np.empty((n, 1, oh, ow), dtype=np.float32)
    for b in range(lo, hi, step):
        e = min(b + step, hi)
        acc = np.zeros((n, e - b, oh, ow), dtype=np.float32)
        tmp = np.empty_like(acc)
        for ci in range(c):
            taps = wt[ci].reshape(k * k, -1)[:, b:e, None, None]
            for window, tap in zip(_windows(xp[:, ci], k, s, oh, ow), taps):
                col[:, 0] = window
                np.multiply(col, tap, out=tmp)
                np.add(acc, tmp, out=acc)
        out[:, b:e] = acc


def _fill_channel_last(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                       out: np.ndarray) -> None:
    """Output rows [lo, hi) of a channel-last (n, oh, ow, oc) accumulator,
    one multiply and one add per (channel, ky, kx) term."""
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


def _fold_terms(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                out: np.ndarray) -> None:
    """Output rows [lo, hi) of a channel-last (n, oh, ow, oc) accumulator, a
    chunk of terms whose products fill about ``REDUCE_CHUNK_BYTES`` per step.

    Row 0 of the chunk buffer holds the running sums and each further row one
    term's products, so ``np.add.reduce`` over axis 0 adds the terms to each
    element one at a time and in order, as long as the rows have more than
    one element.
    """
    n, c = xp.shape[:2]
    k = wt.shape[1]
    ow = out.shape[2]
    terms = c * k * k
    acc = np.zeros((n, hi - lo) + out.shape[2:], dtype=np.float32)
    # every term's window at once: (n, c, rows, ow, ky, kx) -> (c, ky, kx, n, rows, ow)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, s * lo:s * (hi - 1) + 1:s, :s * (ow - 1) + 1:s]
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape((terms,) + acc.shape[:3] + (1,))
    taps = wt.reshape(terms, 1, 1, 1, -1)
    step = max(1, REDUCE_CHUNK_BYTES // (4 * acc.size))
    buf = np.empty((min(step, terms) + 1,) + acc.shape, dtype=np.float32)
    for t in range(0, terms, step):
        m = min(step, terms - t)
        buf[0] = acc
        np.multiply(cols[t:t + m], taps[t:t + m], out=buf[1:m + 1])
        np.add.reduce(buf[:m + 1], axis=0, out=acc)
    out[:, lo:hi] = acc


def _windows(a: np.ndarray, k: int, s: int, oh: int, ow: int) -> list[np.ndarray]:
    """The k*k views of ``a`` that a k x k window at stride ``s`` reads to
    make an (oh, ow) map from the last two axes, window row-major."""
    return [a[..., ky:ky + s * oh:s, kx:kx + s * ow:s] for ky in range(k) for kx in range(k)]


def _fold(views, kind: str) -> np.ndarray:
    """Fold equally shaped arrays, in order, into a new float32 array with one
    rounding per step.

    ``avg`` sums and divides once by the count.  ``max`` keeps the earlier
    value on a tie, as the scalar reference does.  Only a +0/-0 tie has
    operands whose bits differ, and ``np.maximum`` may return either of them,
    so where the maximum is zero it is set to the first zero in fold order.
    """
    acc = np.array(views[0], dtype=np.float32, order="C")
    step = np.maximum if kind == "max" else np.add
    for v in views[1:]:
        step(acc, v, out=acc)
    if kind == "avg":
        np.divide(acc, np.float32(len(views)), out=acc)
    elif not acc.all():
        zero = acc == 0
        first = acc[zero]
        for v in reversed(views):
            vz = v[zero]
            np.copyto(first, vz, where=vz == 0)
        acc[zero] = first
    return acc


def pool2d(x: Tensor, kind: str, k: int, s: int) -> Tensor:
    """Windowed max or average pooling, no padding; each window folds
    row-major."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pool kind {kind!r}")
    if k < 1 or s < 1:
        raise ValueError("pool kernel and stride must be >= 1")
    n, c, h, w = x.shape
    if h < k or w < k:
        raise ShapeError(f"spatial dims ({h}, {w}) smaller than pool kernel {k}")
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    if isinstance(x, Meta):
        return x.derive((n, c, oh, ow), "pool", k)
    acc = _fold(_windows(x.array, k, s, oh, ow), kind)
    _check_finite(acc, "pool2d")
    return Tensor(acc, _trusted=True)


def leaky_relu(x: Tensor) -> Tensor:
    """Identity on non-negatives, x/``LEAKY_A`` on negatives."""
    if isinstance(x, Meta):
        return x
    arr = x.array
    out = arr / LEAKY_A
    np.maximum(arr, out, out=out)  # equals np.where(arr >= 0, arr, arr / LEAKY_A)
    return Tensor(out, _trusted=True)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); -0 maps to +0."""
    if isinstance(x, Meta):
        return x
    return Tensor(np.where(x.array > 0, x.array, np.float32(0)), _trusted=True)


# math.exp per element: numpy's vectorized exp may differ in the last bit.
_exp_objects = np.frompyfunc(math.exp, 1, 1)


def exp(v) -> np.ndarray:
    """Elementwise float64 e**v, ``math.exp`` per element.

    Raises NonFiniteError where the result overflows a double.
    """
    try:
        return _exp_objects(v).astype(np.float64)
    except OverflowError:
        raise NonFiniteError("exp overflowed float64") from None


def logistic(v) -> np.ndarray:
    """Elementwise float64 logistic, clamped into [5e-324, 1 - 2**-53].

    Each element takes the branch of the scalar formula its sign selects:
    1 / (1 + e^-v) for v >= 0, e^v / (1 + e^v) otherwise, so no ``exp``
    argument is positive and none overflows.
    """
    v = np.asarray(v, dtype=np.float64)
    pos = v >= 0
    ez = exp(np.where(pos, -v, v))
    out = np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return np.clip(out, 5e-324, 1.0 - 2.0 ** -53)


_SIG_LO = np.float32(1e-45)          # smallest positive float32 subnormal
_SIG_HI = np.float32(1.0) - np.float32(2.0) ** -24


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic, clamped into the open interval (0, 1).

    ``logistic`` rounded to float32, then clipped off the closed endpoints
    so downstream products stay in (0, 1).
    """
    if isinstance(x, Meta):
        return x
    out = np.clip(logistic(x.array).astype(np.float32), _SIG_LO, _SIG_HI)
    return Tensor(out, _trusted=True)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Join two tensors along the channel axis, a's channels first."""
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(f"concat needs matching (n, h, w): {(na, ha, wa)} vs {(nb, hb, wb)}")
    if isinstance(a, Meta):
        return a.derive((na, ca + cb, ha, wa))
    return Tensor(np.concatenate([a.array, b.array], axis=1), _trusted=True)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Copy channels [start, stop) into a new tensor."""
    n, c, h, w = x.shape
    if not (0 <= start <= stop <= c):
        raise ShapeError(f"channel slice [{start}, {stop}) out of range for {c} channels")
    if isinstance(x, Meta):
        return x.derive((n, stop - start, h, w))
    return Tensor(np.ascontiguousarray(x.array[:, start:stop]), _trusted=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of identically shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs identical shapes: {a.shape} vs {b.shape}")
    if isinstance(a, Meta):
        return a
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
    if isinstance(a, Meta):
        return a
    out = a.array * m.array
    _check_finite(out, "broadcast_mul")
    return Tensor(out, _trusted=True)


def channel_pool(x: Tensor, kind: str) -> Tensor:
    """Global spatial reduction per channel, to shape (n, c, 1, 1); pixels
    fold in row-major order."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    n, c, h, w = x.shape
    if min(n, c, h, w) == 0:
        raise ShapeError("channel_pool needs a non-empty tensor")
    if isinstance(x, Meta):
        return x.derive((n, c, 1, 1))
    flat = x.array.reshape(n, c, h * w)
    return Tensor(_fold(np.moveaxis(flat, 2, 0), kind).reshape(n, c, 1, 1), _trusted=True)


def spatial_pool(x: Tensor, kind: str) -> Tensor:
    """Across-channel reduction per pixel, to shape (n, 1, h, w); channels
    fold in order."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    n, c, h, w = x.shape
    if min(n, c, h, w) == 0:
        raise ShapeError("spatial_pool needs a non-empty tensor")
    if isinstance(x, Meta):
        return x.derive((n, 1, h, w))
    return Tensor(_fold(np.moveaxis(x.array, 1, 0), kind).reshape(n, 1, h, w), _trusted=True)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Replicate every pixel into a 2x2 block: out[..., i, j] = in[..., i//2, j//2]."""
    if isinstance(x, Meta):
        n, c, h, w = x.shape
        return x.derive((n, c, 2 * h, 2 * w))
    out = np.repeat(np.repeat(x.array, 2, axis=2), 2, axis=3)
    return Tensor(out, _trusted=True)
