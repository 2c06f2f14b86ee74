"""Dense NCHW float32 tensors and the numeric primitives the network composes.

Every operation here is a pure function with a pinned arithmetic contract:
single-precision IEEE arithmetic, one rounding per multiply and per add, and a
fixed accumulation order (input channel as the slow index, then kernel row,
then kernel column).  That makes results bit-identical to a naive scalar
reference loop, repeatable across runs, and independent of memory layout,
tiling, the number of terms one numpy call adds, and the optional parallel
mode, in which a pool of threads fills shares of each convolution's output:
all of these only decide *which* output elements and terms are computed
together, and by which thread, never how a single element is accumulated.
Convolutions fold their terms with ``np.einsum`` where a probe at import
finds this numpy's einsum keeping that contract (``CONV_FOLD``), and with
per-term ufunc calls otherwise.  The one exception to single precision is
the float64 ``exp``/``logistic`` pair, shared by the attention gates and
head decoding, which applies ``math.exp`` per element.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading

import numpy as np

from .errors import NonFiniteError, ShapeError, integer

BN_EPSILON = 1e-5
LEAKY_A = np.float32(10.0)  # leaky activation divisor, i.e. slope 0.1

# Convolution order rule: output maps with more pixels than this fold in
# NCHW order; smaller maps fold channel-last, so the innermost loop is a
# contiguous run over output channels (under the einsum fold only with more
# than one output channel; see _schedule).
CHANNEL_LAST_MAX_PIXELS = 13 * 13
# Under the ufunc fold, channel-last maps of at most this many pixels add a
# chunk of terms per numpy reduction instead of one term per multiply and
# add; a chunk's products fill about REDUCE_CHUNK_BYTES.  On larger maps
# each term's product is long enough that the chunk's extra memory traffic
# costs more than the calls it saves.
REDUCE_MAX_PIXELS = 8 * 8
REDUCE_CHUNK_BYTES = 1024 * 1024
# Byte size of one NCHW output block; it and its product buffer stay in
# a core's L2 cache.
ACC_BLOCK_BYTES = 512 * 1024
# Byte size of the term-major columns the einsum fill gathers per band of
# output rows.
BAND_BYTES = 4 * 1024 * 1024
# numpy's ufunc buffer size, in elements, while a conv runs (numpy asks for a
# multiple of 16).  Under numpy's default of 8,192 a broadcast product whose
# contiguous inner run is shorter than the buffer goes through the buffered
# iterator's copies and runs 3-5x slower.  Buffering only decides how numpy
# chunks a loop, never how one element is computed.  Pooling's strided folds
# run slower under a small buffer, so only conv2d and the pool's conv shares
# set it.
UFUNC_BUFSIZE = 16

# Parallel mode: each conv runs on _workers threads, the caller and the
# pool's _workers - 1, which fill every share but the first.  A conv's fill
# and set_parallel hold the lock, so the caller's threads take turns at them.
_pool = None  # a concurrent.futures.ThreadPoolExecutor, imported when first made
_workers = 1
_lock = threading.Lock()


def set_parallel(workers: int) -> None:
    """Split every convolution over ``workers`` threads: the caller and a
    pool of ``workers - 1``.

    ``workers`` of 0 or 1 is serial execution.  A count that is not an
    integer (``bool`` included; numpy integers are accepted) or is negative
    raises ``ValueError`` and changes nothing.  Repeating the count keeps the
    pool; changing it joins the pool's threads and starts a new pool, and 0
    joins them and leaves the module's state as it was at import.  Output is
    bit-identical either way; this only trades wall-clock time.  An error in
    a pool thread's share is raised by that conv once every share has
    finished, and parallel mode stays on.
    """
    global _pool, _workers
    workers = integer(workers, "workers")
    if workers < 0:
        raise ValueError("workers must be >= 0")
    with _lock:
        if _workers != max(workers, 1):
            if _pool is not None:
                _pool.shutdown()
                _pool = None
            if workers >= 2:
                import concurrent.futures
                _pool = concurrent.futures.ThreadPoolExecutor(workers - 1, "yolite-conv")
            _workers = max(workers, 1)


@contextlib.contextmanager
def _small_ufunc_buffer():
    """Run the block with numpy's ufunc buffer at ``UFUNC_BUFSIZE``, then
    restore the caller's size, also when the block raises."""
    old = np.setbufsize(UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _check_finite(arr: np.ndarray, message: str) -> None:
    """Raise NonFiniteError(``message``) if ``arr`` holds a NaN or an Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(message)


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
            _check_finite(array, "tensor holds non-finite values")
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
        for name in self.__slots__:
            arr = getattr(self, name)
            if arr.size != n:
                raise ShapeError(f"batch-norm {name} length {arr.size} != gamma length {n}")
            _check_finite(arr, f"batch-norm {name} holds non-finite values")
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
    parameters passed in are rejected at construction, never at apply time.
    """

    __slots__ = ("in_channels", "out_channels", "kernel_size", "stride", "padding",
                 "weights", "bias", "bn")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, weights=None, bias=None,
                 bn: BatchNorm | None = None):
        in_channels = self.in_channels = integer(in_channels, "conv in_channels")
        out_channels = self.out_channels = integer(out_channels, "conv out_channels")
        kernel_size = self.kernel_size = integer(kernel_size, "conv kernel_size")
        stride = self.stride = integer(stride, "conv stride")
        padding = self.padding = integer(padding, "conv padding")
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError("conv dimensions must be positive (padding >= 0)")
        n_w = out_channels * in_channels * kernel_size * kernel_size
        self.weights = (np.zeros(n_w, dtype=np.float32) if weights is None else
                        np.ascontiguousarray(weights, dtype=np.float32).reshape(-1))
        if self.weights.size != n_w:
            raise ShapeError(
                f"weight length {self.weights.size} != out*in*k*k = {n_w}")
        self.bias = (np.zeros(out_channels, dtype=np.float32) if bias is None else
                     np.ascontiguousarray(bias, dtype=np.float32).reshape(-1))
        if self.bias.size != out_channels:
            raise ShapeError(f"bias length {self.bias.size} != out_channels = {out_channels}")
        # only arrays the caller passed are scanned: the zeros made here are
        # left unread, so a new graph's pages stay unmapped until written
        if weights is not None:
            _check_finite(self.weights, "conv weights hold non-finite values")
        if bias is not None:
            _check_finite(self.bias, "conv bias holds non-finite values")
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
        values alike: an (n, c, h, w) input of at least one image and
        ``in_channels`` channels whose padded sides are at least the kernel
        maps to (n, out_channels, oh, ow)."""
        n, c, h, w = shape
        if n < 1:
            raise ShapeError(f"batch size must be >= 1, got {n}")
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
    order: one ``np.einsum`` call per band of output rows where
    ``CONV_FOLD`` is "einsum", else one term per multiply and add or, on
    small maps, a chunk of terms per reduction, so the per-element fold
    order equals the scalar reference exactly.  Which elements form a block,
    the order a block adds in and the terms per numpy call depend only on
    the output shape (see ``_schedule``).  Outside the lock, a padded input
    is staged in a zeroed private array and the weights in a private (in,
    ky, kx, out) one; an unpadded input is read in place.  Each thread that
    fills a share, serial or under ``set_parallel``, writes only that share
    of the one NCHW output.
    """
    shape = params.output_shape(x.shape)
    if isinstance(x, Meta):
        return x.derive(shape, "conv", params)
    n, c, h, w = x.shape
    k, s, p = params.kernel_size, params.stride, params.padding
    fill, units = _schedule(shape)
    xp = x.array
    if p > 0:
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float32)
        xp[:, :, p:p + h, p:p + w] = x.array
    wt = params.kernel.transpose(1, 2, 3, 0).copy()  # (in, ky, kx, out)
    out = np.empty(shape, dtype=np.float32)
    with _lock:
        _split(fill, units, xp, wt, s, out)

    np.add(out, params.bias[None, :, None, None], out=out)
    if params.bn is not None:
        bn = params.bn
        scale = bn.gamma / np.sqrt(bn.running_var + np.float32(BN_EPSILON))
        np.subtract(out, bn.running_mean[None, :, None, None], out=out)
        np.multiply(out, scale[None, :, None, None], out=out)
        np.add(out, bn.beta[None, :, None, None], out=out)
    _check_finite(out, "conv2d produced non-finite values")
    return Tensor(out, _trusted=True)


def _schedule(shape) -> tuple:
    """(fill, units) for an (n, oc, oh, ow) conv output: ``conv2d`` calls
    ``fill(lo, hi, xp, wt, s, out)`` on shares of ``units`` (output channels
    for ``_fill_blocked``, else output rows) of the NCHW output ``out``.
    Each fill is looked up in the module at call time.

    Maps of at most ``CHANNEL_LAST_MAX_PIXELS`` fold channel-last, so each
    inner loop adds one term to a run of ``oc`` elements instead of the few
    pixels of one channel.  numpy sums a lone output element's terms
    pairwise, so a map whose rows hold one element each stays on the
    per-term loop.  einsum is called per image, so for it a row's elements
    are its oc * ow; with one output channel its channel-last spelling can
    leave such a lone element (on a 1x1 map), so one-channel convs fold
    NCHW.  Under the ufunc fold, maps of at most ``REDUCE_MAX_PIXELS`` add
    chunks of terms per reduction.
    """
    n, oc, oh, ow = shape
    small = oh * ow <= CHANNEL_LAST_MAX_PIXELS
    if CONV_FOLD == "einsum" and oc * ow > 1:
        spec = "yxo" if small and oc > 1 else "oyx"
        return functools.partial(_fill_einsum, spec=spec), oh
    if not small:
        return _fill_blocked, oc
    reduce = oh * ow <= REDUCE_MAX_PIXELS and n * ow * oc > 1
    return (_fold_terms if reduce else _fill_channel_last), oh


def _split(fill, total: int, xp: np.ndarray, wt: np.ndarray, s: int,
           out: np.ndarray) -> None:
    """Fill units [0, total) of ``out`` with one ``fill`` call per thread.

    The units split into one near-equal contiguous share per thread; the
    caller fills the first and the pool the others, each under the small
    ufunc buffer, whose size numpy keeps per thread.  With fewer units than
    threads the caller fills them all.  The caller waits for every share,
    also when its own raises, and then raises the first error.
    """
    shares = _workers if total >= _workers else 1
    bounds = [total * i // shares for i in range(shares + 1)]
    in_pool = _small_ufunc_buffer()(fill)
    futures = [_pool.submit(in_pool, lo, hi, xp, wt, s, out)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fill(0, bounds[1], xp, wt, s, out)
    finally:
        errors = [future.exception() for future in futures]  # waits for each share
    for error in errors:
        if error is not None:
            raise error


def _fill_einsum(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                 out: np.ndarray, spec: str) -> None:
    """Output rows [lo, hi) of the NCHW output, in bands of rows whose
    term-major columns fill about ``BAND_BYTES``, each image's band folded
    in the order ``spec`` names: "oyx" (NCHW) or "yxo" (channel-last).

    Each band's windows are gathered once into contiguous (c*k*k, n, rows,
    ow) columns, and one ``np.einsum("to,tyx->" + spec)`` per image folds
    them with the taps.  The term axis has the largest stride in both
    operands, so numpy's iterator keeps it outermost, and the axis of
    smallest output stride (a row's pixels in "oyx", the output channels in
    "yxo") becomes the inner loop, which adds one term, times a tap or a
    column value, to a contiguous run of output elements: each element
    receives its terms one at a time, in order.  Each result lands in a
    private array and is then copied, transposed to NCHW, into its rows,
    because under ``set_parallel`` shares of rows meet inside every channel
    plane, and einsum writing the shared output directly made small maps
    2-4x slower through false sharing.
    """
    n, _, _, ow = out.shape
    c, k, _, oc = wt.shape
    nchw = [spec.index(axis) for axis in "oyx"]  # spec's axes to (o, y, x)
    terms = c * k * k
    taps = wt.reshape(terms, oc)
    step = max(1, BAND_BYTES // (4 * terms * n * ow))
    buf = np.empty(terms * n * min(step, hi - lo) * ow, dtype=np.float32)
    for b in range(lo, hi, step):
        e = min(b + step, hi)
        cols = buf[:terms * n * (e - b) * ow].reshape(c, k, k, n, e - b, ow)
        # (n, c, rows, ow, ky, kx) -> (c, ky, kx, n, rows, ow)
        np.copyto(cols, _window_view(xp, k, s, b, e, ow).transpose(1, 4, 5, 0, 2, 3))
        cols = cols.reshape(terms, n, e - b, ow)
        for i in range(n):
            out[i, :, b:e] = np.einsum("to,tyx->" + spec, taps, cols[:, i]).transpose(nchw)


def _einsum_folds_in_order() -> bool:
    """Whether ``np.einsum`` as ``_fill_einsum`` calls it, with each of its
    output subscripts, folds each output element's terms as the per-term
    ufunc fold does, bit for bit.

    Two probes per subscript, on 75 output channels of 3 x 25 pixels, so
    that the inner loop runs over 75 contiguous elements (pixels or
    channels): past the widest unrolled step of numpy's vector loops, plus
    a remainder.  The terms 1 * -(1 + 2^-11) then (1 + 2^-12)^2 sum to 0
    with one rounding per multiply and per add, and to 2^-24 where multiply
    and add fuse into one rounding.  Then 64 terms with signs, mantissas and
    exponents in [-16, 16] hashed from their index, which a reordered or
    pairwise sum rounds differently.
    """
    eps = np.float32(2.0 ** -12)
    fma_taps = np.ones((2, 75), np.float32)
    fma_taps[1] = 1 + eps
    fma_cols = np.empty((2, 3, 25), np.float32)
    fma_cols[0] = -(1 + 2 * eps)
    fma_cols[1] = 1 + eps
    h = np.arange(2 * 64 * 75, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h = (h ^ h >> np.uint64(29)) * np.uint64(0xBF58476D1CE4E5B9)
    bits = (h >> np.uint64(32)).astype(np.int64)  # the best-mixed 32 bits
    mantissa = (1 + (bits & 0x7FFFFF) / 2.0 ** 23) * (1 - 2 * (bits >> 31))
    spread = np.ldexp(mantissa, (bits >> 23 & 0xFF) % 33 - 16).astype(np.float32)
    taps, cols = spread[:4800].reshape(64, 75), spread[4800:].reshape(64, 3, 25)
    want = np.zeros((75, 3, 25), np.float32)
    for tap, col in zip(taps, cols):
        np.add(want, np.multiply(tap[:, None, None], col), out=want)
    for spec in ("oyx", "yxo"):
        if np.einsum("to,tyx->" + spec, fma_taps, fma_cols).any():
            return False
        got = np.einsum("to,tyx->" + spec, taps, cols)
        laid_out = want.transpose(["oyx".index(axis) for axis in spec])
        if not np.array_equal(got.view(np.uint32), laid_out.view(np.uint32)):
            return False
    return True


# The fold conv2d runs: "einsum" where this numpy's einsum passes the probe
# for both subscripts, else "ufunc", the per-term and chunked fills below.
CONV_FOLD = "einsum" if _einsum_folds_in_order() else "ufunc"


def _fill_blocked(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                  out: np.ndarray) -> None:
    """Output channels [lo, hi) of the NCHW output, in blocks of channels
    that fill about ``ACC_BLOCK_BYTES``, each zeroed and then added into.

    Each term's strided window is copied into a contiguous buffer, so every
    product runs over a whole (oh, ow) plane.
    """
    n = xp.shape[0]
    c, k = wt.shape[:2]
    oh, ow = out.shape[2:]
    win = _window_view(xp, k, s, 0, oh, ow)
    step = max(1, ACC_BLOCK_BYTES // (4 * n * oh * ow))
    col = np.empty((n, 1, oh, ow), dtype=np.float32)
    for b in range(lo, hi, step):
        e = min(b + step, hi)
        acc = out[:, b:e]
        acc.fill(0)
        tmp = np.empty_like(acc)
        for ci, ky, kx in np.ndindex(c, k, k):
            col[:, 0] = win[:, ci, :, :, ky, kx]
            np.multiply(col, wt[ci, ky, kx, b:e, None, None], out=tmp)
            np.add(acc, tmp, out=acc)


def _fill_channel_last(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                       out: np.ndarray) -> None:
    """Output rows [lo, hi) of the NCHW output, folded in a private zeroed
    (n, rows, ow, oc) array, one multiply and add per term, then transposed."""
    c, k, _, oc = wt.shape
    win = _window_view(xp, k, s, lo, hi, out.shape[3])
    acc = np.zeros((xp.shape[0], hi - lo, out.shape[3], oc), dtype=np.float32)
    tmp = np.empty_like(acc)
    for ci, ky, kx in np.ndindex(c, k, k):
        np.multiply(win[:, ci, :, :, ky, kx, None], wt[ci, ky, kx], out=tmp)
        np.add(acc, tmp, out=acc)
    out[:, :, lo:hi] = acc.transpose(0, 3, 1, 2)


def _fold_terms(lo: int, hi: int, xp: np.ndarray, wt: np.ndarray, s: int,
                out: np.ndarray) -> None:
    """Output rows [lo, hi) of the NCHW output, folded in a private zeroed
    (n, rows, ow, oc) array a chunk of terms at a time, whose products fill
    about ``REDUCE_CHUNK_BYTES`` per step, then written transposed.

    Row 0 of the chunk buffer holds the running sums and each further row one
    term's products, so ``np.add.reduce`` over axis 0 adds the terms to each
    element one at a time and in order, as long as the rows have more than
    one element.
    """
    c, k, _, oc = wt.shape
    terms = c * k * k
    acc = np.zeros((xp.shape[0], hi - lo, out.shape[3], oc), dtype=np.float32)
    # every term's window at once: (n, c, rows, ow, ky, kx) -> (c, ky, kx, n, rows, ow)
    win = _window_view(xp, k, s, lo, hi, out.shape[3])
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape((terms,) + acc.shape[:3] + (1,))
    taps = wt.reshape(terms, 1, 1, 1, -1)
    step = max(1, REDUCE_CHUNK_BYTES // (4 * acc.size))
    buf = np.empty((min(step, terms) + 1,) + acc.shape, dtype=np.float32)
    for t in range(0, terms, step):
        m = min(step, terms - t)
        buf[0] = acc
        np.multiply(cols[t:t + m], taps[t:t + m], out=buf[1:m + 1])
        np.add.reduce(buf[:m + 1], axis=0, out=acc)
    out[:, :, lo:hi] = acc.transpose(0, 3, 1, 2)


def _window_view(a: np.ndarray, k: int, s: int, lo: int, hi: int, ow: int) -> np.ndarray:
    """The k x k windows at stride ``s`` over the last two axes of ``a`` that
    make output rows [lo, hi) and columns [0, ow): a view of shape
    ``a.shape[:-2] + (hi - lo, ow, k, k)``."""
    win = np.lib.stride_tricks.sliding_window_view(a, (k, k), axis=(-2, -1))
    return win[..., s * lo:s * hi:s, :s * ow:s, :, :]


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
    k, s = integer(k, "pool kernel"), integer(s, "pool stride")
    if k < 1 or s < 1:
        raise ValueError("pool kernel and stride must be >= 1")
    n, c, h, w = x.shape
    if h < k or w < k:
        raise ShapeError(f"spatial dims ({h}, {w}) smaller than pool kernel {k}")
    oh, ow = conv_out_size(h, k, s, 0), conv_out_size(w, k, s, 0)
    if isinstance(x, Meta):
        return x.derive((n, c, oh, ow), "pool", k)
    win = _window_view(x.array, k, s, 0, oh, ow)
    acc = _fold([win[..., ky, kx] for ky, kx in np.ndindex(k, k)], kind)
    _check_finite(acc, "pool2d produced non-finite values")
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
    _check_finite(out, "add produced non-finite values")
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
    _check_finite(out, "broadcast_mul produced non-finite values")
    return Tensor(out, _trusted=True)


def global_pool(x: Tensor, kind: str, axis) -> Tensor:
    """Global max or average reduction.  ``axis=(2, 3)`` folds each
    channel's pixels, in row-major order, to (n, c, 1, 1); ``axis=1`` folds
    each pixel's channels, in order, to (n, 1, h, w)."""
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    n, c, h, w = x.shape
    over_pixels = isinstance(axis, tuple) and axis == (2, 3)
    if not over_pixels and (isinstance(axis, tuple) or integer(axis, "global_pool axis") != 1):
        raise ValueError(f"global_pool axis must be (2, 3) or 1, got {axis!r}")
    if min(n, c, h, w) == 0:
        raise ShapeError("global_pool needs a non-empty tensor")
    shape = (n, c, 1, 1) if over_pixels else (n, 1, h, w)
    if isinstance(x, Meta):
        return x.derive(shape)
    if over_pixels:
        views = np.moveaxis(x.array.reshape(n, c, h * w), 2, 0)
    else:
        views = np.moveaxis(x.array, 1, 0)
    return Tensor(_fold(views, kind).reshape(shape), _trusted=True)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Replicate every pixel into a 2x2 block: out[..., i, j] = in[..., i//2, j//2]."""
    if isinstance(x, Meta):
        n, c, h, w = x.shape
        return x.derive((n, c, 2 * h, 2 * w))
    out = np.repeat(np.repeat(x.array, 2, axis=2), 2, axis=3)
    return Tensor(out, _trusted=True)
