"""Deterministic fixture-weight generation and the binary weight-file format.

No pretrained weights exist for this artifact, so reproducible synthetic
weights stand in for them: a splitmix64-seeded xoshiro256** generator fills
every convolution, giving bit-identical parameters for a given seed on any
platform (the generator is pure integer arithmetic).

File format ("YLTW", little-endian throughout):

    magic            4 bytes  b"YLTW"
    version          u32      currently 1
    fingerprint      u64      FNV-1a hash of the target graph's layer table
    layer_count      u32      number of convolution entries
    per entry, in topological order:
        id_len       u16      entry id byte length
        id           bytes    UTF-8 entry id
        lengths      6 x u32  weights, bias, gamma, beta, running_mean,
                              running_var element counts (0 = absent)
        arrays                the declared elements as float32

Loading is all-or-nothing: the file is read front to back into new arrays,
validated against the graph, and every array checked for finite values (and
non-negative running variances), before the new arrays replace the graph's.
"""

from __future__ import annotations

import functools
import hashlib
import struct

import numpy as np

from . import network as N
from . import tensor as T
from .errors import (ArrayLengthError, BadMagicError, ConfigError, FingerprintMismatchError,
                     TruncatedFileError, UnsupportedVersionError, WeightFileError, integer)

MAGIC = b"YLTW"
FORMAT_VERSION = 1

_U64 = (1 << 64) - 1

_ARRAY_NAMES = ("weights", "bias", "gamma", "beta", "running_mean", "running_var")


# xoshiro256** runs across LANES independent lanes, stepped together; the
# lane count is part of the output contract and must not change.
LANES = 256
# Raw xoshiro outputs are buffered and scrambled in blocks of rows of about
# this many bytes, so seeding memory does not grow with the layer sizes.
_ROW_BUFFER_BYTES = 8 << 20
# Each stream is stepped in segments of this many rows, each started from the
# stream's state jumped ahead exactly, so the loop runs at most this many rows.
_SEGMENT_ROWS = 1152


def _splitmix64(seeds, count: int) -> np.ndarray:
    """The first ``count`` splitmix64 outputs of each seed's stream (shape
    ``seeds.shape + (count,)``).  Output i is a fixed mix of
    seed + (i+1)*gamma mod 2**64, so no state is carried between outputs."""
    z = np.asarray(seeds, dtype=np.uint64)[..., None] + (
        np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _step(a, b, c, d, e) -> None:
    """One xoshiro256** step of every lane, in place: ``a..d`` are the lanes'
    four state words and ``e`` is scratch of the same size."""
    np.left_shift(b, 17, out=e)
    np.bitwise_xor(c, a, out=c)
    np.bitwise_xor(d, b, out=d)
    np.bitwise_xor(b, c, out=b)
    np.bitwise_xor(a, d, out=a)
    np.bitwise_xor(c, e, out=c)
    np.left_shift(d, 45, out=e)
    np.right_shift(d, 19, out=d)
    np.bitwise_or(d, e, out=d)


def _bits(states) -> np.ndarray:
    """The 256 state bits of each lane in ``states`` (shape (m, 4), uint64) as
    float32 0/1 rows; ``_unbits`` is the inverse."""
    return np.unpackbits(states.view(np.uint8), axis=1).astype(np.float32)


def _unbits(bits) -> np.ndarray:
    return np.packbits(bits.astype(np.uint8), axis=1).view(np.uint64)


def _mod2(product) -> np.ndarray:
    """A float32 product of 0/1 matrices, mod 2.  The product is exact, every
    sum being at most 256."""
    return (product.astype(np.int16) & 1).astype(np.float32)


@functools.lru_cache(maxsize=None)
def _jump_matrix(steps: int) -> np.ndarray:
    """The 256x256 bit matrix J with ``_bits(s) @ J`` = the bits of s advanced
    ``steps`` steps, mod 2.  xoshiro256** is linear over GF(2), so one step is
    the matrix whose row j is one step of the j-th unit state, and J is its
    power by squaring."""
    words = np.ascontiguousarray(_unbits(np.eye(256)).T)
    _step(*words, np.empty_like(words[0]))
    base, jump = _bits(np.ascontiguousarray(words.T)), np.eye(256, dtype=np.float32)
    while steps:
        if steps & 1:
            jump = _mod2(jump @ base)
        base = _mod2(base @ base)
        steps >>= 1
    return jump


def _jump(states, steps: int) -> np.ndarray:
    """Lane states (shape (m, 4), uint64) advanced ``steps`` steps."""
    return _unbits(_mod2(_bits(states) @ _jump_matrix(steps)))


def _uniform(seeds, counts):
    """Uniform 53-bit integers from xoshiro256** over LANES lanes per stream.

    Stream i draws ``counts[i]`` values from its own lanes, whose states are
    4*LANES splitmix64 words of ``seeds[i]``, four per lane in lane-major
    order; its outputs go round-robin across its lanes, one step per row, and
    each keeps its top 53 bits.  Each stream is cut into segments of
    ``_SEGMENT_ROWS`` rows (the last may be shorter); segment k starts from
    the stream's lanes jumped ahead k*_SEGMENT_ROWS steps, and the lanes of
    every segment of every stream step together, so the loop runs as many
    rows as the tallest segment.  Yields ``(i, start, values)``: stream i's
    values from index ``start`` on, in row blocks that keep the raw-output
    buffer near ``_ROW_BUFFER_BYTES``.
    """
    counts = [int(c) for c in counts]
    heights = [-(-c // LANES) for c in counts]
    size = _SEGMENT_ROWS
    # (stream, first row, rows) per segment, and the lanes each starts from
    segments, starts = [], []
    lanes = _splitmix64(np.asarray(seeds, dtype=np.uint64).reshape(-1), 4 * LANES)
    for i, state in enumerate(lanes.reshape(-1, LANES, 4)):
        for first in range(0, heights[i], size):
            if first:
                state = _jump(state, size)
            segments.append((i, first, min(size, heights[i] - first)))
            starts.append(state)
    # Tallest segments first, so the columns still stepping are always a prefix.
    order = sorted(range(len(segments)), key=lambda j: -segments[j][2])
    segments = [segments[j] for j in order]
    live = [h for _, _, h in segments]
    lanes = np.concatenate([starts[j] for j in order])
    s0, s1, s2, s3 = np.ascontiguousarray(lanes.T)
    t = np.empty_like(s1)
    chunk = max(1, _ROW_BUFFER_BYTES // s1.nbytes)
    rows = np.empty((chunk, s1.size), dtype=np.uint64)
    for top in range(0, live[0], chunk):
        bottom = min(top + chunk, live[0])
        r = top
        while r < bottom:
            n = sum(h > r for h in live)  # segments still stepping at row r
            stop = min(bottom, live[n - 1])
            a, b, c, d, e = (v[:n * LANES] for v in (s0, s1, s2, s3, t))
            for row in rows[r - top:stop - top, :n * LANES]:
                np.copyto(row, b)  # keep s1 for the scrambler
                _step(a, b, c, d, e)
            r = stop
        for j, (i, first, height) in enumerate(segments):
            if height <= top:
                break
            # scramble: rotl(s1 * 5, 7) * 9, keeping the top 53 bits
            x = rows[:min(bottom, height) - top, j * LANES:(j + 1) * LANES] * np.uint64(5)
            y = x >> np.uint64(57)
            x <<= np.uint64(7)
            x |= y
            x *= np.uint64(9)
            x >>= np.uint64(11)
            start = (first + top) * LANES
            yield i, start, x.reshape(-1)[:counts[i] - start]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _U64
    return h


def fingerprint(g: N.NetworkGraph) -> int:
    """Hash of the graph's convolution layer table; load-time compatibility check."""
    parts = []
    for entry_id, p in N.iter_conv_entries(g):
        parts.append(f"{entry_id}:{p.in_channels}:{p.out_channels}:{p.kernel_size}"
                     f":{p.stride}:{p.padding}:{1 if p.bn is not None else 0}")
    return fnv1a64("|".join(parts).encode("utf-8"))


def init_seeded(g: N.NetworkGraph, seed: int) -> None:
    """Fill every convolution with reproducible weights.

    Weights are uniform in (-b, b) with b = sqrt(2 / (k*k*c_in)); biases are
    zero; batch-norm starts as the identity affine.  Each entry draws from
    its own generator, sub-seeded from one master splitmix64 stream, so the
    result depends only on (seed, layer table).  The entries' generators
    step together in one ``_uniform`` call, which hands the weights over in
    row blocks that are scaled and written in place.  A seed that is not an
    integer in [0, 2**64) (``bool`` excluded; numpy integers are accepted)
    raises ``ConfigError`` and writes nothing.
    """
    seed = integer(seed, "seed", ConfigError)
    if not 0 <= seed <= _U64:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    params = [p for _, p in N.iter_conv_entries(g)]
    bounds = [np.sqrt(2.0 / (p.kernel_size ** 2 * p.in_channels)) for p in params]
    sub_seeds = _splitmix64(seed, len(params))
    for i, start, k in _uniform(sub_seeds, [p.weights.size for p in params]):
        # 2u - 1 = (k - 2**52) * 2**-52 exactly for u = k * 2**-53, so this
        # rounds the same real (2u - 1) * b to float64, then to float32
        np.multiply(np.subtract(k, 2.0 ** 52), bounds[i] * 2.0 ** -52,
                    out=params[i].weights[start:start + k.size])
    for p in params:
        p.bias[:] = 0.0
        if p.bn is not None:
            p.bn.gamma[:] = 1.0
            p.bn.beta[:] = 0.0
            p.bn.running_mean[:] = 0.0
            p.bn.running_var[:] = 1.0


def _le_f4(a: np.ndarray) -> np.ndarray:
    """``a`` as C-contiguous little-endian float32, without a copy when it is
    one already (every parameter and tensor array is, on a little-endian
    machine), so its buffer can be hashed or written as it stands."""
    return np.ascontiguousarray(a, dtype="<f4")


def params_checksum(g: N.NetworkGraph) -> str:
    """SHA-256 over every parameter array, in canonical order."""
    h = hashlib.sha256()
    for entry_id, p in N.iter_conv_entries(g):
        h.update(entry_id.encode("utf-8"))
        for arr in p.arrays():
            h.update(_le_f4(arr))
    return h.hexdigest()


def tensor_checksum(t: T.Tensor) -> str:
    """SHA-256 of a tensor's raw little-endian float32 storage."""
    return hashlib.sha256(_le_f4(t.array)).hexdigest()


def save(g: N.NetworkGraph, path) -> None:
    """Write all parameters to ``path`` in the format described above.

    Each array is written straight from its own buffer, so saving holds no
    copy of the weights.  A write that fails part-way leaves a partial file.
    """
    entries = N.iter_conv_entries(g)
    header = MAGIC + struct.pack("<IQI", FORMAT_VERSION, fingerprint(g), len(entries))
    with open(path, "wb") as fh:
        fh.write(header)
        for entry_id, p in entries:
            ident = entry_id.encode("utf-8")
            arrays = p.arrays()
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<6I", *(a.size for a in arrays)))
            for a in arrays:
                fh.write(_le_f4(a))


class _Reader:
    """Reads an open file front to back, raising ``TruncatedFileError`` at
    its end; ``pos`` counts the bytes read so far."""

    def __init__(self, fh):
        self.fh = fh
        self.pos = 0
        self.layer_id: str | None = None

    def fill(self, buf) -> None:
        """Fill ``buf`` with the next ``len(buf)`` bytes, looping over short
        reads (a pipe returns what it holds)."""
        view = memoryview(buf).cast("B")
        got = 0
        while got < len(view):
            n = self.fh.readinto(view[got:])
            if not n:
                raise TruncatedFileError(
                    f"file ends at byte {self.pos + got}, needed {self.pos + len(view)}",
                    layer_id=self.layer_id)
            got += n
        self.pos += got

    def take(self, n: int) -> bytearray:
        buf = bytearray(n)
        self.fill(buf)
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, n: int) -> np.ndarray:
        """The next ``n`` little-endian float32 values, read straight into a
        new array (converted to native order only on a big-endian machine)."""
        arr = np.empty(n, dtype="<f4")
        self.fill(arr)
        return arr.astype(np.float32, copy=False)

    def rest(self) -> int:
        """Read to the end of the file and return how many bytes were left."""
        chunk, left = bytearray(1 << 16), 0
        while n := self.fh.readinto(chunk):
            left += n
        return left


def _read_checked(rd: _Reader, g: N.NetworkGraph) -> list:
    """Each entry's ``ConvParams`` and its six new arrays, read from ``rd``
    to the file's end and checked against the graph; see ``load``."""
    if rd.take(4) != MAGIC:
        raise BadMagicError("not a YLTW weight file")
    version, fp, count = rd.unpack("<IQI")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"format version {version} unsupported")
    if fp != fingerprint(g):
        raise FingerprintMismatchError(
            f"file fingerprint {fp:#018x} does not match graph {fingerprint(g):#018x}")
    entries = N.iter_conv_entries(g)
    if count != len(entries):
        raise ArrayLengthError(f"file declares {count} layers, graph has {len(entries)}")

    staged = []
    for entry_id, p in entries:
        (id_len,) = rd.unpack("<H")
        ident = rd.take(id_len)
        if ident != entry_id.encode("utf-8"):
            raise ArrayLengthError(f"layer id {ident.decode('utf-8', 'replace')!r} "
                                   f"does not match expected {entry_id!r}")
        rd.layer_id = entry_id
        lengths = rd.unpack("<6I")
        expected = [a.size for a in p.arrays()]
        if list(lengths) != expected:
            raise ArrayLengthError(
                f"layer {entry_id!r} declares array lengths {list(lengths)}, expected {expected}")
        arrays = []
        for name, n in zip(_ARRAY_NAMES, lengths):
            arr = rd.floats(n)
            if not np.isfinite(arr).all():
                raise WeightFileError(f"layer {entry_id!r}: {name} holds non-finite values")
            arrays.append(arr)
        if (arrays[5] < 0).any():
            raise WeightFileError(f"layer {entry_id!r}: running_var entries must be >= 0")
        staged.append((p, arrays))
    if left := rd.rest():
        raise ArrayLengthError(f"{left} unexpected trailing bytes")
    return staged


def load(g: N.NetworkGraph, path) -> None:
    """Read ``path`` into the graph's parameters.

    The file is read once, front to back, each array straight into a new
    parameter array, so no copy of the file is held.  Raises a distinct
    error per failure mode (bad magic, unknown version, fingerprint
    mismatch, truncation, array-length mismatch; a plain ``WeightFileError``
    for non-finite values or a negative running variance) and leaves the
    graph untouched unless every check passes.  Then the new arrays replace
    the graph's own: arrays taken from the graph before the load keep the
    old values.
    """
    with open(path, "rb") as fh:
        staged = _read_checked(_Reader(fh), g)
    for p, (weights, bias, *bn) in staged:
        p.weights, p.bias = weights, bias
        if p.bn is not None:
            p.bn.gamma, p.bn.beta, p.bn.running_mean, p.bn.running_var = bn
