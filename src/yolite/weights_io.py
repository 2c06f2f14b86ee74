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

Loading is all-or-nothing: the whole file is parsed and validated against the
graph, and every array checked for finite values (and non-negative running
variances), before any parameter array is touched.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from . import network as N
from . import tensor as T
from .errors import (ArrayLengthError, BadMagicError, FingerprintMismatchError,
                     TruncatedFileError, UnsupportedVersionError, WeightFileError)

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


def _splitmix64(seeds, count: int) -> np.ndarray:
    """The first ``count`` splitmix64 outputs of each seed's stream (shape
    ``seeds.shape + (count,)``).  Output i is a fixed mix of
    seed + (i+1)*gamma mod 2**64, so no state is carried between outputs."""
    z = np.asarray(seeds, dtype=np.uint64)[..., None] + (
        np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _uniform(seeds, counts):
    """Doubles in [0, 1) from xoshiro256** over LANES lanes per stream.

    Stream i draws ``counts[i]`` doubles from its own lanes, whose states are
    4*LANES splitmix64 words of ``seeds[i]``, four per lane in lane-major
    order; its outputs go round-robin across its lanes, one step per row, and
    each keeps its top 53 bits.  All streams' lanes step together, so the
    loop runs as many rows as the tallest stream.  Yields ``(i, start,
    values)``: stream i's doubles from index ``start`` on, in row blocks that
    keep the raw-output buffer near ``_ROW_BUFFER_BYTES``.
    """
    counts = [int(c) for c in counts]
    heights = [-(-c // LANES) for c in counts]
    # Tallest streams first, so the columns still stepping are always a prefix.
    order = sorted(range(len(counts)), key=lambda i: -heights[i])
    live = [heights[i] for i in order]
    words = _splitmix64(np.asarray(seeds, dtype=np.uint64).reshape(-1)[order], 4 * LANES)
    s0, s1, s2, s3 = np.ascontiguousarray(words.reshape(-1, 4).T)
    t = np.empty_like(s1)
    chunk = max(1, _ROW_BUFFER_BYTES // s1.nbytes)
    rows = np.empty((chunk, s1.size), dtype=np.uint64)
    for top in range(0, live[0], chunk):
        bottom = min(top + chunk, live[0])
        r = top
        while r < bottom:
            n = sum(h > r for h in live)  # streams still stepping at row r
            stop = min(bottom, live[n - 1])
            a, b, c, d, e = (v[:n * LANES] for v in (s0, s1, s2, s3, t))
            for row in rows[r - top:stop - top, :n * LANES]:
                # keep s1 for the scrambler, then advance the state in place
                np.copyto(row, b)
                np.left_shift(b, 17, out=e)
                np.bitwise_xor(c, a, out=c)
                np.bitwise_xor(d, b, out=d)
                np.bitwise_xor(b, c, out=b)
                np.bitwise_xor(a, d, out=a)
                np.bitwise_xor(c, e, out=c)
                np.left_shift(d, 45, out=e)
                np.right_shift(d, 19, out=d)
                np.bitwise_or(d, e, out=d)
            r = stop
        for j, i in enumerate(order):
            if live[j] <= top:
                break
            # scramble: rotl(s1 * 5, 7) * 9, keeping the top 53 bits
            x = rows[:min(bottom, live[j]) - top, j * LANES:(j + 1) * LANES] * np.uint64(5)
            y = x >> np.uint64(57)
            x <<= np.uint64(7)
            x |= y
            x *= np.uint64(9)
            x >>= np.uint64(11)
            u = x.reshape(-1)[:counts[i] - top * LANES].astype(np.float64)
            u *= 2.0 ** -53
            yield i, top * LANES, u


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
    row blocks that are scaled and written in place.
    """
    params = [p for _, p in N.iter_conv_entries(g)]
    bounds = [np.sqrt(2.0 / (p.kernel_size ** 2 * p.in_channels)) for p in params]
    sub_seeds = _splitmix64(seed & _U64, len(params))
    for i, start, u in _uniform(sub_seeds, [p.weights.size for p in params]):
        params[i].weights[start:start + u.size] = ((2.0 * u - 1.0) * bounds[i]).astype(np.float32)
    for p in params:
        p.bias[:] = 0.0
        if p.bn is not None:
            p.bn.gamma[:] = 1.0
            p.bn.beta[:] = 0.0
            p.bn.running_mean[:] = 0.0
            p.bn.running_var[:] = 1.0


def params_checksum(g: N.NetworkGraph) -> str:
    """SHA-256 over every parameter array, in canonical order."""
    h = hashlib.sha256()
    for entry_id, p in N.iter_conv_entries(g):
        h.update(entry_id.encode("utf-8"))
        for arr in p.arrays():
            h.update(arr.astype("<f4").tobytes())
    return h.hexdigest()


def tensor_checksum(t: T.Tensor) -> str:
    """SHA-256 of a tensor's raw little-endian float32 storage."""
    return hashlib.sha256(t.array.astype("<f4").tobytes()).hexdigest()


def save(g: N.NetworkGraph, path) -> None:
    """Write all parameters to ``path`` in the format described above."""
    entries = N.iter_conv_entries(g)
    chunks = [MAGIC, struct.pack("<IQI", FORMAT_VERSION, fingerprint(g), len(entries))]
    for entry_id, p in entries:
        ident = entry_id.encode("utf-8")
        arrays = p.arrays()
        chunks.append(struct.pack("<H", len(ident)))
        chunks.append(ident)
        chunks.append(struct.pack("<6I", *(a.size for a in arrays)))
        for a in arrays:
            chunks.append(a.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.layer_id: str | None = None

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"file ends at byte {len(self.data)}, needed {self.pos + n}",
                layer_id=self.layer_id)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load(g: N.NetworkGraph, path) -> None:
    """Read ``path`` into the graph's parameters.

    Raises a distinct error per failure mode (bad magic, unknown version,
    fingerprint mismatch, truncation, array-length mismatch; a plain
    ``WeightFileError`` for non-finite values or a negative running variance)
    and leaves the graph untouched unless every check passes.
    """
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
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
            arr = np.frombuffer(rd.take(4 * n), dtype="<f4").astype(np.float32)
            if not np.isfinite(arr).all():
                raise WeightFileError(f"layer {entry_id!r}: {name} holds non-finite values")
            arrays.append(arr)
        if (arrays[5] < 0).any():
            raise WeightFileError(f"layer {entry_id!r}: running_var entries must be >= 0")
        staged.append(arrays)
    if rd.pos != len(rd.data):
        raise ArrayLengthError(f"{len(rd.data) - rd.pos} unexpected trailing bytes")

    for (_, p), arrays in zip(entries, staged):
        for dst, src in zip(p.arrays(), arrays):
            dst[:] = src
