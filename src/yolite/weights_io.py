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


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; return (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return state, z ^ (z >> 31)


class XoshiroLanes:
    """xoshiro256** advanced across independent lanes in lockstep.

    Lane states come from one splitmix64 stream (lane-major order); outputs
    are emitted round-robin across lanes, one generator step at a time.  The
    lane count is part of the output contract and must not change.
    """

    LANES = 256

    def __init__(self, seed: int):
        state = seed & _U64
        words = []
        for _ in range(4 * self.LANES):
            state, z = _splitmix64(state)
            words.append(z)
        arr = np.array(words, dtype=np.uint64).reshape(self.LANES, 4)
        self.s = [arr[:, i].copy() for i in range(4)]

    @staticmethod
    def _rotl(x: np.ndarray, k: int) -> np.ndarray:
        return (x << np.uint64(k)) | (x >> np.uint64(64 - k))

    def next_block(self) -> np.ndarray:
        """One output per lane, advancing every lane one step."""
        s0, s1, s2, s3 = self.s
        result = self._rotl(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = self._rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def uniform(self, count: int) -> np.ndarray:
        """``count`` doubles in [0, 1): the top 53 bits of each output."""
        steps = -(-count // self.LANES)
        blocks = np.empty((steps, self.LANES), dtype=np.uint64)
        for i in range(steps):
            blocks[i] = self.next_block()
        bits = blocks.reshape(-1)[:count]
        return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


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
    result depends only on (seed, layer table).
    """
    master = seed & _U64
    for _, p in N.iter_conv_entries(g):
        master, sub_seed = _splitmix64(master)
        rng = XoshiroLanes(sub_seed)
        bound = np.sqrt(2.0 / (p.kernel_size ** 2 * p.in_channels))
        u = rng.uniform(p.weights.size)
        p.weights[:] = ((2.0 * u - 1.0) * bound).astype(np.float32)
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
        for arr in _param_arrays(p):
            h.update(arr.astype("<f4").tobytes())
    return h.hexdigest()


def tensor_checksum(t: T.Tensor) -> str:
    """SHA-256 of a tensor's raw little-endian float32 storage."""
    return hashlib.sha256(t.array.astype("<f4").tobytes()).hexdigest()


def _param_arrays(p: T.ConvParams) -> list[np.ndarray]:
    if p.bn is None:
        empty = np.zeros(0, dtype=np.float32)
        return [p.weights, p.bias, empty, empty, empty, empty]
    return [p.weights, p.bias, p.bn.gamma, p.bn.beta,
            p.bn.running_mean, p.bn.running_var]


def save(g: N.NetworkGraph, path) -> None:
    """Write all parameters to ``path`` in the format described above."""
    entries = N.iter_conv_entries(g)
    chunks = [MAGIC, struct.pack("<IQI", FORMAT_VERSION, fingerprint(g), len(entries))]
    for entry_id, p in entries:
        ident = entry_id.encode("utf-8")
        arrays = _param_arrays(p)
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
        expected = [a.size for a in _param_arrays(p)]
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

    for (entry_id, p), arrays in zip(entries, staged):
        p.weights[:] = arrays[0]
        p.bias[:] = arrays[1]
        if p.bn is not None:
            p.bn.gamma[:] = arrays[2]
            p.bn.beta[:] = arrays[3]
            p.bn.running_mean[:] = arrays[4]
            p.bn.running_var[:] = arrays[5]
