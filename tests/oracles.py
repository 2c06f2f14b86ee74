"""Naive scalar reference implementations used as independent test oracles.

Everything here is deliberately unoptimized: explicit Python loops over
single elements, single-precision scalar arithmetic (one rounding per
multiply and per add), accumulation with the input channel as the slow index
and the kernel window row-major within it.  The fast implementations are
required to match these references bit for bit where the module contracts
say so.  None of this code is shared with the package, except that
`nms_scalar` measures overlap with `detect.iou`, the IoU the contract names,
and `flops_rows_per_node` runs the package's node forwards (`network.OPS`)
on shape-only `tensor.Meta` values.
"""

import math

import numpy as np

from yolite import blocks as B
from yolite import network as N
from yolite import tensor as T
from yolite.detect import iou

f32 = np.float32


def conv2d_naive(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                 stride: int, padding: int, bn=None) -> np.ndarray:
    """Six-nested-loop direct convolution.  bn = (gamma, beta, mean, var, eps)."""
    n, c, h, w = x.shape
    oc, ic, k, _ = kernel.shape
    assert c == ic
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float32)
    for bi in range(n):
        for oci in range(oc):
            for oy in range(oh):
                for ox in range(ow):
                    acc = f32(0.0)
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                prod = xp[bi, ci, oy * stride + ky, ox * stride + kx] * kernel[oci, ci, ky, kx]
                                acc = acc + prod
                    acc = acc + bias[oci]
                    if bn is not None:
                        gamma, beta, mean, var, eps = bn
                        scale = gamma[oci] / f32(np.sqrt(var[oci] + f32(eps)))
                        acc = (acc - mean[oci]) * scale + beta[oci]
                    out[bi, oci, oy, ox] = acc
    return out


def pool2d_naive(x: np.ndarray, kind: str, k: int, s: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    out = np.zeros((n, c, oh, ow), dtype=np.float32)
    for bi in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    acc = x[bi, ci, oy * s, ox * s]
                    for ky in range(k):
                        for kx in range(k):
                            if ky == 0 and kx == 0:
                                continue
                            v = x[bi, ci, oy * s + ky, ox * s + kx]
                            acc = max(acc, v) if kind == "max" else acc + v
                    if kind == "avg":
                        acc = acc / f32(k * k)
                    out[bi, ci, oy, ox] = acc
    return out


def channel_pool_naive(x: np.ndarray, kind: str) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=np.float32)
    for bi in range(n):
        for ci in range(c):
            acc = x[bi, ci, 0, 0]
            for i in range(1, h * w):
                v = x[bi, ci, i // w, i % w]
                acc = max(acc, v) if kind == "max" else acc + v
            if kind == "avg":
                acc = acc / f32(h * w)
            out[bi, ci, 0, 0] = acc
    return out


def spatial_pool_naive(x: np.ndarray, kind: str) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, 1, h, w), dtype=np.float32)
    for bi in range(n):
        for y in range(h):
            for xx in range(w):
                acc = x[bi, 0, y, xx]
                for ci in range(1, c):
                    v = x[bi, ci, y, xx]
                    acc = max(acc, v) if kind == "max" else acc + v
                if kind == "avg":
                    acc = acc / f32(c)
                out[bi, 0, y, xx] = acc
    return out


def upsample2x_naive(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=np.float32)
    for bi in range(n):
        for ci in range(c):
            for y in range(2 * h):
                for xx in range(2 * w):
                    out[bi, ci, y, xx] = x[bi, ci, y // 2, xx // 2]
    return out


def broadcast_mul_naive(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    n, c, h, w = a.shape
    mn, mc, mh, mw = m.shape
    out = np.zeros_like(a)
    for bi in range(n):
        for ci in range(c):
            for y in range(h):
                for xx in range(w):
                    out[bi, ci, y, xx] = a[bi, ci, y, xx] * m[
                        bi, ci if mc > 1 else 0, y if mh > 1 else 0, xx if mw > 1 else 0]
    return out


def add_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    flat_a, flat_b, flat_o = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    for i in range(flat_a.size):
        flat_o[i] = flat_a[i] + flat_b[i]
    return out


def sigmoid_scalar(v: float) -> float:
    """Double-precision logistic used by the transcription oracles, nudged
    off the closed endpoints (the published decode semantics)."""
    if v >= 0:
        out = 1.0 / (1.0 + math.exp(-v))
    else:
        ez = math.exp(v)
        out = ez / (1.0 + ez)
    return min(max(out, 5e-324), 1.0 - 2.0 ** -53)


def decode_naive(head: np.ndarray, anchors, input_size: int):
    """Per-element transcription of the grid/anchor box transform.

    Returns a list of (cx, cy, w, h, objectness, class_id, class_prob) tuples
    in (row, column, anchor) emission order.
    """
    _, ch, s, _ = head.shape
    b = len(anchors)
    nc = ch // b - 5
    cell = input_size / s
    out = []
    for gy in range(s):
        for gx in range(s):
            for ai in range(b):
                base = ai * (5 + nc)
                tx = float(head[0, base + 0, gy, gx])
                ty = float(head[0, base + 1, gy, gx])
                tw = float(head[0, base + 2, gy, gx])
                th = float(head[0, base + 3, gy, gx])
                to = float(head[0, base + 4, gy, gx])
                cx = (sigmoid_scalar(tx) + gx) * cell
                cy = (sigmoid_scalar(ty) + gy) * cell
                bw = anchors[ai][0] * math.exp(tw)
                bh = anchors[ai][1] * math.exp(th)
                obj = sigmoid_scalar(to)
                best_c, best_p = 0, -1.0
                for ci in range(nc):
                    p = sigmoid_scalar(float(head[0, base + 5 + ci, gy, gx]))
                    if p > best_p:
                        best_c, best_p = ci, p
                out.append((cx, cy, bw, bh, obj, best_c, best_p))
    return out


def iou_corners(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def nms_naive(dets, conf_thresh: float, iou_thresh: float):
    """Quadratic reference suppression over (corners, class_id, confidence, idx)."""
    kept_in = [d for d in dets if d[2] > conf_thresh]
    order = sorted(kept_in, key=lambda d: (-d[2], d[1], d[3]))
    kept = []
    for cand in order:
        ok = True
        for prev in kept:
            if prev[1] == cand[1] and iou_corners(prev[0], cand[0]) > iou_thresh:
                ok = False
                break
        if ok:
            kept.append(cand)
    return kept


def nms_scalar(dets, conf_thresh: float = 0.25, iou_thresh: float = 0.45):
    """Scalar greedy per-class suppression over `detect.Detection` lists.

    The loop `detect.filter_and_nms` replaced, kept as its exact reference:
    unlike `nms_naive` it takes areas from `Box.area` (w*h) through
    `detect.iou`, so IoU ties at the threshold resolve bit for bit.
    """
    survivors = [(d.confidence, d.class_id, idx, d)
                 for idx, d in enumerate(dets) if d.confidence > conf_thresh]
    survivors.sort(key=lambda item: (-item[0], item[1], item[2]))
    kept = []
    for _, _, _, cand in survivors:
        suppressed = any(prev.class_id == cand.class_id
                         and iou(prev.box, cand.box) > iou_thresh
                         for prev in kept)
        if not suppressed:
            kept.append(cand)
    return kept


def cbam_naive(x: np.ndarray, fc1_w, fc1_b, fc2_w, fc2_b, sp_w, sp_b) -> np.ndarray:
    """Literal transcription of sequential channel and spatial attention.

    Channel map: sigmoid(MLP(global avg) + MLP(global max)) with a shared
    two-layer MLP (ReLU between).  Spatial map: sigmoid of a 7x7 convolution
    over the channelwise [max; avg] maps.  Computed in double precision,
    so callers compare with a small relative tolerance.
    """
    n, c, h, w = x.shape
    x64 = x.astype(np.float64)
    r = fc1_w.shape[0]
    out = np.zeros_like(x64)
    for bi in range(n):
        avg_v = np.array([x64[bi, ci].mean() for ci in range(c)])
        max_v = np.array([x64[bi, ci].max() for ci in range(c)])

        def mlp(v):
            hidden = np.zeros(r)
            for j in range(r):
                hidden[j] = max(0.0, float(np.dot(fc1_w[j], v)) + float(fc1_b[j]))
            full = np.zeros(c)
            for ci in range(c):
                full[ci] = float(np.dot(fc2_w[ci], hidden)) + float(fc2_b[ci])
            return full

        mc = np.array([sigmoid_scalar(v) for v in (mlp(avg_v) + mlp(max_v))])
        f1 = x64[bi] * mc[:, None, None]

        sp_max = f1.max(axis=0)
        sp_avg = f1.mean(axis=0)
        stacked = np.stack([sp_max, sp_avg])           # max first, then avg
        pad = 3
        sp_pad = np.zeros((2, h + 2 * pad, w + 2 * pad))
        sp_pad[:, pad:pad + h, pad:pad + w] = stacked
        for y in range(h):
            for xx in range(w):
                acc = float(sp_b[0])
                for ci in range(2):
                    for ky in range(7):
                        for kx in range(7):
                            acc += sp_pad[ci, y + ky, xx + kx] * float(sp_w[ci, ky, kx])
                ms = sigmoid_scalar(acc)
                out[bi, :, y, xx] = f1[:, y, xx] * ms
    return out.astype(np.float32)


_U64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state by one output; return (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return state, z ^ (z >> 31)


def xoshiro_lane_states(seed: int, lanes: int = 256) -> list[list[int]]:
    """Each lane's xoshiro256** state: lane l holds words 4l..4l+3 of the
    splitmix64 stream of ``seed``."""
    state, words = seed & _U64, []
    for _ in range(4 * lanes):
        state, z = splitmix64(state)
        words.append(z)
    return [words[4 * l:4 * l + 4] for l in range(lanes)]


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _U64


def xoshiro_step(s: list[int]) -> int:
    """Advance one xoshiro256** state in place; return its output."""
    out = _rotl((s[1] * 5) & _U64, 7) * 9 & _U64
    t = (s[1] << 17) & _U64
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl(s[3], 45)
    return out


def xoshiro_lanes(seed: int, count: int, lanes: int = 256) -> list[int]:
    """First ``count`` outputs of xoshiro256** run across ``lanes`` lanes.

    Each round steps every lane of ``xoshiro_lane_states`` once, in lane
    order, and emits its output.
    """
    states = xoshiro_lane_states(seed, lanes)
    out = []
    while len(out) < count:
        out.extend(xoshiro_step(s) for s in states)
    return out[:count]


def flops_rows_per_node(g, size: int) -> list[tuple]:
    """The cost rows of ``g`` at ``size`` px as (layer, kind, M, K, Cin,
    Cout, FLOPs), from a second interpreter: take every node's input shapes
    from ``infer_shapes``, rerun the node's ``OPS`` forward on fresh ``Meta``
    values with a ledger of its own, and turn each conv and pool it records
    into a row, but for an aux block's attention MLP."""
    shapes = N.infer_shapes(g, (1, 3, size, size))
    rows = []
    for node in g.nodes:
        ledger = []
        N.OPS[node.kind].forward(node.payload, [T.Meta(shapes[ref], ledger) for ref in node.inputs])
        names = {id(p): name for name, p in node.convs()}
        free = ({id(node.payload.cbam.fc1), id(node.payload.cbam.fc2)}
                if isinstance(node.payload, B.AuxBlock) else set())
        for op, arg, (_, c, m, _) in ledger:
            if op == "pool":
                rows.append((f"{node.id}.pool", "pool", m, arg, c, c, c * m * m * arg * arg))
            elif id(arg) not in free:
                k, c_in = arg.kernel_size, arg.in_channels
                rows.append((names[id(arg)], "conv", m, k, c_in, c, m * m * k * k * c_in * c))
    return rows
