"""Head decoding, box geometry, confidence filtering, non-max suppression,
and `detect_image`, the whole path from an image to its detections.

The raw head layout per anchor is (tx, ty, tw, th, to, class scores...): cell
offsets pass through a sigmoid, box sizes scale the anchor exponentially,
objectness and per-class scores are sigmoids.  Decoding runs over whole
arrays in double precision with ``tensor.exp`` and ``tensor.logistic``, which
apply ``math.exp`` per element, so the emitted boxes are an exact function of
the head values regardless of platform vector math.  The logistic runs on tx,
ty and objectness, and only on the class logits that can win or tie their row
(`_CLASS_MARGIN`); the results equal a logistic over every class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import imageio as I
from . import network as N
from . import tensor as T
from .errors import NonFiniteError, ShapeError


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in input-image pixels, center + size form."""
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box sizes must be non-negative, got {self.w}x{self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)

    @property
    def area(self) -> float:
        return self.w * self.h


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint or degenerate pairs."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class Detection:
    """One decoded candidate: best class plus its gate probabilities."""
    box: Box
    class_id: int
    objectness: float
    class_prob: float

    @property
    def confidence(self) -> float:
        return self.objectness * self.class_prob


class AnchorSet:
    """Prior box sizes per head scale, keyed by downsampling stride."""

    DEFAULT = {
        32: ((81.0, 82.0), (135.0, 169.0), (344.0, 319.0)),
        16: ((10.0, 14.0), (23.0, 27.0), (37.0, 58.0)),
    }

    def __init__(self, by_stride: dict | None = None):
        self.by_stride = {}
        for stride, pairs in (self.DEFAULT if by_stride is None else by_stride).items():
            pairs = tuple((float(w), float(h)) for w, h in pairs)
            if not pairs or not all(0 < v < math.inf for pair in pairs for v in pair):
                raise ValueError(f"anchors for stride {stride} must be positive finite pairs")
            self.by_stride[int(stride)] = pairs

    def for_scale(self, scale: int, input_size: int):
        stride = input_size // scale
        if stride not in self.by_stride:
            raise ValueError(f"no anchors for stride {stride} (scale {scale} at {input_size})")
        return self.by_stride[stride]


# A class whose logit lies more than _CLASS_MARGIN below its row's largest
# logit m can neither win the row nor tie it when |m| <= _CLASS_EXACT_MAX:
# its true probability is below the maximum's by a relative gap of at least
# ~2e-13, while `tensor.logistic` rounds within a few ulps (under 1e-15).  So
# only the classes near m take the logistic.  Rows with m outside that range
# (either clamp, or a non-finite value) take it on every class.
_CLASS_MARGIN = 1e-4
_CLASS_EXACT_MAX = 20.0


def decode_head(head: T.Tensor, anchors: AnchorSet, scale: int, input_size: int) -> list[Detection]:
    """Decode one head tensor into scale*scale*B detections.

    Emission order is row-major over grid cells, anchors innermost.  Every
    candidate carries its argmax class (ties to the lower class id).  Raises
    NonFiniteError if a decoded box value is not finite.
    """
    n, ch, hh, ww = head.shape
    if n != 1:
        raise ShapeError(f"decode_head expects batch size 1, got {n}")
    if hh != scale or ww != scale:
        raise ShapeError(f"head spatial size {hh}x{ww} != expected scale {scale}")
    priors = np.array(anchors.for_scale(scale, input_size))
    b = len(priors)
    if b != N.HEAD_ANCHORS:
        raise ShapeError(f"decode_head needs {N.HEAD_ANCHORS} anchor pairs per scale, got {b}")
    if ch % b != 0 or ch // b < 6:
        raise ShapeError(f"head channel count {ch} incompatible with {b} anchors")
    cell = input_size / scale
    # rows in (gy, gx, anchor) order, columns (tx, ty, tw, th, to, classes...)
    t = (head.array[0].reshape(b, ch // b, scale, scale)
         .transpose(2, 3, 0, 1).reshape(-1, ch // b).astype(np.float64))
    gy, gx, _ = np.indices((scale, scale, b), dtype=np.float64).reshape(3, -1)
    sig = T.logistic(t[:, (0, 1, 4)])
    cx = (sig[:, 0] + gx) * cell
    cy = (sig[:, 1] + gy) * cell
    with np.errstate(over="ignore"):
        wh = np.tile(priors, (scale * scale, 1)) * T.exp(t[:, 2:4])
    boxes = np.column_stack((cx, cy, wh))
    if not np.isfinite(boxes).all():
        raise NonFiniteError("decoded boxes hold non-finite values")
    logits = t[:, 5:]
    top = logits.max(axis=1)
    near = logits >= (top - _CLASS_MARGIN)[:, None]
    near[~(np.abs(top) <= _CLASS_EXACT_MAX)] = True
    # the other classes take -1, below every probability; the argmax over the
    # clamped probabilities then picks the first maximum, so logits that clamp
    # to one value tie and the lower class id wins
    probs = np.full(logits.shape, -1.0)
    probs[near] = T.logistic(logits[near])
    best = probs.argmax(axis=1)
    best_p = probs[np.arange(len(best)), best]
    return [Detection(Box(*box), c, o, p) for box, c, o, p in
            zip(boxes.tolist(), best.tolist(), sig[:, 2].tolist(), best_p.tolist())]


# Suppression matrices are built in row blocks of at most this many entries,
# small enough to stay in cache, so a class of ~550 boxes is walked ~60 rows
# at a time against the boxes from each block's start onward.
_NMS_BLOCK = 1 << 15


def _suppresses(rows: np.ndarray, cols: np.ndarray, iou_thresh: float) -> np.ndarray:
    """[i, j] is whether kept box ``rows[:, i]`` suppresses box ``cols[:, j]``:
    whether their `iou`, with its float64 operations, exceeds ``iou_thresh``.
    Each argument is (5, n): x1, y1, x2, y2, area; ``cols`` has its NaN
    corners widened to -inf/+inf (see `filter_and_nms`)."""
    ax1, ay1, ax2, ay2, a_area = rows[:, :, None]
    bx1, by1, bx2, by2, b_area = cols[:, None, :]
    iw = np.minimum(ax2, bx2)
    side = np.maximum(ax1, bx1)
    iw -= side
    ih = np.minimum(ay2, by2)
    np.maximum(ay1, by1, out=side)
    ih -= side
    hit = iw > 0
    hit &= ih > 0
    inter = np.multiply(iw, ih, out=iw)
    union = np.add(a_area, b_area, out=ih)
    union -= inter
    hit &= union > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(inter, union, out=inter)
    hit &= ratio > iou_thresh
    return hit


def _greedy_keep(rows: np.ndarray, cols: np.ndarray, iou_thresh: float) -> list[int]:
    """Greedy suppression within one class, boxes already in priority order.

    ``rows`` and ``cols`` are the class's boxes as `_suppresses` takes them.
    Returns the kept positions, ascending.
    """
    k = rows.shape[1]
    removed = np.zeros(k, dtype=bool)
    kept = []
    step = max(1, _NMS_BLOCK // k)
    for start in range(0, k, step):
        stop = min(start + step, k)
        block = _suppresses(rows[:, start:stop], cols[:, start:], iou_thresh)
        mine = []
        for r in range(stop - start):
            if not removed[start + r]:
                mine.append(r)
                removed[start:stop] |= block[r, :stop - start]
        # boxes past the block are read only by later blocks
        removed[stop:] |= block[mine, stop - start:].any(axis=0)
        kept += [start + r for r in mine]
    return kept


def filter_and_nms(dets: list[Detection], conf_thresh: float = 0.25,
                   iou_thresh: float = 0.45) -> list[Detection]:
    """Confidence gate followed by greedy per-class suppression.

    Keeps detections with confidence strictly above the threshold, orders
    them by descending confidence (ties: lower class id, then input order),
    and drops any same-class box overlapping a kept box by more than
    ``iou_thresh``.
    """
    for name, t in (("conf_thresh", conf_thresh), ("iou_thresh", iou_thresh)):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name} must be within [0, 1], got {t}")
    conf = np.array([d.confidence for d in dets], dtype=np.float64)
    idx = np.flatnonzero(conf > conf_thresh)
    if len(idx) == 0:
        return []
    survivors = [dets[i] for i in idx.tolist()]
    cls = np.array([d.class_id for d in survivors])
    order = np.lexsort((idx, cls, -conf[idx]))
    cls = cls[order]
    cx, cy, w, h = np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h)
                             for d in survivors], dtype=np.float64)[order].T
    rows = np.stack((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, w * h))
    # Python's min/max keep their first argument, the kept box's corner,
    # against a NaN second one; numpy's would return NaN
    cols = rows.copy()
    cols[:2][np.isnan(cols[:2])] = -np.inf
    cols[2:4][np.isnan(cols[2:4])] = np.inf
    by_class = np.argsort(cls, kind="stable")
    bounds = np.flatnonzero(np.diff(cls[by_class])) + 1
    kept = [members[_greedy_keep(rows[:, members], cols[:, members], iou_thresh)]
            for members in np.split(by_class, bounds)]
    return [survivors[i] for i in order[np.sort(np.concatenate(kept))].tolist()]


def detect_image(g: N.NetworkGraph, image: np.ndarray, input_size: int,
                 anchors: AnchorSet | None = None, conf_thresh: float = 0.25,
                 iou_thresh: float = 0.45) -> list[Detection]:
    """Detections in an (h, w, 3) image with values in [0, 1], in its own
    pixels: letterbox to ``input_size``, run ``g``, decode each head at its
    own grid side, filter and suppress, then map the kept boxes back.

    `network.forward` and `imageio.letterbox` are looked up through their
    modules at call time, so a wrapper installed on either sees this call.
    """
    anchors = AnchorSet() if anchors is None else anchors
    x, transform = I.letterbox(image, input_size)
    dets = []
    for head in N.forward(g, x):
        dets += decode_head(head, anchors, head.shape[2], input_size)
    return [Detection(transform.box_to_original(d.box), d.class_id, d.objectness, d.class_prob)
            for d in filter_and_nms(dets, conf_thresh, iou_thresh)]


def _sig6(v: float) -> float:
    return float(f"{v:.6g}")


def detections_to_json(dets: list[Detection]) -> list[dict]:
    """JSON-ready records with floats at six significant digits."""
    out = []
    for d in dets:
        rec = {"class_id": d.class_id,
               "confidence": _sig6(d.confidence),
               "box": {"cx": _sig6(d.box.cx), "cy": _sig6(d.box.cy),
                       "w": _sig6(d.box.w), "h": _sig6(d.box.h)}}
        out.append(rec)
    return out
