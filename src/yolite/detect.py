"""Head decoding, box geometry, confidence filtering, and non-max suppression.

The raw head layout per anchor is (tx, ty, tw, th, to, class scores...): cell
offsets pass through a sigmoid, box sizes scale the anchor exponentially,
objectness and per-class scores are sigmoids.  Decoding is done per element
in double precision, so the emitted boxes are an exact function of the head
values regardless of platform vector math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ShapeError
from .tensor import Tensor

_TINY = 5e-324          # smallest positive double
_ALMOST_ONE = 1.0 - 2.0 ** -53


def sigmoid(v: float) -> float:
    """Scalar logistic, clamped into the open interval (0, 1)."""
    if v >= 0:
        out = 1.0 / (1.0 + math.exp(-v))
    else:
        ez = math.exp(v)
        out = ez / (1.0 + ez)
    return min(max(out, _TINY), _ALMOST_ONE)


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

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "Box":
        return cls((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)

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


def confidence_score(p: int, iou_value: float) -> float:
    """Box confidence: the objectness indicator times overlap with the truth."""
    if p not in (0, 1):
        raise ValueError(f"objectness indicator must be 0 or 1, got {p}")
    if not 0.0 <= iou_value <= 1.0:
        raise ValueError(f"iou must be within [0, 1], got {iou_value}")
    return p * iou_value


class AnchorSet:
    """Prior box sizes per head scale, keyed by downsampling stride."""

    DEFAULT = {
        32: ((81.0, 82.0), (135.0, 169.0), (344.0, 319.0)),
        16: ((10.0, 14.0), (23.0, 27.0), (37.0, 58.0)),
    }

    def __init__(self, by_stride: dict | None = None):
        self.by_stride = {}
        for stride, pairs in (by_stride or self.DEFAULT).items():
            pairs = tuple((float(w), float(h)) for w, h in pairs)
            if not pairs or not all(0 < v < math.inf for pair in pairs for v in pair):
                raise ValueError(f"anchors for stride {stride} must be positive finite pairs")
            self.by_stride[int(stride)] = pairs

    def for_scale(self, scale: int, input_size: int):
        stride = input_size // scale
        if stride not in self.by_stride:
            raise ValueError(f"no anchors for stride {stride} (scale {scale} at {input_size})")
        return self.by_stride[stride]


def decode_head(head: Tensor, anchors: AnchorSet, scale: int, input_size: int) -> list[Detection]:
    """Decode one head tensor into scale*scale*B detections.

    Emission order is row-major over grid cells, anchors innermost.  Every
    candidate carries its argmax class (ties to the lower class id).
    """
    n, ch, hh, ww = head.shape
    if n != 1:
        raise ShapeError(f"decode_head expects batch size 1, got {n}")
    if hh != scale or ww != scale:
        raise ShapeError(f"head spatial size {hh}x{ww} != expected scale {scale}")
    priors = anchors.for_scale(scale, input_size)
    b = len(priors)
    if ch % b != 0 or ch // b < 6:
        raise ShapeError(f"head channel count {ch} incompatible with {b} anchors")
    n_classes = ch // b - 5
    cell = input_size / scale
    vals = head.array[0]
    out: list[Detection] = []
    for gy in range(scale):
        for gx in range(scale):
            for ai in range(b):
                base = ai * (5 + n_classes)
                tx = float(vals[base + 0, gy, gx])
                ty = float(vals[base + 1, gy, gx])
                tw = float(vals[base + 2, gy, gx])
                th = float(vals[base + 3, gy, gx])
                to = float(vals[base + 4, gy, gx])
                box = Box((sigmoid(tx) + gx) * cell,
                          (sigmoid(ty) + gy) * cell,
                          priors[ai][0] * math.exp(tw),
                          priors[ai][1] * math.exp(th))
                best_c, best_p = 0, -1.0
                for ci in range(n_classes):
                    p = sigmoid(float(vals[base + 5 + ci, gy, gx]))
                    if p > best_p:
                        best_c, best_p = ci, p
                out.append(Detection(box, best_c, sigmoid(to), best_p))
    return out


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
    survivors = [(d.confidence, d.class_id, idx, d)
                 for idx, d in enumerate(dets) if d.confidence > conf_thresh]
    survivors.sort(key=lambda item: (-item[0], item[1], item[2]))
    kept: list[Detection] = []
    for _, _, _, cand in survivors:
        suppressed = any(prev.class_id == cand.class_id
                         and iou(prev.box, cand.box) > iou_thresh
                         for prev in kept)
        if not suppressed:
            kept.append(cand)
    return kept


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
