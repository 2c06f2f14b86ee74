"""Workload definitions, seeded input generation, requests and output checks.

A request is one image taken from file read to detection JSON string.  Warm
workloads call the library the way `yolite detect` does, on graphs built and
seeded once during set-up; the cold workload calls `cli.main` in process, so
each request builds a graph and fills its weights.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from yolite import cli, detect as D, imageio as I, network as N, tensor as T, weights_io as W

MODELS = ("v4tiny", "proposed")
BUILDERS = {"v4tiny": N.build_yolov4_tiny, "proposed": N.build_proposed}
CLASSES = 80
WEIGHT_SEED = 42       # the CLI's default weight seed; inputs vary with --seed
IOU_THRESH = 0.45
DEFAULT_SEED = 42      # the seed whose request digests are pinned

# Copied from tests/test_weights_io.py (TestGoldenMaster): v4tiny, weight
# seed 42, a full-0.5 input at 416 px.
GOLDEN_PARAMS = "6821cbe1b298852cc6ff4494d568a0977e68d8e97b06542768836f91c869b66e"
GOLDEN_H13 = "41bae3449b41e367045eee475f06246b0c66865722f73944d9bad59a8c884e3c"
GOLDEN_H26 = "9ec55e5d7b944d21b0961606be92a08a2dd3e01ccce3c55c420178b4e88a39ec"


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                    # network input size
    conf_thresh: float
    parallel: int                # tensor.set_parallel workers, 0 = serial
    cold_cli: bool               # requests through cli.main instead of the library
    shapes: tuple                # (h, w) of each frame in the input pool
    objects: int                 # rectangles drawn per scene

    def unit(self, frame: int) -> list[tuple]:
        """One closed-loop unit: (model, frame, weight source, file format) per
        request, models alternating request by request.  A cold unit gives each
        model a seeded PPM, a loaded YLTI and a seeded YLTI request on one frame:
        seeded requests take ~1.6x as long as loaded ones, and with two per
        loaded one the median falls inside the seeded group instead of in the
        gap between two equal groups, where it swung by ~20% between runs."""
        if not self.cold_cli:
            return [(m, frame, "warm", "ppm") for m in MODELS]
        variants = (("seed", "ppm"), ("weights", "ylti"), ("seed", "ylti"))
        return [(m, frame, src, fmt) for src, fmt in variants for m in MODELS]


WORKLOADS = {w.name: w for w in (
    Workload("crowd-416-par2", 416, 0.25, 2, False,
             ((720, 1280), (640, 480), (360, 640), (1024, 768)), 40),
    Workload("cold-cli-128", 128, 0.25, 0, True,
             ((240, 320), (320, 240), (256, 256), (300, 400)), 4),
)}


def make_frames(wl: Workload, seed: int) -> list[np.ndarray]:
    """The workload's input pool as (h, w, 3) uint8 images, a function of the
    seed only: a gradient background, filled rectangles and pixel noise."""
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    frames = []
    for h, w in wl.shapes:
        c0, c1 = rng.integers(0, 256, (2, 3))
        img = np.broadcast_to(c0 + (c1 - c0) * np.linspace(0.0, 1.0, w)[None, :, None],
                              (h, w, 3)).copy()
        for _ in range(wl.objects):
            y, x = rng.integers(0, h), rng.integers(0, w)
            img[y:y + rng.integers(h // 20 + 1, h // 4 + 2),
                x:x + rng.integers(w // 20 + 1, w // 4 + 2)] = rng.integers(0, 256, 3)
        img += rng.normal(0.0, 6.0, img.shape)
        frames.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return frames


@dataclass
class Prepared:
    wl: Workload
    graphs: dict
    ppm: list
    ylti: list
    weights: dict


def setup(wl: Workload, seed: int, workdir: Path) -> Prepared:
    """Everything before the timed loop: graph builds, seeded init, input
    generation, and (cold workload) weight-file writes."""
    workdir.mkdir(parents=True)
    graphs = {}
    for m in MODELS:
        graphs[m] = BUILDERS[m](CLASSES)
        W.init_seeded(graphs[m], WEIGHT_SEED)
    ppm, ylti, weights = [], [], {}
    for i, img in enumerate(make_frames(wl, seed)):
        ppm.append(workdir / f"frame{i}.ppm")
        I.write_ppm(ppm[-1], img)
        if wl.cold_cli:
            ylti.append(workdir / f"frame{i}.ylti")
            I.write_raw_tensor(ylti[-1], img.astype(np.float32) / np.float32(255.0))
    if wl.cold_cli:
        for m in MODELS:
            weights[m] = workdir / f"{m}.yltw"
            W.save(graphs[m], weights[m])
    return Prepared(wl, graphs, ppm, ylti, weights)


# Gate inputs: v4tiny at 416 px against the repository's golden checksums,
# and both models at 128 px against pins.json.
GATE_SIZES = (("v4tiny", 416), ("v4tiny", 128), ("proposed", 128))


def gate(prep: Prepared, pins: dict) -> list[str]:
    """Known-answer check before timing, independent of the seed: weight seed
    42 on a full-0.5 input, under the workload's parallel setting, so a
    parallel workload also checks that parallel output equals serial."""
    expected = {"v4tiny@416": [GOLDEN_H13, GOLDEN_H26], **pins["gate"]}
    problems = []
    if W.params_checksum(prep.graphs["v4tiny"]) != GOLDEN_PARAMS:
        problems.append("gate: v4tiny seed-42 parameters differ from GOLDEN_PARAMS")
    if W.params_checksum(prep.graphs["proposed"]) != pins["gate_params"]["proposed"]:
        problems.append("gate: proposed seed-42 parameters differ from the pin")
    for m, size in GATE_SIZES:
        heads = N.forward(prep.graphs[m], T.Tensor.full((1, 3, size, size), 0.5))
        got = [W.tensor_checksum(h) for h in heads]
        if got != expected[f"{m}@{size}"]:
            problems.append(f"gate: {m}@{size} heads {got} != {expected[f'{m}@{size}']}")
    return problems


def decode_all(h13, h26, size):
    anchors = D.AnchorSet()
    return (D.decode_head(h13, anchors, size // 32, size)
            + D.decode_head(h26, anchors, size // 16, size))


def to_records(kept, transform) -> list[dict]:
    mapped = [D.Detection(transform.box_to_original(d.box), d.class_id,
                          d.objectness, d.class_prob) for d in kept]
    return D.detections_to_json(mapped)


class HeadCapture:
    """Context in which `network.forward` also keeps its result, so the
    benchmark can digest the heads that `cli.main` computes."""

    def __init__(self):
        self.heads = None
        self.original = N.forward

        @functools.wraps(self.original)
        def forward(g, x):
            self.heads = self.original(g, x)
            return self.heads

        self.forward = forward

    def __enter__(self):
        N.forward = self.forward
        return self

    def __exit__(self, *exc):
        N.forward = self.original


@dataclass
class Result:
    seconds: float
    heads: tuple
    records: list
    dets: list | None = None
    kept: list | None = None
    transform: object = None
    error: str | None = None


def run_request(prep: Prepared, spec: tuple, capture: HeadCapture) -> Result:
    """Time one request; the returned data is checked by `verify` afterwards."""
    wl = prep.wl
    model, frame, source, fmt = spec
    path = str((prep.ylti if fmt == "ylti" else prep.ppm)[frame])
    if not wl.cold_cli:
        t0 = time.perf_counter()
        image = I.load_image(path)
        x, transform = I.letterbox(image, wl.size)
        h13, h26 = N.forward(prep.graphs[model], x)
        dets = decode_all(h13, h26, wl.size)
        kept = D.filter_and_nms(dets, wl.conf_thresh, IOU_THRESH)
        text = json.dumps({"detections": to_records(kept, transform)}, indent=2, sort_keys=True)
        seconds = time.perf_counter() - t0
        return Result(seconds, (h13, h26), json.loads(text)["detections"], dets, kept, transform)
    argv = ["detect", path, "--model", model, "--input-size", str(wl.size),
            "--conf-thresh", str(wl.conf_thresh), "--format", "json"]
    argv += ["--seed", str(WEIGHT_SEED)] if source == "seed" else ["--weights", str(prep.weights[model])]
    out = io.StringIO()
    capture.heads = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0 or capture.heads is None:
        return Result(seconds, (), [], error=f"cli.main exited with {code}")
    return Result(seconds, capture.heads, json.loads(out.getvalue())["detections"])


def digest(result: Result) -> str:
    h = hashlib.sha256()
    for head in result.heads:
        h.update(W.tensor_checksum(head).encode() + b"\n")
    h.update(json.dumps(result.records, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def _sigmoid(v: float) -> float:
    out = 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))
    return min(max(out, 5e-324), 1.0 - 2.0 ** -53)


def _check_decode(result: Result, size: int, rng) -> list[str]:
    """Spot-check candidates against a scalar decode written here from the
    head layout documented in `yolite.detect`."""
    problems = []
    anchors = D.AnchorSet()
    offset = 0
    for head in result.heads:
        _, ch, scale, _ = head.shape
        priors = anchors.for_scale(scale, size)
        b = len(priors)
        n_classes = ch // b - 5
        vals = head.array[0].astype(np.float64)
        cell = size / scale
        for idx in rng.integers(0, scale * scale * b, 8):
            gy, gx, ai = idx // (scale * b), (idx // b) % scale, idx % b
            v = vals[ai * (5 + n_classes):(ai + 1) * (5 + n_classes), gy, gx]
            probs = [_sigmoid(float(c)) for c in v[5:]]
            best = int(np.argmax(probs))
            want = ((_sigmoid(v[0]) + gx) * cell, (_sigmoid(v[1]) + gy) * cell,
                    priors[ai][0] * math.exp(v[2]), priors[ai][1] * math.exp(v[3]),
                    _sigmoid(v[4]), probs[best])
            d = result.dets[offset + idx]
            got = (d.box.cx, d.box.cy, d.box.w, d.box.h, d.objectness, d.class_prob)
            if d.class_id != best or not np.allclose(got, want, rtol=1e-9, atol=0.0):
                problems.append(f"decode: candidate {offset + idx} is {d}, expected class "
                                f"{best} and {want}")
        offset += scale * scale * b
    if len(result.dets) != offset:
        problems.append(f"decode: {len(result.dets)} candidates, expected {offset}")
    return problems


def _boxes(dets) -> np.ndarray:
    return np.array([(d.box.cx, d.box.cy, d.box.w, d.box.h) for d in dets],
                    dtype=np.float64).reshape(-1, 4)


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`detect.iou` for every pair, with the same float64 operations."""
    a1, a2 = a[:, :2] - a[:, 2:] / 2, a[:, :2] + a[:, 2:] / 2
    b1, b2 = b[:, :2] - b[:, 2:] / 2, b[:, :2] + b[:, 2:] / 2
    iw = np.minimum(a2[:, None, 0], b2[None, :, 0]) - np.maximum(a1[:, None, 0], b1[None, :, 0])
    ih = np.minimum(a2[:, None, 1], b2[None, :, 1]) - np.maximum(a1[:, None, 1], b1[None, :, 1])
    inter = iw * ih
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    ok = (iw > 0) & (ih > 0) & (union > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=ok)


def _check_nms(dets, kept, conf_thresh: float) -> list[str]:
    """The kept list is greedy per-class NMS of the candidates: ordered by
    confidence, and within each class every survivor is dropped exactly when
    a kept box ranked before it overlaps it by more than the IoU threshold."""
    survivors = sorted(((d.confidence, d.class_id, i, d) for i, d in enumerate(dets)
                        if d.confidence > conf_thresh), key=lambda t: (-t[0], t[1], t[2]))
    keys = [(-d.confidence, d.class_id) for d in kept]
    if keys != sorted(keys):
        return ["nms: kept detections are not ordered by confidence"]
    problems = []
    for c in sorted({d.class_id for d in kept} | {t[1] for t in survivors}):
        surv = [t[3] for t in survivors if t[1] == c]
        mine = [d for d in kept if d.class_id == c]
        pos, j = [], 0
        for i, s in enumerate(surv):
            if j < len(mine) and s == mine[j]:
                pos.append(i)
                j += 1
        if j != len(mine):
            problems.append(f"nms: class {c} keeps a box that is not a survivor")
            continue
        if not surv:
            continue
        over = _iou_matrix(_boxes(surv), _boxes(mine)) > IOU_THRESH
        earlier = np.asarray(pos)[None, :] < np.arange(len(surv))[:, None]
        suppressed = (over & earlier).any(axis=1)
        is_kept = np.zeros(len(surv), dtype=bool)
        is_kept[pos] = True
        if (suppressed == is_kept).any():
            problems.append(f"nms: class {c} differs from greedy suppression")
    return problems


def verify(prep: Prepared, spec: tuple, result: Result, rng) -> list[str]:
    """Checks that hold for every seed.  For the cold path the candidates are
    re-derived from the captured heads, so the CLI's JSON is compared with the
    library's."""
    if result.error:
        return [result.error]
    wl = prep.wl
    if result.dets is None:
        _, result.transform = I.letterbox(I.load_image(str(prep.ppm[spec[1]])), wl.size)
        result.dets = decode_all(*result.heads, wl.size)
        result.kept = D.filter_and_nms(result.dets, wl.conf_thresh, IOU_THRESH)
    problems = _check_decode(result, wl.size, rng) + _check_nms(result.dets, result.kept,
                                                                 wl.conf_thresh)
    if result.records != to_records(result.kept, result.transform):
        problems.append("output: detection JSON differs from the mapped kept detections")
    return problems
