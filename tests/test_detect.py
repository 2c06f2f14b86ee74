import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yolite import detect as D
from yolite import imageio as I
from yolite import network as N
from yolite import tensor as T
from yolite import weights_io as W
from yolite.errors import InputError, NonFiniteError, ShapeError

import oracles


def random_head(rng, scale, b=3, n_classes=4, spread=3.0):
    ch = b * (5 + n_classes)
    arr = ((rng.random((1, ch, scale, scale), dtype=np.float32) * 2 - 1) * spread)
    return T.Tensor(arr)


def random_detections(rng, count, n_classes=5, size=100.0):
    dets = []
    for _ in range(count):
        box = D.Box(float(rng.uniform(0, size)), float(rng.uniform(0, size)),
                    float(rng.uniform(1, size / 2)), float(rng.uniform(1, size / 2)))
        dets.append(D.Detection(box, int(rng.integers(0, n_classes)),
                                float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 1))))
    return dets


class TestBoxGeometry:
    def test_corner_round_trip(self):
        box = D.Box(10.0, 20.0, 4.0, 6.0)
        assert D.Box.from_corners(*box.corners()) == box

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            D.Box(0, 0, -1.0, 2.0)

    def test_iou_identical(self):
        box = D.Box(5, 5, 4, 4)
        assert D.iou(box, box) == 1.0

    def test_iou_disjoint(self):
        assert D.iou(D.Box(0, 0, 2, 2), D.Box(10, 10, 2, 2)) == 0.0

    def test_iou_worked_example(self):
        a = D.Box.from_corners(0, 0, 2, 2)
        b = D.Box.from_corners(1, 1, 3, 3)
        assert abs(D.iou(a, b) - 1 / 7) < 1e-12

    def test_iou_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = D.Box(*(float(v) for v in rng.uniform(1, 10, size=4)))
            b = D.Box(*(float(v) for v in rng.uniform(1, 10, size=4)))
            v = D.iou(a, b)
            assert v == D.iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_degenerate_box_gives_zero(self):
        assert D.iou(D.Box(1, 1, 0, 0), D.Box(1, 1, 0, 0)) == 0.0

    def test_iou_below_one_for_distinct_boxes(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = D.Box(*(float(v) for v in rng.uniform(1, 10, size=4)))
            b = D.Box(a.cx + float(rng.uniform(0.01, 2)), a.cy, a.w, a.h)
            assert D.iou(a, b) < 1.0


class TestAnchorSet:
    def test_default_strides(self):
        a = D.AnchorSet()
        assert a.for_scale(13, 416) == ((81.0, 82.0), (135.0, 169.0), (344.0, 319.0))
        assert a.for_scale(26, 416) == ((10.0, 14.0), (23.0, 27.0), (37.0, 58.0))
        # same priors follow the stride at other input sizes
        assert a.for_scale(10, 320) == a.for_scale(13, 416)

    def test_positive_dimensions_required(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                D.AnchorSet({32: ((bad, 5.0),)})


def _f32_step(x, toward):
    return float(np.nextafter(np.float32(x), np.float32(toward)))


def _margin_row(top):
    """Logits one float32 step either side of ``top - 1e-4``, then ``top``."""
    edge = float(np.float32(top - 1e-4))
    return [_f32_step(edge, -np.inf), edge, _f32_step(edge, np.inf), top]


# Class-logit rows that probe `decode_head`'s candidate rule (only logits
# within 1e-4 of a row maximum of magnitude at most 20 take the logistic).
# Where two probabilities could tie, the lower class id holds the smaller
# logit, so a rule that skipped it would pick the wrong class.
ADVERSARIAL_ROWS = {
    "equal logits": [[1.5, 1.5, 1.5, -2.0], [-2.0, 3.0, 3.0, 3.0], [-7.0] * 4,
                     [0.0] * 4],
    "adjacent float32 at the maximum": (
        [[0.0, 1e-45, -1.0], [1e-45, 0.0, -1.0]]
        + [[x, _f32_step(x, np.inf), -1.0] for x in (1e-30, 1e-9, 1e-8, 0.5, 5.0, 19.0)]
        + [[_f32_step(x, -np.inf), x, -1.0] for x in (-1e-9, -5.0, -19.0)]),
    "class 1e-4 below the maximum": [_margin_row(top) for top in
                                     (0.0, 1e-8, 1.0, -1.0, 10.0, -10.0, 19.9999, 20.0)],
    "maximum at +-20 and one step beyond": [
        [19.9999, 20.0], [20.0, 20.0], [_f32_step(20.0, -np.inf), 20.0],
        [20.0, _f32_step(20.0, np.inf)], [19.0, _f32_step(20.0, np.inf)],
        [-20.0001, -20.0], [-20.0, -20.0], [_f32_step(-20.0, -np.inf), -20.0],
        [_f32_step(-20.0, -np.inf), _f32_step(-20.0, -np.inf)],
        [-21.0, _f32_step(-20.0, -np.inf)]],
    "high clamp": [[36.7, 40.0, 41.0], [40.0, 41.0, 36.7], [41.0, 40.0, 36.7],
                   [36.0, 36.7, 36.7]],
    "low clamp": [[-746.0, -745.0], [-745.0, -746.0], [-746.0, -746.0],
                  [-800.0, -745.0]],
    "float32 extremes": [[3.4e38, -3.4e38], [-3.4e38, 3.4e38], [3.4e38, 3.4e38],
                         [-3.4e38, -3.4e38], [0.0, 3.4e38]],
}


def head_of_class_rows(rows):
    """A head whose decode rows, in emission order, carry ``rows`` as class
    logits (each padded with its own minimum); other channels are small
    values.  Returns the head and its input size."""
    n_classes = max(len(r) for r in rows)
    scale = math.ceil(math.sqrt(len(rows) / N.HEAD_ANCHORS))
    per = 5 + n_classes
    arr = np.random.default_rng(5).uniform(-2, 2, (N.HEAD_ANCHORS, per, scale, scale))
    for i, row in enumerate(rows):
        gy, gx, a = np.unravel_index(i, (scale, scale, N.HEAD_ANCHORS))
        arr[a, 5:, gy, gx] = row + [min(row)] * (n_classes - len(row))
    head = T.Tensor(arr.reshape(1, -1, scale, scale).astype(np.float32))
    return head, 32 * scale


def decoded(head, input_size):
    """`decode_head`'s tuples and `oracles.decode_naive`'s on one head."""
    scale = head.shape[2]
    got = D.decode_head(head, D.AnchorSet(), scale, input_size)
    ref = oracles.decode_naive(head.array, D.AnchorSet().for_scale(scale, input_size),
                               input_size)
    return [(d.box.cx, d.box.cy, d.box.w, d.box.h, d.objectness, d.class_id, d.class_prob)
            for d in got], ref


class TestDecodeHead:
    def test_zero_head_decodes_to_cell_centers(self):
        head = T.Tensor.zeros(1, 27, 13, 13)  # 3 anchors, 4 classes
        dets = D.decode_head(head, D.AnchorSet(), 13, 416)
        assert len(dets) == 13 * 13 * 3
        first = dets[0]
        assert first.box.cx == pytest.approx(16.0)   # (0.5 + 0) * 32
        assert first.box.cy == pytest.approx(16.0)
        assert first.box.w == 81.0                   # anchor carried through e^0
        assert first.objectness == pytest.approx(0.5)
        # emission order: second det is the same cell, next anchor
        assert dets[1].box.w == 135.0
        last = dets[-1]
        assert last.box.cx == pytest.approx((0.5 + 12) * 32)

    def test_count_is_scale_squared_times_anchors(self):
        rng = np.random.default_rng(1)
        dets = D.decode_head(random_head(rng, 13), D.AnchorSet(), 13, 416)
        assert len(dets) == 507

    def test_centers_stay_inside_image(self):
        rng = np.random.default_rng(2)
        for scale in (13, 26):
            dets = D.decode_head(random_head(rng, scale, spread=8.0),
                                 D.AnchorSet(), scale, 416)
            for d in dets:
                assert 0.0 <= d.box.cx <= 416.0
                assert 0.0 <= d.box.cy <= 416.0

    def test_matches_transcription_oracle(self):
        rng = np.random.default_rng(3)
        head = random_head(rng, 5, b=3, n_classes=6)
        anchors = D.AnchorSet({416 // 5: ((20, 30), (40, 50), (60, 70))})
        dets = D.decode_head(head, anchors, 5, 416)
        ref = oracles.decode_naive(head.array, ((20, 30), (40, 50), (60, 70)), 416)
        assert len(dets) == len(ref)
        for d, (cx, cy, w, h, obj, cid, cprob) in zip(dets, ref):
            assert (d.box.cx, d.box.cy, d.box.w, d.box.h) == (cx, cy, w, h)
            assert d.objectness == obj
            assert (d.class_id, d.class_prob) == (cid, cprob)

    def test_channel_mismatch_rejected(self):
        head = T.Tensor.zeros(1, 26, 13, 13)
        with pytest.raises(ShapeError):
            D.decode_head(head, D.AnchorSet(), 13, 416)

    def test_anchor_count_must_match_head(self):
        # 21 channels would otherwise split as 1 anchor x 16 classes
        head = T.Tensor.zeros(1, 21, 2, 2)
        with pytest.raises(ShapeError, match="anchor pairs"):
            D.decode_head(head, D.AnchorSet({32: [(10, 10)], 16: [(5, 5)]}), 2, 64)

    def test_class_tie_after_clamp_keeps_lower_id(self):
        # logits 40 and 41 both clamp to 1 - 2^-53; the higher logit's class
        # (3) loses to the lower class id (2)
        arr = np.zeros((1, 27, 2, 2), dtype=np.float32)
        arr[0, 5 + 2, 0, 0] = 40.0
        arr[0, 5 + 3, 0, 0] = 41.0
        dets = D.decode_head(T.Tensor(arr), D.AnchorSet(), 2, 64)
        assert (dets[0].class_id, dets[0].class_prob) == (2, 1.0 - 2.0 ** -53)
        ref = oracles.decode_naive(arr, D.AnchorSet().for_scale(2, 64), 64)
        assert [(d.class_id, d.class_prob) for d in dets] == [(r[5], r[6]) for r in ref]

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL_ROWS))
    def test_candidate_classes_decode_as_scalar(self, case):
        got, ref = decoded(*head_of_class_rows(ADVERSARIAL_ROWS[case]))
        assert got == ref

    def test_wide_logits_decode_as_scalar(self):
        # normal(0, 40) logits cross both clamps and the +-20 bound; tw and th
        # stay small so the box sizes are finite
        arr = np.random.default_rng(13).normal(0, 40, (N.HEAD_ANCHORS, 85, 13, 13))
        arr[:, 2:4] /= 40
        got, ref = decoded(T.Tensor(arr.reshape(1, 255, 13, 13).astype(np.float32)), 416)
        assert got == ref

    def test_sigmoid_matches_scalar_formula(self):
        rng = np.random.default_rng(11)
        v = np.concatenate([rng.normal(0, 4, 2000), rng.normal(0, 40, 2000),
                            [0.0, -0.0, 36.7, -36.7, 40.0, 41.0, -745.0, -746.0,
                             3.4e38, -3.4e38]])
        got = T.logistic(v)
        assert [x.hex() for x in got.tolist()] \
            == [oracles.sigmoid_scalar(float(x)).hex() for x in v]

    @pytest.mark.parametrize("tw", [709.0, 710.0])
    def test_box_size_overflow_is_non_finite_error(self, tw):
        # e^709 is finite but 81 * e^709 is not; e^710 overflows math.exp
        arr = np.zeros((1, 27, 2, 2), dtype=np.float32)
        arr[0, 2, 0, 0] = tw
        with pytest.raises(NonFiniteError):
            D.decode_head(T.Tensor(arr), D.AnchorSet(), 2, 64)


class TestFilterAndNms:
    def test_single_survivor_unchanged(self):
        det = D.Detection(D.Box(5, 5, 2, 2), 1, 0.9, 0.9)
        assert D.filter_and_nms([det], 0.25, 0.45) == [det]

    def test_identical_boxes_keep_strongest(self):
        box = D.Box(5, 5, 2, 2)
        weak = D.Detection(box, 0, 0.8, 1.0)
        strong = D.Detection(box, 0, 0.9, 1.0)
        kept = D.filter_and_nms([weak, strong], 0.5, 0.5)
        assert kept == [strong]

    def test_different_classes_do_not_suppress(self):
        box = D.Box(5, 5, 2, 2)
        a = D.Detection(box, 0, 0.9, 1.0)
        b = D.Detection(box, 1, 0.8, 1.0)
        assert len(D.filter_and_nms([a, b], 0.25, 0.45)) == 2

    def test_confidence_gate_is_strict(self):
        det = D.Detection(D.Box(5, 5, 2, 2), 0, 0.5, 0.5)
        assert D.filter_and_nms([det], 0.25, 0.45) == []
        assert D.filter_and_nms([det], 0.2499, 0.45) == [det]

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            dets = random_detections(rng, 50)
            ct = float(rng.uniform(0.05, 0.6))
            it = float(rng.uniform(0.2, 0.8))
            kept = D.filter_and_nms(dets, ct, it)
            ref = oracles.nms_naive(
                [(d.box.corners(), d.class_id, d.confidence, i)
                 for i, d in enumerate(dets)], ct, it)
            assert [d.confidence for d in kept] == [r[2] for r in ref], f"case {case}"
            assert [d.class_id for d in kept] == [r[1] for r in ref]

    def test_output_is_subset_with_properties(self):
        rng = np.random.default_rng(8)
        dets = random_detections(rng, 80)
        kept = D.filter_and_nms(dets, 0.3, 0.5)
        assert all(d in dets for d in kept)
        assert all(d.confidence > 0.3 for d in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.class_id == b.class_id:
                    assert D.iou(a.box, b.box) <= 0.5

    def test_raising_threshold_never_grows_output(self):
        rng = np.random.default_rng(9)
        dets = random_detections(rng, 60)
        for _ in range(20):
            lo, hi = sorted(rng.uniform(0, 1, size=2))
            kept_lo = D.filter_and_nms(dets, float(lo), 0.45)
            kept_hi = D.filter_and_nms(dets, float(hi), 0.45)
            assert len(kept_hi) <= len(kept_lo)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            D.filter_and_nms([], -0.1, 0.5)
        with pytest.raises(ValueError):
            D.filter_and_nms([], 0.5, 1.1)


# `_NMS_BLOCK` values under test: one row per block, and the sizes before
# and since blocks were made small
NMS_BLOCKS = (64, 1 << 15, 1 << 18)


def nms_both(dets, conf_thresh=0.25, iou_thresh=0.45):
    kept = D.filter_and_nms(dets, conf_thresh, iou_thresh)
    assert kept == oracles.nms_scalar(dets, conf_thresh, iou_thresh)
    return kept


class TestNmsEdgeCases:
    """Each case is pinned against the scalar reference `oracles.nms_scalar`."""

    def test_empty_input(self):
        assert nms_both([]) == []

    def test_no_survivors(self):
        dets = [D.Detection(D.Box(5, 5, 2, 2), c, 0.5, 0.5) for c in range(3)]
        assert nms_both(dets, 0.25) == []

    def test_iou_equal_to_threshold_is_kept(self):
        # corners (0, 0, 3, 1) and (1, 0, 4, 1): inter 2, union 4, IoU 0.5
        a = D.Detection(D.Box(1.5, 0.5, 3.0, 1.0), 0, 0.9, 1.0)
        b = D.Detection(D.Box(2.5, 0.5, 3.0, 1.0), 0, 0.8, 1.0)
        assert D.iou(a.box, b.box) == 0.5
        assert nms_both([a, b], 0.25, 0.5) == [a, b]
        assert nms_both([a, b], 0.25, 0.4999) == [a]

    def test_equal_confidences_order_by_class_then_index(self):
        box = D.Box(5, 5, 2, 2)
        dets = [D.Detection(box, c, 0.6, 1.0) for c in (2, 0, 1, 0, 2)]
        dets.append(D.Detection(D.Box(50, 50, 2, 2), 0, 0.6, 1.0))
        # dets[1] and dets[3] compare equal, so check identity too
        kept = nms_both(dets)
        assert [id(d) for d in kept] == [id(dets[i]) for i in (1, 5, 2, 0)]

    def test_zero_width_boxes_never_suppress(self):
        dets = [D.Detection(D.Box(5, 5, 0.0, 2), 0, 0.9, 1.0),
                D.Detection(D.Box(5, 5, 0.0, 2), 0, 0.8, 1.0),
                D.Detection(D.Box(5, 5, 2, 0.0), 0, 0.7, 1.0),
                D.Detection(D.Box(5, 5, 2, 2), 0, 0.6, 1.0)]
        assert nms_both(dets, 0.25, 0.0) == dets

    def test_nan_center_follows_scalar_min_max(self):
        # Python's min/max keep their first argument against NaN, so a later
        # NaN-centred box is measured with the kept box's own width ...
        kept_first = [D.Detection(D.Box(1, 1, 2, 2), 0, 0.9, 1.0),
                      D.Detection(D.Box(math.nan, 1, 2, 2), 0, 0.8, 1.0)]
        assert nms_both(kept_first) == kept_first[:1]
        # ... while a kept NaN-centred box overlaps nothing
        nan_first = [D.Detection(D.Box(math.nan, 1, 2, 2), 0, 0.9, 1.0),
                     D.Detection(D.Box(1, 1, 2, 2), 0, 0.8, 1.0)]
        assert nms_both(nan_first) == nan_first

    def test_large_class_is_walked_in_blocks(self, monkeypatch):
        rng = np.random.default_rng(12)
        monkeypatch.setattr(D, "_NMS_BLOCK", 64)
        nms_both(random_detections(rng, 120, n_classes=1, size=30.0), 0.1, 0.3)
        # one class of 600 boxes: one row per block, ~54-row blocks, two blocks
        dets = random_detections(rng, 600, n_classes=1, size=200.0)
        ref = oracles.nms_scalar(dets, 0.1, 0.3)
        assert 100 < len(ref) < 550
        for block in NMS_BLOCKS:
            monkeypatch.setattr(D, "_NMS_BLOCK", block)
            assert D.filter_and_nms(dets, 0.1, 0.3) == ref, block


_grid = st.sampled_from([0.0, 1.0, 1.5, 2.0, 4.0])
_boxes = st.builds(D.Box, _grid, _grid, _grid, _grid)
_probs = st.sampled_from([0.3, 0.5, 0.9, 1.0])
_detections = st.builds(D.Detection, _boxes, st.integers(0, 2), _probs, _probs)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(pool=st.lists(_detections, min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), max_size=40),
       conf_thresh=st.sampled_from([0.0, 0.1, 0.25, 0.45]),
       iou_thresh=st.sampled_from([0.0, 1 / 3, 0.45, 0.5, 1.0]))
def test_nms_equals_scalar_reference(pool, picks, conf_thresh, iou_thresh):
    """Lists drawn from a small pool repeat boxes, confidences and whole
    detections; they hold up to 3 classes."""
    dets = [pool[i % len(pool)] for i in picks]
    nms_both(dets, conf_thresh, iou_thresh)


@pytest.fixture(scope="module")
def seeded_graphs():
    """Both 80-class models with weight seed 42."""
    graphs = {}
    for name, build in (("v4tiny", N.build_yolov4_tiny), ("proposed", N.build_proposed)):
        graphs[name] = build(80)
        W.init_seeded(graphs[name], 42)
    return graphs


@pytest.fixture(scope="module")
def full_heads(seeded_graphs):
    """416 px heads of both models (weight seed 42) on one non-constant
    input, plus normal(0, 4) heads of the full 80-class shape."""
    x = T.Tensor(np.random.default_rng(416).random((1, 3, 416, 416), dtype=np.float32))
    heads = {}
    T.set_parallel(2)
    try:
        for name, g in seeded_graphs.items():
            heads[name] = N.forward(g, x)
    finally:
        T.set_parallel(0)
    rng = np.random.default_rng(4)
    heads["normal"] = tuple(T.Tensor(rng.normal(0, 4, (1, 255, s, s))) for s in (13, 26))
    return heads


@pytest.mark.parametrize("source", ["v4tiny", "proposed", "normal"])
def test_full_size_decode_and_nms_equal_scalar(full_heads, source, monkeypatch):
    dets = []
    for head, scale in zip(full_heads[source], (13, 26)):
        got = D.decode_head(head, D.AnchorSet(), scale, 416)
        ref = oracles.decode_naive(head.array, D.AnchorSet().for_scale(scale, 416), 416)
        assert [(d.box.cx, d.box.cy, d.box.w, d.box.h, d.objectness, d.class_id, d.class_prob)
                for d in got] == ref
        dets += got
    assert len(dets) == 2535
    ref = oracles.nms_scalar(dets, 0.25, 0.45)
    assert len(ref) > 1000
    for block in NMS_BLOCKS:
        monkeypatch.setattr(D, "_NMS_BLOCK", block)
        assert D.filter_and_nms(dets, 0.25, 0.45) == ref, block


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("input_size", [128, 416])
@pytest.mark.parametrize("model", ["v4tiny", "proposed"])
def test_detect_image_equals_public_path(seeded_graphs, monkeypatch, model, input_size,
                                         workers):
    """`detect_image` equals `filter_and_nms` of both `decode_head` lists,
    mapped back by `box_to_original`."""
    image = np.random.default_rng(input_size).random((300, 400, 3), dtype=np.float32)
    heads, forward = [], N.forward

    def capture(g, x):
        heads.append(forward(g, x))
        return heads[-1]

    monkeypatch.setattr(N, "forward", capture)
    _, transform = I.letterbox(image, input_size)
    T.set_parallel(workers)
    try:
        for conf_thresh in (0.05, 0.25):
            got = D.detect_image(seeded_graphs[model], image, input_size,
                                 conf_thresh=conf_thresh)
            dets = [d for head in heads.pop() for d in
                    D.decode_head(head, D.AnchorSet(), head.shape[2], input_size)]
            want = [D.Detection(transform.box_to_original(d.box), d.class_id,
                                d.objectness, d.class_prob)
                    for d in D.filter_and_nms(dets, conf_thresh, 0.45)]
            assert len(want) > 100
            assert got == want
    finally:
        T.set_parallel(0)


@pytest.mark.parametrize("shape, size", [
    ((0, 5, 3), 64), ((5, 0, 3), 64), ((5, 4), 64), ((1, 5, 4, 3), 64),
    ((5, 4, 3), 0), ((5, 4, 3), -32), ((5, 4, 3), 64.5), ((5, 4, 3), True),
    ((5, 4, 3), "64"), ((5, 4, 3), np.float32(64)),
], ids=["zero-height", "zero-width", "2-d", "4-d", "size-0", "negative-size",
        "float-size", "bool-size", "str-size", "numpy-float-size"])
def test_bad_image_or_size_raises_shape_error(seeded_graphs, shape, size):
    """`letterbox`, and so `detect_image`, rejects an image that is not 3-D
    or has a zero side, and a size that is not an integer or is below 1,
    with `ShapeError`, not with a bare exception or a numpy warning (which
    pytest raises here)."""
    image = np.full(shape, 0.5, np.float32)
    with pytest.raises(ShapeError):
        I.letterbox(image, size)
    with pytest.raises(ShapeError):
        D.detect_image(seeded_graphs["v4tiny"], image, size)


@pytest.mark.parametrize("shape", [(5, 4), (1, 5, 4, 3)], ids=["2-d", "4-d"])
def test_image_writers_state_their_rank_rule(tmp_path, shape):
    """Each writer rejects an array that is not (h, w, c) with its own
    `ValueError`, before it opens the file."""
    path = tmp_path / "out"
    with pytest.raises(ValueError, match=r"^write_ppm needs an \(h, w, 3\) uint8 array, got "):
        I.write_ppm(path, np.zeros(shape, np.uint8))
    with pytest.raises(ValueError, match=r"^write_raw_tensor needs an \(h, w, c\) array, got "
                                         f"{len(shape)}-D$"):
        I.write_raw_tensor(path, np.zeros(shape, np.float32))
    assert not path.exists()


@pytest.mark.parametrize("image", [np.zeros((5, 4, 4), np.uint8), np.zeros((5, 4, 3))],
                         ids=["4-channel", "float64"])
def test_write_ppm_names_channels_and_dtype(tmp_path, image):
    message = f"write_ppm needs an (h, w, 3) uint8 array, got {image.dtype} {image.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        I.write_ppm(tmp_path / "out.ppm", image)


@pytest.mark.parametrize("arr, message", [
    (np.zeros((0, 5, 3), np.float32), "zero dimension"),
    (np.full((2, 2, 3), np.nan, np.float32), "non-finite"),
], ids=["zero-sized", "non-finite"])
def test_write_raw_tensor_writes_what_the_reader_refuses(tmp_path, arr, message):
    path = tmp_path / "bad.ylti"
    I.write_raw_tensor(path, arr)
    with pytest.raises(InputError, match=message):
        I.read_raw_tensor(path)


@pytest.mark.parametrize("size", [np.int64(64), np.int32(64), np.uint16(64)],
                         ids=lambda size: type(size).__name__)
def test_numpy_integer_size_is_an_int(seeded_graphs, size):
    image = np.random.default_rng(4).random((48, 80, 3), dtype=np.float32)
    x, transform = I.letterbox(image, 64)
    got, got_transform = I.letterbox(image, size)
    assert np.array_equal(got.array, x.array)
    assert vars(got_transform) == vars(transform)
    assert (D.detect_image(seeded_graphs["v4tiny"], image, size, conf_thresh=0.05)
            == D.detect_image(seeded_graphs["v4tiny"], image, 64, conf_thresh=0.05))


class TestJsonSerialization:
    def test_six_significant_digits(self):
        det = D.Detection(D.Box(123.456789, 0.000123456789, 10.0, 20.0), 2,
                          0.987654321, 1.0)
        rec = D.detections_to_json([det])[0]
        assert rec["box"]["cx"] == 123.457
        assert rec["box"]["cy"] == 0.000123457
        assert rec["confidence"] == 0.987654
        assert "class_name" not in rec
