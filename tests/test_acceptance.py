"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from yolite import analysis as A
from yolite import blocks as B
from yolite import detect as D
from yolite import network as N
from yolite import tensor as T
from yolite import weights_io as W
from yolite.errors import FingerprintMismatchError

import oracles


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_criterion_01_csp_reference_total():
    t0 = time.perf_counter()
    total = A.FlopsReport(A.CSP_REFERENCE_COSTS).total
    elapsed = time.perf_counter() - t0
    assert total == 742_064_128
    assert elapsed < 1.0
    report(1, f"csp reference list total {total} in {elapsed * 1000:.2f} ms")


def test_criterion_02_resblock_reference_total():
    t0 = time.perf_counter()
    total = A.FlopsReport(A.RESBLOCK_D_REFERENCE_COSTS).total
    elapsed = time.perf_counter() - t0
    assert total == 64_376_832
    assert elapsed < 1.0
    report(2, f"residual reference list total {total} in {elapsed * 1000:.2f} ms")


def test_criterion_03_block_cost_ratio():
    ratio = (A.FlopsReport(A.CSP_REFERENCE_COSTS).total
             / A.FlopsReport(A.RESBLOCK_D_REFERENCE_COSTS).total)
    assert 11.52 <= ratio <= 11.54
    report(3, f"block cost ratio {ratio:.4f} within [11.52, 11.54] "
              "(the coarse published claim rounds this to ~10:1)")


def test_criterion_04_parameter_anchors():
    base = N.count_params(N.build_yolov4_tiny(80))
    prop = N.count_params(N.build_proposed(80))
    base_err = abs(base - 6.05661e6) / 6.05661e6
    prop_err = abs(prop - 6.16429e6) / 6.16429e6
    assert base_err < 0.05
    assert prop_err < 0.05
    assert prop > base
    report(4, f"baseline {base} ({base_err:+.2%} of 6.05661e6), "
              f"proposed {prop} ({prop_err:+.2%} of 6.16429e6), delta {prop - base}")


def test_criterion_05_receptive_fields():
    single = A.receptive_field([(3, 1)]).size
    double = A.receptive_field([(3, 1), (3, 1)]).size
    assert single == 3
    assert double == 5
    report(5, f"single 3x3 -> {single}, stacked 3x3+3x3 -> {double}")


def test_criterion_06_whole_network_cost_ordering():
    base = A.flops_of_graph(N.build_yolov4_tiny(80), 416).total
    prop = A.flops_of_graph(N.build_proposed(80), 416).total
    assert prop < base
    report(6, f"proposed {prop} < baseline {base} at 416 "
              f"(margin {base - prop}, {(base - prop) / base:.1%})")


def test_criterion_07_primitive_oracle_battery():
    rng = np.random.default_rng(20240607)
    t0 = time.perf_counter()

    def rand(n, c, h, w):
        return (rng.random((n, c, h, w), dtype=np.float32) * 2 - 1)

    # conv2d: 100 randomized cases including max-size ones
    conv_cases = 0
    for i in range(100):
        if i < 3:  # pinned maximum-size cases
            c, oc, h, w, k, s, p = 8, 8, 32, 32, 3, 1, 1
        else:
            c = int(rng.integers(1, 9))
            oc = int(rng.integers(1, 9))
            h = int(rng.integers(3, 33))
            w = int(rng.integers(3, 33))
            k = int(rng.choice([1, 3]))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2)) if k > 1 else 0
        x = rand(1, c, h, w)
        kern = (rng.random((oc, c, k, k), dtype=np.float32) * 2 - 1)
        bias = (rng.random(oc, dtype=np.float32) * 2 - 1)
        params = T.ConvParams(c, oc, k, stride=s, padding=p,
                              weights=kern.reshape(-1), bias=bias)
        got = T.conv2d(T.Tensor(x), params).array
        assert bits_equal(got, oracles.conv2d_naive(x, kern, bias, s, p)), \
            f"conv case {i} ({c}->{oc}, {h}x{w}, k{k} s{s} p{p})"
        conv_cases += 1

    # pool2d: 100 cases across both kinds
    for i in range(100):
        c = int(rng.integers(1, 9))
        h = int(rng.integers(4, 33))
        w = int(rng.integers(4, 33))
        k = int(rng.integers(2, 5))
        s = int(rng.integers(1, 4))
        kind = "max" if i % 2 else "avg"
        x = rand(1, c, h, w)
        got = T.pool2d(T.Tensor(x), kind, k, s).array
        assert bits_equal(got, oracles.pool2d_naive(x, kind, k, s)), f"pool case {i}"

    # global reductions: 100 cases over both axes and kinds
    for i in range(100):
        c = int(rng.integers(1, 9))
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        kind = "max" if i % 2 else "avg"
        x = rand(1, c, h, w)
        assert bits_equal(T.channel_pool(T.Tensor(x), kind).array,
                          oracles.channel_pool_naive(x, kind)), f"channel case {i}"
        assert bits_equal(T.spatial_pool(T.Tensor(x), kind).array,
                          oracles.spatial_pool_naive(x, kind)), f"spatial case {i}"

    # upsample: 100 cases
    for i in range(100):
        x = rand(1, int(rng.integers(1, 9)), int(rng.integers(1, 17)),
                 int(rng.integers(1, 17)))
        assert bits_equal(T.upsample_nearest2x(T.Tensor(x)).array,
                          oracles.upsample2x_naive(x)), f"upsample case {i}"

    # broadcast ops: 100 cases across the three multiplier shapes, plus add
    for i in range(100):
        n, c, h, w = 1, int(rng.integers(1, 9)), int(rng.integers(1, 17)), int(rng.integers(1, 17))
        x = rand(n, c, h, w)
        m_shape = [(n, c, 1, 1), (n, 1, h, w), (n, c, h, w)][i % 3]
        m = (rng.random(m_shape, dtype=np.float32) * 2 - 1)
        got = T.broadcast_mul(T.Tensor(x), T.Tensor(m)).array
        assert bits_equal(got, oracles.broadcast_mul_naive(x, m)), f"mul case {i}"
        y = rand(n, c, h, w)
        assert bits_equal(T.add(T.Tensor(x), T.Tensor(y)).array,
                          oracles.add_naive(x, y)), f"add case {i}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, f"{conv_cases} conv + 100 pool + 100 reduction + 100 upsample "
              f"+ 100 broadcast cases bit-exact in {elapsed:.1f} s")


def test_criterion_08_attention_equation_suite():
    rng = np.random.default_rng(808)
    # zero weights: both gates sit at 0.5, so the block is exactly 0.25 * input
    block = B.Cbam(8)
    f = T.Tensor((rng.random((1, 8, 6, 6), dtype=np.float32) * 2 - 1))
    out = B.cbam_forward(block, f)
    assert bits_equal(out.array, np.float32(0.25) * f.array)

    worst = 0.0
    for case in range(20):
        c = int(rng.choice([4, 8, 16]))
        block = B.Cbam(c)
        for _, p in block.convs():
            p.weights[:] = (rng.random(p.weights.size, dtype=np.float32) * 2 - 1) * 0.5
            p.bias[:] = (rng.random(p.bias.size, dtype=np.float32) - 0.5) * 0.2
        h = int(rng.integers(4, 10))
        f = T.Tensor((rng.random((1, c, h, h), dtype=np.float32) * 2 - 1))
        got = B.cbam_forward(block, f).array
        ref = oracles.cbam_naive(
            f.array,
            block.fc1.kernel.reshape(c // 4, c), block.fc1.bias,
            block.fc2.kernel.reshape(c, c // 4), block.fc2.bias,
            block.spatial.kernel.reshape(2, 7, 7), block.spatial.bias)
        rel = float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-6)))
        worst = max(worst, rel)
        assert rel < 1e-5, f"attention case {case}: relative error {rel}"
    report(8, f"zero-weight case exactly 0.25*input; 20 random cases within "
              f"1e-5 of the equation transcription (worst {worst:.2e})")


def test_criterion_10_decode_and_nms_suite():
    rng = np.random.default_rng(1010)
    head = T.Tensor((rng.random((1, 3 * 85, 13, 13), dtype=np.float32) * 2 - 1))
    dets = D.decode_head(head, D.AnchorSet(), 13, 416)
    assert len(dets) == 507

    from test_detect import random_detections
    for case in range(100):
        dets = random_detections(rng, 50)
        ct = float(rng.uniform(0.05, 0.7))
        it = float(rng.uniform(0.2, 0.8))
        kept = D.filter_and_nms(dets, ct, it)
        ref = oracles.nms_naive([(d.box.corners(), d.class_id, d.confidence, i)
                                 for i, d in enumerate(dets)], ct, it)
        assert [(d.class_id, d.confidence) for d in kept] \
            == [(r[1], r[2]) for r in ref], f"nms case {case}"

    mono_checks = 0
    for _ in range(50):
        dets = random_detections(rng, 40)
        lo, hi = sorted(rng.uniform(0, 1, size=2))
        if len(D.filter_and_nms(dets, float(hi), 0.45)) \
                > len(D.filter_and_nms(dets, float(lo), 0.45)):
            pytest.fail("raising the confidence threshold grew the output")
        mono_checks += 1
    report(10, f"decode emits 507 boxes at scale 13; 100 random 50-box instances "
               f"match the quadratic reference; monotonicity held on {mono_checks} pairs")


def test_criterion_11_forward_determinism():
    g = N.build_yolov4_tiny(80)
    W.init_seeded(g, 42)
    x = T.Tensor.full((1, 3, 416, 416), 0.5)
    sums = set()
    for _ in range(10):
        h13, h26 = N.forward(g, x)
        sums.add((W.tensor_checksum(h13), W.tensor_checksum(h26)))
    assert len(sums) == 1

    T.set_parallel(4)
    try:
        p13, p26 = N.forward(g, x)
    finally:
        T.set_parallel(0)
    assert (W.tensor_checksum(p13), W.tensor_checksum(p26)) in sums

    from test_weights_io import TestGoldenMaster
    assert next(iter(sums)) == (TestGoldenMaster.GOLDEN_H13, TestGoldenMaster.GOLDEN_H26)
    report(11, "10 serial runs and 1 parallel run share one head checksum pair, "
               "matching the recorded golden master")


def test_criterion_12_weight_round_trip(tmp_path):
    g = N.build_yolov4_tiny(80)
    W.init_seeded(g, 42)
    first = tmp_path / "a.yltw"
    second = tmp_path / "b.yltw"
    W.save(g, first)
    fresh = N.build_yolov4_tiny(80)
    W.load(fresh, first)
    W.save(fresh, second)
    assert first.read_bytes() == second.read_bytes()
    with pytest.raises(FingerprintMismatchError):
        W.load(N.build_proposed(80), first)
    report(12, f"save/load/save byte-stable ({first.stat().st_size} bytes); "
               "cross-model load rejected by fingerprint")
