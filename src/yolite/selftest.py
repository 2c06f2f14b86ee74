"""Self-contained invariant suite behind ``yolite selftest``.

Each check is small and independent; the command reports one line per check
and fails if any check fails.  The heavyweight randomized batteries live in
the development test suite, not here; this is a field smoke test.
"""

from __future__ import annotations

import functools
import os
import tempfile

import numpy as np

from . import analysis as A
from . import detect as D
from . import network as N
from . import tensor as T
from . import weights_io as W
from .errors import FingerprintMismatchError, WeightFileError


def _check_conv_against_naive() -> str:
    rng = np.random.default_rng(2024)
    x = (rng.random((1, 3, 6, 6), dtype=np.float32) * 2 - 1)
    kern = (rng.random((4, 3, 3, 3), dtype=np.float32) * 2 - 1)
    bias = (rng.random(4, dtype=np.float32) * 2 - 1)
    params = T.ConvParams(3, 4, 3, stride=2, padding=1,
                          weights=kern.reshape(-1), bias=bias)
    got = T.conv2d(T.Tensor(x), params).array
    ref = np.zeros_like(got)
    for oc in range(4):
        for oy in range(3):
            for ox in range(3):
                acc = np.float32(0.0)
                for ci in range(3):
                    for ky in range(3):
                        for kx in range(3):
                            iy, ix = oy * 2 + ky - 1, ox * 2 + kx - 1
                            if 0 <= iy < 6 and 0 <= ix < 6:
                                acc = acc + x[0, ci, iy, ix] * kern[oc, ci, ky, kx]
                ref[0, oc, oy, ox] = acc + bias[oc]
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32)), \
        "convolution diverged from the scalar reference"
    return f"bit-exact on a seeded case ({T.CONV_FOLD} conv fold)"


def _check_elementwise_ops() -> str:
    x = T.Tensor(np.array([[[[0.0, -10.0], [5.0, 2.0]]]], np.float32))
    leaky = T.leaky_relu(x).array
    assert leaky[0, 0, 0, 1] == -1.0 and leaky[0, 0, 1, 0] == 5.0
    sig = T.sigmoid(T.Tensor.zeros(1, 1, 1, 1)).array
    assert sig[0, 0, 0, 0] == 0.5
    pooled = T.pool2d(T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)),
                      "avg", 2, 2)
    assert pooled.array[0, 0, 0, 0] == 2.5
    tie = T.pool2d(T.Tensor(np.array([[[[0.0, -0.0], [-0.0, -0.0]]]], np.float32)),
                   "max", 2, 2)
    assert not np.signbit(tie.array[0, 0, 0, 0]), "max pool did not keep the earlier +0 on a tie"
    return "activation and pooling identities hold"


def _check_reference_costs() -> str:
    csp = A.FlopsReport(A.CSP_REFERENCE_COSTS).total
    res = A.FlopsReport(A.RESBLOCK_D_REFERENCE_COSTS).total
    assert csp == 742_064_128, f"csp reference total {csp}"
    assert res == 64_376_832, f"residual reference total {res}"
    assert 11.52 <= csp / res <= 11.54
    return f"totals {csp} / {res}"


def _check_receptive_fields() -> str:
    assert A.receptive_field([(3, 1)]).size == 3
    assert A.receptive_field([(3, 1), (3, 1)]).size == 5
    assert A.receptive_field([(3, 2), (3, 1)]).size == 7
    return "3 / 5 / 7 as expected"


def _check_parameter_anchors() -> str:
    base = N.count_params(N.build_yolov4_tiny(80))
    prop = N.count_params(N.build_proposed(80))
    assert abs(base - 6.05661e6) / 6.05661e6 < 0.05, f"baseline params {base}"
    assert abs(prop - 6.16429e6) / 6.16429e6 < 0.05, f"proposed params {prop}"
    assert prop > base
    return f"baseline {base}, proposed {prop}"


def _check_decode_and_nms() -> str:
    head = T.Tensor.zeros(1, 27, 13, 13)
    dets = D.decode_head(head, D.AnchorSet(), 13, 416)
    assert len(dets) == 507, f"decode emitted {len(dets)}"
    assert abs(dets[0].box.cx - 16.0) < 1e-9 and abs(dets[0].objectness - 0.5) < 1e-12
    box = D.Box(5, 5, 2, 2)
    kept = D.filter_and_nms([D.Detection(box, 0, 0.8, 1.0),
                             D.Detection(box, 0, 0.9, 1.0)], 0.5, 0.5)
    assert len(kept) == 1 and kept[0].objectness == 0.9
    return "507 candidates; duplicate suppressed"


def _label(g: N.NetworkGraph) -> str:
    return f"{g.name}, {g.classes} classes"


def _check_weights_round_trip(build) -> str:
    g = build()
    W.init_seeded(g, 42)
    other = next(name for name in N.MODELS if name != g.name)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.yltw")
        W.save(g, path)
        fresh = build()
        W.load(fresh, path)
        assert W.params_checksum(fresh) == W.params_checksum(g)
        try:
            W.load(N.MODELS[other](g.classes), path)
        except FingerprintMismatchError:
            pass
        else:
            raise AssertionError(f"loading into {other} was not rejected")
    return f"{_label(g)}: round-trip stable; loading into {other} rejected"


def _check_forward_determinism(build) -> str:
    g = build()
    W.init_seeded(g, 42)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.random((1, 3, 64, 64), dtype=np.float32))
    a13, a26 = N.forward(g, x)
    b13, b26 = N.forward(g, x)
    assert np.array_equal(a13.array.view(np.uint32), b13.array.view(np.uint32))
    assert np.array_equal(a26.array.view(np.uint32), b26.array.view(np.uint32))
    return f"{_label(g)}: repeated forward at 64 px is bit-identical"


def _check_weight_file(build, weights_path) -> str:
    g = build()
    try:
        W.load(g, weights_path)
    except WeightFileError as exc:
        raise AssertionError(f"{_label(g)}: weight file rejected: {exc}") from exc
    return f"{_label(g)}: weight file loads cleanly"


def collect_checks(weights_path=None, model_builder=None):
    """The checks in report order.  ``model_builder`` builds the graph that
    the model checks run on (default: `v4tiny` at 80 classes, as the CLI);
    a weight file is loaded into that graph."""
    build = model_builder or N.build_yolov4_tiny
    checks = [
        ("conv-vs-naive", _check_conv_against_naive),
        ("elementwise-ops", _check_elementwise_ops),
        ("reference-costs", _check_reference_costs),
        ("receptive-fields", _check_receptive_fields),
        ("parameter-anchors", _check_parameter_anchors),
        ("decode-and-nms", _check_decode_and_nms),
        ("weights-round-trip", functools.partial(_check_weights_round_trip, build)),
        ("forward-determinism", functools.partial(_check_forward_determinism, build)),
    ]
    if weights_path is not None:
        checks.append(("weight-file", functools.partial(_check_weight_file, build,
                                                        weights_path)))
    return checks


def run_selftest(weights_path=None, model_builder=None) -> list[dict]:
    """Run every check; optionally verify a weight file loads into the model.

    Returns one record per check: {"name", "passed", "detail"}.  Failures are
    collected, not raised, so the whole suite always reports.
    """
    results = []
    for name, fn in collect_checks(weights_path, model_builder):
        try:
            results.append({"name": name, "passed": True, "detail": fn()})
        except Exception as exc:
            results.append({"name": name, "passed": False, "detail": str(exc)})
    return results
