"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracer_mod
import workloads as W

HERE = Path(__file__).parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds():
    for wl in W.WORKLOADS.values():
        a, b, c = W.make_frames(wl, 7), W.make_frames(wl, 7), W.make_frames(wl, 8)
        assert [f.shape[:2] for f in a] == list(wl.shapes)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not any(np.array_equal(x, z) for x, z in zip(a, c))


def test_every_workload_and_its_reason_is_recorded():
    recorded = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(recorded) == set(W.WORKLOADS)
    assert all(why.strip() and "\n" not in why for why in recorded.values())


def test_baseline_numbers_are_recorded():
    baseline = json.loads((HERE / "BASELINE.json").read_text())
    for name in W.WORKLOADS:
        medians = baseline["workloads"][name]["end_to_end"]
        assert set(medians) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(v["median"] > 0 for v in medians.values())
        assert set(baseline["workloads"][name]["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def traced_requests(tmp_path_factory):
    """One untraced and one traced request per model on small (64 px) copies of
    a warm and the cold workload."""
    out = []
    for base in ("crowd-416-par2", "cold-cli-128"):
        wl = dataclasses.replace(W.WORKLOADS[base], size=64, parallel=0)
        prep = W.setup(wl, 3, tmp_path_factory.mktemp(base) / "setup")
        tracer = tracer_mod.Tracer()
        before = tracer_mod.snapshot()
        records = []
        with W.HeadCapture() as capture:
            for traced in (False, True):
                for spec in wl.unit(0)[:2]:
                    record, _ = run.measure(prep, spec, capture, tracer, len(records), traced,
                                            np.random.default_rng(0))
                    records.append(record)
        out.append((prep, tracer, records, before))
    return out


def test_printed_metric_names_match_the_benchmark_spec(traced_requests):
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    prep, tracer, records, _ = traced_requests[0]
    e2e = run.end_to_end_metrics(records, 1.0, 1.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    for prep, tracer, records, _ in traced_requests:
        layer, problems = run.per_layer_metrics(tracer, records, prep)
        assert problems == []
        assert set(layer) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_requests_match_untraced_and_the_ledger(traced_requests):
    for prep, tracer, records, before in traced_requests:
        assert all(r["problems"] == [] for r in records)
        plain = {r["model"]: r["digest"] for r in records if not r["traced"]}
        assert all(r["digest"] == plain[r["model"]] for r in records if r["traced"])
        after = tracer_mod.snapshot()
        assert all(after[k] is v for k, v in before.items())
        layer, _ = run.per_layer_metrics(tracer, records, prep)
        assert layer["analysis.unledgered_macs.v4tiny"] == 0
        # CBAM's pooled-vector MLP: 2 * (64*16 + 16*64) + 2 * (128*32 + 32*128).
        assert layer["analysis.unledgered_macs.proposed"] == 20480
        assert layer["trace.unattributed.s"] >= 0
    cold = traced_requests[1][2]
    layer, _ = run.per_layer_metrics(traced_requests[1][1], cold, traced_requests[1][0])
    assert layer["cli.main.s"] > 0 and layer["network.build.s"] > 0
    assert layer["weights_io.init_seeded.s"] > 0


def test_a_wrong_nms_result_is_caught(traced_requests):
    prep, _, _, _ = traced_requests[0]
    image = W.I.load_image(str(prep.ppm[0]))
    x, transform = W.I.letterbox(image, prep.wl.size)
    heads = W.N.forward(prep.graphs["v4tiny"], x)
    dets = W.decode_all(*heads, prep.wl.size)
    kept = W.D.filter_and_nms(dets, prep.wl.conf_thresh, W.IOU_THRESH)
    result = W.Result(0.0, heads, W.to_records(kept, transform), dets, kept, transform)
    assert W.verify(prep, ("v4tiny", 0, "warm", "ppm"), result, np.random.default_rng(0)) == []
    survivors = [d for d in dets if d.confidence > prep.wl.conf_thresh]
    survivors.sort(key=lambda d: -d.confidence)
    for wrong in (kept[:-1], survivors):
        bad = W.Result(0.0, heads, W.to_records(wrong, transform), dets, wrong, transform)
        assert W.verify(prep, ("v4tiny", 0, "warm", "ppm"), bad, np.random.default_rng(0))
