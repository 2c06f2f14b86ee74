"""yolite detect benchmark.

    python3 perfbench/run.py --workload video-416 --seed 42 --seconds 20 --trace 0

Run from the repository root.  It builds nothing: it imports the package from
`src/`, sets up the workload (graphs, seeded weights, generated inputs), runs
a known-answer gate, then a closed loop of requests from one client for
`--seconds` seconds, and checks every output.  With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json; with `--trace 1` every other loop unit
repeats the previous one under the span tracer and it reports the per-layer
metrics.  The last line of standard output is the result object; the line
before it is a report with the environment, every sample and every check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

if not (SRC / "yolite" / "__init__.py").is_file():
    sys.exit(f"error: no yolite package under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True
_t0 = time.perf_counter()
import yolite  # noqa: E402  (timed: package import is part of set-up)
IMPORT_S = time.perf_counter() - _t0
if Path(yolite.__file__).resolve().parent != SRC / "yolite":
    sys.exit(f"error: imported yolite from {yolite.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
from yolite import analysis as A, network as N, tensor as T  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads as W  # noqa: E402


def env_stamp() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def end_to_end_metrics(requests, loop_s, setup_s) -> dict:
    untraced = [r for r in requests if not r["traced"]]
    out = {f"latency_p50_s.{m}": statistics.median(
        [r["seconds"] for r in untraced if r["model"] == m]) for m in W.MODELS}
    out["images_per_s"] = len(untraced) / loop_s
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def ledger_checks(tracer, requests, prep) -> tuple[dict, list[str]]:
    """Executed conv MACs per traced forward against the cost ledger."""
    spans = tracer.spans
    model_of = {r["id"]: r["model"] for r in requests if r["traced"]}
    executed = defaultdict(int)
    for s in spans:
        if s.name != "tensor.conv2d" or s.counts is None:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != "network.forward":
            p = spans[p].parent
        if p >= 0:
            executed[s.request] += s.counts["macs"]
    metrics, problems = {}, []
    for m in W.MODELS:
        g = prep.graphs[m]
        ledger = A.flops_of_graph(g, prep.wl.size).by_kind()["conv"]
        # The cost model counts CBAM's pooled-vector MLP as free; it runs once
        # on the average- and once on the max-pooled 1x1 vector.
        free = sum(2 * p.in_channels * p.out_channels * p.kernel_size ** 2
                   for entry, p in N.iter_conv_entries(g)
                   if entry.endswith((".cbam.fc1", ".cbam.fc2")))
        diffs = {executed[rid] - ledger for rid, model in model_of.items() if model == m}
        metrics[f"analysis.ledger_macs.{m}"] = ledger
        metrics[f"analysis.unledgered_macs.{m}"] = diffs.pop() if len(diffs) == 1 else -1
        if diffs or metrics[f"analysis.unledgered_macs.{m}"] != free:
            problems.append(f"ledger: {m} executed minus ledger conv MACs is "
                            f"{metrics[f'analysis.unledgered_macs.{m}']}, expected {free}")
    return metrics, problems


def per_layer_metrics(tracer, requests, prep) -> tuple[dict, list[str]]:
    spans = tracer.spans
    selfs = tracer.self_seconds()
    traced = [r for r in requests if r["traced"]]
    n = max(len(traced), 1)

    def total(*names):
        return sum(s.seconds for s in spans if s.name in names)

    def count(name, key):
        return sum(s.counts[key] for s in spans if s.name == name and s.counts)

    layer_self = defaultdict(float)
    request_self = defaultdict(float)
    for s, own in zip(spans, selfs):
        layer_self[s.name.split(".")[0]] += own
        request_self[s.request] += own
    out = {f"{layer}.self.s": layer_self[layer] / n for layer in tracer_mod.LAYERS}

    conv_s, macs = total("tensor.conv2d"), count("tensor.conv2d", "macs")
    tensor_s = sum(s.seconds for s in spans if s.name.startswith("tensor."))
    out.update({
        "tensor.conv2d.s": conv_s / n,
        "tensor.conv2d.calls": sum(s.name == "tensor.conv2d" for s in spans) / n,
        "tensor.conv2d.macs": macs / n,
        "tensor.conv2d.gmac_per_s": macs / conv_s / 1e9 if conv_s else 0.0,
        "tensor.conv2d.bytes": count("tensor.conv2d", "bytes") / n,
        "tensor.pool2d.s": total("tensor.pool2d") / n,
        "tensor.elementwise.s": (tensor_s - conv_s - total("tensor.pool2d")) / n,
        "blocks.csp.s": total("blocks.csp_forward_with_route") / n,
        "blocks.resblock_d.s": total("blocks.resblock_d_forward") / n,
        "blocks.aux.s": total("blocks.aux_forward") / n,
        "blocks.cbam.s": total("blocks.cbam_forward") / n,
        "network.build.s": total("network.build_yolov4_tiny", "network.build_proposed") / n,
        "network.forward.self.s": sum(own for s, own in zip(spans, selfs) if s.name in
                                      ("network.forward", "network.forward_all")) / n,
        "detect.decode_head.s": total("detect.decode_head") / n,
        "detect.candidates": count("detect.decode_head", "candidates") / n,
        "detect.filter_and_nms.s": total("detect.filter_and_nms") / n,
        "detect.to_json.s": total("detect.detections_to_json") / n,
        "weights_io.init_seeded.s": total("weights_io.init_seeded") / n,
        "weights_io.load.s": total("weights_io.load") / n,
        "weights_io.bytes_loaded": count("weights_io.load", "bytes") / n,
        "imageio.load_image.s": total("imageio.load_image") / n,
        "imageio.letterbox.s": total("imageio.letterbox") / n,
        "imageio.bytes_read": count("imageio.load_image", "bytes") / n,
        "cli.main.s": total("cli.main") / n,
    })
    survivors = sum(sum(d.confidence > s.counts["conf_thresh"] for d in s.counts["dets"])
                    for s in spans if s.name == "detect.filter_and_nms" and s.counts)
    kept = count("detect.filter_and_nms", "kept")
    out["detect.survivors"] = survivors / n
    out["detect.kept"] = kept / n
    out["detect.kept_ratio"] = kept / survivors if survivors else 0.0

    forward_s = defaultdict(list)
    for s in spans:
        if s.name == "network.forward":
            forward_s[next(r["model"] for r in traced if r["id"] == s.request)].append(s.seconds)
    ledger, problems = ledger_checks(tracer, requests, prep)
    out.update(ledger)
    for m in W.MODELS:
        mean = statistics.fmean(forward_s[m]) if forward_s[m] else 0.0
        out[f"network.forward.s.{m}"] = mean
        out[f"network.forward.gmac_per_s.{m}"] = (
            ledger[f"analysis.ledger_macs.{m}"] / mean / 1e9 if mean else 0.0)

    ratios = []
    for m in W.MODELS:
        on = [r["seconds"] for r in traced if r["model"] == m]
        off = [r["seconds"] for r in requests if not r["traced"] and r["model"] == m]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    out["trace.overhead_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    out["trace.requests"] = len(traced)
    out["trace.request.s"] = sum(r["seconds"] for r in traced) / n
    unattributed = [r["seconds"] - request_self[r["id"]] for r in traced]
    out["trace.unattributed.s"] = sum(unattributed) / n
    if any(u < 0 for u in unattributed):
        problems.append("trace: span self times exceed a request's wall time")
    return out, problems


def measure(prep, spec, capture, tracer, rid: int, traced: bool, rng) -> tuple[dict, float]:
    """Run one request, under the tracer when `traced`, and check its output.
    Returns the request's record and the seconds spent checking it."""
    if traced:
        tracer.install()
        tracer.request = rid
    t0 = time.perf_counter()
    try:
        result = W.run_request(prep, spec, capture)
    except Exception:  # a request that raises is counted as failed; the loop goes on
        result = W.Result(time.perf_counter() - t0, (), [], error=traceback.format_exc(limit=-3))
    finally:
        tracer.request = None
        tracer.restore()
    t0 = time.perf_counter()
    record = {"id": rid, "model": spec[0], "frame": spec[1], "source": spec[2],
              "format": spec[3], "traced": traced, "seconds": result.seconds,
              "problems": W.verify(prep, spec, result, rng), "digest": W.digest(result)}
    return record, time.perf_counter() - t0


def run(args) -> dict:
    env = env_stamp()
    env["loadavg_1m_before"] = os.getloadavg()[0]
    wl = W.WORKLOADS[args.workload]
    pins = json.loads(Path(__file__).with_name("pins.json").read_text())
    expected_pins = pins["requests"][wl.name] if args.seed == W.DEFAULT_SEED else {}
    originals = tracer_mod.snapshot()
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    problems, requests = [], []
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prep = W.setup(wl, args.seed, workdir / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)
        setup_s = IMPORT_S + statistics.median(setup_times)

        T.set_parallel(wl.parallel)
        try:
            problems += W.gate(prep, pins)
        except Exception:  # reported as a failed check, like a wrong answer
            problems.append("gate raised " + traceback.format_exc(limit=-3))
        tracer = tracer_mod.Tracer()
        digests, rng = {}, np.random.default_rng(args.seed)
        with W.HeadCapture() as capture:
            verify_s, unit = 0.0, 0
            t_loop = time.perf_counter()
            while time.perf_counter() - t_loop < args.seconds:
                traced = bool(args.trace) and unit % 2 == 1
                frame = (unit // 2 if args.trace else unit) % len(wl.shapes)
                for spec in wl.unit(frame):
                    record, checking_s = measure(prep, spec, capture, tracer, len(requests),
                                                 traced, rng)
                    key = f"{spec[0]}/{spec[1]}"
                    if digests.setdefault(key, record["digest"]) != record["digest"]:
                        record["problems"].append(
                            f"digest: {key} differs from an earlier request on the same input")
                    if expected_pins.get(key, record["digest"]) != record["digest"]:
                        record["problems"].append(f"digest: {key} differs from the pinned digest")
                    requests.append(record)
                    verify_s += checking_s
                unit += 1
            loop_s = time.perf_counter() - t_loop - verify_s
    finally:
        T.set_parallel(0)
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    changed = [k for k, v in tracer_mod.snapshot().items() if originals.get(k) is not v]
    if changed:
        problems.append(f"trace: module attributes not restored: {changed}")
    if args.trace:
        if not any(r["traced"] for r in requests):
            problems.append("trace: the loop ended before a traced unit ran")
        metrics, found = per_layer_metrics(tracer, requests, prep)
        problems += found
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{wl.name}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_records()))
    else:
        metrics = end_to_end_metrics(requests, loop_s, setup_s)
    env["loadavg_1m_after"] = os.getloadavg()[0]
    return {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
            "setup_runs_s": setup_times, "import_s": IMPORT_S, "loop_s": loop_s,
            "samples": {m: sum(1 for r in requests if r["model"] == m and not r["traced"])
                        for m in W.MODELS},
            "requests": requests, "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(f"{args.workload}: terminated"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    report = run(args)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(report["metrics"]) != set(declared):
        report["problems"].append(
            f"metrics: printed names {sorted(set(report['metrics']) ^ set(declared))} "
            "do not match BENCHMARK.json")
    failed = sum(1 for r in report["requests"] if r["problems"])
    attempted = len(report["requests"])
    report["error_rate"] = failed / attempted if attempted else 1.0
    print(json.dumps(report))
    print(json.dumps({
        "correct": not report["problems"] and failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": report["metrics"].get(name), "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
