"""Command-line interface: describe, flops, detect, bench, selftest.

Exit codes: 0 success, 2 bad configuration, 3 unreadable input, 4 weight-file
failure, 5 selftest failure, 6 any other package error (a shape, graph or
non-finite-value failure while running).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import analysis as A
from . import detect as D
from . import imageio as I
from . import network as N
from . import selftest as S
from . import tensor as T
from . import weights_io as W
from .errors import ConfigError, InputError, WeightFileError, YoliteError

SEED_ENV = "YOLITE_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_WEIGHTS = 4
EXIT_SELFTEST = 5
EXIT_RUNTIME = 6

_BUILDERS = {"v4tiny": N.build_yolov4_tiny, "proposed": N.build_proposed}


@dataclass
class Config:
    model: str = "v4tiny"
    classes: int = 80
    input_size: int = 416
    conf_thresh: float = 0.25
    iou_thresh: float = 0.45
    anchors: D.AnchorSet | None = None
    seed: int | None = None  # None: $YOLITE_SEED, else 42
    weights: str | None = None
    fmt: str = "text"

    def validate(self) -> None:
        if self.model not in _BUILDERS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.classes < 1:
            raise ConfigError("classes must be >= 1")
        if self.input_size <= 0 or self.input_size % 32:
            raise ConfigError(f"input size must be a positive multiple of 32, got {self.input_size}")
        for name, v in (("conf-thresh", self.conf_thresh), ("iou-thresh", self.iou_thresh)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie within [0, 1], got {v}")
        if self.seed is not None and not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.anchors is not None:
            counts = {s: len(pairs) for s, pairs in self.anchors.by_stride.items()}
            if counts != {32: N.HEAD_ANCHORS, 16: N.HEAD_ANCHORS}:
                raise ConfigError(f"anchors need {N.HEAD_ANCHORS} (w, h) pairs for each of "
                                  f"strides 32 and 16, got {counts}")

    def _weight_seed(self) -> int:
        """``seed``, else $YOLITE_SEED, else 42.  Called only where weights are
        seeded, so commands that seed nothing never read the variable."""
        if self.seed is not None:
            return self.seed
        text = os.environ.get(SEED_ENV, "42")
        try:
            seed = int(text)
        except ValueError:
            raise ConfigError(f"${SEED_ENV} must be an integer, got {text!r}") from None
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"${SEED_ENV} must fit in an unsigned 64-bit integer, got {text!r}")
        return seed

    def build_graph(self, model: str | None = None) -> N.NetworkGraph:
        g = _BUILDERS[model or self.model](self.classes)
        if self.weights is not None:
            W.load(g, self.weights)
        else:
            W.init_seeded(g, self._weight_seed())
        return g

    def anchor_set(self) -> D.AnchorSet:
        return self.anchors if self.anchors is not None else D.AnchorSet()


def _parse_anchors(text: str) -> D.AnchorSet:
    try:
        raw = json.loads(text)
        return D.AnchorSet({int(k): [tuple(p) for p in v] for k, v in raw.items()})
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad anchor specification: {exc}") from exc


def _config_from_args(args) -> Config:
    cfg = Config(model=args.model, classes=args.classes, input_size=args.input_size,
                 conf_thresh=args.conf_thresh, iou_thresh=args.iou_thresh,
                 anchors=_parse_anchors(args.anchors) if args.anchors else None,
                 seed=args.seed, weights=args.weights, fmt=args.format)
    cfg.validate()
    return cfg


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_describe(cfg: Config) -> int:
    g = _BUILDERS[cfg.model](cfg.classes)
    doc = N.describe(g, cfg.input_size)
    if cfg.fmt == "json":
        print(_dump_json(doc))
        return EXIT_OK
    print(f"model: {doc['model']}  classes: {doc['classes']}  input: {doc['input_size']}")
    print(f"parameters: {doc['parameters']:,}")
    print(f"conv layers: {doc['conv_layers']}")
    rows = [("id", "kind", "output", "params")]
    for node in doc["nodes"]:
        rows.append((node["id"], node["kind"],
                     "x".join(str(v) for v in node["output_shape"]),
                     f"{node['params']:,}"))
    print("\n".join(A.format_table(rows)))
    for name, shape in doc["heads"].items():
        print(f"{name}: {'x'.join(str(v) for v in shape)}")
    return EXIT_OK


def cmd_flops(cfg: Config, paper_fixtures: bool = False) -> int:
    if paper_fixtures:
        csp = A.flops_of_list(A.CSP_REFERENCE_COSTS, label="csp-block@104x104x64")
        res = A.flops_of_list(A.RESBLOCK_D_REFERENCE_COSTS, label="resblock-d@104x104x64")
        ratio = csp.total / res.total
        if cfg.fmt == "json":
            print(_dump_json({"csp_block": csp.to_json_dict(),
                              "resblock_d": res.to_json_dict(),
                              "ratio": round(ratio, 4)}))
        else:
            print(csp.to_text())
            print()
            print(res.to_text())
            print()
            print(f"ratio: {csp.total} / {res.total} = {ratio:.4f}")
        return EXIT_OK
    report = A.flops_of_graph(_BUILDERS[cfg.model](cfg.classes), cfg.input_size)
    print(_dump_json(report.to_json_dict()) if cfg.fmt == "json" else report.to_text())
    return EXIT_OK


def _decode_all(cfg: Config, h13: T.Tensor, h26: T.Tensor) -> list[D.Detection]:
    anchors = cfg.anchor_set()
    dets = D.decode_head(h13, anchors, cfg.input_size // 32, cfg.input_size)
    dets += D.decode_head(h26, anchors, cfg.input_size // 16, cfg.input_size)
    return D.filter_and_nms(dets, cfg.conf_thresh, cfg.iou_thresh)


def cmd_detect(cfg: Config, image_path: str) -> int:
    image = I.load_image(image_path)
    tensor, transform = I.letterbox(image, cfg.input_size)
    g = cfg.build_graph()
    h13, h26 = N.forward(g, tensor)
    kept = _decode_all(cfg, h13, h26)
    mapped = [D.Detection(transform.box_to_original(d.box), d.class_id,
                          d.objectness, d.class_prob) for d in kept]
    records = D.detections_to_json(mapped)
    if cfg.fmt == "json":
        print(_dump_json({"image": image_path, "detections": records}))
    else:
        print(f"{len(records)} detection(s) in {image_path}")
        for rec in records:
            box = rec["box"]
            print(f"  class {rec['class_id']}  conf {rec['confidence']}"
                  f"  box ({box['cx']}, {box['cy']}, {box['w']}, {box['h']})")
    return EXIT_OK


def _bench_once(cfg: Config, model: str, iters: int) -> dict:
    g = cfg.build_graph(model)
    rng_input = T.Tensor.full((1, 3, cfg.input_size, cfg.input_size), 0.5)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        N.forward(g, rng_input)
        times.append(time.perf_counter() - t0)
    total = sum(times)
    return {"model": model, "iters": iters,
            "mean_ms": round(1000 * total / iters, 3),
            "min_ms": round(1000 * min(times), 3),
            "fps": round(iters / total, 3)}


def cmd_bench(cfg: Config, iters: int, compare: bool = False) -> int:
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    results = [_bench_once(cfg, m, iters)
               for m in (("v4tiny", "proposed") if compare else (cfg.model,))]
    if cfg.fmt == "json":
        print(_dump_json({"input_size": cfg.input_size, "results": results}))
    else:
        for r in results:
            print(f"{r['model']}: {r['iters']} iteration(s), mean {r['mean_ms']} ms, "
                  f"min {r['min_ms']} ms, {r['fps']} FPS")
    return EXIT_OK


def cmd_selftest(cfg: Config) -> int:
    builder = None
    if cfg.weights is not None:
        def builder():
            return _BUILDERS[cfg.model](cfg.classes)
    results = S.run_selftest(weights_path=cfg.weights, model_builder=builder)
    ok = all(r["passed"] for r in results)
    if cfg.fmt == "json":
        print(_dump_json({"passed": ok, "checks": results}))
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}")
    return EXIT_OK if ok else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yolite",
        description="Build, inspect, and run the two-scale tiny detector variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", choices=sorted(_BUILDERS), default="v4tiny")
        p.add_argument("--classes", type=int, default=80)
        p.add_argument("--input-size", type=int, default=416)
        p.add_argument("--conf-thresh", type=float, default=0.25)
        p.add_argument("--iou-thresh", type=float, default=0.45)
        p.add_argument("--anchors", help="JSON mapping of stride to (w, h) pairs")
        p.add_argument("--seed", type=int, default=None,
                       help=f"weight seed (default: ${SEED_ENV} or 42)")
        p.add_argument("--weights", help="path to a YLTW weight file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    add_common(sub.add_parser("describe", help="layer table and parameter counts"))

    p_flops = sub.add_parser("flops", help="static cost report")
    add_common(p_flops)
    p_flops.add_argument("--paper-fixtures", action="store_true",
                         help="print the built-in reference block cost tables")

    p_detect = sub.add_parser("detect", help="run detection on a PPM or YLTI file")
    add_common(p_detect)
    p_detect.add_argument("image", help="input image path")

    p_bench = sub.add_parser("bench", help="forward-pass timing")
    add_common(p_bench)
    p_bench.add_argument("--iters", type=int, default=5)
    p_bench.add_argument("--compare", action="store_true",
                         help="time both model variants")

    add_common(sub.add_parser("selftest", help="run the embedded invariant suite"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "describe":
            return cmd_describe(cfg)
        if args.command == "flops":
            return cmd_flops(cfg, paper_fixtures=args.paper_fixtures)
        if args.command == "detect":
            return cmd_detect(cfg, args.image)
        if args.command == "bench":
            return cmd_bench(cfg, args.iters, compare=args.compare)
        return cmd_selftest(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WeightFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEIGHTS
    except YoliteError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
