"""Command-line interface: describe, flops, detect, bench, selftest.

Exit codes: 0 success, 2 bad configuration, 3 unreadable input, 4 weight-file
failure, 5 selftest failure, 6 any other package error (a shape, graph or
non-finite-value failure while running).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time

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

# Upper bounds of --classes (~50x the paper's 80) and --input-size (~10x its
# 416 px), so no accepted value asks numpy for an impossible array.
MAX_CLASSES = 4096
MAX_INPUT_SIZE = 4096


# Input rules.  Each is called as rule(text, name) -- by argparse as a flag's
# ``type``, or on an environment variable -- and raises ConfigError, which
# argparse passes through, so `main` returns EXIT_CONFIG naming the input.

def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _count(text: str, name: str) -> int:
    value = _integer(text, name)
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _classes(text: str, name: str) -> int:
    value = _count(text, name)
    if value > MAX_CLASSES:
        raise ConfigError(f"{name} must be <= {MAX_CLASSES}, got {value}")
    return value


def _input_size(text: str, name: str) -> int:
    value = _integer(text, name)
    if value <= 0 or value % N.INPUT_MULTIPLE:
        raise ConfigError(f"{name} must be a positive multiple of {N.INPUT_MULTIPLE}, "
                          f"got {value}")
    if value > MAX_INPUT_SIZE:
        raise ConfigError(f"{name} must be <= {MAX_INPUT_SIZE}, got {value}")
    return value


def _threshold(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie within [0, 1], got {value}")
    return value


def _seed(text: str, name: str) -> int:
    value = _integer(text, name)
    if not 0 <= value < 2 ** 64:
        raise ConfigError(f"{name} must fit in an unsigned 64-bit integer, got {text!r}")
    return value


def _anchors(text: str, name: str) -> D.AnchorSet:
    try:
        raw = json.loads(text)
        anchors = D.AnchorSet({int(k): [tuple(p) for p in v] for k, v in raw.items()})
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad {name} specification: {exc}") from exc
    counts = {s: len(pairs) for s, pairs in anchors.by_stride.items()}
    strides = D.AnchorSet.DEFAULT  # one per head
    if counts != {s: N.HEAD_ANCHORS for s in strides}:
        raise ConfigError(f"{name} need {N.HEAD_ANCHORS} (w, h) pairs for each of "
                          f"strides {' and '.join(map(str, strides))}, got {counts}")
    return anchors


# Every argument, as add_argument keyword arguments; COMMANDS picks each
# subcommand's arguments from here, in help order.
FLAGS = {
    "image": {"help": "input image path"},
    "--model": {"choices": sorted(N.MODELS), "default": "v4tiny"},
    "--classes": {"type": _classes, "default": 80},
    "--input-size": {"type": _input_size, "default": 416},
    "--conf-thresh": {"type": _threshold, "default": 0.25},
    "--iou-thresh": {"type": _threshold, "default": 0.45},
    "--anchors": {"type": _anchors, "default": D.AnchorSet(),
                  "help": "JSON mapping of stride to (w, h) pairs"},
    "--seed": {"type": _seed, "help": f"weight seed (default: ${SEED_ENV} or 42)"},
    "--weights": {"help": "path to a YLTW weight file"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--paper-fixtures": {"action": "store_true",
                         "help": "print the built-in reference block cost tables"},
    "--iters": {"type": _count, "default": 5},
    "--compare": {"action": "store_true", "help": "time both model variants"},
}

_GRAPH = ("--model", "--classes", "--input-size")
COMMANDS = {
    "describe": ("layer table and parameter counts", _GRAPH + ("--format",)),
    "flops": ("static cost report", _GRAPH + ("--format", "--paper-fixtures")),
    "detect": ("run detection on a PPM or YLTI file",
               _GRAPH + ("--conf-thresh", "--iou-thresh", "--anchors", "--seed", "--weights",
                         "--format", "image")),
    "bench": ("forward-pass timing",
              _GRAPH + ("--seed", "--weights", "--format", "--iters", "--compare")),
    "selftest": ("run the embedded invariant suite",
                 ("--model", "--classes", "--weights", "--format")),
}


def _build_graph(args, model: str) -> N.NetworkGraph:
    """``model`` with ``--weights`` loaded, else seeded from ``--seed``, else
    $YOLITE_SEED, else 42.  Only seeding reads the variable, so commands that
    seed nothing never fail on it."""
    g = N.MODELS[model](args.classes)
    if args.weights is not None:
        W.load(g, args.weights)
    elif args.seed is not None:
        W.init_seeded(g, args.seed)
    else:
        W.init_seeded(g, _seed(os.environ.get(SEED_ENV, "42"), f"${SEED_ENV}"))
    return g


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_describe(args) -> int:
    doc = N.describe(N.MODELS[args.model](args.classes), args.input_size)
    if args.format == "json":
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


def cmd_flops(args) -> int:
    if args.paper_fixtures:
        csp = A.flops_of_list(A.CSP_REFERENCE_COSTS, label="csp-block@104x104x64")
        res = A.flops_of_list(A.RESBLOCK_D_REFERENCE_COSTS, label="resblock-d@104x104x64")
        ratio = csp.total / res.total
        if args.format == "json":
            print(_dump_json({"csp_block": csp.to_json_dict(),
                              "resblock_d": res.to_json_dict(),
                              "ratio": round(ratio, 4)}))
        else:
            print(f"{csp.to_text()}\n\n{res.to_text()}\n\n"
                  f"ratio: {csp.total} / {res.total} = {ratio:.4f}")
        return EXIT_OK
    report = A.flops_of_graph(N.MODELS[args.model](args.classes), args.input_size)
    print(_dump_json(report.to_json_dict()) if args.format == "json" else report.to_text())
    return EXIT_OK


def cmd_detect(args) -> int:
    # the image is read first: a bad image exits 3 ahead of a bad seed or weight file
    image = I.load_image(args.image)
    g = _build_graph(args, args.model)
    records = D.detections_to_json(D.detect_image(g, image, args.input_size, args.anchors,
                                                  args.conf_thresh, args.iou_thresh))
    if args.format == "json":
        print(_dump_json({"image": args.image, "detections": records}))
    else:
        print(f"{len(records)} detection(s) in {args.image}")
        for rec in records:
            box = rec["box"]
            print(f"  class {rec['class_id']}  conf {rec['confidence']}"
                  f"  box ({box['cx']}, {box['cy']}, {box['w']}, {box['h']})")
    return EXIT_OK


def _bench_once(args, model: str) -> dict:
    g = _build_graph(args, model)
    rng_input = T.Tensor.full((1, 3, args.input_size, args.input_size), 0.5)
    times = []
    for _ in range(args.iters):
        t0 = time.perf_counter()
        N.forward(g, rng_input)
        times.append(time.perf_counter() - t0)
    total = sum(times)
    return {"model": model, "iters": args.iters,
            "mean_ms": round(1000 * total / args.iters, 3),
            "median_ms": round(1000 * statistics.median(times), 3),
            "min_ms": round(1000 * min(times), 3),
            "fps": round(args.iters / total, 3)}


def cmd_bench(args) -> int:
    if args.compare and args.weights is not None:
        # a YLTW file is keyed to one graph's layer table
        raise ConfigError("bench --compare times both models, so it takes no --weights")
    results = [_bench_once(args, m)
               for m in (N.MODELS if args.compare else (args.model,))]
    if args.format == "json":
        print(_dump_json({"input_size": args.input_size, "conv_fold": T.CONV_FOLD,
                          "results": results}))
    else:
        for r in results:
            print(f"{r['model']}: {r['iters']} iteration(s), mean {r['mean_ms']} ms, "
                  f"median {r['median_ms']} ms, min {r['min_ms']} ms, {r['fps']} FPS, "
                  f"{T.CONV_FOLD} conv fold")
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = S.run_selftest(weights_path=args.weights,
                             model_builder=functools.partial(N.MODELS[args.model], args.classes))
    ok = all(r["passed"] for r in results)
    if args.format == "json":
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
    for command, (summary, names) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names:
            kwargs = dict(FLAGS[name])
            if "type" in kwargs:
                kwargs["type"] = functools.partial(kwargs["type"], name=name)
            p.add_argument(name, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run = {"describe": cmd_describe, "flops": cmd_flops, "detect": cmd_detect,
               "bench": cmd_bench, "selftest": cmd_selftest}[args.command]
        return run(args)
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
