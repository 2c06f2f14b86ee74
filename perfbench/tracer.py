"""Outside-in span tracing of yolite's layers.

`Tracer.install` replaces the public module-level functions of every traced
layer module with wrappers that record spans; `Tracer.restore` puts the
originals back.  yolite modules call one another through module attributes
(`network` calls `B.*`/`T.*`, `blocks` calls `T.*`, `cli` calls
`N.*`/`D.*`/`W.*`/`I.*`) and call their own functions through module
globals, so every such call passes through a wrapper.  No source file of the
package changes.  Module-level dicts that hold a traced function (the CLI's
model-builder table) are patched and restored the same way.

Only the thread that created the tracer records spans; the conv worker
threads of `tensor.set_parallel` call no traced function.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time

from yolite import blocks, cli, detect, imageio, network, tensor, weights_io

LAYERS = {"cli": cli, "imageio": imageio, "weights_io": weights_io, "network": network,
          "blocks": blocks, "tensor": tensor, "detect": detect}

# Scalar helpers called once per candidate, per box pair or per conv call: a
# span each would cost more than the work it measures.
UNTRACED = frozenset({"detect.sigmoid", "detect.iou", "detect.confidence_score",
                      "tensor.conv_out_size"})


def _conv_counts(result, x, params):
    n, _, oh, ow = result.shape
    k = params.kernel_size
    macs = n * oh * ow * k * k * params.in_channels * params.out_channels
    elements = x.array.size + params.weights.size + params.bias.size + result.array.size
    return {"macs": macs, "bytes": 4 * elements}


def _nms_counts(result, dets, conf_thresh=0.25, iou_thresh=0.45):
    # The candidate list is kept by reference; survivors are counted after the run.
    return {"dets": dets, "conf_thresh": conf_thresh, "kept": len(result)}


# Counts recorded at a span's boundary, called as f(result, *args, **kwargs)
# after the span's end time is taken.
COUNTERS = {
    "tensor.conv2d": _conv_counts,
    "detect.decode_head": lambda result, *a, **k: {"candidates": len(result)},
    "detect.filter_and_nms": _nms_counts,
    "imageio.load_image": lambda result, path: {"bytes": os.path.getsize(path)},
    "weights_io.load": lambda result, g, path: {"bytes": os.path.getsize(path)},
}


def traced_functions():
    """(qualified name, module, attribute) for every function the tracer wraps."""
    out = []
    for layer, mod in LAYERS.items():
        for attr, obj in vars(mod).items():
            qual = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and qual not in UNTRACED):
                out.append((qual, mod, attr))
    return out


def snapshot():
    """Every module global of the traced layers, to check restoration against."""
    return {(layer, attr): value for layer, mod in LAYERS.items()
            for attr, value in vars(mod).items()}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts")

    def __init__(self, name, parent, request):
        self.name, self.parent, self.request = name, parent, request
        self.start = self.end = 0.0
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory: name, start, end, parent index, request id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, object, object]] = []

    def _wrap(self, qual, fn):
        counter = COUNTERS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = Span(qual, self._stack[-1] if self._stack else -1, self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for qual, mod, attr in traced_functions():
            fn = getattr(mod, attr)
            wrappers[id(fn)] = self._wrap(qual, fn)
            self._patched.append((vars(mod), attr, fn))
        for mod in LAYERS.values():
            for table in [v for v in vars(mod).values() if isinstance(v, dict)]:
                for key, value in table.items():
                    if id(value) in wrappers:
                        self._patched.append((table, key, value))
        for container, key, original in self._patched:
            container[key] = wrappers[id(original)]

    def restore(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.seconds
        return out

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request} for s in self.spans]
