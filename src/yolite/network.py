"""Layer-graph construction and execution for the two detector variants.

A graph is an ordered list of named nodes; every node consumes earlier nodes
only (the reserved id ``input`` denotes the network input, and ``<id>.route``
addresses a node's secondary output).  Node kinds are the keys of ``OPS``:
conv, head, upsample, concat, add, and the three stage kinds csp,
resblock_d and aux.  Both builders produce two detection heads: one at 1/32
of the input resolution and one at 1/16, so a 416x416 input yields 13x13 and
26x26 prediction maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import blocks as B
from . import tensor as T
from .errors import GraphError, ShapeError

INPUT_ID = "input"


@dataclass
class LayerNode:
    """One graph node.  ``payload`` holds the kind-specific parameters:
    ConvParams for conv/head, a block instance for csp/resblock_d/aux,
    nothing for upsample/concat/add."""

    id: str
    kind: str
    inputs: list[str] = field(default_factory=list)
    payload: object = None


def _conv_shape(p: T.ConvParams, ins):
    n, c, h, w = ins[0]
    if c != p.in_channels:
        raise ShapeError(f"channels {c} != conv in_channels {p.in_channels}")
    return (n, p.out_channels,
            T.conv_out_size(h, p.kernel_size, p.stride, p.padding),
            T.conv_out_size(w, p.kernel_size, p.stride, p.padding))


def _upsample_shape(_, ins):
    n, c, h, w = ins[0]
    return (n, c, 2 * h, 2 * w)


def _concat_shape(_, ins):
    n, c, h, w = ins[0]
    for nn, cc, hh, ww in ins[1:]:
        if (nn, hh, ww) != (n, h, w):
            raise ShapeError(f"concat mismatch: {(nn, hh, ww)} vs {(n, h, w)}")
        c += cc
    return (n, c, h, w)


def _add_shape(_, ins):
    if ins[0] != ins[1]:
        raise ShapeError(f"add mismatch: {ins[0]} vs {ins[1]}")
    return ins[0]


def _stage_shape(blk, ins):
    n, c, h, w = ins[0]
    if c != blk.channels:
        raise ShapeError(f"channels {c} != stage channels {blk.channels}")
    if h % 2 or w % 2:
        raise ShapeError(f"stage needs even spatial dims, got ({h}, {w})")
    return (n, blk.out_channels, h // 2, w // 2)


class Op(NamedTuple):
    """How one node kind runs: ``forward(payload, inputs)`` and
    ``shape(payload, input_shapes)``.  A ``routed`` kind returns a
    (main, route) pair from both; the route is stored under ``id.route``."""

    forward: Callable
    shape: Callable
    routed: bool = False


# The forwards look blocks and tensor ops up through their module at call
# time, so a wrapper installed on a module attribute sees every call.
OPS = {
    "conv": Op(lambda p, xs: B.cbl(xs[0], p), _conv_shape),
    "head": Op(lambda p, xs: T.conv2d(xs[0], p), _conv_shape),
    "upsample": Op(lambda p, xs: T.upsample_nearest2x(xs[0]), _upsample_shape),
    "concat": Op(lambda p, xs: functools.reduce(T.concat_channels, xs), _concat_shape),
    "add": Op(lambda p, xs: B.fuse(xs[0], xs[1]), _add_shape),
    "csp": Op(lambda p, xs: B.csp_forward_with_route(p, xs[0]),
              lambda p, ins: (_stage_shape(p, ins), ins[0]), routed=True),
    "resblock_d": Op(lambda p, xs: B.resblock_d_forward(p, xs[0]), _stage_shape),
    "aux": Op(lambda p, xs: B.aux_forward(p, xs[0]), _stage_shape),
}


class NetworkGraph:
    """Topologically ordered, acyclic layer graph with two named heads."""

    def __init__(self, name: str, classes: int, nodes: list[LayerNode],
                 outputs: dict[str, str]):
        self.name = name
        self.classes = classes
        self.nodes = nodes
        self.outputs = outputs
        seen: set[str] = {INPUT_ID}
        for node in nodes:
            if node.kind not in OPS:
                raise GraphError(f"unknown node kind {node.kind!r}", node.id)
            if node.id in seen:
                raise GraphError("duplicate node id", node.id)
            for ref in node.inputs:
                if ref.split(".")[0] not in seen:
                    raise GraphError(f"input {ref!r} does not reference an earlier node",
                                     node.id)
            seen.add(node.id)
        for head_name, node_id in outputs.items():
            if node_id not in seen or node_id == INPUT_ID:
                raise GraphError(f"output {head_name} references missing node", node_id)


def _stage_tail(classes: int) -> list[LayerNode]:
    """Trunk conv, neck, both heads, and the upsample path between scales."""
    head_ch = 3 * (5 + classes)
    return [
        LayerNode("trunk", "conv", ["stage3"], B.conv_bn_params(512, 512, 3)),
        LayerNode("neck", "conv", ["trunk"], B.conv_bn_params(512, 256, 1)),
        LayerNode("head13_conv", "conv", ["neck"], B.conv_bn_params(256, 512, 3)),
        LayerNode("head_13", "head", ["head13_conv"], B.conv_linear_params(512, head_ch, 1)),
        LayerNode("fpn_conv", "conv", ["neck"], B.conv_bn_params(256, 128, 1)),
        LayerNode("fpn_up", "upsample", ["fpn_conv"]),
        LayerNode("fpn_cat", "concat", ["fpn_up", "stage3.route"]),
        LayerNode("head26_conv", "conv", ["fpn_cat"], B.conv_bn_params(384, 256, 3)),
        LayerNode("head_26", "head", ["head26_conv"], B.conv_linear_params(256, head_ch, 1)),
    ]


def _stem() -> list[LayerNode]:
    return [
        LayerNode("stem1", "conv", [INPUT_ID], B.conv_bn_params(3, 32, 3, stride=2)),
        LayerNode("stem2", "conv", ["stem1"], B.conv_bn_params(32, 64, 3, stride=2)),
    ]


def build_yolov4_tiny(classes: int = 80) -> NetworkGraph:
    """Baseline: three CSP stages between the stem and the two-scale head."""
    if classes < 1:
        raise ValueError("classes must be >= 1")
    nodes = _stem() + [
        LayerNode("stage1", "csp", ["stem2"], B.CspBlock(64)),
        LayerNode("stage2", "csp", ["stage1"], B.CspBlock(128)),
        LayerNode("stage3", "csp", ["stage2"], B.CspBlock(256)),
    ] + _stage_tail(classes)
    return NetworkGraph("v4tiny", classes, nodes,
                        {"head_13": "head_13", "head_26": "head_26"})


def build_proposed(classes: int = 80, aux: bool = True) -> NetworkGraph:
    """Modified variant: the first two stages become downsampling residual
    blocks, each paired with an auxiliary block fed from the stage input and
    merged back by elementwise sum.  Pass ``aux=False`` to drop the auxiliary
    paths (shapes are unchanged; useful for ablation)."""
    if classes < 1:
        raise ValueError("classes must be >= 1")
    nodes = _stem()
    prev = "stem2"
    for idx, ch in ((1, 64), (2, 128)):
        stage = f"stage{idx}"
        nodes.append(LayerNode(stage, "resblock_d", [prev], B.ResBlockD(ch)))
        if aux:
            nodes.append(LayerNode(f"{stage}_aux", "aux", [prev], B.AuxBlock(ch)))
            nodes.append(LayerNode(f"{stage}_fuse", "add", [stage, f"{stage}_aux"]))
            prev = f"{stage}_fuse"
        else:
            prev = stage
    nodes.append(LayerNode("stage3", "csp", [prev], B.CspBlock(256)))
    nodes += _stage_tail(classes)
    return NetworkGraph("proposed", classes, nodes,
                        {"head_13": "head_13", "head_26": "head_26"})


def _check_input_shape(shape) -> None:
    n, c, h, w = shape
    if c != 3:
        raise ShapeError(f"network input must have 3 channels, got {c}")
    if h != w or h % 32 or h == 0:
        raise ShapeError(f"input spatial size must be a square multiple of 32, got {h}x{w}")


def forward(g: NetworkGraph, x: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Evaluate every node once, in order; return (coarse head, fine head)."""
    values = forward_all(g, x)
    return values[g.outputs["head_13"]], values[g.outputs["head_26"]]


def forward_all(g: NetworkGraph, x: T.Tensor) -> dict[str, T.Tensor]:
    """Like ``forward`` but returns every node's output (secondary outputs
    under ``id.route``), for inspection and shape-contract checks."""
    _check_input_shape(x.shape)
    return _walk(g, x, "forward", "evaluation failed")


def infer_shapes(g: NetworkGraph, input_shape) -> dict[str, tuple]:
    """Static shape propagation; returns shapes keyed by node id (and
    ``id.route`` for secondary outputs).  Raises GraphError naming the first
    node whose inputs cannot be reconciled."""
    _check_input_shape(input_shape)
    return _walk(g, tuple(input_shape), "shape", "shape inference failed")


def _walk(g: NetworkGraph, first, step: str, failure: str) -> dict:
    """Apply each node's ``OPS`` entry callable named ``step`` in order,
    starting from ``first`` as the value of ``input``."""
    out_by_id = {INPUT_ID: first}
    for node in g.nodes:
        op = OPS[node.kind]
        try:
            out = getattr(op, step)(node.payload, [out_by_id[ref] for ref in node.inputs])
        except (ShapeError, KeyError) as exc:
            raise GraphError(f"{failure}: {exc}", node.id) from exc
        if op.routed:
            out, out_by_id[f"{node.id}.route"] = out
        out_by_id[node.id] = out
    return out_by_id


def iter_conv_entries(g: NetworkGraph) -> list[tuple[str, T.ConvParams]]:
    """Every convolution parameter bundle in deterministic topological order,
    with composite blocks expanded (entry ids are ``node.subconv``)."""
    entries: list[tuple[str, T.ConvParams]] = []
    for node in g.nodes:
        if isinstance(node.payload, T.ConvParams):
            entries.append((node.id, node.payload))
        elif node.payload is not None:
            for sub, p in node.payload.convs():
                entries.append((f"{node.id}.{sub}", p))
    return entries


def count_params(g: NetworkGraph) -> int:
    """Total stored parameters: weights, biases, and batch-norm arrays."""
    return sum(p.n_params() for _, p in iter_conv_entries(g))


def count_layers(g: NetworkGraph) -> int:
    """Number of convolution layers, counting composite blocks' internals."""
    return len(iter_conv_entries(g))


def describe(g: NetworkGraph, input_size: int = 416) -> dict:
    """JSON-friendly structural summary of the graph at a given input size."""
    shapes = infer_shapes(g, (1, 3, input_size, input_size))
    param_count = {node_id: 0 for node_id in [n.id for n in g.nodes]}
    for entry_id, p in iter_conv_entries(g):
        param_count[entry_id.split(".")[0]] += p.n_params()
    nodes = []
    for node in g.nodes:
        nodes.append({
            "id": node.id,
            "kind": node.kind,
            "inputs": list(node.inputs),
            "output_shape": list(shapes[node.id]),
            "params": param_count[node.id],
        })
    return {
        "model": g.name,
        "classes": g.classes,
        "input_size": input_size,
        "parameters": count_params(g),
        "conv_layers": count_layers(g),
        "heads": {name: list(shapes[node_id]) for name, node_id in g.outputs.items()},
        "nodes": nodes,
    }
