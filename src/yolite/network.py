"""Layer-graph construction and execution for the two detector variants.

A graph is an ordered list of named nodes; every node consumes earlier nodes
only (the reserved id ``input`` denotes the network input, and ``<id>.route``
addresses a routed node's secondary output, so node ids hold no ``.``).
Node kinds are the keys of ``OPS``, which only this module reads: conv,
head, upsample, concat, add, and the stage kinds csp, resblock_d and aux.
Shapes and costs are not stated separately: ``infer_shapes`` and
``analysis.flops_of_graph`` walk the forwards on shape-only ``tensor.Meta``
values.  Both builders produce two heads, at 1/32 and 1/16 of the input
resolution, so a 416x416 input yields 13x13 and 26x26 prediction maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import blocks as B
from . import tensor as T
from .errors import GraphError, ShapeError

INPUT_ID = "input"
HEAD_ANCHORS = 3  # prior boxes per head cell, each predicting 5 + classes channels
INPUT_MULTIPLE = 32  # the coarse head's stride: input sides must be whole cells


@dataclass
class LayerNode:
    """One graph node.  ``payload`` holds the kind-specific parameters:
    ConvParams for conv/head, a block instance for csp/resblock_d/aux,
    nothing for upsample/concat/add."""

    id: str
    kind: str
    inputs: list[str] = field(default_factory=list)
    payload: object = None

    def convs(self) -> list[tuple[str, T.ConvParams]]:
        """The conv parameter bundles this node owns, as (entry id, params):
        ``id`` for a conv or head, ``id.sub`` for each of a block's convs."""
        if isinstance(self.payload, T.ConvParams):
            return [(self.id, self.payload)]
        if self.payload is None:
            return []
        return [(f"{self.id}.{sub}", p) for sub, p in self.payload.convs()]


class Op(NamedTuple):
    """How one node kind runs: ``forward(payload, inputs)``, on tensors or on
    shape-only ``tensor.Meta`` values.  ``payload`` is the type a node's
    payload must have and ``arity`` its (min, max) input count, max None
    for unbounded.  A ``routed`` kind returns a (main, route) pair; the
    route is stored under ``id.route``."""

    forward: Callable
    payload: type = type(None)
    arity: tuple[int, int | None] = (1, 1)
    routed: bool = False


# The forwards look blocks and tensor ops up through their module at call
# time, so a wrapper installed on a module attribute sees every call.
OPS = {
    "conv": Op(lambda p, xs: B.cbl(xs[0], p), T.ConvParams),
    "head": Op(lambda p, xs: T.conv2d(xs[0], p), T.ConvParams),
    "upsample": Op(lambda p, xs: T.upsample_nearest2x(xs[0])),
    "concat": Op(lambda p, xs: functools.reduce(T.concat_channels, xs), arity=(2, None)),
    "add": Op(lambda p, xs: B.fuse(xs[0], xs[1]), arity=(2, 2)),
    "csp": Op(lambda p, xs: B.csp_forward_with_route(p, xs[0]), B.CspBlock, routed=True),
    "resblock_d": Op(lambda p, xs: B.resblock_d_forward(p, xs[0]), B.ResBlockD),
    "aux": Op(lambda p, xs: B.aux_forward(p, xs[0]), B.AuxBlock),
}


class NetworkGraph:
    """Topologically ordered, acyclic layer graph; its outputs are its
    ``head`` nodes."""

    def __init__(self, name: str, classes: int, nodes: list[LayerNode]):
        self.name = name
        self.classes = classes
        self.nodes = nodes
        seen: set[str] = {INPUT_ID}
        for node in nodes:
            op = OPS.get(node.kind)
            if op is None:
                raise GraphError(f"unknown node kind {node.kind!r}", node.id)
            lo, hi = op.arity
            if len(node.inputs) < lo or (hi is not None and len(node.inputs) > hi):
                want = f"at least {lo}" if hi is None else str(lo)
                raise GraphError(f"{node.kind} takes {want} input(s), got {len(node.inputs)}",
                                 node.id)
            if not isinstance(node.payload, op.payload):
                raise GraphError(f"{node.kind} payload must be {op.payload.__name__}, "
                                 f"got {type(node.payload).__name__}", node.id)
            if "." in node.id:
                raise GraphError("node id must not contain '.'", node.id)
            if node.id in seen:
                raise GraphError("duplicate node id", node.id)
            for ref in node.inputs:
                if ref not in seen:
                    raise GraphError(f"input {ref!r} does not reference an earlier node's "
                                     "output", node.id)
            seen.add(node.id)
            if op.routed:
                seen.add(f"{node.id}.route")

    @property
    def heads(self) -> list[str]:
        """Ids of the ``head`` nodes, in graph order."""
        return [node.id for node in self.nodes if node.kind == "head"]


def _assemble(name: str, classes: int, stages: list[LayerNode]) -> NetworkGraph:
    """One variant's graph: the shared stem, then ``stages`` (which read
    ``stem2`` and end in a csp node ``stage3``), then the shared trunk conv,
    neck, both heads, and the upsample path between scales."""
    if classes < 1:
        raise ValueError("classes must be >= 1")
    head_ch = HEAD_ANCHORS * (5 + classes)
    nodes = [
        LayerNode("stem1", "conv", [INPUT_ID], B.conv_bn_params(3, 32, 3, stride=2)),
        LayerNode("stem2", "conv", ["stem1"], B.conv_bn_params(32, 64, 3, stride=2)),
        *stages,
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
    return NetworkGraph(name, classes, nodes)


def build_yolov4_tiny(classes: int = 80) -> NetworkGraph:
    """Baseline: three CSP stages between the stem and the two-scale head."""
    return _assemble("v4tiny", classes, [
        LayerNode("stage1", "csp", ["stem2"], B.CspBlock(64)),
        LayerNode("stage2", "csp", ["stage1"], B.CspBlock(128)),
        LayerNode("stage3", "csp", ["stage2"], B.CspBlock(256)),
    ])


def build_proposed(classes: int = 80) -> NetworkGraph:
    """Modified variant: the first two stages become downsampling residual
    blocks, each paired with an auxiliary block fed from the stage input and
    merged back by elementwise sum."""
    stages = []
    prev = "stem2"
    for idx, ch in ((1, 64), (2, 128)):
        stage = f"stage{idx}"
        stages.append(LayerNode(stage, "resblock_d", [prev], B.ResBlockD(ch)))
        stages.append(LayerNode(f"{stage}_aux", "aux", [prev], B.AuxBlock(ch)))
        stages.append(LayerNode(f"{stage}_fuse", "add", [stage, f"{stage}_aux"]))
        prev = f"{stage}_fuse"
    stages.append(LayerNode("stage3", "csp", [prev], B.CspBlock(256)))
    return _assemble("proposed", classes, stages)


# Every model by its CLI name.  Callers look a builder up here at call time,
# so a wrapper installed on this dict sees every build.
MODELS = {"v4tiny": build_yolov4_tiny, "proposed": build_proposed}


def _check_input_shape(shape) -> None:
    n, c, h, w = shape
    if c != 3:
        raise ShapeError(f"network input must have 3 channels, got {c}")
    if h != w or h % INPUT_MULTIPLE or h == 0:
        raise ShapeError(f"input spatial size must be a square multiple of {INPUT_MULTIPLE}, "
                         f"got {h}x{w}")


def forward(g: NetworkGraph, x: T.Tensor) -> tuple[T.Tensor, ...]:
    """Evaluate every node once, in order; return the outputs of
    ``g.heads`` in that order (for both builders, coarse head then fine).
    Each other output is dropped once its last reader has run."""
    heads = g.heads
    values = _walk(g, x, "evaluation failed", keep=set(heads))
    return tuple(values[head] for head in heads)


def forward_all(g: NetworkGraph, x: T.Tensor) -> dict[str, T.Tensor]:
    """Like ``forward`` but returns every node's output (secondary outputs
    under ``id.route``), for inspection and shape-contract checks."""
    return _walk(g, x, "evaluation failed")


def infer_shapes(g: NetworkGraph, input_shape) -> dict[str, tuple]:
    """Every node's output shape, keyed by node id (and ``id.route`` for
    secondary outputs), from the forward run on a shape-only input.  Raises
    GraphError naming the first node whose forward rejects its inputs, with
    that forward's own message."""
    values = _walk(g, T.Meta(input_shape), "shape inference failed")
    return {key: value.shape for key, value in values.items()}


def _walk(g: NetworkGraph, first, failure: str, keep: set | None = None,
          on_node: Callable | None = None) -> dict:
    """Check ``first`` as the network input, run each node's ``OPS`` forward
    in order with ``first`` as the value of ``input``, and return the outputs
    by key.  Without ``keep`` every output is returned.  With it, each value
    whose key is not in ``keep`` is dropped right after the last node that
    reads it, or that makes it if none reads it, so a forward holds only the
    values still to be read.  ``on_node(node)``, if given, is called right
    after each node runs and its dropped values are gone."""
    _check_input_shape(first.shape)
    drop = [[] for _ in g.nodes]
    if keep is not None:
        last = {}
        for i, node in enumerate(g.nodes):
            for key in (*node.inputs, node.id, f"{node.id}.route"):
                last[key] = i
        for key, i in last.items():
            if key not in keep:
                drop[i].append(key)
    out_by_id = {INPUT_ID: first}
    for node, done in zip(g.nodes, drop):
        op = OPS[node.kind]
        try:
            out = op.forward(node.payload, [out_by_id[ref] for ref in node.inputs])
        except (ShapeError, KeyError) as exc:
            raise GraphError(f"{failure}: {exc}", node.id) from exc
        if op.routed:
            out, out_by_id[f"{node.id}.route"] = out
        out_by_id[node.id] = out
        for key in done:
            out_by_id.pop(key, None)
        if on_node is not None:
            on_node(node)
    return out_by_id


def iter_conv_entries(g: NetworkGraph) -> list[tuple[str, T.ConvParams]]:
    """Every convolution parameter bundle in deterministic topological order,
    with composite blocks expanded (entry ids are ``node.subconv``)."""
    return [entry for node in g.nodes for entry in node.convs()]


def count_params(g: NetworkGraph) -> int:
    """Total stored parameters: weights, biases, and batch-norm arrays."""
    return sum(p.n_params() for _, p in iter_conv_entries(g))


def count_layers(g: NetworkGraph) -> int:
    """Number of convolution layers, counting composite blocks' internals."""
    return len(iter_conv_entries(g))


def describe(g: NetworkGraph, input_size: int = 416) -> dict:
    """JSON-friendly structural summary of the graph at a given input size."""
    shapes = infer_shapes(g, (1, 3, input_size, input_size))
    nodes = [{"id": node.id, "kind": node.kind, "inputs": list(node.inputs),
              "output_shape": list(shapes[node.id]),
              "params": sum(p.n_params() for _, p in node.convs())} for node in g.nodes]
    return {
        "model": g.name,
        "classes": g.classes,
        "input_size": input_size,
        "parameters": count_params(g),
        "conv_layers": count_layers(g),
        "heads": {head: list(shapes[head]) for head in g.heads},
        "nodes": nodes,
    }
