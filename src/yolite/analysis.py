"""Static cost model: per-layer FLOPs accounting and receptive-field sizes.

The cost convention counts one operation per multiply-accumulate and assigns
cost only to convolutions (M^2 * K^2 * C_in * C_out over the output map) and
to the stages' downsampling pools (C * M^2 * K^2).  Activations, batch-norm,
elementwise add/concat, and the attention gate's pooled-vector MLP are free
under this model.  All totals are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blocks as B
from . import network as N
from . import tensor as T

__all__ = ["ConvCost", "PoolCost", "FlopsEntry", "FlopsReport", "ReceptiveField",
           "flops_of_layer", "flops_of_pool", "flops_of_list", "flops_of_graph",
           "receptive_field", "CSP_REFERENCE_COSTS", "RESBLOCK_D_REFERENCE_COSTS"]


@dataclass(frozen=True)
class ConvCost:
    """Descriptor of one convolution: output map size M, kernel K, channels."""
    m: int
    k: int
    c_in: int
    c_out: int
    layer_id: str = ""


@dataclass(frozen=True)
class PoolCost:
    """Descriptor of one pooling layer: output map size M, window K, channels C."""
    m: int
    k: int
    c: int
    layer_id: str = ""


def flops_of_layer(m: int, k: int, c_in: int, c_out: int) -> int:
    """Convolution cost M^2 * K^2 * C_in * C_out (one count per MAC)."""
    if min(m, k, c_in, c_out) < 1:
        raise ValueError("all cost-model arguments must be >= 1")
    return m * m * k * k * c_in * c_out


def flops_of_pool(m: int, k: int, c: int) -> int:
    """Pooling cost C * M^2 * K^2."""
    if min(m, k, c) < 1:
        raise ValueError("all cost-model arguments must be >= 1")
    return c * m * m * k * k


@dataclass(frozen=True)
class FlopsEntry:
    layer_id: str
    kind: str  # "conv" or "pool"
    m: int
    k: int
    c_in: int
    c_out: int
    flops: int


class FlopsReport:
    """Ordered per-layer cost ledger with exact integer totals."""

    def __init__(self, entries: list[FlopsEntry], label: str = ""):
        self.entries = list(entries)
        self.label = label

    @property
    def total(self) -> int:
        return sum(e.flops for e in self.entries)

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.kind] = out.get(e.kind, 0) + e.flops
        return out

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "entries": [{"layer": e.layer_id, "kind": e.kind, "m": e.m, "k": e.k,
                         "c_in": e.c_in, "c_out": e.c_out, "flops": e.flops}
                        for e in self.entries],
            "by_kind": self.by_kind(),
            "total": self.total,
        }

    def to_text(self) -> str:
        rows = [("layer", "kind", "M", "K", "Cin", "Cout", "FLOPs")]
        for e in self.entries:
            rows.append((e.layer_id, e.kind, str(e.m), str(e.k),
                         str(e.c_in), str(e.c_out), f"{e.flops:,}"))
        widths = [max(len(r[i]) for r in rows) for i in range(7)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        lines.append("-" * len(lines[0]))
        for kind, subtotal in sorted(self.by_kind().items()):
            lines.append(f"{kind} subtotal: {subtotal:,}")
        lines.append(f"total: {self.total:,}")
        return "\n".join(lines)


def _entry(item) -> FlopsEntry:
    if isinstance(item, ConvCost):
        return FlopsEntry(item.layer_id, "conv", item.m, item.k, item.c_in,
                          item.c_out, flops_of_layer(item.m, item.k, item.c_in, item.c_out))
    if isinstance(item, PoolCost):
        return FlopsEntry(item.layer_id, "pool", item.m, item.k, item.c, item.c,
                          flops_of_pool(item.m, item.k, item.c))
    raise TypeError(f"expected ConvCost or PoolCost, got {type(item).__name__}")


def flops_of_list(items, label: str = "") -> FlopsReport:
    """Cost a flat list of ConvCost/PoolCost descriptors."""
    return FlopsReport([_entry(i) for i in items], label=label)


# Reference cost tables for one 104x104, 64-channel stage of each block
# variant, used by the `flops --paper-fixtures` command and the acceptance
# suite.  Intentionally independent of the graph builders.
CSP_REFERENCE_COSTS = (
    ConvCost(104, 3, 64, 64, "entry3x3"),
    ConvCost(104, 3, 64, 32, "squeeze3x3"),
    ConvCost(104, 3, 32, 32, "inner3x3"),
    ConvCost(104, 1, 64, 64, "merge1x1"),
)

RESBLOCK_D_REFERENCE_COSTS = (
    ConvCost(104, 1, 64, 32, "a_squeeze1x1"),
    ConvCost(52, 3, 32, 32, "a_strided3x3"),
    ConvCost(52, 1, 32, 64, "a_expand1x1"),
    PoolCost(52, 2, 64, "b_avgpool"),
    ConvCost(52, 1, 64, 64, "b_expand1x1"),
)


def _conv_cost(p: T.ConvParams, m_in: int, layer_id: str) -> ConvCost:
    m = T.conv_out_size(m_in, p.kernel_size, p.stride, p.padding)
    return ConvCost(m, p.kernel_size, p.in_channels, p.out_channels, layer_id)


def _graph_costs(g: N.NetworkGraph, shapes: dict[str, tuple]):
    """Expand every node into its conv/pool cost descriptors.

    Geometry comes from the node's own ConvParams; a block's ``cost_sites``
    says which map each of its convs and its pool reads, and leaves out the
    attention gate's free pooled-vector MLP.
    """
    items: list = []
    for node in g.nodes:
        blk = node.payload
        if blk is None:
            continue
        m = shapes[node.inputs[0]][2]
        if isinstance(blk, T.ConvParams):
            items.append(_conv_cost(blk, m, node.id))
            continue
        convs = dict(blk.convs())
        for name, m_in, *pool_channels in blk.cost_sites(m):
            layer_id = f"{node.id}.{name}"
            if pool_channels:
                m_out = T.conv_out_size(m_in, B.POOL, B.POOL, 0)
                items.append(PoolCost(m_out, B.POOL, pool_channels[0], layer_id))
            else:
                items.append(_conv_cost(convs[name], m_in, layer_id))
    return items


def flops_of_graph(g: N.NetworkGraph, input_size: int = 416) -> FlopsReport:
    """Cost an entire graph at a given square input size."""
    shapes = N.infer_shapes(g, (1, 3, input_size, input_size))
    return flops_of_list(_graph_costs(g, shapes), label=f"{g.name}@{input_size}")


@dataclass(frozen=True)
class ReceptiveField:
    size: int
    jump: int


def receptive_field(layers) -> ReceptiveField:
    """Input-pixel extent seen by one output of a (kernel, stride) stack.

    Standard recurrence: r grows by (K-1) * cumulative stride per layer.
    """
    if not layers:
        raise ValueError("layer list must be non-empty")
    r, j = 1, 1
    for k, stride in layers:
        if k < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        r += (k - 1) * j
        j *= stride
    return ReceptiveField(r, j)
