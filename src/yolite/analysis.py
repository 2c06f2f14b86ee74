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

__all__ = ["FlopsEntry", "FlopsReport", "ReceptiveField",
           "flops_of_layer", "flops_of_pool", "flops_of_list", "flops_of_graph",
           "format_table", "receptive_field", "CSP_REFERENCE_COSTS",
           "RESBLOCK_D_REFERENCE_COSTS"]


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


def format_table(rows) -> list[str]:
    """Left-aligned text columns two spaces apart, each as wide as its widest
    cell, one line per row with trailing spaces stripped."""
    widths = [max(map(len, col)) for col in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


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
        lines = format_table(rows)
        lines.append("-" * len(lines[0]))
        for kind, subtotal in sorted(self.by_kind().items()):
            lines.append(f"{kind} subtotal: {subtotal:,}")
        lines.append(f"total: {self.total:,}")
        return "\n".join(lines)


def _conv(layer_id: str, m: int, k: int, c_in: int, c_out: int) -> FlopsEntry:
    return FlopsEntry(layer_id, "conv", m, k, c_in, c_out, flops_of_layer(m, k, c_in, c_out))


def _pool(layer_id: str, m: int, k: int, c: int) -> FlopsEntry:
    return FlopsEntry(layer_id, "pool", m, k, c, c, flops_of_pool(m, k, c))


def flops_of_list(items, label: str = "") -> FlopsReport:
    """Report a flat list of FlopsEntry rows."""
    return FlopsReport(items, label=label)


# Reference cost tables for one 104x104, 64-channel stage of each block
# variant, used by the `flops --paper-fixtures` command and the acceptance
# suite.  Intentionally independent of the graph builders.
CSP_REFERENCE_COSTS = (
    _conv("entry3x3", 104, 3, 64, 64),
    _conv("squeeze3x3", 104, 3, 64, 32),
    _conv("inner3x3", 104, 3, 32, 32),
    _conv("merge1x1", 104, 1, 64, 64),
)

RESBLOCK_D_REFERENCE_COSTS = (
    _conv("a_squeeze1x1", 104, 1, 64, 32),
    _conv("a_strided3x3", 52, 3, 32, 32),
    _conv("a_expand1x1", 52, 1, 32, 64),
    _pool("b_avgpool", 52, 2, 64),
    _conv("b_expand1x1", 52, 1, 64, 64),
)


def flops_of_graph(g: N.NetworkGraph, input_size: int = 416) -> FlopsReport:
    """Cost an entire graph at a given square input size.

    One shape-only walk runs every node's forward, and every conv and pool
    it records becomes one row, in the order it ran: ``id`` or ``id.sub``
    for a conv, ``id.pool`` for a pool.  So the ledger lists exactly what the
    forward runs, but for the attention MLP that the cost model counts free.
    """
    ledger: list = []  # a node's rows, emptied after each node
    items = []

    def on_node(node: N.LayerNode) -> None:
        names = {id(p): name for name, p in node.convs()}
        # The cost model's one exception: an aux block's attention MLP runs on
        # 1x1 pooled vectors and costs nothing.
        free = ({id(node.payload.cbam.fc1), id(node.payload.cbam.fc2)}
                if isinstance(node.payload, B.AuxBlock) else set())
        for op, arg, (_, c, m, _) in ledger:
            if op == "pool":
                items.append(_pool(f"{node.id}.pool", m, arg, c))
            elif id(arg) not in free:
                items.append(_conv(names[id(arg)], m, arg.kernel_size, arg.in_channels, c))
        ledger.clear()

    N._walk(g, T.Meta((1, 3, input_size, input_size), ledger), "shape inference failed",
            on_node=on_node)
    return flops_of_list(items, label=f"{g.name}@{input_size}")


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
