import json
import re

import numpy as np
import pytest

from yolite import analysis as A
from yolite import network as N
from yolite import tensor as T
from yolite.errors import GraphError, ShapeError

import oracles


class TestLayerCosts:
    def test_conv_cost_worked_values(self):
        assert A.flops_of_layer(104, 3, 64, 64) == 398_721_024
        assert A.flops_of_layer(52, 1, 32, 64) == 5_537_792

    def test_pool_cost_worked_value(self):
        assert A.flops_of_pool(52, 2, 64) == 692_224

    def test_zero_argument_rejected(self):
        with pytest.raises(ValueError):
            A.flops_of_layer(0, 3, 64, 64)
        with pytest.raises(ValueError):
            A.flops_of_pool(52, 0, 64)

    @pytest.mark.parametrize("cost, args", [
        (A.flops_of_layer, (2.0, 3, 4, 5)), (A.flops_of_layer, (4, True, 4, 5)),
        (A.flops_of_pool, (4, 2, 2.0)),
    ], ids=["float-layer", "bool-layer", "float-pool"])
    def test_non_integer_argument_rejected(self, cost, args):
        bad = next(v for v in args if type(v) is not int)
        with pytest.raises(ValueError, match=f"^each cost-model argument must be an integer, "
                                             f"got {bad}$"):
            cost(*args)

    def test_numpy_integers_give_int_costs(self):
        assert type(A.flops_of_layer(np.int64(2), 3, np.int32(4), 5)) is int
        assert A.flops_of_pool(np.uint8(4), 2, 3) == A.flops_of_pool(4, 2, 3)


class TestReferenceLists:
    def test_csp_reference_total(self):
        assert A.FlopsReport(A.CSP_REFERENCE_COSTS).total == 742_064_128

    def test_resblock_d_reference_total(self):
        assert A.FlopsReport(A.RESBLOCK_D_REFERENCE_COSTS).total == 64_376_832

    def test_block_cost_ratio(self):
        ratio = (A.FlopsReport(A.CSP_REFERENCE_COSTS).total
                 / A.FlopsReport(A.RESBLOCK_D_REFERENCE_COSTS).total)
        assert 11.52 <= ratio <= 11.54

    def test_empty_list_total_zero(self):
        assert A.FlopsReport([]).total == 0

    def test_additivity(self):
        both = list(A.CSP_REFERENCE_COSTS) + list(A.RESBLOCK_D_REFERENCE_COSTS)
        assert (A.FlopsReport(both).total
                == A.FlopsReport(A.CSP_REFERENCE_COSTS).total
                + A.FlopsReport(A.RESBLOCK_D_REFERENCE_COSTS).total)


class TestGraphCosts:
    def test_single_conv_graph_entry(self):
        g = N.build_yolov4_tiny(80)
        report = A.flops_of_graph(g, 416)
        entry = next(e for e in report.entries if e.layer_id == "stage1.conv0")
        assert entry.flops == 398_721_024

    def test_proposed_costs_less_than_baseline(self):
        base = A.flops_of_graph(N.build_yolov4_tiny(80), 416).total
        prop = A.flops_of_graph(N.build_proposed(80), 416).total
        assert prop < base

    def test_doubling_input_quadruples_conv_entries(self):
        g = N.build_yolov4_tiny(80)
        small = A.flops_of_graph(g, 416)
        big = A.flops_of_graph(g, 832)
        for e_small, e_big in zip(small.entries, big.entries):
            assert e_big.layer_id == e_small.layer_id
            assert e_big.flops == 4 * e_small.flops

    def test_totals_are_ints(self):
        report = A.flops_of_graph(N.build_proposed(80), 416)
        assert isinstance(report.total, int)
        assert all(isinstance(e.flops, int) for e in report.entries)
        assert report.total == sum(e.flops for e in report.entries)

    def test_attention_mlp_costs_nothing(self):
        report = A.flops_of_graph(N.build_proposed(80), 416)
        ids = [e.layer_id for e in report.entries]
        assert not any("fc1" in i or "fc2" in i for i in ids)
        assert "stage1_aux.cbam.spatial" in ids

    def test_json_and_text_renderings(self):
        report = A.flops_of_graph(N.build_yolov4_tiny(80), 416)
        doc = report.to_json_dict()
        assert doc["total"] == report.total
        assert json.loads(json.dumps(doc)) == doc
        text = report.to_text()
        assert f"{report.total:,}" in text

    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_ledger_rows_are_the_forward_pass_ops(self, monkeypatch, model):
        """The ledger lists, in order, every conv and pool the forward pass
        runs, except the attention MLP that it costs at zero."""
        g = N.MODELS[model]()
        # Taken before the recorder is installed, which would also see the
        # ledger's own shape-only forward.
        ledger = [(e.kind, e.m, e.k, e.c_in, e.c_out, e.flops)
                  for e in A.flops_of_graph(g, 64).entries]
        free = {id(p) for entry, p in N.iter_conv_entries(g)
                if entry.endswith((".cbam.fc1", ".cbam.fc2"))}
        conv2d, pool2d = T.conv2d, T.pool2d
        rows = []

        def record_conv(x, p):
            out = conv2d(x, p)
            if id(p) not in free:
                m, k = out.shape[2], p.kernel_size
                rows.append(("conv", m, k, p.in_channels, p.out_channels,
                             m * m * k * k * p.in_channels * p.out_channels))
            return out

        def record_pool(x, kind, k, s):
            out = pool2d(x, kind, k, s)
            c, m = out.shape[1], out.shape[2]
            rows.append(("pool", m, k, c, c, c * m * m * k * k))
            return out

        monkeypatch.setattr(T, "conv2d", record_conv)
        monkeypatch.setattr(T, "pool2d", record_pool)
        N.forward(g, T.Tensor.zeros(1, 3, 64, 64))
        assert rows == ledger


class TestOneWalk:
    """`flops_of_graph` reads its rows off one shape-only walk of the graph."""

    @pytest.mark.parametrize("size", [32, 128, 416, 608])
    @pytest.mark.parametrize("classes", [1, 80])
    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_rows_equal_the_per_node_rerun(self, model, classes, size):
        g = N.MODELS[model](classes)
        rows = [(e.layer_id, e.kind, e.m, e.k, e.c_in, e.c_out, e.flops)
                for e in A.flops_of_graph(g, size).entries]
        assert rows == oracles.flops_rows_per_node(g, size)

    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_each_node_runs_once(self, monkeypatch, model):
        ran = []

        def spy(op):
            return op._replace(forward=lambda p, xs: ran.append(p) or op.forward(p, xs))

        monkeypatch.setattr(N, "OPS", {kind: spy(op) for kind, op in N.OPS.items()})
        g = N.MODELS[model](80)
        A.flops_of_graph(g, 416)
        assert ran == [node.payload for node in g.nodes]


BROKEN = N.NetworkGraph("broken", 1, [N.LayerNode("up", "upsample", [N.INPUT_ID]),
                                      N.LayerNode("bad", "add", ["up", N.INPUT_ID])])
SIDE = "input spatial size must be a square multiple of 32, got "
NOT_INT = "network input {} must be an integer, got {!r}"
EMPTY = "node 'stem1': shape inference failed: batch size must be >= 1, got {}"
SHAPE_ERRORS = [
    ("flops", N.build_yolov4_tiny(2), 33, ShapeError, SIDE + "33x33"),
    ("describe", N.build_yolov4_tiny(2), 33, ShapeError, SIDE + "33x33"),
    ("infer", N.build_yolov4_tiny(2), (1, 3, 33, 33), ShapeError, SIDE + "33x33"),
    ("infer", N.build_yolov4_tiny(2), (1, 3, 32, 64), ShapeError, SIDE + "32x64"),
    ("infer", N.build_yolov4_tiny(2), (1, 2, 32, 32), ShapeError,
     "network input must have 3 channels, got 2"),
    ("flops", N.build_yolov4_tiny(2), 64.0, ShapeError, NOT_INT.format("height", 64.0)),
    ("describe", N.build_yolov4_tiny(2), 64.0, ShapeError, NOT_INT.format("height", 64.0)),
    ("infer", N.build_yolov4_tiny(2), (1.0, 3, 64, 64), ShapeError,
     NOT_INT.format("batch", 1.0)),
    ("infer", N.build_yolov4_tiny(2), (True, 3, 64, 64), ShapeError,
     NOT_INT.format("batch", True)),
    ("infer", N.build_yolov4_tiny(2), (1, 3.0, 64, 64), ShapeError,
     NOT_INT.format("channels", 3.0)),
    ("infer", N.build_yolov4_tiny(2), (1, 3, 64, np.float32(64)), ShapeError,
     NOT_INT.format("width", np.float32(64))),
    ("infer", N.build_yolov4_tiny(2), (0, 3, 32, 32), GraphError, EMPTY.format(0)),
    ("infer", N.build_yolov4_tiny(2), (-1, 3, 32, 32), GraphError, EMPTY.format(-1)),
    *[(walk, BROKEN, arg, GraphError, "node 'bad': shape inference failed: add needs "
       "identical shapes: (1, 3, 64, 64) vs (1, 3, 32, 32)")
      for walk, arg in (("flops", 32), ("describe", 32), ("infer", (1, 3, 32, 32)))],
]


@pytest.mark.parametrize("walk, g, arg, cls, message", SHAPE_ERRORS,
                         ids=["flops-33", "describe-33", "infer-33", "infer-non-square",
                              "infer-2-channel", "flops-float", "describe-float",
                              "infer-float-batch", "infer-bool-batch", "infer-float-channels",
                              "infer-numpy-float-width", "infer-empty-batch",
                              "infer-negative-batch", "flops-node", "describe-node",
                              "infer-node"])
def test_shape_walks_raise_the_input_check_or_name_the_node(walk, g, arg, cls, message):
    run = {"flops": A.flops_of_graph, "describe": N.describe, "infer": N.infer_shapes}[walk]
    with pytest.raises(cls, match=f"^{re.escape(message)}$"):
        run(g, arg)


class TestReceptiveField:
    def test_single_3x3(self):
        assert A.receptive_field([(3, 1)]).size == 3

    def test_two_stacked_3x3(self):
        assert A.receptive_field([(3, 1), (3, 1)]).size == 5

    def test_strided_stack(self):
        rf = A.receptive_field([(3, 2), (3, 1)])
        assert rf.size == 7
        assert rf.jump == 2

    def test_pointwise_layers_do_not_grow(self):
        base = A.receptive_field([(3, 1), (3, 1)])
        extended = A.receptive_field([(3, 1), (3, 1), (1, 1), (1, 1)])
        assert extended.size == base.size

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            A.receptive_field([])

    @pytest.mark.parametrize("layers, message", [
        ([(0, 1)], "kernel and stride must be >= 1"),
        ([(3, 1), (3, 0)], "kernel and stride must be >= 1"),
        ([(3, 1), (3.0, 1)], "kernel must be an integer, got 3.0"),
        ([(3, True)], "stride must be an integer, got True"),
    ], ids=["zero-kernel", "zero-stride", "float-kernel", "bool-stride"])
    def test_bad_layer_rejected(self, layers, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            A.receptive_field(layers)

    def test_numpy_integers(self):
        assert A.receptive_field([(np.int64(3), np.int64(2)), (3, 1)]) == A.ReceptiveField(7, 2)
