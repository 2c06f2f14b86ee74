import numpy as np
import pytest

from yolite import blocks as B
from yolite import network as N
from yolite import tensor as T
from yolite import weights_io as W
from yolite.errors import GraphError, ShapeError


def small_input(size=64, seed=0, n=1):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.random((n, 3, size, size), dtype=np.float32))


class TestBuilders:
    def test_baseline_head_shapes(self):
        g = N.build_yolov4_tiny(80)
        shapes = N.infer_shapes(g, (1, 3, 416, 416))
        assert shapes["head_13"] == (1, 255, 13, 13)
        assert shapes["head_26"] == (1, 255, 26, 26)

    def test_proposed_head_shapes_match_baseline(self):
        base = N.infer_shapes(N.build_yolov4_tiny(80), (1, 3, 416, 416))
        prop = N.infer_shapes(N.build_proposed(80), (1, 3, 416, 416))
        assert prop["head_13"] == base["head_13"]
        assert prop["head_26"] == base["head_26"]

    def test_single_class_head_channels(self):
        g = N.build_yolov4_tiny(1)
        shapes = N.infer_shapes(g, (1, 3, 416, 416))
        assert shapes["head_13"][1] == 18
        assert shapes["head_26"][1] == 18

    def test_classes_must_be_positive(self):
        with pytest.raises(ValueError):
            N.build_yolov4_tiny(0)
        with pytest.raises(ValueError):
            N.build_proposed(0)

    def test_dropping_aux_changes_no_shape(self):
        full = N.infer_shapes(N.build_proposed(80), (1, 3, 416, 416))
        bare = N.infer_shapes(N.build_proposed(80, aux=False), (1, 3, 416, 416))
        for node_id, shape in bare.items():
            assert full[node_id] == shape

    def test_every_node_reaches_a_head(self):
        for g in (N.build_yolov4_tiny(80), N.build_proposed(80)):
            consumers: dict[str, set] = {}
            for node in g.nodes:
                for ref in node.inputs:
                    consumers.setdefault(ref.split(".")[0], set()).add(node.id)
            # walk backwards from the heads; every node must be visited
            live = set(g.outputs.values())
            frontier = list(live)
            needed = {}
            for node in g.nodes:
                needed[node.id] = [r.split(".")[0] for r in node.inputs]
            while frontier:
                cur = frontier.pop()
                for ref in needed.get(cur, []):
                    if ref != N.INPUT_ID and ref not in live:
                        live.add(ref)
                        frontier.append(ref)
            assert live == {n.id for n in g.nodes}

    def test_forward_reference_rejected(self):
        nodes = [N.LayerNode("a", "upsample", ["b"]),
                 N.LayerNode("b", "upsample", [N.INPUT_ID])]
        with pytest.raises(GraphError):
            N.NetworkGraph("broken", 1, nodes, {})

    def test_node_kinds(self):
        assert set(N.OPS) == {"conv", "head", "upsample", "concat", "add",
                              "csp", "resblock_d", "aux"}

    @pytest.mark.parametrize("kind", ["pool", "cbam", "bogus"])
    def test_unknown_kind_rejected(self, kind):
        nodes = [N.LayerNode("a", kind, [N.INPUT_ID])]
        with pytest.raises(GraphError, match="unknown node kind"):
            N.NetworkGraph("broken", 1, nodes, {})

    @pytest.mark.parametrize("ids, output", [(["a", "a"], "a"), (["input"], "input"),
                                             (["a"], "b"), (["a"], "input")])
    def test_bad_ids_and_outputs_rejected(self, ids, output):
        nodes = [N.LayerNode(i, "upsample", [N.INPUT_ID]) for i in ids]
        with pytest.raises(GraphError):
            N.NetworkGraph("broken", 1, nodes, {"head": output})

    @pytest.mark.parametrize("node", [
        N.LayerNode("bad", "add", ["up", N.INPUT_ID]),
        N.LayerNode("bad", "concat", ["up", N.INPUT_ID]),
        N.LayerNode("bad", "csp", ["up"], B.CspBlock(4)),
        N.LayerNode("bad", "conv", ["up"], B.conv_bn_params(4, 8, 3)),
    ], ids=lambda node: node.kind)
    def test_mismatch_names_node_in_both_walks(self, node):
        g = N.NetworkGraph("broken", 1, [N.LayerNode("up", "upsample", [N.INPUT_ID]), node],
                           {"head": "bad"})
        with pytest.raises(GraphError, match="node 'bad'"):
            N.infer_shapes(g, (1, 3, 32, 32))
        with pytest.raises(GraphError, match="node 'bad'"):
            N.forward_all(g, T.Tensor.zeros(1, 3, 32, 32))


class TestParameterCounts:
    def test_single_conv_arithmetic(self):
        p = T.ConvParams(16, 32, 3)
        assert p.n_params() == 3 * 3 * 16 * 32 + 32

    def test_baseline_anchor(self):
        total = N.count_params(N.build_yolov4_tiny(80))
        assert abs(total - 6.05661e6) / 6.05661e6 < 0.05

    def test_proposed_anchor(self):
        total = N.count_params(N.build_proposed(80))
        assert abs(total - 6.16429e6) / 6.16429e6 < 0.05

    def test_proposed_exceeds_baseline_modestly(self):
        base = N.count_params(N.build_yolov4_tiny(80))
        prop = N.count_params(N.build_proposed(80))
        assert 0 < prop - base < 0.5e6

    def test_layer_counts(self):
        assert N.count_layers(N.build_yolov4_tiny(80)) == 21
        assert N.count_layers(N.build_proposed(80)) == 31


class TestForward:
    def test_zero_weights_zero_input_gives_zero_heads(self):
        g = N.build_yolov4_tiny(2)
        h13, h26 = N.forward(g, T.Tensor.zeros(1, 3, 64, 64))
        assert np.all(h13.array == 0.0)
        assert np.all(h26.array == 0.0)

    def test_inferred_shapes_match_actual(self):
        for size in (64, 96):
            for g in (N.build_yolov4_tiny(4), N.build_proposed(4)):
                W.init_seeded(g, 7)
                shapes = N.infer_shapes(g, (1, 3, size, size))
                h13, h26 = N.forward(g, small_input(size))
                assert h13.shape == shapes["head_13"]
                assert h26.shape == shapes["head_26"]

    def test_inferred_shapes_match_every_node_at_standard_sizes(self):
        for size in (416, 320):
            for g in (N.build_yolov4_tiny(2), N.build_proposed(2)):
                shapes = N.infer_shapes(g, (1, 3, size, size))
                values = N.forward_all(g, T.Tensor.zeros(1, 3, size, size))
                for key, value in values.items():
                    if key == N.INPUT_ID:
                        continue
                    assert shapes[key] == value.shape, f"{key} at {size}"
                assert set(shapes) == set(values)

    def test_forward_is_deterministic(self):
        g = N.build_proposed(2)
        W.init_seeded(g, 42)
        x = small_input(64, seed=3)
        first = N.forward(g, x)
        for _ in range(2):
            again = N.forward(g, x)
            for a, b in zip(first, again):
                assert np.array_equal(a.array.view(np.uint32), b.array.view(np.uint32))

    def test_variants_differ_on_same_seed(self):
        base = N.build_yolov4_tiny(2)
        prop = N.build_proposed(2)
        W.init_seeded(base, 42)
        W.init_seeded(prop, 42)
        x = small_input(64, seed=5)
        b13, _ = N.forward(base, x)
        p13, _ = N.forward(prop, x)
        assert not np.array_equal(b13.array, p13.array)

    def test_input_validation(self):
        g = N.build_yolov4_tiny(2)
        with pytest.raises(ShapeError):
            N.forward(g, T.Tensor.zeros(1, 1, 64, 64))
        with pytest.raises(ShapeError):
            N.forward(g, T.Tensor.zeros(1, 3, 60, 60))
        with pytest.raises(ShapeError):
            N.forward(g, T.Tensor.zeros(1, 3, 64, 96))

    def test_batch_dimension_carries_through(self):
        g = N.build_yolov4_tiny(2)
        h13, h26 = N.forward(g, T.Tensor.zeros(2, 3, 64, 64))
        assert h13.shape[0] == 2
        assert h26.shape[0] == 2

    def test_concurrent_forwards_on_distinct_inputs(self):
        from concurrent.futures import ThreadPoolExecutor
        g = N.build_proposed(2)
        W.init_seeded(g, 11)
        inputs = [small_input(64, seed=s) for s in range(4)]
        serial = [N.forward(g, x) for x in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda x: N.forward(g, x), inputs))
        for (s13, s26), (t13, t26) in zip(serial, threaded):
            assert np.array_equal(s13.array, t13.array)
            assert np.array_equal(s26.array, t26.array)


class TestDescribe:
    def test_describe_summary_fields(self):
        g = N.build_proposed(80)
        doc = N.describe(g, 416)
        assert doc["model"] == "proposed"
        assert doc["parameters"] == N.count_params(g)
        assert doc["conv_layers"] == 31
        assert doc["heads"]["head_13"] == [1, 255, 13, 13]
        node_ids = [n["id"] for n in doc["nodes"]]
        assert "stage1_aux" in node_ids and "stage2_fuse" in node_ids

    def test_describe_params_sum_to_total(self):
        g = N.build_yolov4_tiny(80)
        doc = N.describe(g)
        assert sum(n["params"] for n in doc["nodes"]) == doc["parameters"]
