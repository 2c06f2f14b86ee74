import tracemalloc
import weakref

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

    def test_every_node_reaches_a_head(self):
        for g in (N.build_yolov4_tiny(80), N.build_proposed(80)):
            consumers: dict[str, set] = {}
            for node in g.nodes:
                for ref in node.inputs:
                    consumers.setdefault(ref.split(".")[0], set()).add(node.id)
            # walk backwards from the heads; every node must be visited
            live = set(g.heads)
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
            N.NetworkGraph("broken", 1, nodes)

    def test_node_kinds(self):
        assert set(N.OPS) == {"conv", "head", "upsample", "concat", "add",
                              "csp", "resblock_d", "aux"}

    @pytest.mark.parametrize("kind", ["pool", "cbam", "bogus"])
    def test_unknown_kind_rejected(self, kind):
        nodes = [N.LayerNode("a", kind, [N.INPUT_ID])]
        with pytest.raises(GraphError, match="unknown node kind"):
            N.NetworkGraph("broken", 1, nodes)

    @pytest.mark.parametrize("ids, named", [(["a", "a"], "a"), (["input"], "input")])
    def test_bad_ids_and_outputs_rejected(self, ids, named):
        nodes = [N.LayerNode(i, "upsample", [N.INPUT_ID]) for i in ids]
        with pytest.raises(GraphError, match=f"node '{named}': duplicate node id"):
            N.NetworkGraph("broken", 1, nodes)

    @pytest.mark.parametrize("nodes, message", [
        ([N.LayerNode("a.b", "upsample", [N.INPUT_ID])], "node 'a.b': node id must not"),
        ([N.LayerNode("s", "csp", [N.INPUT_ID], B.CspBlock(4)),
          N.LayerNode("s.route", "upsample", ["s"])], "node 's.route': node id must not"),
        ([N.LayerNode("up", "upsample", [N.INPUT_ID]),
          N.LayerNode("bad", "upsample", ["up.route"])],
         "node 'bad': input 'up.route' does not reference"),
    ], ids=["dotted", "shadows-route", "unrouted-kind"])
    def test_dotted_ids_and_routes_of_unrouted_kinds_rejected(self, nodes, message):
        """A dotted id would collide with a route name, and only a routed
        kind has a route output."""
        with pytest.raises(GraphError, match=message):
            N.NetworkGraph("broken", 1, nodes)

    @pytest.mark.parametrize("node, message", [
        (N.LayerNode("bad", "add", [N.INPUT_ID]), "add takes 2 input"),
        (N.LayerNode("bad", "add", [N.INPUT_ID] * 3), "add takes 2 input"),
        (N.LayerNode("bad", "concat", [N.INPUT_ID]), "concat takes at least 2 input"),
        (N.LayerNode("bad", "upsample", []), "upsample takes 1 input"),
        (N.LayerNode("bad", "conv", [N.INPUT_ID, N.INPUT_ID], B.conv_bn_params(3, 8, 3)),
         "conv takes 1 input"),
        (N.LayerNode("bad", "conv", [N.INPUT_ID]),
         "conv payload must be ConvParams, got NoneType"),
        (N.LayerNode("bad", "head", [N.INPUT_ID], B.CspBlock(4)),
         "head payload must be ConvParams, got CspBlock"),
        (N.LayerNode("bad", "csp", [N.INPUT_ID], B.ResBlockD(4)),
         "csp payload must be CspBlock, got ResBlockD"),
        (N.LayerNode("bad", "resblock_d", [N.INPUT_ID]), "resblock_d payload must be ResBlockD"),
        (N.LayerNode("bad", "aux", [N.INPUT_ID], B.CspBlock(4)), "aux payload must be AuxBlock"),
        (N.LayerNode("bad", "upsample", [N.INPUT_ID], B.conv_bn_params(3, 8, 3)),
         "upsample payload must be NoneType, got ConvParams"),
    ], ids=["add-1", "add-3", "concat-1", "upsample-0", "conv-2", "conv-none", "head-csp",
            "csp-resblock_d", "resblock_d-none", "aux-csp", "upsample-conv"])
    def test_arity_and_payload_checked_at_build(self, node, message):
        with pytest.raises(GraphError, match=f"node 'bad': {message}"):
            N.NetworkGraph("broken", 1, [node])

    def test_concat_takes_more_than_two_inputs(self):
        g = N.NetworkGraph("wide", 1, [N.LayerNode("cat", "concat", [N.INPUT_ID] * 3)])
        assert N.infer_shapes(g, (1, 3, 32, 32))["cat"] == (1, 9, 32, 32)

    @pytest.mark.parametrize("node", [
        N.LayerNode("bad", "add", ["up", N.INPUT_ID]),
        N.LayerNode("bad", "concat", ["up", N.INPUT_ID]),
        N.LayerNode("bad", "csp", ["up"], B.CspBlock(4)),
        N.LayerNode("bad", "conv", ["up"], B.conv_bn_params(4, 8, 3)),
        N.LayerNode("bad", "head", ["up"], T.ConvParams(3, 4, 67)),  # kernel > 64 px map
    ], ids=lambda node: node.kind)
    def test_mismatch_names_node_in_both_walks(self, node):
        g = N.NetworkGraph("broken", 1, [N.LayerNode("up", "upsample", [N.INPUT_ID]), node])
        with pytest.raises(GraphError, match="node 'bad'"):
            N.infer_shapes(g, (1, 3, 32, 32))
        with pytest.raises(GraphError, match="node 'bad'"):
            N.describe(g, 32)
        with pytest.raises(GraphError, match="node 'bad'"):
            N.forward_all(g, T.Tensor.zeros(1, 3, 32, 32))


class TestWalkHook:
    """`_walk` calls ``on_node(node)`` right after each node runs; the public
    walkers pass no hook."""

    @pytest.mark.parametrize("walk", [
        lambda g: N.forward(g, small_input(64)),
        lambda g: N.forward_all(g, small_input(64)),
        lambda g: N.infer_shapes(g, (1, 3, 64, 64)),
    ], ids=["forward", "forward_all", "infer_shapes"])
    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_fires_once_per_node_right_after_it_runs(self, monkeypatch, model, walk):
        g = N.MODELS[model](2)
        events, passed, _walk = [], [], N._walk

        def spy(op):
            return op._replace(forward=lambda p, xs: events.append("run") or op.forward(p, xs))

        def walk_with_hook(*args, on_node=None, **kwargs):
            passed.append(on_node)
            return _walk(*args, on_node=events.append, **kwargs)

        monkeypatch.setattr(N, "OPS", {kind: spy(op) for kind, op in N.OPS.items()})
        monkeypatch.setattr(N, "_walk", walk_with_hook)
        walk(g)
        assert passed == [None]
        assert len(events) == 2 * len(g.nodes)
        assert events[::2] == ["run"] * len(g.nodes)
        assert all(got is node for got, node in zip(events[1::2], g.nodes))

    def test_no_call_for_a_node_that_fails(self):
        g = N.NetworkGraph("broken", 1, [N.LayerNode("up", "upsample", [N.INPUT_ID]),
                                         N.LayerNode("bad", "add", ["up", N.INPUT_ID]),
                                         N.LayerNode("after", "upsample", ["up"])])
        seen = []
        with pytest.raises(GraphError, match="node 'bad'"):
            N._walk(g, T.Meta((1, 3, 32, 32)), "shape inference failed", on_node=seen.append)
        assert [node.id for node in seen] == ["up"]
        seen.clear()
        with pytest.raises(ShapeError, match="3 channels"):
            N._walk(g, T.Meta((1, 2, 32, 32)), "shape inference failed", on_node=seen.append)
        assert seen == []


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


class TestForwardFreesOutputs:
    """``forward`` drops each intermediate output once its last reader has
    run; ``forward_all`` keeps them all."""

    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_forward_returns_forward_alls_heads(self, model):
        g = N.MODELS[model](3)
        W.init_seeded(g, 42)
        x = small_input(64, seed=2)
        values = N.forward_all(g, x)
        for head, got in zip(g.heads, N.forward(g, x), strict=True):
            assert np.array_equal(got.array.view(np.uint32),
                                  values[head].array.view(np.uint32))

    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_each_node_sees_only_values_still_to_be_read(self, monkeypatch, model):
        g = N.MODELS[model](2)
        last = dict.fromkeys(g.heads, len(g.nodes))  # index of each key's last reader
        for i, node in enumerate(g.nodes):
            for ref in node.inputs:
                last[ref] = i
        arrays = {}  # output key -> weak reference to its array
        order = iter(enumerate(g.nodes))

        def spy(op):
            def forward(payload, xs):
                i, node = next(order)
                live = {key for key, ref in arrays.items() if ref() is not None}
                assert live <= {key for key in arrays if last.get(key, -1) >= i}, node.id
                out = op.forward(payload, xs)
                main, route = out if op.routed else (out, None)
                arrays[node.id] = weakref.ref(main.array)
                if route is not None:
                    arrays[f"{node.id}.route"] = weakref.ref(route.array)
                return out
            return op._replace(forward=forward)

        monkeypatch.setattr(N, "OPS", {kind: spy(op) for kind, op in N.OPS.items()})
        heads = N.forward(g, small_input(64))
        assert next(order, None) is None
        live = {key for key, ref in arrays.items() if ref() is not None}
        assert live == set(g.heads) and len(heads) == 2

    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_416_forward_peak(self, model):
        """Traced peak of a 416 px forward, seed-42 weights at 80 classes:
        at most 20 MiB, where keeping every output took ~28 MB."""
        g = N.MODELS[model](80)
        W.init_seeded(g, 42)
        x = small_input(416)
        tracemalloc.start()
        try:
            N.forward(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 << 20

    @pytest.mark.parametrize("walk", [N.forward, N.forward_all])
    def test_an_error_mid_walk_names_the_node(self, walk):
        g = N.build_proposed(2)
        trunk = next(node for node in g.nodes if node.id == "trunk")
        trunk.payload = B.conv_bn_params(256, 512, 3)  # stage3 gives 512 channels
        with pytest.raises(GraphError, match="node 'trunk'.*input channels 512"):
            walk(g, small_input(64))


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


# The convs of each model that fold channel-last under the einsum fold: maps
# of at most 13x13 with more than one output channel.  Every other conv folds
# NCHW.  A change to the layout rule fails here by name.
CHANNEL_LAST_CONVS = {
    ("v4tiny", 128): ["stage3.conv0", "stage3.conv1", "stage3.conv2", "stage3.conv3",
                      "trunk", "neck", "head13_conv", "head_13", "fpn_conv",
                      "head26_conv", "head_26"],
    ("v4tiny", 416): ["trunk", "neck", "head13_conv", "head_13", "fpn_conv"],
    ("proposed", 128): ["stage1_aux.cbam.fc1", "stage1_aux.cbam.fc2",
                        "stage2.a2", "stage2.a3", "stage2.b1",
                        "stage2_aux.conv1", "stage2_aux.conv2",
                        "stage2_aux.cbam.fc1", "stage2_aux.cbam.fc2",
                        "stage3.conv0", "stage3.conv1", "stage3.conv2", "stage3.conv3",
                        "trunk", "neck", "head13_conv", "head_13", "fpn_conv",
                        "head26_conv", "head_26"],
    ("proposed", 416): ["stage1_aux.cbam.fc1", "stage1_aux.cbam.fc2",
                        "stage2_aux.cbam.fc1", "stage2_aux.cbam.fc2",
                        "trunk", "neck", "head13_conv", "head_13", "fpn_conv"],
}


@pytest.mark.parametrize("key", sorted(CHANNEL_LAST_CONVS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_schedule_of_every_model_conv(monkeypatch, key):
    """Which fill each conv the forward runs takes under the einsum fold,
    read off a shape-only forward, attention MLP convs included."""
    model, size = key
    monkeypatch.setattr(T, "CONV_FOLD", "einsum")  # the rule needs no einsum call
    g = N.MODELS[model](80)
    ledger, got = [], {}

    def on_node(node):
        names = {id(p): name for name, p in node.convs()}
        for op, params, shape in ledger:
            if op == "conv":
                fill, _, last = T._schedule(shape)
                assert getattr(fill, "func", None) is T._fill_einsum  # the band fill
                got.setdefault(names[id(params)], set()).add("channel-last" if last else "nchw")
        ledger.clear()

    N._walk(g, T.Meta((1, 3, size, size), ledger), "shape inference failed", on_node=on_node)
    want = {name: {"channel-last" if name in CHANNEL_LAST_CONVS[key] else "nchw"}
            for name, _ in N.iter_conv_entries(g)}
    assert got == want
