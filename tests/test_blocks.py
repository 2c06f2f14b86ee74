import numpy as np
import pytest

from yolite import blocks as B
from yolite import tensor as T
from yolite.errors import ShapeError

import oracles


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def seed_params(params_list, rng, with_bn_stats=False):
    for p in params_list:
        scale = np.float32(np.sqrt(2.0 / (p.kernel_size ** 2 * p.in_channels)))
        p.weights[:] = (rng.random(p.weights.size, dtype=np.float32) * 2 - 1) * scale
        p.bias[:] = (rng.random(p.bias.size, dtype=np.float32) - 0.5) * 0.1
        if with_bn_stats and p.bn is not None:
            n = p.bn.gamma.size
            p.bn.gamma[:] = rng.random(n, dtype=np.float32) + 0.5
            p.bn.beta[:] = (rng.random(n, dtype=np.float32) - 0.5) * 0.2
            p.bn.running_mean[:] = (rng.random(n, dtype=np.float32) - 0.5) * 0.2
            p.bn.running_var[:] = rng.random(n, dtype=np.float32) + 0.5


def rand_tensor(rng, n, c, h, w):
    return T.Tensor((rng.random((n, c, h, w), dtype=np.float32) * 2 - 1))


def zero_bn(params_list):
    for p in params_list:
        if p.bn is not None:
            p.bn.gamma[:] = 0.0
            p.bn.beta[:] = 0.0


class TestCspBlock:
    def test_stage_shape_contract(self):
        block = B.CspBlock(64)
        x = T.Tensor.zeros(1, 64, 104, 104)
        out = B.csp_forward_with_route(block, x)[0]
        assert out.shape == (1, 128, 52, 52)

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            B.CspBlock(63)
        with pytest.raises(ValueError, match="^ResBlockD channel count must be even, got 63$"):
            B.ResBlockD(63)

    @pytest.mark.parametrize("x", [T.Tensor.zeros(1, 4, 4, 4), T.Meta((1, 4, 4, 4))],
                             ids=["tensor", "meta"])
    def test_cbam_channel_mismatch_rejected(self, x):
        with pytest.raises(ShapeError, match="^cbam expects 8 input channels, got 4$"):
            B.cbam_forward(B.Cbam(8), x)

    def test_zero_network_outputs_zero(self):
        block = B.CspBlock(8)
        zero_bn([p for _, p in block.convs()])
        x = rand_tensor(np.random.default_rng(0), 1, 8, 8, 8)
        out = B.csp_forward_with_route(block, x)[0]
        assert np.all(out.array == 0.0)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(21)
        block = B.CspBlock(4)
        seed_params([p for _, p in block.convs()], rng, with_bn_stats=True)
        x = rand_tensor(rng, 1, 4, 8, 8)

        x0 = T.leaky_relu(T.conv2d(x, block.conv0))
        s = T.slice_channels(x0, 2, 4)
        x1 = T.leaky_relu(T.conv2d(s, block.conv1))
        x2 = T.leaky_relu(T.conv2d(x1, block.conv2))
        x3 = T.leaky_relu(T.conv2d(T.concat_channels(x2, x1), block.conv3))
        expected = T.pool2d(T.concat_channels(x0, x3), "max", 2, 2)

        got, route = B.csp_forward_with_route(block, x)
        assert bits_equal(got.array, expected.array)
        assert bits_equal(route.array, x3.array)

    def test_route_is_premerge_conv_output(self):
        block = B.CspBlock(8)
        x = T.Tensor.zeros(1, 8, 8, 8)
        out, route = B.csp_forward_with_route(block, x)
        assert route.shape == (1, 8, 8, 8)
        assert out.shape == (1, 16, 4, 4)


class TestResBlockD:
    def test_stage_shape_contract(self):
        block = B.ResBlockD(64)
        x = T.Tensor.zeros(1, 64, 104, 104)
        assert B.resblock_d_forward(block, x).shape == (1, 128, 52, 52)

    def test_zero_path_a_leaves_activated_path_b(self):
        rng = np.random.default_rng(31)
        block = B.ResBlockD(4)
        seed_params([block.b1], rng, with_bn_stats=True)
        # path A weights stay zero, and its normalization is silenced too
        zero_bn([block.a1, block.a2, block.a3])
        x = rand_tensor(rng, 1, 4, 8, 8)
        got = B.resblock_d_forward(block, x)
        path_b = T.conv2d(T.pool2d(x, "avg", 2, 2), block.b1)
        assert bits_equal(got.array, T.leaky_relu(path_b).array)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(32)
        block = B.ResBlockD(4)
        seed_params([p for _, p in block.convs()], rng, with_bn_stats=True)
        x = rand_tensor(rng, 1, 4, 8, 8)
        pa = T.leaky_relu(T.conv2d(x, block.a1))
        pa = T.leaky_relu(T.conv2d(pa, block.a2))
        pa = T.conv2d(pa, block.a3)
        pb = T.conv2d(T.pool2d(x, "avg", 2, 2), block.b1)
        expected = T.leaky_relu(T.add(pa, pb))
        assert bits_equal(B.resblock_d_forward(block, x).array, expected.array)

    def test_odd_spatial_rejected(self):
        block = B.ResBlockD(4)
        with pytest.raises(ShapeError):
            B.resblock_d_forward(block, T.Tensor.zeros(1, 4, 7, 8))


class TestCbam:
    def test_reduction_divisibility_enforced(self):
        with pytest.raises(ValueError):
            B.Cbam(6)

    def test_zero_weights_give_quarter_scaling(self):
        rng = np.random.default_rng(41)
        block = B.Cbam(8)
        f = rand_tensor(rng, 1, 8, 6, 6)
        out = B.cbam_forward(block, f)
        assert bits_equal(out.array, (np.float32(0.25) * f.array))

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(42)
        block = B.Cbam(8)
        seed_params([p for _, p in block.convs()], rng)
        f = rand_tensor(rng, 1, 8, 6, 6)
        out = B.cbam_forward(block, f)
        # output magnitude never exceeds input magnitude, elementwise
        assert np.all(np.abs(out.array) <= np.abs(f.array))
        nz = f.array != 0
        assert np.all(np.abs(out.array[nz]) < np.abs(f.array[nz]))

    def test_matches_equation_transcription(self):
        rng = np.random.default_rng(43)
        block = B.Cbam(8)
        seed_params([p for _, p in block.convs()], rng)
        f = rand_tensor(rng, 1, 8, 6, 6)
        got = B.cbam_forward(block, f).array
        ref = oracles.cbam_naive(
            f.array,
            block.fc1.kernel.reshape(2, 8), block.fc1.bias,
            block.fc2.kernel.reshape(8, 2), block.fc2.bias,
            block.spatial.kernel.reshape(2, 7, 7), block.spatial.bias)
        denom = np.maximum(np.abs(ref), 1e-6)
        assert np.max(np.abs(got - ref) / denom) < 1e-5

    def test_shape_preserved(self):
        block = B.Cbam(16)
        f = T.Tensor.zeros(2, 16, 7, 9)
        assert B.cbam_forward(block, f).shape == (2, 16, 7, 9)


class TestAuxBlock:
    def test_stage_shape_contract(self):
        block = B.AuxBlock(64)
        x = T.Tensor.zeros(1, 64, 104, 104)
        assert B.aux_forward(block, x).shape == (1, 128, 52, 52)

    def test_zero_attention_zeroes_second_half(self):
        rng = np.random.default_rng(51)
        block = B.AuxBlock(4)
        seed_params([block.conv1], rng)
        # conv2 and attention weights all zero: attended half is 0.25 * 0 = 0
        zero_bn([block.conv2])
        x = rand_tensor(rng, 1, 4, 8, 8)
        out = B.aux_forward(block, x)
        assert np.all(out.array[:, 4:] == 0.0)
        a = B.cbl(x, block.conv1)
        assert bits_equal(out.array[:, :4], a.array)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(52)
        block = B.AuxBlock(4)
        seed_params([p for _, p in block.convs()], rng, with_bn_stats=True)
        x = rand_tensor(rng, 1, 4, 8, 8)
        a = B.cbl(x, block.conv1)
        b = B.cbl(a, block.conv2)
        expected = T.concat_channels(a, B.cbam_forward(block.cbam, b))
        assert bits_equal(B.aux_forward(block, x).array, expected.array)

    def test_odd_spatial_rejected(self):
        # the stage input rule the graph's shape inference applies
        with pytest.raises(ShapeError, match="even spatial"):
            B.aux_forward(B.AuxBlock(4), T.Tensor.zeros(1, 4, 5, 5))

    def test_conv_path_receptive_field(self):
        from yolite.analysis import receptive_field
        block = B.AuxBlock(8)
        ks = [block.conv1.kernel_size, block.conv2.kernel_size]
        # two stacked 3x3 kernels see a 5x5 patch at unit stride; with the
        # actual stride-2 first conv the input-pixel extent is 7
        assert receptive_field([(k, 1) for k in ks]).size == 5
        strides = [block.conv1.stride, block.conv2.stride]
        assert receptive_field(list(zip(ks, strides))).size == 7


class TestFuse:
    def test_zero_assist_is_identity(self):
        rng = np.random.default_rng(61)
        x = rand_tensor(rng, 1, 4, 6, 6)
        z = T.Tensor.zeros(1, 4, 6, 6)
        assert bits_equal(T.add(x, z).array, x.array)

    def test_commutative(self):
        rng = np.random.default_rng(62)
        a = rand_tensor(rng, 1, 4, 6, 6)
        b = rand_tensor(rng, 1, 4, 6, 6)
        assert bits_equal(T.add(a, b).array, T.add(b, a).array)

    def test_matches_add(self):
        rng = np.random.default_rng(63)
        a = rand_tensor(rng, 1, 4, 6, 6)
        b = rand_tensor(rng, 1, 4, 6, 6)
        assert bits_equal(T.add(a, b).array, oracles.add_naive(a.array, b.array))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor.zeros(1, 2, 4, 4), T.Tensor.zeros(1, 2, 4, 5))


class TestStageInterchangeability:
    def test_all_three_stage_blocks_share_interface(self):
        rng = np.random.default_rng(71)
        x = rand_tensor(rng, 1, 8, 12, 12)
        combos = [
            B.csp_forward_with_route(B.CspBlock(8), x)[0],
            B.resblock_d_forward(B.ResBlockD(8), x),
            B.aux_forward(B.AuxBlock(8), x),
        ]
        for out in combos:
            assert out.shape == (1, 16, 6, 6)

    def test_aux_plus_fuse_preserves_stage_shape(self):
        rng = np.random.default_rng(72)
        x = rand_tensor(rng, 1, 8, 12, 12)
        stage = B.resblock_d_forward(B.ResBlockD(8), x)
        assist = B.aux_forward(B.AuxBlock(8), x)
        assert T.add(stage, assist).shape == stage.shape
