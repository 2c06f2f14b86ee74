import numpy as np
import pytest

from yolite import network as N
from yolite import weights_io as W
from yolite.errors import (ArrayLengthError, BadMagicError, FingerprintMismatchError,
                           TruncatedFileError, UnsupportedVersionError, WeightFileError)

import oracles


@pytest.fixture
def small_graph():
    g = N.build_yolov4_tiny(2)
    W.init_seeded(g, 42)
    return g


class TestPrng:
    SEEDS = (0, 42, 2 ** 64 - 1)
    COUNTS = (1, 255, 256, 257, 1000)

    def test_splitmix_reference_values(self):
        # first three outputs for seed 1234567, the published test vector
        assert W._splitmix64(1234567, 3).tolist() == [
            0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_splitmix_matches_scalar_oracle(self, seed):
        state, want = seed, []
        for _ in range(max(self.COUNTS)):
            state, z = oracles.splitmix64(state)
            want.append(z)
        for count in self.COUNTS:
            assert W._splitmix64(seed, count).tolist() == want[:count]
        assert W._splitmix64([seed, seed], 3).tolist() == [want[:3], want[:3]]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniform_matches_lane_oracle(self, seed):
        words = oracles.xoshiro_lanes(seed, max(self.COUNTS))
        for count in self.COUNTS:
            want = [(w >> 11) * 2.0 ** -53 for w in words[:count]]
            assert W._uniform(seed, count).tolist() == want

    def test_uniform_range_and_determinism(self):
        a = W._uniform(99, 10_000)
        b = W._uniform(99, 10_000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() < 1.0
        assert abs(a.mean() - 0.5) < 0.02

    def test_different_seeds_differ(self):
        assert not np.array_equal(W._uniform(1, 100), W._uniform(2, 100))


class TestInitSeeded:
    def test_same_seed_identical(self):
        g1, g2 = N.build_yolov4_tiny(2), N.build_yolov4_tiny(2)
        W.init_seeded(g1, 42)
        W.init_seeded(g2, 42)
        assert W.params_checksum(g1) == W.params_checksum(g2)

    def test_different_seeds_differ(self):
        g1, g2 = N.build_yolov4_tiny(2), N.build_yolov4_tiny(2)
        W.init_seeded(g1, 1)
        W.init_seeded(g2, 2)
        assert W.params_checksum(g1) != W.params_checksum(g2)

    def test_scale_and_zero_bias(self):
        g = N.build_yolov4_tiny(2)
        W.init_seeded(g, 7)
        for _, p in N.iter_conv_entries(g):
            bound = np.sqrt(2.0 / (p.kernel_size ** 2 * p.in_channels))
            assert np.abs(p.weights).max() <= bound
            assert np.all(p.bias == 0.0)
            if p.bn is not None:
                assert np.all(p.bn.gamma == 1.0)
                assert np.all(p.bn.running_var == 1.0)


class TestGoldenMaster:
    # Frozen from the first verified build of this artifact: baseline model,
    # 80 classes, seed 42, uniform 0.5 input at 416.  Any platform or code
    # change that alters a single output bit trips these.
    GOLDEN_PARAMS = "6821cbe1b298852cc6ff4494d568a0977e68d8e97b06542768836f91c869b66e"
    GOLDEN_H13 = "41bae3449b41e367045eee475f06246b0c66865722f73944d9bad59a8c884e3c"
    GOLDEN_H26 = "9ec55e5d7b944d21b0961606be92a08a2dd3e01ccce3c55c420178b4e88a39ec"

    def test_seed42_reproduces_golden_heads(self):
        from yolite import tensor as T
        g = N.build_yolov4_tiny(80)
        W.init_seeded(g, 42)
        assert W.params_checksum(g) == self.GOLDEN_PARAMS
        h13, h26 = N.forward(g, T.Tensor.full((1, 3, 416, 416), 0.5))
        assert W.tensor_checksum(h13) == self.GOLDEN_H13
        assert W.tensor_checksum(h26) == self.GOLDEN_H26


class TestGoldenMasterProposed:
    # Frozen from the single-layout conv2d that preceded the shape-chosen
    # schedules, so it checks them independently: proposed model,
    # 80 classes, seed 42, uniform 0.5 input at 64.  Pins the ResBlock-D,
    # auxiliary and attention arithmetic, which the baseline golden never runs.
    GOLDEN_PARAMS = "263e70af19416f70e633f42346bdd6b6dc78beb0f29d4b3abd5b7bac829b5523"
    GOLDEN_H13 = "befbb28b4b76f79f48e50e4ac562d472955c017d3ba4cb8dfd6986732ac453dd"
    GOLDEN_H26 = "44c5d02fcfb97572589e21ec1d29ff0d0cfd6f4b7bacc605215a7666867f05dd"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_seed42_reproduces_golden_heads(self, workers):
        from yolite import tensor as T
        g = N.build_proposed(80)
        W.init_seeded(g, 42)
        assert W.params_checksum(g) == self.GOLDEN_PARAMS
        T.set_parallel(workers)
        try:
            h13, h26 = N.forward(g, T.Tensor.full((1, 3, 64, 64), 0.5))
        finally:
            T.set_parallel(0)
        assert W.tensor_checksum(h13) == self.GOLDEN_H13
        assert W.tensor_checksum(h26) == self.GOLDEN_H26


class TestSaveLoad:
    def test_round_trip_preserves_params(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        fresh = N.build_yolov4_tiny(2)
        W.load(fresh, path)
        assert W.params_checksum(fresh) == W.params_checksum(small_graph)

    def test_resave_is_byte_stable(self, small_graph, tmp_path):
        p1, p2 = tmp_path / "a.yltw", tmp_path / "b.yltw"
        W.save(small_graph, p1)
        fresh = N.build_yolov4_tiny(2)
        W.load(fresh, p1)
        W.save(fresh, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fingerprint_mismatch_rejected(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        other = N.build_proposed(2)
        with pytest.raises(FingerprintMismatchError):
            W.load(other, path)
        wrong_classes = N.build_yolov4_tiny(3)
        with pytest.raises(FingerprintMismatchError):
            W.load(wrong_classes, path)

    def test_bad_magic_rejected(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            W.load(N.build_yolov4_tiny(2), path)

    def test_unknown_version_rejected(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError):
            W.load(N.build_yolov4_tiny(2), path)

    def test_trailing_bytes_rejected(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ArrayLengthError):
            W.load(N.build_yolov4_tiny(2), path)

    def test_truncation_names_layer_and_leaves_graph_intact(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        blob = path.read_bytes()
        rng = np.random.default_rng(0)
        target = N.build_yolov4_tiny(2)
        W.init_seeded(target, 5)
        before = W.params_checksum(target)
        for _ in range(8):
            cut = int(rng.integers(4, len(blob) - 1))
            path.write_bytes(blob[:cut])
            with pytest.raises(WeightFileError) as err:
                W.load(target, path)
            assert isinstance(err.value, (TruncatedFileError, ArrayLengthError))
            assert W.params_checksum(target) == before

    @pytest.mark.parametrize("array, value", [("weights", np.inf), ("running_var", np.nan),
                                              ("running_var", -0.5)])
    def test_invalid_values_rejected_and_graph_intact(self, small_graph, tmp_path,
                                                      array, value):
        entry_id, p = N.iter_conv_entries(small_graph)[-2]
        target = p.weights if array == "weights" else p.bn.running_var
        target[-1] = value
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        fresh = N.build_yolov4_tiny(2)
        W.init_seeded(fresh, 5)
        before = W.params_checksum(fresh)
        with pytest.raises(WeightFileError, match=f"{entry_id}.*{array}"):
            W.load(fresh, path)
        assert W.params_checksum(fresh) == before

    def test_non_utf8_layer_id_rejected(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        data = bytearray(path.read_bytes())
        data[22] = 0xFF  # first byte of the first layer id
        path.write_bytes(bytes(data))
        with pytest.raises(ArrayLengthError, match="does not match expected 'stem1'"):
            W.load(N.build_yolov4_tiny(2), path)

    def test_truncation_mid_array_reports_layer_id(self, small_graph, tmp_path):
        path = tmp_path / "w.yltw"
        W.save(small_graph, path)
        blob = path.read_bytes()
        # cut inside the very last array: the error must carry a layer id
        path.write_bytes(blob[:-3])
        with pytest.raises(TruncatedFileError) as err:
            W.load(N.build_yolov4_tiny(2), path)
        assert err.value.layer_id is not None
