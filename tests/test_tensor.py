import sys
import threading

import numpy as np
import pytest

from yolite import tensor as T
from yolite.errors import NonFiniteError, ShapeError

import oracles


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32))


def rand_tensor(rng, n, c, h, w, lo=-1.0, hi=1.0):
    arr = (rng.random((n, c, h, w), dtype=np.float32) * (hi - lo) + lo).astype(np.float32)
    return T.Tensor(arr)


def force_schedule(monkeypatch, schedule, n=1, oh=1, ow=1, block=1):
    """Route conv2d through one schedule whatever the map size.

    "blocked" sends every map through the NCHW path with accumulator blocks
    of ``block`` output channels (for an (n, *, oh, ow) output);
    "channel_last" sends every map through the channel-last path.
    """
    if schedule == "blocked":
        monkeypatch.setattr(T, "CHANNEL_LAST_MAX_PIXELS", 0)
        monkeypatch.setattr(T, "ACC_BLOCK_BYTES", 4 * n * oh * ow * block)
    else:
        monkeypatch.setattr(T, "CHANNEL_LAST_MAX_PIXELS", 1 << 30)


SCHEDULES = ("default", "blocked", "channel_last")


class TestTensorType:
    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((2, 3), dtype=np.float32))

    def test_rejects_non_finite(self):
        arr = np.zeros((1, 1, 2, 2), dtype=np.float32)
        arr[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            T.Tensor(arr)

    def test_flat_data_is_row_major(self):
        arr = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        t = T.Tensor(arr)
        assert np.array_equal(t.data, np.arange(24, dtype=np.float32))

    def test_immutable(self):
        t = T.Tensor.zeros(1, 1, 2, 2)
        with pytest.raises(ValueError):
            t.array[0, 0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            t.array = np.zeros((1, 1, 2, 2), dtype=np.float32)

    def test_does_not_lock_callers_array(self):
        arr = np.zeros((1, 1, 2, 2), dtype=np.float32)
        T.Tensor(arr)
        arr[0, 0, 0, 0] = 5.0  # still writable


class TestConvParams:
    def test_weight_length_checked(self):
        with pytest.raises(ShapeError):
            T.ConvParams(2, 3, 3, weights=np.zeros(5, np.float32))

    def test_non_finite_weights_rejected(self):
        w = np.zeros(2 * 3 * 9, np.float32)
        w[0] = np.inf
        with pytest.raises(NonFiniteError):
            T.ConvParams(2, 3, 3, weights=w)

    def test_negative_running_var_rejected(self):
        with pytest.raises(ValueError):
            T.BatchNorm(np.ones(2, np.float32), np.zeros(2, np.float32),
                        np.zeros(2, np.float32), np.array([1.0, -0.5], np.float32))


class TestConv2d:
    def test_scaling_identity(self):
        x = T.Tensor.full((1, 1, 3, 3), 1.0)
        p = T.ConvParams(1, 1, 1, weights=np.array([2.0], np.float32))
        y = T.conv2d(x, p)
        assert y.shape == (1, 1, 3, 3)
        assert np.all(y.array == 2.0)

    def test_dirac_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, 1, 1, 3, 3)
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        p = T.ConvParams(1, 1, 3, stride=1, padding=1, weights=w.reshape(-1))
        y = T.conv2d(x, p)
        assert bits_equal(y.array, x.array)

    def test_spec_case_matches_naive(self):
        rng = np.random.default_rng(42)
        x = rand_tensor(rng, 1, 4, 8, 8)
        kern = (rng.random((6, 4, 3, 3), dtype=np.float32) * 2 - 1)
        bias = (rng.random(6, dtype=np.float32) * 2 - 1)
        p = T.ConvParams(4, 6, 3, stride=2, padding=1, weights=kern.reshape(-1), bias=bias)
        y = T.conv2d(x, p)
        ref = oracles.conv2d_naive(x.array, kern, bias, 2, 1)
        assert bits_equal(y.array, ref)

    def test_channel_mismatch_names_dimension(self):
        x = T.Tensor.zeros(1, 3, 4, 4)
        p = T.ConvParams(4, 2, 1)
        with pytest.raises(ShapeError, match="channels"):
            T.conv2d(x, p)

    def test_too_small_input_rejected(self):
        x = T.Tensor.zeros(1, 1, 2, 2)
        p = T.ConvParams(1, 1, 3, padding=0)
        with pytest.raises(ShapeError):
            T.conv2d(x, p)

    def test_linearity_without_bias_bn(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, 1, 3, 8, 8)
        y = rand_tensor(rng, 1, 3, 8, 8)
        kern = (rng.random((4, 3, 3, 3), dtype=np.float32) * 2 - 1)
        p = T.ConvParams(3, 4, 3, padding=1, weights=kern.reshape(-1))
        a, b = 0.7, -1.3
        mix = T.Tensor(a * x.array + b * y.array)
        lhs = T.conv2d(mix, p).array
        rhs = a * T.conv2d(x, p).array + b * T.conv2d(y, p).array
        denom = np.maximum(np.abs(rhs), 1e-3)
        assert np.max(np.abs(lhs - rhs) / denom) < 1e-4

    def test_batchnorm_matches_naive(self):
        rng = np.random.default_rng(11)
        x = rand_tensor(rng, 2, 3, 5, 5)
        kern = (rng.random((4, 3, 3, 3), dtype=np.float32) * 2 - 1)
        bias = (rng.random(4, dtype=np.float32) * 2 - 1)
        gamma = rng.random(4, dtype=np.float32) + 0.5
        beta = rng.random(4, dtype=np.float32) - 0.5
        mean = rng.random(4, dtype=np.float32)
        var = rng.random(4, dtype=np.float32) + 0.1
        p = T.ConvParams(3, 4, 3, padding=1, weights=kern.reshape(-1), bias=bias,
                         bn=T.BatchNorm(gamma, beta, mean, var))
        y = T.conv2d(x, p)
        ref = oracles.conv2d_naive(x.array, kern, bias, 1, 1,
                                   bn=(gamma, beta, mean, var, T.BN_EPSILON))
        assert bits_equal(y.array, ref)

    def test_repeat_runs_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, 1, 5, 9, 9)
        kern = (rng.random((7, 5, 3, 3), dtype=np.float32) * 2 - 1)
        p = T.ConvParams(5, 7, 3, stride=2, padding=1, weights=kern.reshape(-1))
        first = T.conv2d(x, p).array
        for _ in range(3):
            assert bits_equal(T.conv2d(x, p).array, first)

    def test_parallel_matches_serial(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, 2, 6, 10, 10)
        kern = (rng.random((11, 6, 3, 3), dtype=np.float32) * 2 - 1)
        p = T.ConvParams(6, 11, 3, padding=1, weights=kern.reshape(-1))
        switch = sys.getswitchinterval()
        for schedule in SCHEDULES:
            with monkeypatch.context() as mp:
                if schedule != "default":
                    force_schedule(mp, schedule, 2, 10, 10, block=3)
                serial = T.conv2d(x, p).array
                for workers in (4, 2):
                    # more workers than cores, switching threads as often as possible
                    T.set_parallel(workers)
                    sys.setswitchinterval(1e-6)
                    try:
                        par = T.conv2d(x, p).array
                    finally:
                        sys.setswitchinterval(switch)
                        T.set_parallel(0)
                    assert bits_equal(serial, par), f"{schedule} with {workers} workers"

    def test_set_parallel_keeps_one_pool_and_joins_it(self):
        rng = np.random.default_rng(10)
        x = rand_tensor(rng, 1, 3, 40, 40)
        p = T.ConvParams(3, 8, 3, padding=1,
                         weights=rng.random(8 * 3 * 9, dtype=np.float32))
        before = threading.active_count()
        try:
            T.set_parallel(4)
            pool = T._pool
            T.conv2d(x, p)
            T.set_parallel(4)
            T.conv2d(x, p)
            assert T._pool is pool
            assert before < threading.active_count() <= before + 4
            T.set_parallel(2)
            assert T._pool is not pool
            T.conv2d(x, p)
            assert before < threading.active_count() <= before + 2
        finally:
            T.set_parallel(0)
        assert T._pool is None
        assert threading.active_count() == before


class TestPool2d:
    def test_constant_invariance(self):
        x = T.Tensor.full((1, 2, 6, 6), 7.0)
        for kind in ("max", "avg"):
            y = T.pool2d(x, kind, 2, 2)
            assert np.all(y.array == 7.0)

    def test_four_element_mean(self):
        x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        y = T.pool2d(x, "avg", 2, 2)
        assert y.shape == (1, 1, 1, 1)
        assert y.array[0, 0, 0, 0] == 2.5

    def test_spec_max_case_matches_naive(self):
        rng = np.random.default_rng(42)
        x = rand_tensor(rng, 1, 3, 16, 16)
        y = T.pool2d(x, "max", 2, 2)
        assert bits_equal(y.array, oracles.pool2d_naive(x.array, "max", 2, 2))

    def test_zero_kernel_or_stride_rejected(self):
        x = T.Tensor.zeros(1, 1, 4, 4)
        with pytest.raises(ValueError):
            T.pool2d(x, "max", 0, 2)
        with pytest.raises(ValueError):
            T.pool2d(x, "avg", 2, 0)

    def test_window_larger_than_input_rejected(self):
        x = T.Tensor.zeros(1, 1, 3, 3)
        with pytest.raises(ShapeError):
            T.pool2d(x, "max", 4, 1)


class TestActivations:
    def test_leaky_branches(self):
        x = T.Tensor(np.array([[[[5.0, -10.0], [0.0, -1.0]]]], np.float32))
        y = T.leaky_relu(x, 10.0)
        assert y.array[0, 0, 0, 0] == 5.0
        assert y.array[0, 0, 0, 1] == -1.0
        assert y.array[0, 0, 1, 0] == 0.0

    def test_leaky_rejects_a_at_most_one(self):
        x = T.Tensor.zeros(1, 1, 1, 1)
        for a in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                T.leaky_relu(x, a)

    def test_leaky_monotone_and_identity_on_nonneg(self):
        rng = np.random.default_rng(0)
        vals = np.sort((rng.random(64, dtype=np.float32) * 8 - 4))
        x = T.Tensor(vals.reshape(1, 1, 8, 8))
        y = T.leaky_relu(x).array.reshape(-1)
        assert np.all(np.diff(y) >= 0)
        nonneg = vals >= 0
        assert np.array_equal(y[nonneg], vals[nonneg])

    def test_sigmoid_points(self):
        x = T.Tensor(np.array([[[[0.0, 40.0], [float(np.log(3.0)), -40.0]]]], np.float32))
        y = T.sigmoid(x).array
        assert y[0, 0, 0, 0] == 0.5
        assert abs(y[0, 0, 0, 1] - 1.0) < 1e-7
        assert abs(y[0, 0, 1, 0] - 0.75) < 1e-6

    def test_sigmoid_open_interval(self):
        x = T.Tensor(np.array([[[[-200.0, 200.0], [-40.0, 40.0]]]], np.float32))
        y = T.sigmoid(x).array
        assert np.all(y > 0.0)
        assert np.all(y < 1.0)


class TestCombinators:
    def test_concat_shapes(self):
        a = T.Tensor.zeros(1, 2, 4, 4)
        b = T.Tensor.zeros(1, 3, 4, 4)
        assert T.concat_channels(a, b).shape == (1, 5, 4, 4)

    def test_concat_with_empty_is_identity(self):
        rng = np.random.default_rng(1)
        a = rand_tensor(rng, 1, 3, 4, 4)
        empty = T.Tensor.zeros(1, 0, 4, 4)
        assert bits_equal(T.concat_channels(a, empty).array, a.array)

    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(2)
        a = rand_tensor(rng, 2, 3, 5, 5)
        b = rand_tensor(rng, 2, 4, 5, 5)
        joined = T.concat_channels(a, b)
        assert bits_equal(T.slice_channels(joined, 0, 3).array, a.array)
        assert bits_equal(T.slice_channels(joined, 3, 7).array, b.array)

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.concat_channels(T.Tensor.zeros(1, 1, 4, 4), T.Tensor.zeros(1, 1, 5, 4))

    def test_add_identity_and_mismatch(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, 1, 2, 3, 3)
        z = T.Tensor.zeros(1, 2, 3, 3)
        assert bits_equal(T.add(x, z).array, x.array)
        with pytest.raises(ShapeError):
            T.add(x, T.Tensor.zeros(1, 2, 4, 3))

    def test_broadcast_mul_identity(self):
        rng = np.random.default_rng(4)
        x = rand_tensor(rng, 2, 3, 4, 4)
        ones = T.Tensor(np.ones((2, 3, 1, 1), np.float32))
        assert bits_equal(T.broadcast_mul(x, ones).array, x.array)

    def test_broadcast_mul_spatial_map_matches_naive(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, 2, 3, 4, 4)
        m = rand_tensor(rng, 2, 1, 4, 4)
        got = T.broadcast_mul(x, m).array
        assert bits_equal(got, oracles.broadcast_mul_naive(x.array, m.array))

    def test_broadcast_mul_bad_shape_rejected(self):
        x = T.Tensor.zeros(1, 3, 4, 4)
        with pytest.raises(ShapeError):
            T.broadcast_mul(x, T.Tensor.zeros(1, 2, 1, 1))


class TestReductions:
    def test_constant_under_both(self):
        x = T.Tensor.full((1, 3, 4, 4), 2.5)
        for kind in ("avg", "max"):
            assert np.all(T.channel_pool(x, kind).array == 2.5)
            assert np.all(T.spatial_pool(x, kind).array == 2.5)

    def test_channel_avg_example(self):
        x = T.Tensor(np.array([[[[0.0, 0.0], [0.0, 4.0]]]], np.float32))
        assert T.channel_pool(x, "avg").array[0, 0, 0, 0] == 1.0

    def test_matches_naive(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, 2, 5, 6, 7)
        for kind in ("avg", "max"):
            assert bits_equal(T.channel_pool(x, kind).array,
                              oracles.channel_pool_naive(x.array, kind))
            assert bits_equal(T.spatial_pool(x, kind).array,
                              oracles.spatial_pool_naive(x.array, kind))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            T.channel_pool(T.Tensor.zeros(1, 0, 2, 2), "avg")


class TestUpsample:
    def test_single_pixel(self):
        x = T.Tensor(np.full((1, 1, 1, 1), 3.0, np.float32))
        y = T.upsample_nearest2x(x)
        assert y.shape == (1, 1, 2, 2)
        assert np.all(y.array == 3.0)

    def test_avg_downsample_inverts(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, 1, 3, 5, 5)
        up = T.upsample_nearest2x(x)
        down = T.pool2d(up, "avg", 2, 2)
        assert bits_equal(down.array, x.array)

    def test_matches_index_mapping(self):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, 2, 3, 4, 5)
        assert bits_equal(T.upsample_nearest2x(x).array, oracles.upsample2x_naive(x.array))


class TestRandomizedOracleBattery:
    """Seeded randomized comparison against the scalar references."""

    def test_conv_battery(self, monkeypatch):
        # Every case runs under the shape rule and under each forced schedule,
        # the blocked one with a random block width that need not divide oc.
        rng = np.random.default_rng(1234)
        for case in range(30):
            n = int(rng.integers(1, 3))
            k = int(rng.choice([1, 3, 7]))
            c = int(rng.integers(1, 3 if k == 7 else 6))
            oc = 1 if case % 5 == 0 else int(rng.integers(2, 11))
            h = int(rng.integers(k, 13))
            w = int(rng.integers(k, 13))
            s = int(rng.integers(1, 3))
            p = k // 2 if rng.random() < 0.5 else 0
            x = rand_tensor(rng, n, c, h, w)
            kern = (rng.random((oc, c, k, k), dtype=np.float32) * 2 - 1)
            bias = (rng.random(oc, dtype=np.float32) * 2 - 1)
            params = T.ConvParams(c, oc, k, stride=s, padding=p,
                                  weights=kern.reshape(-1), bias=bias)
            ref = oracles.conv2d_naive(x.array, kern, bias, s, p)
            oh, ow = ref.shape[2:]
            block = int(rng.integers(1, 5))
            for schedule in SCHEDULES:
                with monkeypatch.context() as mp:
                    if schedule != "default":
                        force_schedule(mp, schedule, n, oh, ow, block)
                    got = T.conv2d(x, params).array
                assert bits_equal(got, ref), f"conv case {case} diverged under {schedule}"

    def test_pool_battery(self):
        rng = np.random.default_rng(99)
        for case in range(30):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(4, 17))
            w = int(rng.integers(4, 17))
            k = int(rng.integers(2, 4))
            s = int(rng.integers(1, 3))
            kind = "max" if case % 2 else "avg"
            x = rand_tensor(rng, 1, c, h, w)
            got = T.pool2d(x, kind, k, s).array
            assert bits_equal(got, oracles.pool2d_naive(x.array, kind, k, s))
